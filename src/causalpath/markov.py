"""Jointly Markov ground truth for pairs of discrete processes.

An order-d JointMarkovModel specifies, for every length-d window of (x, y)
pairs, one transition row for X and an independent one for Y (no instantaneous
coupling), plus a distribution over the initial window. On top of it this
module provides:

- seeded simulation;
- exact conditional distributions of the next X symbol given
  (a) the full joint window ("complete"),
  (b) the target's own past only ("restricted"), via a recursive filter over
      the hidden side process and, independently, via brute-force
      marginalization over all hidden paths,
  (c) the target's past plus a stale side history ("partial");
- the per-history causal measure (KL from restricted/partial to complete) and
  whole-path variants;
- stationary analysis of the lifted window chain with explicit ergodicity
  detection;
- exact partial/truncated directed-information rates by finite-window
  enumeration, a Monte Carlo directed-information rate with batch-means
  standard errors, and exact finite-horizon enumeration identities.

Window encoding: a window of pairs is an integer in base B = m_x * m_y with
the most recent pair in the lowest digit; a pair packs as x + m_x * y. Model
files use JSON with windows written oldest first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Alphabet, ProbDist, SymbolSeq, kl_divergence

_BRUTE_PATH_LIMIT = 2_000_000


class NonErgodicError(ValueError):
    """The lifted window chain is not irreducible and aperiodic."""


def _as_array(seq) -> np.ndarray:
    if isinstance(seq, SymbolSeq):
        return seq.data
    return np.asarray(seq, dtype=np.int64)


@dataclass(frozen=True)
class StationaryDist:
    """Invariant distribution over lifted window states, with solve residual."""

    probs: np.ndarray
    residual: float


class JointMarkovModel:
    """Order-d joint Markov kernel for (X, Y) with factorized transitions."""

    def __init__(
        self,
        order: int,
        alphabet_x: Alphabet,
        alphabet_y: Alphabet,
        kernel_x: np.ndarray,
        kernel_y: np.ndarray,
        initial: Optional[np.ndarray] = None,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.alphabet_x = alphabet_x
        self.alphabet_y = alphabet_y
        self.mx = alphabet_x.size
        self.my = alphabet_y.size
        self.pair_count = self.mx * self.my
        self.num_windows = self.pair_count**order
        self.kernel_x = self._check_kernel(kernel_x, self.mx, "kernel_x")
        self.kernel_y = self._check_kernel(kernel_y, self.my, "kernel_y")
        self.has_custom_initial = initial is not None
        self._initial: Optional[np.ndarray] = None
        if initial is not None:
            arr = np.asarray(initial, dtype=np.float64)
            if arr.shape != (self.num_windows,):
                raise ValueError("initial distribution has wrong length")
            # written so that NaN and inf entries fail
            if not (np.all(arr >= 0) and abs(arr.sum() - 1.0) <= 1e-9):
                raise ValueError("initial distribution is not a distribution")
            self._initial = arr / arr.sum()
        self._pair_trans: Optional[np.ndarray] = None
        self._win_x: Optional[np.ndarray] = None
        self._win_y: Optional[np.ndarray] = None

    def _check_kernel(self, kernel, m, name) -> np.ndarray:
        arr = np.asarray(kernel, dtype=np.float64)
        if arr.shape != (self.num_windows, m):
            raise ValueError(
                f"{name} must have shape ({self.num_windows}, {m}), got {arr.shape}"
            )
        # written so that NaN and inf entries fail
        if not np.all(arr >= 0):
            raise ValueError(f"{name} has negative or NaN entries")
        sums = arr.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            raise ValueError(f"{name} rows must sum to 1")
        return arr / sums[:, None]

    # -- window arithmetic ----------------------------------------------------

    def pair_index(self, x: int, y: int) -> int:
        return int(x) + self.mx * int(y)

    def window_index(self, x_window, y_window) -> int:
        """Window code from symbol sequences given oldest first."""
        xw = _as_array(x_window)
        yw = _as_array(y_window)
        if len(xw) != self.order or len(yw) != self.order:
            raise ValueError(f"window length must equal order {self.order}")
        idx = 0
        for j in range(self.order):
            # most recent pair in the lowest digit
            idx += self.pair_index(xw[-1 - j], yw[-1 - j]) * self.pair_count**j
        return idx

    def decode_window(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of window_index; returns (x_window, y_window) oldest first."""
        return self.window_x_positions[:, idx].copy(), self.window_y_positions[:, idx].copy()

    def shift_window(self, idx: int, pair: int) -> int:
        return pair + self.pair_count * (idx % self.pair_count ** (self.order - 1))

    @property
    def window_x_positions(self) -> np.ndarray:
        """(d, W) array: x symbol at window position t (oldest first) per state."""
        if self._win_x is None:
            self._build_window_tables()
        return self._win_x

    @property
    def window_y_positions(self) -> np.ndarray:
        if self._win_y is None:
            self._build_window_tables()
        return self._win_y

    def _build_window_tables(self) -> None:
        d, B = self.order, self.pair_count
        idx = np.arange(self.num_windows)
        self._win_x = np.empty((d, self.num_windows), dtype=np.int64)
        self._win_y = np.empty((d, self.num_windows), dtype=np.int64)
        for t in range(d):
            pair = (idx // B ** (d - 1 - t)) % B
            self._win_x[t] = pair % self.mx
            self._win_y[t] = pair // self.mx

    @property
    def pair_transition(self) -> np.ndarray:
        """P[w, pair] = Kx[w, x'] * Ky[w, y'] (factorized next-pair law)."""
        if self._pair_trans is None:
            # flat pair index x + mx*y: x must be the fastest axis
            self._pair_trans = np.einsum(
                "wx,wy->wyx", self.kernel_x, self.kernel_y
            ).reshape(self.num_windows, self.pair_count)
        return self._pair_trans

    @property
    def initial(self) -> np.ndarray:
        """Initial window distribution (stationary unless customized)."""
        if self._initial is None:
            self._initial = stationary_distribution(self).probs
        return self._initial

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = []
        for w in range(self.num_windows):
            xw, yw = self.decode_window(w)
            rows.append(
                {
                    "x_window": xw.tolist(),
                    "y_window": yw.tolist(),
                    "x_probs": self.kernel_x[w].tolist(),
                    "y_probs": self.kernel_y[w].tolist(),
                }
            )
        out = {
            "format": "causalpath-model",
            "version": 1,
            "order": self.order,
            "alphabet_x": self.mx,
            "alphabet_y": self.my,
            "kernel": rows,
        }
        if self.has_custom_initial:
            out["initial"] = [
                {
                    "x_window": self.decode_window(w)[0].tolist(),
                    "y_window": self.decode_window(w)[1].tolist(),
                    "prob": float(self.initial[w]),
                }
                for w in range(self.num_windows)
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointMarkovModel":
        if data.get("format") != "causalpath-model":
            raise ValueError("not a causalpath model file")
        order = int(data["order"])
        ax, ay = Alphabet(int(data["alphabet_x"])), Alphabet(int(data["alphabet_y"]))
        nwin = (ax.size * ay.size) ** order
        probe = cls(
            order,
            ax,
            ay,
            np.full((nwin, ax.size), 1.0 / ax.size),
            np.full((nwin, ay.size), 1.0 / ay.size),
        )
        kx = np.empty((nwin, ax.size))
        ky = np.empty((nwin, ay.size))
        covered = set()
        for row in data["kernel"]:
            w = probe.window_index(row["x_window"], row["y_window"])
            kx[w] = row["x_probs"]
            ky[w] = row["y_probs"]
            covered.add(w)
        if len(covered) != nwin:
            raise ValueError("model file does not cover every window")
        init = None
        if "initial" in data:
            init = np.zeros(nwin)
            for row in data["initial"]:
                init[probe.window_index(row["x_window"], row["y_window"])] = row["prob"]
        return cls(order, ax, ay, kx, ky, init)

    def swapped(self) -> "JointMarkovModel":
        """The same joint law with the roles of the two processes exchanged."""
        nwin = self.num_windows
        kx = np.empty((nwin, self.my))
        ky = np.empty((nwin, self.mx))
        init = np.empty(nwin) if self.has_custom_initial else None
        perm = np.empty(nwin, dtype=np.int64)
        for w in range(nwin):
            xw, yw = self.decode_window(w)
            swapped_w = 0
            for j in range(self.order):
                swapped_w += (int(yw[-1 - j]) + self.my * int(xw[-1 - j])) * self.pair_count**j
            perm[w] = swapped_w
        kx[perm] = self.kernel_y
        ky[perm] = self.kernel_x
        if init is not None:
            init[perm] = self.initial
        return JointMarkovModel(
            self.order, self.alphabet_y, self.alphabet_x, kx, ky, init
        )

    def save(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(self.to_json_dict(), fp, indent=1)

    @classmethod
    def load(cls, path) -> "JointMarkovModel":
        with open(path) as fp:
            return cls.from_json_dict(json.load(fp))


def random_model(
    order: int,
    mx: int,
    my: int,
    rng: np.random.Generator,
    min_prob: float = 0.02,
) -> JointMarkovModel:
    """Random strictly positive model; min_prob floors every kernel entry,
    which guarantees an ergodic lifted chain."""
    ax, ay = Alphabet(mx), Alphabet(my)
    nwin = (mx * my) ** order

    def rows(m: int) -> np.ndarray:
        raw = rng.dirichlet(np.ones(m), size=nwin)
        return raw * (1.0 - m * min_prob) + min_prob

    return JointMarkovModel(order, ax, ay, rows(mx), rows(my))


# -- simulation ------------------------------------------------------------------


def simulate(model: JointMarkovModel, n: int, seed: int) -> tuple[SymbolSeq, SymbolSeq]:
    """Sample n steps of (X, Y); deterministic given the seed.

    The first `order` symbols come from the model's initial window
    distribution, the rest from the factorized kernel.
    """
    d = model.order
    if n < d:
        raise ValueError(f"n must be at least the model order {d}")
    rng = np.random.default_rng(seed)
    x = np.empty(n, dtype=np.int64)
    y = np.empty(n, dtype=np.int64)
    widx = int(rng.choice(model.num_windows, p=model.initial))
    xw, yw = model.decode_window(widx)
    x[:d], y[:d] = xw, yw
    cum_x = np.cumsum(model.kernel_x, axis=1)
    cum_y = np.cumsum(model.kernel_y, axis=1)
    u = rng.random((max(n - d, 1), 2))
    for t in range(d, n):
        xs = min(int(np.searchsorted(cum_x[widx], u[t - d, 0], side="right")), model.mx - 1)
        ys = min(int(np.searchsorted(cum_y[widx], u[t - d, 1], side="right")), model.my - 1)
        x[t], y[t] = xs, ys
        widx = model.shift_window(widx, model.pair_index(xs, ys))
    return SymbolSeq(model.alphabet_x, x), SymbolSeq(model.alphabet_y, y)


# -- exact conditional distributions ----------------------------------------------


def true_complete_dist(model: JointMarkovModel, x_window, y_window) -> ProbDist:
    """Kernel row for X at the given joint window (oldest first)."""
    w = model.window_index(x_window, y_window)
    return ProbDist(model.alphabet_x, model.kernel_x[w])


class RestrictedFilter:
    """Recursive computation of p(next X | observed X past), marginalizing Y.

    Maintains a posterior over the hidden side-process window; predict()
    returns p(x_i | x^{i-1}) exactly and observe() folds in the next revealed
    target symbol. Raises ValueError when the observed sequence has zero
    probability under the model.
    """

    def __init__(self, model: JointMarkovModel):
        self.model = model
        self._i = 0
        self._w = model.initial.copy()  # joint over initial windows while i < d
        self._beta: Optional[np.ndarray] = None  # posterior over y-windows
        self._xwin = 0  # observed x-window code, most recent low digit
        d, mx, my = model.order, model.mx, model.my
        xcodes = np.arange(mx**d)
        ycodes = np.arange(my**d)
        widx = np.zeros((mx**d, my**d), dtype=np.int64)
        for j in range(d):
            xd = (xcodes // mx**j) % mx
            yd = (ycodes // my**j) % my
            widx += (xd[:, None] + mx * yd[None, :]) * model.pair_count**j
        self._pairidx = widx
        self._y_rem = ycodes % my ** (d - 1)

    def predict(self) -> ProbDist:
        m = self.model
        if self._i < m.order:
            probs = np.zeros(m.mx)
            np.add.at(probs, m.window_x_positions[self._i], self._w)
            total = probs.sum()
            if total <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            return ProbDist(m.alphabet_x, probs / total)
        rows = m.kernel_x[self._pairidx[self._xwin]]
        probs = self._beta @ rows
        return ProbDist(m.alphabet_x, probs / probs.sum())

    def observe(self, symbol: int) -> None:
        m = self.model
        sym = int(symbol)
        if not (0 <= sym < m.mx):
            raise ValueError("symbol out of alphabet")
        d, mx, my = m.order, m.mx, m.my
        if self._i < d:
            self._w = np.where(m.window_x_positions[self._i] == sym, self._w, 0.0)
            total = self._w.sum()
            if total <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            self._w /= total
            self._i += 1
            if self._i == d:
                ycode = np.zeros(m.num_windows, dtype=np.int64)
                xcode = np.zeros(m.num_windows, dtype=np.int64)
                for j in range(d):
                    ycode += m.window_y_positions[d - 1 - j] * my**j
                    xcode += m.window_x_positions[d - 1 - j] * mx**j
                beta = np.zeros(my**d)
                np.add.at(beta, ycode, self._w)
                self._beta = beta
                # all remaining mass shares the one observed x-window
                self._xwin = int(xcode[int(np.argmax(self._w))])
            return
        widx = self._pairidx[self._xwin]
        contrib = self._beta * m.kernel_x[widx, sym]
        new_beta = np.zeros(my**d)
        for y_new in range(my):
            np.add.at(
                new_beta,
                y_new + my * self._y_rem,
                contrib * m.kernel_y[widx, y_new],
            )
        total = new_beta.sum()
        if total <= 0.0:
            raise ValueError("model cannot produce the observed sequence")
        self._beta = new_beta / total
        self._xwin = sym + mx * (self._xwin % mx ** (d - 1))
        self._i += 1


def stale_history_dist(model: JointMarkovModel, x_hist, y_hist) -> ProbDist:
    """Exact p(next X | x_hist, y_hist) where y_hist is a (possibly shorter)
    prefix of the side history; hidden side symbols are enumerated.

    With an empty y_hist this is the restricted distribution, with a
    full-length one the complete distribution. Brute force with an explicit
    size limit; intended as an independent oracle on short histories.
    """
    m = model
    xs = _as_array(x_hist)
    ys = _as_array(y_hist)
    i1 = len(xs)  # number of observed target symbols
    s = len(ys)
    if s > i1:
        raise ValueError("side history longer than target history")
    d = m.order
    if i1 < d:
        # next symbol position is still inside the initial window
        mask = np.ones(m.num_windows, dtype=bool)
        for t in range(i1):
            mask &= m.window_x_positions[t] == xs[t]
        for t in range(s):
            mask &= m.window_y_positions[t] == ys[t]
        w = np.where(mask, m.initial, 0.0)
        probs = np.zeros(m.mx)
        np.add.at(probs, m.window_x_positions[i1], w)
        total = probs.sum()
        if total <= 0.0:
            raise ValueError("history has zero probability under the model")
        return ProbDist(m.alphabet_x, probs / total)
    hidden = i1 - s
    paths = m.my**hidden
    if paths > _BRUTE_PATH_LIMIT:
        raise ValueError(
            f"brute-force enumeration of {paths} hidden paths exceeds the limit"
        )
    codes = np.arange(paths)
    yfull = np.empty((paths, i1), dtype=np.int64)
    yfull[:, :s] = ys
    for j in range(hidden):
        yfull[:, s + j] = (codes // m.my**j) % m.my
    widx = np.zeros(paths, dtype=np.int64)
    for j in range(d):
        widx += (xs[d - 1 - j] + m.mx * yfull[:, d - 1 - j]) * m.pair_count**j
    weights = m.initial[widx].copy()
    for t in range(d, i1):
        weights *= m.kernel_x[widx, xs[t]] * m.kernel_y[widx, yfull[:, t]]
        widx = m.pair_count * (widx % m.pair_count ** (d - 1)) + (
            xs[t] + m.mx * yfull[:, t]
        )
    probs = weights @ m.kernel_x[widx]
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("history has zero probability under the model")
    return ProbDist(m.alphabet_x, probs / total)


def true_restricted_brute(model: JointMarkovModel, x_hist) -> ProbDist:
    """Exact restricted distribution by summation over all hidden side paths
    (independent oracle for the recursive filter)."""
    return stale_history_dist(model, x_hist, [])


def true_partial_dist(model: JointMarkovModel, x_window, y_window, k: int) -> ProbDist:
    """Exact p(next X | own past, side past withheld for the last k steps)
    from its minimal sufficient finite window.

    x_window covers the last d+k target symbols (oldest first); y_window the
    d side symbols aligned with the oldest part of x_window. The k hidden
    side symbols are marginalized exactly.
    """
    m = model
    if k < 1:
        raise ValueError("staleness k must be >= 1")
    d = m.order
    xs = _as_array(x_window)
    ys = _as_array(y_window)
    if len(xs) != d + k or len(ys) != d:
        raise ValueError(
            f"need x window of length d+k={d + k} and y window of length d={d}"
        )
    paths = m.my**k
    codes = np.arange(paths)
    yfull = np.empty((paths, d + k), dtype=np.int64)
    yfull[:, :d] = ys
    for j in range(k):
        yfull[:, d + j] = (codes // m.my**j) % m.my
    widx = np.zeros(paths, dtype=np.int64)
    for j in range(d):
        widx += (xs[d - 1 - j] + m.mx * yfull[:, d - 1 - j]) * m.pair_count**j
    weights = np.ones(paths)
    for t in range(d, d + k):
        weights *= m.kernel_x[widx, xs[t]] * m.kernel_y[widx, yfull[:, t]]
        widx = m.pair_count * (widx % m.pair_count ** (d - 1)) + (
            xs[t] + m.mx * yfull[:, t]
        )
    probs = weights @ m.kernel_x[widx]
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("window has zero probability under the model")
    return ProbDist(m.alphabet_x, probs / total)


# -- causal measures ---------------------------------------------------------------


def true_causal_measure(model: JointMarkovModel, x_hist, y_hist) -> float:
    """KL (bits) from the restricted to the complete next-step distribution
    of X at the realized history."""
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    if len(xs) != len(ys):
        raise ValueError("histories must have equal length")
    if len(xs) < model.order:
        raise ValueError("history shorter than the model order")
    complete = true_complete_dist(model, xs[-model.order :], ys[-model.order :])
    filt = RestrictedFilter(model)
    for s in xs:
        filt.observe(int(s))
    return kl_divergence(complete, filt.predict())


def true_partial_causal_measure(
    model: JointMarkovModel, x_hist, y_hist, k: int
) -> float:
    """KL (bits) from the stale-history partial to the complete distribution."""
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    if len(xs) != len(ys):
        raise ValueError("histories must have equal length")
    d = model.order
    if len(xs) < d + k:
        raise ValueError("history shorter than d+k")
    complete = true_complete_dist(model, xs[-d:], ys[-d:])
    partial = true_partial_dist(model, xs[-(d + k) :], ys[-(d + k) : -k], k)
    return kl_divergence(complete, partial)


def causal_measure_path(model: JointMarkovModel, x_hist, y_hist) -> np.ndarray:
    """True causal measure at every time step of a realized pair of paths."""
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    n, d = len(xs), model.order
    out = np.empty(n)
    filt = RestrictedFilter(model)
    widx = None
    for i in range(n):
        if i < d:
            complete = stale_history_dist(model, xs[:i], ys[:i])
        else:
            complete = ProbDist(model.alphabet_x, model.kernel_x[widx])
        out[i] = kl_divergence(complete, filt.predict())
        filt.observe(int(xs[i]))
        if i + 1 >= d:
            widx = model.window_index(xs[i + 1 - d : i + 1], ys[i + 1 - d : i + 1])
    return out


def partial_measure_path(model: JointMarkovModel, x_hist, y_hist, k: int) -> np.ndarray:
    """True partial causal measure (staleness k) at every time step."""
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    n, d = len(xs), model.order
    out = np.empty(n)
    cache: dict = {}
    for i in range(n):
        if i < d:
            complete = stale_history_dist(model, xs[:i], ys[:i])
        else:
            complete = ProbDist(
                model.alphabet_x,
                model.kernel_x[model.window_index(xs[i - d : i], ys[i - d : i])],
            )
        if i < d + k:
            partial = stale_history_dist(model, xs[:i], ys[: max(0, i - k)])
        else:
            key = (tuple(xs[i - d - k : i]), tuple(ys[i - d - k : i - k]))
            partial = cache.get(key)
            if partial is None:
                partial = true_partial_dist(
                    model, xs[i - d - k : i], ys[i - d - k : i - k], k
                )
                cache[key] = partial
        out[i] = kl_divergence(complete, partial)
    return out


# -- stationary analysis -------------------------------------------------------------


def _window_transition_matrix(model: JointMarkovModel) -> np.ndarray:
    W, B = model.num_windows, model.pair_count
    T = np.zeros((W, W))
    P = model.pair_transition
    for w in range(W):
        base = B * (w % B ** (model.order - 1))
        T[w, base : base + B] += P[w]
    return T


def _period_of_strongly_connected(adj: list[np.ndarray]) -> int:
    """gcd of cycle-length differences via BFS layering (graph must be
    strongly connected)."""
    n = len(adj)
    dist = [-1] * n
    dist[0] = 0
    order = [0]
    head = 0
    g = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
            else:
                g = math.gcd(g, dist[u] + 1 - dist[v])
    return abs(g)


def stationary_distribution(model: JointMarkovModel) -> StationaryDist:
    """Invariant distribution of the lifted window chain.

    Raises NonErgodicError when the positive-transition digraph is not
    strongly connected, the chain is periodic, or the linear solve fails to
    reach residual 1e-10.
    """
    T = _window_transition_matrix(model)
    W = T.shape[0]
    adj = [np.nonzero(T[w] > 0.0)[0] for w in range(W)]
    radj: list[list[int]] = [[] for _ in range(W)]
    for u in range(W):
        for v in adj[u]:
            radj[int(v)].append(u)

    def reaches_all(graph) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in graph[u]:
                v = int(v)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == W

    if not (reaches_all(adj) and reaches_all(radj)):
        raise NonErgodicError("window chain is not irreducible")
    if _period_of_strongly_connected(adj) != 1:
        raise NonErgodicError("window chain is periodic")
    A = T.T - np.eye(W)
    A[-1, :] = 1.0
    b = np.zeros(W)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NonErgodicError(f"stationary solve failed: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ T - pi)))
    if residual > 1e-10:
        raise NonErgodicError(f"stationary residual {residual} exceeds 1e-10")
    return StationaryDist(pi, residual)


def _extended_window_dist(model: JointMarkovModel, length: int) -> np.ndarray:
    """Stationary joint over pair windows of the given length (most recent
    pair in the lowest digit)."""
    d, B = model.order, model.pair_count
    if length < d:
        raise ValueError("extended window must be at least the order")
    arr = stationary_distribution(model).probs
    P = model.pair_transition
    for _ in range(length - d):
        mods = np.arange(arr.size) % B**d
        # flat index = old_window * B + new_pair: new pair in the lowest digit
        arr = (arr[:, None] * P[mods]).ravel()
    return arr


# -- information rates ----------------------------------------------------------------


def exact_pdi_rate(model: JointMarkovModel, k: int) -> float:
    """Exact partial directed-information rate (bits/step) at staleness k:
    the stationary expectation of KL(complete || partial)."""
    if k < 1:
        raise ValueError("staleness k must be >= 1")
    d, B = model.order, model.pair_count
    D = d + k
    pi_ext = _extended_window_dist(model, D)
    terms = []
    for w in range(B**D):
        p = pi_ext[w]
        if p <= 0.0:
            continue
        xs = np.empty(D, dtype=np.int64)
        ys = np.empty(D, dtype=np.int64)
        for j in range(D):
            pair = (w // B**j) % B
            xs[D - 1 - j] = pair % model.mx
            ys[D - 1 - j] = pair // model.mx
        complete = ProbDist(model.alphabet_x, model.kernel_x[w % B**d])
        partial = true_partial_dist(model, xs, ys[:d], k)
        terms.append(p * kl_divergence(complete, partial))
    return max(math.fsum(terms), 0.0)


def exact_tdi_rate(model: JointMarkovModel, k: int) -> float:
    """Exact truncated directed-information rate (bits/step) of window k:
    the stationary conditional mutual information between the next target
    symbol and the last k side symbols given the last k target symbols.

    Upper-bounds the directed-information rate when k >= order.
    """
    if k < 1:
        raise ValueError("window k must be >= 1")
    d, B = model.order, model.pair_count
    wlen = max(d, k)
    pi_ext = _extended_window_dist(model, wlen)
    wins = np.arange(B**wlen)
    gamma = pi_ext[:, None] * model.kernel_x[wins % B**d]
    xk = np.zeros(B**wlen, dtype=np.int64)
    yk = np.zeros(B**wlen, dtype=np.int64)
    for j in range(k):
        pair = (wins // B**j) % B
        xk += (pair % model.mx) * model.mx**j
        yk += (pair // model.mx) * model.my**j
    nx, ny = model.mx**k, model.my**k
    J = np.zeros((nx, ny, model.mx))
    np.add.at(J, (xk, yk), gamma)
    Jxy = J.sum(axis=2)
    Jxa = J.sum(axis=1)
    Jx = Jxy.sum(axis=1)
    terms = []
    nz = np.argwhere(J > 0.0)
    for ix, iy, a in nz:
        v = J[ix, iy, a]
        terms.append(v * math.log2(v * Jx[ix] / (Jxy[ix, iy] * Jxa[ix, a])))
    return max(math.fsum(terms), 0.0)


@dataclass(frozen=True)
class MCRateEstimate:
    """Monte Carlo rate with a batch-means standard error."""

    rate: float
    stderr: float
    steps: int
    batches: int


def mc_di_rate(
    model: JointMarkovModel, n: int, seed: int, batches: int = 100
) -> MCRateEstimate:
    """Monte Carlo directed-information rate: the average true causal measure
    along one simulated path, with a batch-means standard error."""
    d = model.order
    if n < d + 2 * batches:
        raise ValueError("n too small for the requested number of batches")
    x, y = simulate(model, n, seed)
    xs, ys = x.data, y.data
    filt = RestrictedFilter(model)
    for t in range(d):
        filt.observe(int(xs[t]))
    widx = model.window_index(xs[:d], ys[:d])
    kx = model.kernel_x
    log2 = math.log2
    vals = np.empty(n - d)
    for t in range(d, n):
        row = kx[widx]
        rest = filt.predict().probs
        acc = 0.0
        for a in range(model.mx):
            pa = row[a]
            if pa > 0.0:
                acc += pa * log2(pa / rest[a])
        vals[t - d] = max(acc, 0.0)
        filt.observe(int(xs[t]))
        widx = model.shift_window(widx, model.pair_index(int(xs[t]), int(ys[t])))
    steps = vals.size
    per_batch = steps // batches
    means = vals[: per_batch * batches].reshape(batches, per_batch).mean(axis=1)
    stderr = float(means.std(ddof=1) / math.sqrt(batches))
    return MCRateEstimate(float(vals.mean()), stderr, steps, batches)


# -- exact finite-horizon enumeration ---------------------------------------------------


def _path_table(model: JointMarkovModel, n: int):
    """All length-n joint paths: per-path probability plus pair/x/y digits.

    Path codes are time-major with the most recent step in the lowest digit,
    so the length-j prefix of a path is its code divided by B**(n-j).
    """
    d, B = model.order, model.pair_count
    if B**n > _BRUTE_PATH_LIMIT:
        raise ValueError("horizon too large for exact enumeration")
    codes = np.arange(B**n)
    pairs = np.empty((B**n, n), dtype=np.int64)
    for t in range(n):
        pairs[:, t] = (codes // B ** (n - 1 - t)) % B
    xdig = pairs % model.mx
    ydig = pairs // model.mx
    widx = np.zeros(B**n, dtype=np.int64)
    for j in range(d):
        widx += pairs[:, d - 1 - j] * B**j
    prob = model.initial[widx].copy()
    for t in range(d, n):
        prob *= model.kernel_x[widx, xdig[:, t]] * model.kernel_y[widx, ydig[:, t]]
        widx = B * (widx % B ** (d - 1)) + pairs[:, t]
    return prob, pairs, xdig, ydig


def _initial_conditionals(model: JointMarkovModel) -> list[np.ndarray]:
    """For each t < d: p(x_t | pairs before t) within the initial window,
    as a (B**t, mx) table indexed by the pair-prefix code."""
    d, B = model.order, model.pair_count
    out = []
    for t in range(d):
        joint = np.zeros((B**t, model.mx))
        pref = np.zeros(model.num_windows, dtype=np.int64)
        for u in range(t):
            pair_u = model.window_x_positions[u] + model.mx * model.window_y_positions[u]
            pref = pref * B + pair_u
        np.add.at(joint, (pref, model.window_x_positions[t]), model.initial)
        denom = joint.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(denom > 0.0, joint / denom, 0.0)
        out.append(cond)
    return out


def directed_information(model: JointMarkovModel, n: int) -> float:
    """Finite-horizon directed information (bits) from the side process's
    strictly prior past to the target, as an entropy difference computed by
    exact enumeration: H(X^n) minus the causally conditional entropy."""
    d, B = model.order, model.pair_count
    prob, pairs, xdig, _ = _path_table(model, n)
    support = prob > 0.0
    mx = model.mx
    xcode = np.zeros(prob.size, dtype=np.int64)
    for t in range(n):
        xcode = xcode * mx + xdig[:, t]
    px = np.bincount(xcode, weights=prob, minlength=mx**n)
    hx = -math.fsum(p * math.log2(p) for p in px if p > 0.0)
    # complete per-step log-factors along each path
    loglik = np.zeros(prob.size)
    init_cond = _initial_conditionals(model)
    pref = np.zeros(prob.size, dtype=np.int64)
    for t in range(d):
        factor = init_cond[t][pref, xdig[:, t]]
        loglik[support] += np.log2(factor[support])
        pref = pref * B + pairs[:, t]
    widx = np.zeros(prob.size, dtype=np.int64)
    for j in range(d):
        widx += pairs[:, d - 1 - j] * B**j
    for t in range(d, n):
        factor = model.kernel_x[widx, xdig[:, t]]
        loglik[support] += np.log2(factor[support])
        widx = B * (widx % B ** (d - 1)) + pairs[:, t]
    h_causal = -math.fsum((prob[support] * loglik[support]).tolist())
    return hx - h_causal


def expected_causal_sum(model: JointMarkovModel, n: int) -> float:
    """Sum over i <= n of the expected causal measure E[KL(complete ||
    restricted)] at time i, by exact enumeration over histories."""
    d, B = model.order, model.pair_count
    mx = model.mx
    prob, pairs, xdig, _ = _path_table(model, n)
    init_cond = _initial_conditionals(model)
    total_terms = []
    xc = np.zeros(prob.size, dtype=np.int64)  # x-prefix code, grows per step
    for i in range(1, n + 1):
        t = i - 1  # 0-based position being predicted
        hist = np.arange(B**t)
        # time-major codes: paths sharing a length-t prefix are contiguous
        p_hist = prob.reshape(B**t, B ** (n - t)).sum(axis=1)
        # complete rows per history
        if t < d:
            crows = init_cond[t]
        else:
            crows = model.kernel_x[hist % B**d]
        # restricted rows per history, from x-marginal prefix tables
        px_prev = np.bincount(xc, weights=prob, minlength=mx**t)
        px_next = np.bincount(xc * mx + xdig[:, t], weights=prob, minlength=mx ** (t + 1))
        hx_digits = np.zeros(B**t, dtype=np.int64)
        for u in range(t):
            hx_digits = hx_digits * mx + ((hist // B ** (t - 1 - u)) % B) % mx
        denom = px_prev[hx_digits]
        step_terms = []
        for h in np.nonzero(p_hist > 0.0)[0]:
            ph = p_hist[h]
            c = crows[h]
            acc = 0.0
            for a in range(mx):
                ca = c[a]
                if ca > 0.0:
                    r = px_next[hx_digits[h] * mx + a] / denom[h]
                    acc += ca * math.log2(ca / r)
            step_terms.append(ph * max(acc, 0.0))
        total_terms.append(math.fsum(step_terms))
        xc = xc * mx + xdig[:, t]
    return math.fsum(total_terms)
