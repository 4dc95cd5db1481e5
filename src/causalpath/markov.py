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
- exact partial/truncated directed-information rates, both conditional
  mutual informations of one stationary (window, next symbol) table, a Monte
  Carlo directed-information rate (the mean of the causal-measure path) with
  batch-means standard errors, and exact finite-horizon enumeration
  identities.

Window encoding: a window of pairs is an integer in base B = m_x * m_y, the
most recent pair in the lowest digit (_codes encodes, _digits decodes); a
pair packs as x + m_x * y. Model files (JSON) list windows oldest first.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Alphabet, ProbDist, SymbolSeq, _kl_bits, kl_divergence

_BRUTE_PATH_LIMIT = 2_000_000
# Steps per block of simulation and of the KL along a path: bounds temporaries.
_BLOCK = 512
# Steps per span of the filter along a path: bounds temporaries.
_SPAN = 2**16
# The filter scan cuts a span into blocks of about sqrt(N) steps, never fewer
# than _SCAN_MIN_BLOCK: the first block replays from the exact posterior with
# the serial arithmetic, so a path's first 256 filtered steps agree bit for
# bit with per-symbol stepping. Above _SCAN_MAX_NY hidden side windows a block
# product (ny**3 per step) costs more than the serial steps it replaces, so
# the span runs as one block.
_SCAN_MIN_BLOCK = 256
_SCAN_MAX_NY = 16


class NonErgodicError(ValueError):
    """The lifted window chain is not irreducible and aperiodic."""


def _as_array(seq) -> np.ndarray:
    if isinstance(seq, SymbolSeq):
        return seq.data
    arr = np.asarray(seq)
    # a cast to int64 would truncate 1.9 to the symbol 1
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.trunc(arr))):
        raise ValueError("symbols must be integers")
    return np.asarray(arr, dtype=np.int64)


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """Integer codes of base-`base` digits given oldest (most significant)
    first along the last axis: Horner's rule, updated in place."""
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for j in range(digits.shape[-1]):
        out *= base
        out += digits[..., j]
    return out


def _digits(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """Inverse of _codes: the `length` digits of each code, most significant
    first along a new last axis."""
    out = codes[..., None] // base ** np.arange(length - 1, -1, -1)
    out %= base
    return out


def _window_code(order: int, mx: int, my: int, x_window, y_window) -> int:
    """Code of a window of `order` pairs from its target and side symbols,
    oldest first; raises ValueError on a wrong length or a symbol out of range."""
    xw, yw = _as_array(x_window), _as_array(y_window)
    if len(xw) != order or len(yw) != order:
        raise ValueError(f"window length must equal order {order}")
    if np.any((xw < 0) | (xw >= mx)) or np.any((yw < 0) | (yw >= my)):
        raise ValueError("window symbol out of alphabet range")
    return int(_codes(xw + mx * yw, mx * my))


def _check_symbols(model: JointMarkovModel, xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise ValueError unless every target and side symbol is in its alphabet."""
    for seq, m in ((xs, model.mx), (ys, model.my)):
        if seq.size and (seq.min() < 0 or seq.max() >= m):
            raise ValueError("symbol out of alphabet")


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
        return _window_code(self.order, self.mx, self.my, x_window, y_window)

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
        pairs = _digits(np.arange(self.num_windows), self.pair_count, self.order).T
        self._win_x, self._win_y = pairs % self.mx, pairs // self.mx

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
        windows = list(zip(self.window_x_positions.T.tolist(), self.window_y_positions.T.tolist()))
        rows = [
            {"x_window": xw, "y_window": yw, "x_probs": px, "y_probs": py}
            for (xw, yw), px, py in zip(windows, self.kernel_x.tolist(), self.kernel_y.tolist())
        ]
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
                {"x_window": list(xw), "y_window": list(yw), "prob": p}  # unshared with rows
                for (xw, yw), p in zip(windows, self.initial.tolist())
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointMarkovModel":
        if data.get("format") != "causalpath-model":
            raise ValueError("not a causalpath model file")
        order = int(data["order"])
        ax, ay = Alphabet(int(data["alphabet_x"])), Alphabet(int(data["alphabet_y"]))
        if order < 1:
            raise ValueError("order must be >= 1")
        nwin = (ax.size * ay.size) ** order

        def windows(section: str) -> list:
            seen = {}
            for row in data[section]:
                w = _window_code(order, ax.size, ay.size, row["x_window"], row["y_window"])
                if seen.setdefault(w, row) is not row:
                    raise ValueError(
                        f"{section} lists window x={row['x_window']}, y={row['y_window']} twice"
                    )
            return list(seen.items())

        kx = np.empty((nwin, ax.size))
        ky = np.empty((nwin, ay.size))
        rows = windows("kernel")
        for w, row in rows:
            kx[w] = row["x_probs"]
            ky[w] = row["y_probs"]
        if len(rows) != nwin:
            raise ValueError("model file does not cover every window")
        init = None
        if "initial" in data:
            init = np.zeros(nwin)
            for w, row in windows("initial"):
                init[w] = row["prob"]
        return cls(order, ax, ay, kx, ky, init)

    def swapped(self) -> "JointMarkovModel":
        """The same joint law with the roles of the two processes exchanged."""
        nwin = self.num_windows
        kx = np.empty((nwin, self.my))
        ky = np.empty((nwin, self.mx))
        init = np.empty(nwin) if self.has_custom_initial else None
        swapped_pairs = self.window_y_positions + self.my * self.window_x_positions
        perm = _codes(swapped_pairs.T, self.pair_count)
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
    mx, my, B = model.mx, model.my, model.pair_count
    keep = B ** (d - 1)
    cum_x = np.cumsum(model.kernel_x, axis=1).tolist()
    cum_y = np.cumsum(model.kernel_y, axis=1).tolist()
    u = rng.random((max(n - d, 1), 2))
    for lo in range(0, n - d, _BLOCK):
        block = []
        # bisect_right is searchsorted(side="right"): the first cumulative
        # entry above u; rounding can leave u above the last one
        for ux, uy in u[lo : lo + _BLOCK].tolist():
            xs = min(bisect_right(cum_x[widx], ux), mx - 1)
            ys = min(bisect_right(cum_y[widx], uy), my - 1)
            block.append((xs, ys))
            widx = xs + mx * ys + B * (widx % keep)
        x[d + lo : d + lo + len(block)], y[d + lo : d + lo + len(block)] = np.array(block).T
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

    Past the initial window a step is one product with a precomputed table of
    the observed x-window and the symbol s observed next: beta @ table holds
    the unnormalized predictive law in its first mx columns (the same for
    every s), then the unnormalized posterior after s in my**d columns, whose
    mass is the law's entry s.
    """

    def __init__(self, model: JointMarkovModel):
        self.model = model
        self._i = 0
        self._xwin = 0  # observed x-prefix code, most recent low digit
        self._beta: Optional[np.ndarray] = None  # posterior over y-windows once i >= d
        d, mx, my = model.order, model.mx, model.my
        ny = my**d
        ycodes = np.arange(ny)
        xd, yd = _digits(np.arange(mx**d), mx, d), _digits(ycodes, my, d)
        widx = _codes(xd[:, None] + mx * yd[None, :], model.pair_count)
        self._pairidx = widx
        kx, ky = model.kernel_x[widx], model.kernel_y[widx]
        table = np.zeros((mx**d, mx, ny, mx + ny))
        table[..., :mx] = kx[:, None]
        # y-code c = r + my**(d-1) * oldest moves to y_new + my * r
        shifted = (ycodes % my ** (d - 1))[:, None] * my + np.arange(my)
        for s in range(mx):
            table[:, s, ycodes[:, None], mx + shifted] = kx[:, :, s, None] * ky
        # one (my**d, mx + my**d) table per step code x-window * mx + symbol
        self._steps = table.reshape(mx ** (d + 1), ny, mx + ny)
        self._step_list = list(self._steps)

    def predict(self) -> ProbDist:
        m = self.model
        if self._i < m.order:
            probs = _initial_conditional(m, self._i, 0)[self._xwin]
        else:
            probs = self._beta.dot(self._step_list[self._xwin * m.mx])[: m.mx]
            probs = probs / probs.sum()
        return ProbDist(m.alphabet_x, probs)

    def observe(self, symbol: int) -> None:
        sym = int(symbol)
        if not (0 <= sym < self.model.mx):
            raise ValueError("symbol out of alphabet")
        self._run([sym])

    def _run(self, symbols) -> np.ndarray:
        """Predict, then observe, each symbol in turn; returns the predictive
        laws as rows. Inside the initial window a law is the conditional of
        the initial window law, past it one product with the step's table.
        The caller checks the symbols' range.

        The steps past the initial window run as a blocked scan: blocks of
        about sqrt(N) steps, at least _SCAN_MIN_BLOCK, whose posterior moves
        are multiplied in lockstep across blocks; the posterior is carried
        from block to block, then every block replays its steps from its
        start posterior in lockstep. A span of one block (short, or more than
        _SCAN_MAX_NY side windows) is the serial recursion, step for step as
        predict() and observe() compute it. Across blocks the laws agree with
        per-symbol stepping to rounding, not bit for bit.
        """
        m = self.model
        d, mx = m.order, m.mx
        syms = np.asarray(symbols, dtype=np.int64)
        n = syms.size
        # the x-window code before each step, and after the last
        xwins = _codes(
            np.lib.stride_tricks.sliding_window_view(
                np.concatenate([_digits(np.array(self._xwin), mx, d), syms]), d
            ),
            mx,
        )
        out = np.empty((n, mx))
        head = min(max(d - self._i, 0), n)  # steps inside the initial window
        for j in range(head):
            out[j] = _initial_conditional(m, self._i, 0)[xwins[j]]
            if out[j, syms[j]] <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            self._i += 1
            if self._i == d:
                beta = m.initial[self._pairidx[xwins[j + 1]]]
                self._beta = beta / beta.sum()
        if head < n:
            codes = xwins[head:n]  # in place: the step codes x-window * mx + symbol
            codes *= mx
            codes += syms[head:]
            self._scan(codes, syms[head:], out[head:])
        self._xwin = int(xwins[n])
        self._i += n - head
        out[head:] /= out[head:].sum(axis=1, keepdims=True)
        return out

    def _scan(self, codes: np.ndarray, syms: np.ndarray, out: np.ndarray) -> None:
        """Write the unnormalized laws of steps past the initial window, given
        their step codes and symbols, to out's rows; moves the posterior past
        the last step."""
        mx, n = self.model.mx, syms.size
        ny = self._steps.shape[1]
        size = n if ny > _SCAN_MAX_NY else max(math.isqrt(n - 1) + 1, _SCAN_MIN_BLOCK)
        nb = -(-n // size)
        if nb == 1:
            self._beta = self._serial(self._beta, codes, syms, out)
            return
        first = np.arange(nb) * size  # each block's first step; the last block is short
        moves = self._steps[:, :, mx:]
        # 1. each full block's product of posterior moves, one batched matmul
        # per in-block step, rescaled by its max against underflow (a zero
        # product stays zero: the tiny floor keeps 0/0 away)
        prod, tiny = moves[codes[first[:-1]]], np.finfo(float).tiny
        for j in range(1, size):
            prod = prod @ moves[codes[first[:-1] + j]]
            top = prod.reshape(nb - 1, -1).max(axis=1)
            prod /= np.maximum(top, tiny)[:, None, None]
        # 2. carry the posterior across blocks; a zero mass means an
        # impossible step or an underflow, and the serial steps tell which
        betas = np.empty((nb, ny))
        betas[0] = self._beta
        for b, lo in enumerate(first[:-1].tolist()):
            v = betas[b].dot(prod[b])
            mass = v.sum()
            if mass > 0.0:
                betas[b + 1] = v / mass
            else:
                hi = lo + size
                betas[b + 1] = self._serial(betas[b], codes[lo:hi], syms[lo:hi], out[lo:hi])
        # 3. replay every block from its start, one batched step at a time
        last, rows = n - first[-1], np.arange(nb)
        for j in range(size):
            k = nb if j < last else nb - 1
            at = first[:k] + j
            v = np.matmul(betas[:k, None, :], self._steps[codes[at]])[:, 0]
            out[at] = v[:, :mx]
            ps = v[rows[:k], syms[at]]
            if ps.min() <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            betas = v[:, mx:] / ps[:, None]
            if j == last - 1:
                self._beta = betas[-1]

    def _serial(self, beta, codes, syms, out) -> np.ndarray:
        """The serial recursion from posterior beta: writes the unnormalized
        laws to out's rows, returns the end posterior."""
        steps, mx = self._step_list, self.model.mx
        for j, (c, s) in enumerate(zip(codes.tolist(), syms.tolist())):
            v = beta.dot(steps[c])
            out[j] = v[:mx]
            ps = v[s]
            if ps <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            beta = v[mx:]
            beta /= ps
        return beta


def _initial_conditional(model: JointMarkovModel, t: int, s: int) -> np.ndarray:
    """p(x_t | first t target and first s <= t side symbols) for t < d, from
    the initial window law: a (mx**t * my**s, mx) table whose row is the
    prefix code, oldest position in the top digit and a position u < s packed
    as its pair x + mx * y (so s = t gives the pair-prefix code). Prefixes
    with zero probability get zero rows."""
    m = model
    code = np.zeros(m.num_windows, dtype=np.int64)
    for u in range(t):
        if u < s:
            code = code * m.my + m.window_y_positions[u]
        code = code * m.mx + m.window_x_positions[u]
    rows = m.mx**t * m.my**s
    joint = np.bincount(
        code * m.mx + m.window_x_positions[t], weights=m.initial, minlength=rows * m.mx
    ).reshape(rows, m.mx)
    denom = joint.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, joint / denom, 0.0)


def stale_history_dist(model: JointMarkovModel, x_hist, y_hist) -> ProbDist:
    """Exact p(next X | x_hist, y_hist) where y_hist is a (possibly shorter)
    prefix of the side history; hidden side symbols are enumerated.

    With an empty y_hist this is the restricted distribution, with a
    full-length one the complete distribution. Brute force with an explicit
    size limit; intended as an independent oracle on short histories.
    """
    m = model
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    _check_symbols(m, xs, ys)
    i1 = len(xs)  # number of observed target symbols
    s = len(ys)
    if s > i1:
        raise ValueError("side history longer than target history")
    if i1 >= m.order:
        return _hidden_side_dist(m, xs, ys, from_initial=True)
    # next symbol position is still inside the initial window
    code = 0
    for u in range(i1):
        if u < s:
            code = code * m.my + int(ys[u])
        code = code * m.mx + int(xs[u])
    probs = _initial_conditional(m, i1, s)[code]
    if not probs.any():
        raise ValueError("history has zero probability under the model")
    return ProbDist(m.alphabet_x, probs)


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
    xs, ys = _as_array(x_window), _as_array(y_window)
    _check_symbols(m, xs, ys)
    if len(xs) != d + k or len(ys) != d:
        raise ValueError(
            f"need x window of length d+k={d + k} and y window of length d={d}"
        )
    return _hidden_side_dist(m, xs, ys, from_initial=False)


def _path_weights(model: JointMarkovModel, xdig, ydig, from_initial: bool):
    """Probability weights of joint paths given as (paths, t) x and y digit
    arrays (oldest first; a row of one broadcasts), with the code of each
    path's last window.

    A path's weight starts at the initial law of its first window
    (`from_initial`) or at 1 when that window is conditioned on, and takes
    one Kx * Ky factor per later step.
    """
    d, B = model.order, model.pair_count
    pairs = xdig + model.mx * ydig
    widx = _codes(pairs[:, :d], B)
    weights = model.initial[widx].copy() if from_initial else np.ones(widx.size)
    for t in range(d, pairs.shape[1]):
        weights *= model.kernel_x[widx, xdig[:, t]] * model.kernel_y[widx, ydig[:, t]]
        widx = B * (widx % B ** (d - 1)) + pairs[:, t]
    return weights, widx


def _hidden_side_dist(model: JointMarkovModel, xs, ys, from_initial: bool) -> ProbDist:
    """p(next X | xs, side prefix ys): every completion of ys to len(xs) side
    symbols is enumerated and weighted by _path_weights."""
    my, s = model.my, len(ys)
    hidden = len(xs) - s
    paths = my**hidden
    if paths > _BRUTE_PATH_LIMIT:
        raise ValueError(
            f"brute-force enumeration of {paths} hidden paths exceeds the limit"
        )
    yfull = np.empty((paths, len(xs)), dtype=np.int64)
    yfull[:, :s] = ys
    yfull[:, s:] = _digits(np.arange(paths), my, hidden)[:, ::-1]  # oldest in the low digit
    weights, widx = _path_weights(model, xs[None, :], yfull, from_initial)
    probs = weights @ model.kernel_x[widx]
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("history has zero probability under the model")
    return ProbDist(model.alphabet_x, probs / total)


# -- causal measures ---------------------------------------------------------------


def true_causal_measure(model: JointMarkovModel, x_hist, y_hist) -> float:
    """KL (bits) from the restricted to the complete next-step distribution
    of X at the realized history."""
    xs, ys = _path_pair(model, x_hist, y_hist)
    if len(xs) < model.order:
        raise ValueError("history shorter than the model order")
    complete = true_complete_dist(model, xs[-model.order :], ys[-model.order :])
    filt = RestrictedFilter(model)
    filt._run(xs)
    return kl_divergence(complete, filt.predict())


def true_partial_causal_measure(
    model: JointMarkovModel, x_hist, y_hist, k: int
) -> float:
    """KL (bits) from the stale-history partial to the complete distribution."""
    xs, ys = _path_pair(model, x_hist, y_hist)
    d = model.order
    if len(xs) < d + k:
        raise ValueError("history shorter than d+k")
    complete = true_complete_dist(model, xs[-d:], ys[-d:])
    partial = true_partial_dist(model, xs[-(d + k) :], ys[-(d + k) : -k], k)
    return kl_divergence(complete, partial)


def _path_pair(model: JointMarkovModel, x_hist, y_hist):
    """The two realized paths as arrays, checked once for equal length and
    alphabet range."""
    xs, ys = _as_array(x_hist), _as_array(y_hist)
    if len(xs) != len(ys):
        raise ValueError("histories must have equal length")
    _check_symbols(model, xs, ys)
    return xs, ys


def _complete_rows(model: JointMarkovModel, xs, ys) -> np.ndarray:
    """The complete law of X at every step as an (n, mx) array: the
    initial-window conditional while i < d, then the kernel row of the last d
    pairs."""
    d, n = model.order, len(xs)
    # window of step i: pairs i-d..i-1, after d leading zeros whose rows
    # (steps i < d) are replaced below
    pairs = np.zeros(n + d, dtype=np.int64)
    np.add(xs, model.mx * ys, out=pairs[d:])
    widx = _codes(np.lib.stride_tricks.sliding_window_view(pairs, d)[:n], model.pair_count)
    rows = model.kernel_x[widx]
    for t in range(min(d, n)):
        rows[t] = stale_history_dist(model, xs[:t], ys[:t]).probs
    return rows


def _kl_path(complete: np.ndarray, head: list, tail) -> np.ndarray:
    """KL (bits) from the complete law to a reference law at every step: head
    lists the reference rows of the first steps, and tail(lo, hi) returns
    those of steps lo..hi-1, called in step order _SPAN steps at a time; the
    KL is taken _BLOCK rows at a time."""
    n, first = complete.shape[0], len(head)
    out = np.empty(n)
    if head:
        out[:first] = _kl_bits(complete[:first], np.array(head))
    for lo in range(first, n, _SPAN):
        hi = min(lo + _SPAN, n)
        laws = tail(lo, hi)
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            out[a:b] = _kl_bits(complete[a:b], laws[a - lo : b - lo])
    return out


def causal_measure_path(model: JointMarkovModel, x_hist, y_hist) -> np.ndarray:
    """True causal measure at every time step of a realized pair of paths."""
    xs, ys = _path_pair(model, x_hist, y_hist)
    complete = _complete_rows(model, xs, ys)
    filt = RestrictedFilter(model)
    return _kl_path(complete, [], lambda lo, hi: filt._run(xs[lo:hi]))


def partial_measure_path(model: JointMarkovModel, x_hist, y_hist, k: int) -> np.ndarray:
    """True partial causal measure (staleness k) at every time step. Each
    step's law enumerates the up to my**min(k, n - 1) hidden side paths, so a
    k above the enumeration limit fails before any step."""
    xs, ys = _path_pair(model, x_hist, y_hist)
    d, n = model.order, len(xs)
    paths = model.my ** min(k, max(n - 1, 0))
    if paths > _BRUTE_PATH_LIMIT:
        raise ValueError(
            f"staleness k={k} needs {paths} hidden side paths per step, above the"
            f" brute-force limit of {_BRUTE_PATH_LIMIT}"
        )
    head = [
        stale_history_dist(model, xs[:i], ys[: max(0, i - k)]).probs for i in range(min(d + k, n))
    ]
    table = inverse = None
    if n > d + k:
        # from step d + k on the partial law depends only on the last d + k
        # target and the d side symbols before the newest k: one
        # true_partial_dist per distinct window
        windows = np.lib.stride_tricks.sliding_window_view
        hist = np.hstack([windows(xs, d + k)[: n - d - k], windows(ys, d)[: n - d - k]])
        _, where, inverse = np.unique(hist, axis=0, return_index=True, return_inverse=True)
        table = np.array(
            [true_partial_dist(model, xs[j : j + d + k], ys[j : j + d], k).probs for j in where]
        )
    complete = _complete_rows(model, xs, ys)
    return _kl_path(complete, head, lambda lo, hi: table[inverse[lo - d - k : hi - d - k]])


# -- stationary analysis -------------------------------------------------------------


def stationary_distribution(model: JointMarkovModel) -> StationaryDist:
    """Invariant distribution of the lifted window chain.

    Window w moves to nxt[w, pair] = B * (w mod B**(d-1)) + pair with
    probability P[w, pair]; this (W, B) successor table fills the dense
    transition matrix and drives the ergodicity checks. Raises
    NonErgodicError when the positive-transition digraph is not strongly
    connected, the chain is periodic, or the linear solve fails to reach
    residual 1e-10.
    """
    W, B, P = model.num_windows, model.pair_count, model.pair_transition
    wins = np.arange(W)
    nxt = B * (wins % B ** (model.order - 1))[:, None] + np.arange(B)
    move = P > 0.0

    def levels(step) -> np.ndarray:
        """Breadth-first levels from window 0, -1 where never reached; step
        maps the mask of reached windows to the windows one move on."""
        dist = np.full(W, -1)
        dist[0] = 0
        while (new := step(dist >= 0) & (dist < 0)).any():
            dist[new] = dist.max() + 1
        return dist

    dist = levels(lambda seen: np.bincount(nxt[move & seen[:, None]], minlength=W) > 0)
    back = levels(lambda seen: (move & seen[nxt]).any(axis=1))
    if dist.min() < 0 or back.min() < 0:
        raise NonErgodicError("window chain is not irreducible")
    # the period is the gcd of the level differences over all moves
    if np.gcd.reduce((dist[:, None] + 1 - dist[nxt])[move]) != 1:
        raise NonErgodicError("window chain is periodic")
    T = np.zeros((W, W))
    T[wins[:, None], nxt] = P
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
    for _ in range(length - d):
        # flat index = old_window * B + new_pair: new pair in the lowest digit
        arr = (arr.reshape(-1, B**d)[:, :, None] * model.pair_transition).ravel()
    return arr


# -- information rates ----------------------------------------------------------------


def _cmi_table(joint: np.ndarray) -> float:
    """Conditional MI I(A ; B | C) in bits from an (A, B, C) probability table."""
    jc = joint.sum(axis=(0, 1))
    jac = joint.sum(axis=1)
    jbc = joint.sum(axis=0)
    ia, ib, ic = np.nonzero(joint > 0.0)
    v = joint[ia, ib, ic]
    terms = v * np.log2(v * jc[ic] / (jac[ia, ic] * jbc[ib, ic]))
    return max(math.fsum(terms), 0.0)


def _group_code(model: JointMarkovModel, wins: np.ndarray, digits) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the listed (process, age) digits of each pair
    window in wins (age 0 the most recent pair), the first listed digit
    lowest, with the number of codes."""
    B, mx = model.pair_count, model.mx
    out, size = np.zeros(wins.size, dtype=np.int64), 1
    for proc, age in digits:
        if proc not in ("X", "Y"):
            raise ValueError(f"unknown process {proc!r}: expected 'X' or 'Y'")
        pair = (wins // B**age) % B
        out += (pair % mx if proc == "X" else pair // mx) * size
        size *= mx if proc == "X" else model.my
    return out, size


def _next_symbol_cmi(model: JointMarkovModel, gamma: np.ndarray, side, cond) -> float:
    """I(next symbol ; side | cond) in bits from gamma, the joint law of a pair
    window (rows, most recent pair in the lowest digit) and the next symbol
    (columns). `side` and `cond` list window digits as (process, age), the
    process "X" or "Y" and age 0 the most recent pair."""
    wins = np.arange(gamma.shape[0])
    (sc, ns), (cc, nc) = _group_code(model, wins, side), _group_code(model, wins, cond)
    m = gamma.shape[1]
    flat = (sc[:, None] * m + np.arange(m)) * nc + cc[:, None]
    joint = np.bincount(flat.ravel(), weights=gamma.ravel(), minlength=ns * m * nc)
    return _cmi_table(joint.reshape(ns, m, nc))


def _next_x_law(model: JointMarkovModel, length: int) -> np.ndarray:
    """Stationary joint law of a length-`length` pair window and the next X."""
    pi_ext = _extended_window_dist(model, length)
    return pi_ext[:, None] * model.kernel_x[np.arange(pi_ext.size) % model.num_windows]


def exact_pdi_rate(model: JointMarkovModel, k: int) -> float:
    """Exact partial directed-information rate (bits/step) at staleness k:
    the stationary expectation of KL(complete || partial), which is the
    conditional mutual information between the next target symbol and the k
    newest side symbols given all d+k target symbols and the d oldest side
    symbols of the window."""
    if k < 1:
        raise ValueError("staleness k must be >= 1")
    D = model.order + k
    side = [("Y", age) for age in range(k)]
    cond = [("X", age) for age in range(D)] + [("Y", age) for age in range(k, D)]
    return _next_symbol_cmi(model, _next_x_law(model, D), side, cond)


def exact_tdi_rate(model: JointMarkovModel, k: int) -> float:
    """Exact truncated directed-information rate (bits/step) of window k:
    the stationary conditional mutual information between the next target
    symbol and the last k side symbols given the last k target symbols.

    Upper-bounds the directed-information rate when k >= order.
    """
    if k < 1:
        raise ValueError("window k must be >= 1")
    side = [("Y", age) for age in range(k)]
    cond = [("X", age) for age in range(k)]
    return _next_symbol_cmi(model, _next_x_law(model, max(model.order, k)), side, cond)


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
    if batches < 2:
        raise ValueError("batches must be at least 2")
    if n < d + 2 * batches:
        raise ValueError("n too small for the requested number of batches")
    x, y = simulate(model, n, seed)
    vals = causal_measure_path(model, x, y)[d:]
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
    B = model.pair_count
    if n < model.order:
        raise ValueError(f"n must be at least the model order {model.order}")
    if B**n > _BRUTE_PATH_LIMIT:
        raise ValueError("horizon too large for exact enumeration")
    pairs = _digits(np.arange(B**n), B, n)
    xdig, ydig = pairs % model.mx, pairs // model.mx
    prob, _ = _path_weights(model, xdig, ydig, from_initial=True)
    return prob, pairs, xdig, ydig


def directed_information(model: JointMarkovModel, n: int) -> float:
    """Finite-horizon directed information (bits) from the side process's
    strictly prior past to the target, as an entropy difference computed by
    exact enumeration: H(X^n) minus the causally conditional entropy."""
    d, B, mx = model.order, model.pair_count, model.mx
    prob, pairs, xdig, _ = _path_table(model, n)
    support = prob > 0.0
    px = np.bincount(_codes(xdig, mx), weights=prob, minlength=mx**n)
    hx = -math.fsum(p * math.log2(p) for p in px if p > 0.0)
    # complete per-step log-factors along each path
    loglik = np.zeros(prob.size)
    init_cond = [_initial_conditional(model, t, t) for t in range(d)]
    pref = np.zeros(prob.size, dtype=np.int64)
    for t in range(d):
        factor = init_cond[t][pref, xdig[:, t]]
        loglik[support] += np.log2(factor[support])
        pref = pref * B + pairs[:, t]
    widx = _codes(pairs[:, :d], B)
    for t in range(d, n):
        factor = model.kernel_x[widx, xdig[:, t]]
        loglik[support] += np.log2(factor[support])
        widx = B * (widx % B ** (d - 1)) + pairs[:, t]
    h_causal = -math.fsum((prob[support] * loglik[support]).tolist())
    return hx - h_causal


def expected_causal_sum(model: JointMarkovModel, n: int) -> float:
    """Sum over i <= n of the expected causal measure E[KL(complete ||
    restricted)] at time i, by exact enumeration over histories."""
    d, B, mx = model.order, model.pair_count, model.mx
    prob, pairs, xdig, _ = _path_table(model, n)
    init_cond = [_initial_conditional(model, t, t) for t in range(d)]
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
        hx_digits = _codes(_digits(hist, B, t) % mx, mx)
        pnext = px_next.reshape(-1, mx)  # row: x-prefix code, column: next x
        h = np.nonzero(p_hist > 0.0)[0]
        kl = _kl_bits(crows[h], pnext[hx_digits[h]] / px_prev[hx_digits[h], None])
        total_terms.append(math.fsum((p_hist[h] * kl).tolist()))
        xc = xc * mx + xdig[:, t]
    return math.fsum(total_terms)
