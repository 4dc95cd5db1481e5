"""Krichevsky-Trofimov estimators and context-tree-weighting sequential predictors.

A ContextTree assigns sequential probabilities to a target symbol stream given
per-step contexts drawn from a ContextSchema. Three schema shapes are
supported:

- plain: depth-d tree over the target's own past symbols;
- coupled: depth-d tree where every level branches on the (target, side) pair;
- stale: depth-(d+k) tree whose k most recent levels branch on the target
  symbol alone and whose deeper d levels branch on the pair, so the newest k
  side-information samples are withheld from the predictor.

Trees are flat per-node lists in the log2 domain, as in array CTW (Veness
et al., JAIR 2011); counts are exact integers. Pre-start context positions
(time indices before the first sample) are represented as a dedicated absent
branch per level, so predictions are defined from the very first symbol and
the telescoping identity
  prod_i p_hat_i(x_i) = root weighted block probability
holds exactly over the whole stream.

The worst-case regret bounds for these predictors against depth-d Markov
reference classes are provided as closed-form functions of (alphabet size,
leaf count, node count, horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .core import Alphabet, ProbDist

_LOG2_HALF = -1.0


def kt_predict(counts: Sequence[int], m: int) -> ProbDist:
    """One-step KT (add-1/2) estimate from per-symbol counts.

    Symbol a gets probability (counts[a] + 1/2) / (N + m/2); every entry is
    strictly positive.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if len(counts) != m:
        raise ValueError("need one count per symbol")
    arr = np.asarray(counts, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    total = float(arr.sum())
    return ProbDist(Alphabet(m), (arr + 0.5) / (total + 0.5 * m))


@dataclass(frozen=True)
class ContextSchema:
    """Shape of the context tree: target/side alphabets, depth, staleness.

    depth is the number of coupled history levels d; staleness is the number
    k of most recent levels restricted to the target symbol alone (only
    meaningful with side information; k = 0 gives the fully coupled tree).
    Without side information the schema is a plain depth-d tree and staleness
    must be 0.
    """

    target_alphabet: Alphabet
    side_alphabet: Optional[Alphabet] = None
    depth: int = 1
    staleness: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.staleness < 0:
            raise ValueError("staleness must be >= 0")
        if self.side_alphabet is None and self.staleness != 0:
            raise ValueError("staleness requires side information")

    @property
    def total_depth(self) -> int:
        return self.depth + self.staleness

    def level_sizes(self) -> list[int]:
        """Branching factor per history level, most recent first."""
        mx = self.target_alphabet.size
        if self.side_alphabet is None:
            return [mx] * self.depth
        pair = mx * self.side_alphabet.size
        return [mx] * self.staleness + [pair] * self.depth

    def leaf_count(self) -> int:
        return math.prod(self.level_sizes())

    def node_count(self) -> int:
        sizes = self.level_sizes()
        return sum(math.prod(sizes[:j]) for j in range(len(sizes) + 1))

    def key_layout(self) -> tuple[list[int], list[int]]:
        """(offsets, weights): the key of a level-j node is offsets[j] plus
        the mixed-radix code of its context prefix, in which level i's digit
        (the symbol, or b_i for the absent branch) has radix b_i + 1 and
        weight weights[i - 1]. offsets[-1] is the number of keys."""
        offsets, weights, weight = [0], [], 1
        for b in self.level_sizes():
            offsets.append(offsets[-1] + weight)
            weights.append(weight)
            weight *= b + 1
        offsets.append(offsets[-1] + weight)
        return offsets, weights

    def key_paths(self, x, y=None, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """Node keys, root first, along the context path of each position in
        [start, stop): the vectorized context_at. The symbols are not
        checked; the caller validates its streams once."""
        stop = len(x) if stop is None else stop
        offsets, weights = self.key_layout()
        dtype = np.int64 if offsets[-1] < 2**62 else object  # else exact Python ints
        depth, rows, mx = self.total_depth, stop - start, self.target_alphabet.size
        lo = max(start - depth, 0)
        first = depth - start + lo
        # target (row 0) and pair (row 1) digits of positions start - depth .. stop - 1
        hist = np.full((2, rows + depth), mx, dtype=dtype)
        xs = np.asarray(x[lo:stop], dtype=np.int64)
        hist[0, first:] = xs
        if self.side_alphabet is not None:
            hist[1, :first] = mx * self.side_alphabet.size
            hist[1, first:] = xs + mx * np.asarray(y[lo:stop], dtype=np.int64)
        keys = np.zeros((rows, depth + 1), dtype=dtype)
        for j in range(1, depth + 1):
            pair = int(self.side_alphabet is not None and j > self.staleness)
            digits = hist[pair, depth - j : depth - j + rows]
            keys[:, j] = keys[:, j - 1] + (offsets[j] - offsets[j - 1]) + weights[j - 1] * digits
        return keys

    def context_at(self, x: np.ndarray, i: int, y: Optional[np.ndarray] = None) -> tuple:
        """Context for predicting position i (0-based) of the target stream.

        History positions before the start of the stream map to None (the
        absent branch). Pair levels pack the side symbol as x + m_x * y.
        """
        mx = self.target_alphabet.size
        sizes = self.level_sizes()
        ctx = []
        for j in range(1, self.total_depth + 1):
            t = i - j
            if t < 0:
                ctx.append(None)
            elif self.side_alphabet is None or j <= self.staleness:
                ctx.append(int(x[t]))
            else:
                ctx.append(int(x[t]) + mx * int(y[t]))
        if any(
            c is not None and not (0 <= c < sizes[j]) for j, c in enumerate(ctx)
        ):
            raise ValueError("context symbol out of range")
        return tuple(ctx)


class ContextTree:
    """CTW predictor state over a ContextSchema.

    Per-node lists are indexed by slot; one dict maps node keys (see
    ContextSchema.key_layout) to slots, which the first observation through
    a node allocates. Single-writer value: observe() and step() mutate in
    place; predict() is read-only.
    """

    def __init__(self, schema: ContextSchema):
        self.schema = schema
        self._m = schema.target_alphabet.size
        self._depth = schema.total_depth
        self._sizes = schema.level_sizes()
        self._offsets, self._weights = schema.key_layout()
        self._slot: dict[int, int] = {}
        self._counts: list[list[int]] = []
        self._total: list[int] = []
        self._log_pe: list[float] = []
        self._log_pw: list[float] = []
        self._child_lpw: list[float] = []
        self._update([0], [None], None)  # the root

    @property
    def nodes_allocated(self) -> int:
        return len(self._total)

    def _context_keys(self, context) -> list[int]:
        """Key path (root first) of a validated per-context tuple."""
        ctx = tuple(context)
        if len(ctx) != self._depth:
            raise ValueError(
                f"context length {len(ctx)} does not match schema depth {self._depth}"
            )
        keys, code = [0], 0
        for j, c in enumerate(ctx):
            if c is None:
                c = self._sizes[j]
            elif j and ctx[j - 1] is None:
                # absent positions are always the oldest part of the history
                raise ValueError("absent context below a present one")
            elif not (0 <= int(c) < self._sizes[j]):
                raise ValueError(f"context symbol {c} out of range at level {j + 1}")
            code += self._weights[j] * int(c)
            keys.append(self._offsets[j + 1] + code)
        return keys

    def predict(self, context) -> ProbDist:
        """One-step predictive distribution implied by the weighted tree.

        Equals the ratio of root weighted block probabilities after
        hypothetically appending each candidate symbol; entries are strictly
        positive.
        """
        slots = list(map(self._slot.get, self._context_keys(context)))
        return ProbDist(self.schema.target_alphabet, np.array(self._mix(slots)))

    def observe(self, context, symbol: int) -> None:
        """Record symbol under context, updating counts and log-probabilities
        along the context path only."""
        keys = self._context_keys(context)
        sym = int(symbol)
        if not (0 <= sym < self._m):
            raise ValueError(f"symbol {sym} out of target alphabet")
        self._update(keys, list(map(self._slot.get, keys)), sym)

    def step(self, keys: list[int], symbol: int) -> list[float]:
        """Predict, then observe symbol, on one unchecked key path from
        ContextSchema.key_paths (the caller validates its streams once)."""
        slots = list(map(self._slot.get, keys))
        pred = self._mix(slots)
        self._update(keys, slots, symbol)
        return pred

    def _mix(self, slots: list) -> list[float]:
        """Leaf-to-root mixture of KT rows along a slot path."""
        m = self._m
        half_m = 0.5 * m
        counts, total = self._counts, self._total
        s = slots[-1]
        if s is None:
            pred = [1.0 / m] * m
        else:
            denom = total[s] + half_m
            pred = [(c + 0.5) / denom for c in counts[s]]
        for s in slots[-2::-1]:
            if s is None:
                # empty subtree: both mixture components are uniform
                continue
            alpha = 2.0 ** (_LOG2_HALF + self._log_pe[s] - self._log_pw[s])
            if alpha > 1.0:  # rounding; a power of two is never negative
                alpha = 1.0
            beta = 1.0 - alpha
            denom = total[s] + half_m
            pred = [alpha * ((c + 0.5) / denom) + beta * p for c, p in zip(counts[s], pred)]
        norm = sum(pred)
        return [p / norm for p in pred]

    def _update(self, keys: list[int], slots: list, sym: Optional[int]) -> None:
        """Allocate the path's missing slots, then fold sym (unless None)
        into every node on the path, leaf first."""
        if None in slots:
            for j, s in enumerate(slots):
                if s is None:
                    slots[j] = self._slot[keys[j]] = len(self._total)
                    self._counts.append([0] * self._m)
                    self._total.append(0)
                    for values in (self._log_pe, self._log_pw, self._child_lpw):
                        values.append(0.0)
        if sym is None:
            return
        log2 = math.log2
        half_m = 0.5 * self._m
        counts, total = self._counts, self._total
        log_pe, log_pw, child_lpw = self._log_pe, self._log_pw, self._child_lpw
        depth = self._depth
        delta = 0.0
        for level in range(depth, -1, -1):
            s = slots[level]
            cs = counts[s]
            log_pe[s] += log2((cs[sym] + 0.5) / (total[s] + half_m))
            cs[sym] += 1
            total[s] += 1
            old_lpw = log_pw[s]
            if level == depth:
                log_pw[s] = log_pe[s]
            else:
                child_lpw[s] += delta
                # log2(2**a + 2**b) for the two halves of the mixture
                a, b = _LOG2_HALF + log_pe[s], _LOG2_HALF + child_lpw[s]
                if a < b:
                    a, b = b, a
                log_pw[s] = a + log2(1.0 + 2.0 ** (b - a))
            delta = log_pw[s] - old_lpw

    @property
    def log2_block_probability(self) -> float:
        """log2 of the root weighted probability of everything observed."""
        return self._log_pw[0]

    def nodes(self):
        """Yield (path, slot) pairs in deterministic depth-first order; a path
        holds one context symbol per level, None for the absent branch."""
        stack = [((), 0, 0)]
        while stack:
            path, level, code = stack.pop()
            yield path, self._slot[self._offsets[level] + code]
            if level == self._depth:
                continue
            b, w = self._sizes[level], self._weights[level]
            for digit in range(b + 1):  # the absent branch b last
                child = code + w * digit
                if self._offsets[level + 1] + child in self._slot:
                    stack.append((path + (None if digit == b else digit,), level + 1, child))

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        child_total: dict = {}
        for path, s in self.nodes():
            assert self._total[s] == sum(self._counts[s]), "total mismatch with counts"
            if len(path) == self._depth:
                assert abs(self._log_pw[s] - self._log_pe[s]) < 1e-12
            if path:
                child_total[path[:-1]] = child_total.get(path[:-1], 0) + self._total[s]
        for path, s in self.nodes():
            if path in child_total:
                assert self._total[s] == child_total[path], "count mismatch with children"

    def dump(self, fp: IO[str]) -> None:
        """Write a versioned textual snapshot (one record per node)."""
        s = self.schema
        side = s.side_alphabet.size if s.side_alphabet is not None else "-"
        fp.write(f"causalpath-ctw 1 {s.target_alphabet.size} {side} {s.depth} {s.staleness}\n")
        for path, slot in self.nodes():
            toks = ["~" if c is None else str(c) for c in path]
            counts = ",".join(str(c) for c in self._counts[slot])
            fp.write(f"{'.'.join(toks) if toks else ''}|{counts}\n")

    @classmethod
    def load(cls, fp: IO[str]) -> "ContextTree":
        """Replay each dumped leaf's counts through the update path; raises
        ValueError unless that rebuilds exactly the dumped nodes and counts."""
        header = fp.readline().split()
        if len(header) != 6 or header[0] != "causalpath-ctw" or header[1] != "1":
            raise ValueError("unrecognized tree dump header")
        target = Alphabet(int(header[2]))
        side = None if header[3] == "-" else Alphabet(int(header[3]))
        schema = ContextSchema(target, side, int(header[4]), int(header[5]))
        tree = cls(schema)
        records = {}
        for line in fp:
            line = line.strip()
            if not line:
                continue
            path_s, counts_s = line.split("|")
            path = tuple(None if t == "~" else int(t) for t in path_s.split(".") if path_s)
            counts = [int(v) for v in counts_s.split(",")]
            if len(counts) != target.size:
                raise ValueError("count record length mismatch")
            records[path] = counts
        for path, counts in records.items():
            if len(path) == tree._depth:
                keys = tree._context_keys(path)
                slots = list(map(tree._slot.get, keys))
                for sym, c in enumerate(counts):
                    for _ in range(c):
                        tree._update(keys, slots, sym)
        rebuilt = {path: tree._counts[s] for path, s in tree.nodes()}
        if rebuilt != {**{(): [0] * target.size}, **records}:
            raise ValueError("tree dump is not consistent with its leaf counts")
        return tree


def _log2_ratio(n, L: int):
    if np.min(n) < L:
        raise ValueError(f"horizon n={np.min(n)} below leaf count L={L}")
    return np.log2(np.divide(n, L))


def regret_bound_plain(m: int, L: int, n):
    """Worst-case log-loss regret bound (bits) of a plain depth-limited CTW
    against Markov sources with L states over an m-ary alphabet; elementwise
    over an array of horizons n."""
    if m < 2 or L < 1:
        raise ValueError("need m >= 2 and L >= 1")
    return (
        0.5 * (m - 1) * L * _log2_ratio(n, L)
        + L * (m / (m - 1) + math.log2(m))
        - 1.0 / (m - 1)
    )


def regret_bound_side_info(m: int, L: int, S: int, n):
    """Worst-case regret bound (bits) of a CTW with a side-information context
    tree of L leaves and S total nodes; elementwise over an array of
    horizons n."""
    if m < 2 or L < 1:
        raise ValueError("need m >= 2 and L >= 1")
    if S < L:
        raise ValueError("node count S must be >= leaf count L")
    return 0.5 * (m - 1) * L * _log2_ratio(n, L) + L * (m - 1) + S


@dataclass(frozen=True)
class RegretBudget:
    """A regret bound evaluated at one horizon."""

    alphabet_size: int
    leaves: int
    nodes: Optional[int]
    horizon: int
    bound_bits: float

    @classmethod
    def plain(cls, m: int, L: int, n: int) -> "RegretBudget":
        return cls(m, L, None, n, regret_bound_plain(m, L, n))

    @classmethod
    def with_side_info(cls, m: int, L: int, S: int, n: int) -> "RegretBudget":
        return cls(m, L, S, n, regret_bound_side_info(m, L, S, n))
