"""Krichevsky-Trofimov estimators and context-tree-weighting sequential predictors.

A ContextTree assigns sequential probabilities to a target symbol stream given
per-step contexts drawn from a ContextSchema. Three schema shapes are
supported:

- plain: depth-d tree over the target's own past symbols;
- coupled: depth-d tree where every level branches on the (target, side) pair;
- stale: depth-(d+k) tree whose k most recent levels branch on the target
  symbol alone and whose deeper d levels branch on the pair, so the newest k
  side-information samples are withheld from the predictor.

Trees are flat per-node arrays in the log2 domain, as in array CTW (Veness
et al., JAIR 2011), updated a block of steps at a time with one numpy pass
per tree level; counts are exact integers. Pre-start context positions
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


def kt_predict(counts: Sequence[int], m: int) -> ProbDist:
    """One-step KT (add-1/2) estimate from per-symbol counts.

    Symbol a gets probability (counts[a] + 1/2) / (N + m/2), the KT row that
    the CTW mixture gives a node; every entry is strictly positive.
    """
    if m < 2:
        raise ValueError("alphabet size must be >= 2")
    if len(counts) != m:
        raise ValueError("need one count per symbol")
    arr = np.asarray(counts, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("counts must be nonnegative")
    return ProbDist(Alphabet(m), _mix(None, arr[None, :], arr.sum(keepdims=True), None)[0])


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

    def regret_bound(self, n):
        """Worst-case regret bound (bits) of a CTW on this schema, elementwise
        over horizons n: the plain bound without side information, else the
        side-information bound of the schema's L leaves and S nodes."""
        m, L = self.target_alphabet.size, self.leaf_count()
        if self.side_alphabet is None:
            return regret_bound_plain(m, L, n)
        return regret_bound_side_info(m, L, self.node_count(), n)

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
        absent branch). Pair levels pack the side symbol as x + m_x * y, each
        symbol checked against its own alphabet first.
        """
        mx = self.target_alphabet.size
        my = 1 if self.side_alphabet is None else self.side_alphabet.size
        ctx = []
        for j in range(1, self.total_depth + 1):
            t = i - j
            if t < 0:
                ctx.append(None)
                continue
            pair = self.side_alphabet is not None and j > self.staleness
            xs, ys = int(x[t]), int(y[t]) if pair else 0
            if not (0 <= xs < mx and 0 <= ys < my):
                raise ValueError("context symbol out of range")
            ctx.append(xs + mx * ys)
        return tuple(ctx)


def _running_sums(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sums down the rows of vals, restarted at each group start.

    Groups of similar length are padded with zeros into one 2-D block per
    power-of-two width and summed along its rows, so each group's sum is
    sequential from its own first row. One cumsum over all rows, differenced
    at the starts, would cancel each group's small sums against the large
    sums of the groups before it and lose their low bits."""
    if starts.size == 1:
        return np.cumsum(vals, axis=0)
    lens = np.diff(starts, append=vals.shape[0])
    exps = np.frexp(lens - 1)[1]  # 2**exps: the least power of two >= lens
    out = np.empty_like(vals)
    for e in np.flatnonzero(np.bincount(exps)).tolist():  # (np.unique imports numpy.ma)
        g, width = np.flatnonzero(exps == e), 1 << e
        live = np.arange(width) < lens[g, None]
        idx = (starts[g, None] + np.arange(width))[live]
        block = np.zeros((g.size, width) + vals.shape[1:])
        block[live] = vals[idx]
        out[idx] = np.cumsum(block, axis=1)[live]
    return out


def _mix(pred, counts, total, logs) -> np.ndarray:
    """One leaf-to-root mixture step over rows: each row's node KT row, mixed
    with the deeper levels' row pred (None at the leaf) by the node's weight
    alpha = P_e / (2 P_w). An unvisited node has zero state and only uniform
    rows below: it mixes the uniform row with itself, exactly as a skip."""
    kt = (counts + 0.5) / (total + 0.5 * counts.shape[1])[:, None]
    if pred is None:
        return kt
    alpha = np.minimum(np.exp2(-1.0 + logs[:, 0] - logs[:, 2]), 1.0)[:, None]  # clip rounding
    kt *= alpha
    kt += (1.0 - alpha) * pred
    return kt


class ContextTree:
    """CTW predictor state over a ContextSchema.

    Per-node arrays are indexed by slot; one dict maps node keys (see
    ContextSchema.key_layout) to slots, which the first observation through
    a node allocates. Single-writer value: observe() and update() mutate in
    place; predict() is read-only.
    """

    def __init__(self, schema: ContextSchema):
        self.schema = schema
        self._m = schema.target_alphabet.size
        self._depth = schema.total_depth
        self._sizes = schema.level_sizes()
        self._offsets, self._weights = schema.key_layout()
        self._slot: dict[int, int] = {}
        self._counts = np.zeros((0, self._m), dtype=np.int64)
        self._total = np.zeros(0, dtype=np.int64)
        self._logs = np.zeros((0, 3))  # per slot: log_pe, child_lpw (sum of children's), log_pw
        self._slots([0])  # the root

    @property
    def nodes_allocated(self) -> int:
        return len(self._slot)

    def _slots(self, keys: list) -> np.ndarray:
        """Slots of node keys; new keys get zeroed slots (the arrays double)."""
        out = np.array([self._slot.setdefault(k, len(self._slot)) for k in keys], dtype=np.int64)
        if len(self._slot) > self._total.size:
            grow = max(len(self._slot) - self._total.size, self._total.size)
            self._counts, self._total, self._logs = (
                np.concatenate([a, np.zeros((grow,) + a.shape[1:], a.dtype)])
                for a in (self._counts, self._total, self._logs)
            )
        return out

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
        keys = self._context_keys(context)
        slots = [s for s in map(self._slot.get, keys) if s is not None]  # a visited prefix
        pred = None if len(slots) == len(keys) else np.full((1, self._m), 1.0 / self._m)
        for s in slots[::-1]:
            pred = _mix(pred, self._counts[[s]], self._total[[s]], self._logs[[s]])
        return ProbDist(self.schema.target_alphabet, (pred / pred.sum(axis=1, keepdims=True))[0])

    def observe(self, context, symbol: int) -> None:
        """Record symbol under context, updating counts and log-probabilities
        along the context path only."""
        keys = self._context_keys(context)
        sym = int(symbol)
        if not (0 <= sym < self._m):
            raise ValueError(f"symbol {sym} out of target alphabet")
        self.update(np.array([keys]), np.array([sym]))

    def update(self, keys: np.ndarray, symbols) -> np.ndarray:
        """Predict, then observe, each row of a block: keys is a (rows,
        depth + 1) block from ContextSchema.key_paths and symbols the rows'
        target symbols, both unchecked (the caller validates its streams
        once). Returns the (rows, m) predictive laws, each taken before its
        row's symbol, bit for bit those of a row-by-row walk on the same
        numpy primitives.

        The sweep runs level by level, leaf to root. A stable sort groups
        each level's rows by node in row order; counts are running counts
        and log_pe and child_lpw running sums that start from the stored
        values. Each node's sums stay sequential (see _running_sums), so
        they never cancel against other nodes' large sums, and every addition
        comes in the order of the row-by-row walk. Each row's change of a
        node's log_pw is added into its parent's child_lpw, and the mixture
        row is carried up alongside."""
        hits = np.asarray(symbols)[:, None] == np.arange(self._m)  # one-hot rows
        rows, m = hits.shape
        at = np.arange(rows)
        pred = delta = None
        for level in range(self._depth, -1, -1):
            col = keys[:, level]
            span = self._offsets[level + 1] - self._offsets[level]
            if span <= 1 << 16:  # a small code: numpy's stable sort is then a radix sort
                col = (col - self._offsets[level]).astype(np.uint16)
            order = np.argsort(col, kind="stable")
            col, h = col[order], hits[order]
            new = np.concatenate([[True], col[1:] != col[:-1]])
            starts = np.flatnonzero(new)
            last = np.concatenate([starts[1:], [rows]]) - 1
            group = np.cumsum(new) - 1
            slots = self._slots(keys[order[starts], level].tolist())
            counts = np.cumsum(h, axis=0) - h  # running counts before each row
            counts += (self._counts[slots] - counts[starts])[group]
            total = (self._total[slots] - starts)[group] + at
            stored = self._logs[slots]
            logs = np.zeros((rows, 3))  # each row's logs after it
            logs[:, 0] = np.log2((counts[h] + 0.5) / (total + 0.5 * m))  # the KT log-terms
            if level < self._depth:
                logs[:, 1] = delta[order]
            logs[starts, :2] += stored[:, :2]
            logs[:, :2] = _running_sums(logs[:, :2], starts)
            if level == self._depth:
                logs[:, 2] = logs[:, 0]
            else:
                # log2(2**a + 2**b) for the two halves of the mixture
                a, b = -1.0 + logs[:, 0], -1.0 + logs[:, 1]
                hi, lo = np.maximum(a, b), np.minimum(a, b)
                logs[:, 2] = hi + np.log2(1.0 + np.exp2(lo - hi))
            # each row's logs before it: its group's previous row, or the stored values
            before = np.concatenate([logs[-1:], logs[:-1]])
            before[starts] = stored
            mixed = _mix(None if pred is None else pred[order], counts, total, before)
            pred, delta = np.empty((rows, m)), np.empty(rows)
            pred[order], delta[order] = mixed, logs[:, 2] - before[:, 2]
            self._counts[slots] = counts[last] + h[last]
            self._total[slots] = total[last] + 1
            self._logs[slots] = logs[last]
        return pred / pred.sum(axis=1, keepdims=True)

    @property
    def log2_block_probability(self) -> float:
        """log2 of the root weighted probability of everything observed."""
        return float(self._logs[0, 2])

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
                assert abs(self._logs[s, 2] - self._logs[s, 0]) < 1e-12
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
            counts = ",".join(map(str, self._counts[slot].tolist()))
            fp.write(f"{'.'.join(toks) if toks else ''}|{counts}\n")

    @classmethod
    def load(cls, fp: IO[str]) -> "ContextTree":
        """Replay the dumped leaves' counts as one block update; raises
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
        leaves = [(tree._context_keys(p), c) for p, c in records.items() if len(p) == tree._depth]
        if leaves:  # one block: leaf by leaf, each leaf's symbols in order
            reps = np.array([c for _, c in leaves]).ravel()
            keys = np.repeat(np.array([k for k, _ in leaves]), target.size, axis=0)
            syms = np.arange(reps.size) % target.size
            tree.update(np.repeat(keys, reps, axis=0), np.repeat(syms, reps))
        rebuilt = {path: tree._counts[s].tolist() for path, s in tree.nodes()}
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
