"""Unrolled Bayesian networks, d-separation, and Markovicity classification.

A joint Markov model unrolls into a DAG with one node per (process, time)
pair over a finite horizon; an edge is present exactly when the corresponding
lagged conditional mutual information, computed exactly under the stationary
law, exceeds a zero threshold. On that graph the classic five-step
d-separation test is available, together with a classifier that decides
whether the target process, after marginalizing the side process, is
(conditionally) Markov of finite order:

- no side-to-target edges at any lag: the target is Markov of the model
  order (zero directed information);
- otherwise, if no two side-process time points are conditionally dependent
  given the whole target past, the target is Markov of order at most twice
  the model order;
- otherwise no finite lag d-separates the target's next sample from its
  deeper past. Graph-level non-separation does not by itself prove
  distributional dependence: unfaithful parameterizations (a measure-zero
  set) could still be conditionally independent, and the report carries that
  caveat.

Exact conditional MI between arbitrary node sets is provided for soundness
checks; it enumerates all joint paths on the horizon and is meant for small
instances only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .markov import (
    JointMarkovModel,
    _cmi_table,
    _extended_window_dist,
    _group_code,
    _next_symbol_cmi,
)

EDGE_MI_THRESHOLD = 1e-9

Node = tuple[str, int]


@dataclass(frozen=True)
class UnrolledDag:
    """Finite-horizon unrolling: nodes (process, time), edges forward in time."""

    processes: tuple[str, ...]
    horizon: int
    edges: frozenset[tuple[Node, Node]]

    def __post_init__(self) -> None:
        for (sp, st), (dp, dt) in self.edges:
            if st >= dt:
                raise ValueError(f"edge ({sp},{st})->({dp},{dt}) not forward in time")
            if not (1 <= st and dt <= self.horizon):
                raise ValueError("edge outside horizon")

    def nodes(self) -> list[Node]:
        return [(p, t) for t in range(1, self.horizon + 1) for p in self.processes]

    def parents(self, node: Node) -> set[Node]:
        return {a for a, b in self.edges if b == node}

    def to_edge_list(self) -> str:
        lines = [
            f"{a[0]}:{a[1]} -> {b[0]}:{b[1]}"
            for a, b in sorted(self.edges, key=lambda e: (e[1][1], e[1][0], e[0][1], e[0][0]))
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _interior_edge_tests(model: JointMarkovModel) -> dict[tuple[str, str, int], float]:
    """Exact lagged conditional MI for every candidate edge type at an
    interior time, keyed by (source process, target process, lag): the
    source digit against the next target symbol, given every other digit of
    the stationary window."""
    d = model.order
    pi = _extended_window_dist(model, d)
    digits = [(proc, age) for age in range(d) for proc in ("X", "Y")]
    out: dict[tuple[str, str, int], float] = {}
    for dst, kernel in (("X", model.kernel_x), ("Y", model.kernel_y)):
        gamma = pi[:, None] * kernel  # joint over (window, next dst symbol)
        for lag in range(1, d + 1):
            for src in ("X", "Y"):
                side = (src, lag - 1)
                cond = [g for g in digits if g != side]
                out[(src, dst, lag)] = _next_symbol_cmi(model, gamma, [side], cond)
    return out


def build_unrolled_network(model: JointMarkovModel, horizon: int) -> UnrolledDag:
    """Unroll the model over 1..horizon; edge (S, t-lag) -> (S', t) appears
    iff its exact interior conditional MI exceeds EDGE_MI_THRESHOLD.

    By stationarity the edge pattern is time-invariant, so one interior test
    per (source, target, lag) decides all the replicated edges.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    tests = _interior_edge_tests(model)
    edges = set()
    for (src, dst, lag), mi in tests.items():
        if mi <= EDGE_MI_THRESHOLD:
            continue
        for t in range(1 + lag, horizon + 1):
            edges.add(((src, t - lag), (dst, t)))
    return UnrolledDag(("X", "Y"), horizon, frozenset(edges))


def d_separated(
    dag: UnrolledDag,
    a: Iterable[Node],
    b: Iterable[Node],
    c: Iterable[Node],
) -> bool:
    """Five-step d-separation test: ancestral subgraph, marry common parents,
    drop the conditioning set, undirect, then search for any connecting path."""
    A, B, C = set(a), set(b), set(c)
    if A & B or A & C or B & C:
        raise ValueError("node sets must be disjoint")
    # 1. keep only nodes with a directed path into A | B | C
    parents: dict[Node, set[Node]] = {}
    for u, v in dag.edges:
        parents.setdefault(v, set()).add(u)
    kept = set(A | B | C)
    stack = list(kept)
    while stack:
        node = stack.pop()
        for p in parents.get(node, ()):
            if p not in kept:
                kept.add(p)
                stack.append(p)
    # 2. undirected adjacency with married parents; 4. undirect originals
    adj: dict[Node, set[Node]] = {n: set() for n in kept}
    for u, v in dag.edges:
        if u in kept and v in kept:
            adj[u].add(v)
            adj[v].add(u)
    for v in kept:
        ps = [p for p in parents.get(v, ()) if p in kept]
        for p1, p2 in combinations(ps, 2):
            adj[p1].add(p2)
            adj[p2].add(p1)
    # 3. remove conditioning nodes
    for node in C:
        for other in adj.pop(node, set()):
            adj[other].discard(node)
    # 5. path search from A to B
    seen = set(A) - C
    stack = list(seen)
    while stack:
        node = stack.pop()
        if node in B:
            return False
        for nxt in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


@dataclass(frozen=True)
class MarkovicityReport:
    """Classifier output with the faithfulness caveat attached."""

    branch: str  # conditionally-d-markov | markov-order-le-2d | no-finite-order
    cross_mi: dict
    side_pair_mi_max: float
    caveat: str


def classify_markovicity(
    model: JointMarkovModel, horizon: int | None = None
) -> MarkovicityReport:
    """Decide whether the target process is finite-order Markov after
    marginalizing the side process.

    The side-pair condition is tested exactly on a finite unrolled horizon
    (default 2d+3, covering lags past 2d+1) under the stationary law.
    """
    d = model.order
    ih = horizon if horizon is not None else 2 * d + 3
    tests = _interior_edge_tests(model)
    cross = {lag: tests[("Y", "X", lag)] for lag in range(1, d + 1)}
    caveat = (
        "branch 'no-finite-order' reports failed d-separation on the "
        "constructed graph; conditional independence could still hold on a "
        "measure-zero (unfaithful) set of parameters"
    )
    if all(v <= EDGE_MI_THRESHOLD for v in cross.values()):
        return MarkovicityReport("conditionally-d-markov", cross, 0.0, caveat)
    worst = _max_side_pair_mi(model, ih)
    if worst <= EDGE_MI_THRESHOLD:
        return MarkovicityReport("markov-order-le-2d", cross, worst, caveat)
    return MarkovicityReport("no-finite-order", cross, worst, caveat)


def _max_side_pair_mi(model: JointMarkovModel, ih: int) -> float:
    """max over j < k <= i <= ih of I(Y_j ; Y_k | X^i) under the stationary
    law, enumerated exactly on the length-i prefix law of the unrolling."""
    B, mx, my = model.pair_count, model.mx, model.my
    arr = _extended_window_dist(model, ih)  # most recent time ih in low digit
    worst = 0.0
    for i in range(1, ih + 1):
        law = arr.reshape(B**i, -1).sum(axis=1)  # summed over the newest ih - i steps
        paths, ydig, xcode = np.arange(B**i), [], 0
        for shift in range(i - 1, -1, -1):  # times 1 .. i, oldest in the high digit
            pair = (paths // B**shift) % B
            ydig.append((pair // mx).astype(np.min_scalar_type(my - 1)))  # i rows kept: narrow
            xcode = xcode * mx + pair % mx
        for j, k in combinations(range(1, i + 1), 2):
            flat = (ydig[j - 1] * np.int64(my) + ydig[k - 1]) * mx**i + xcode  # (y_j, y_k, x^i)
            joint = np.bincount(flat, weights=law, minlength=my * my * mx**i)
            worst = max(worst, _cmi_table(joint.reshape(my, my, mx**i)))
    return worst


def nodeset_conditional_mi(
    model: JointMarkovModel,
    horizon: int,
    a: Iterable[Node],
    b: Iterable[Node],
    c: Iterable[Node],
) -> float:
    """Exact I(A ; B | C) between node sets of the unrolled horizon, by full
    path enumeration under the stationary law (small instances only)."""
    A, B, C = list(a), list(b), list(c)
    arr = _extended_window_dist(model, horizon)
    for node in A + B + C:
        if not (1 <= node[1] <= horizon):
            raise ValueError(f"node {node} outside horizon")
    paths = np.arange(model.pair_count**horizon)
    # a path is a window of horizon pairs, time t at age horizon - t; the
    # nodes go in reversed so that the first listed node is the top digit
    (ca, na), (cb, nb), (cc, nc) = (
        _group_code(model, paths, [(p, horizon - t) for p, t in reversed(g)]) for g in (A, B, C)
    )
    joint = np.bincount((ca * nb + cb) * nc + cc, weights=arr, minlength=na * nb * nc)
    return _cmi_table(joint.reshape(na, nb, nc))
