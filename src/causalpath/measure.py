"""Sample-path causal influence estimation from dual sequential predictors.

Two context-tree predictors run in lockstep over the target stream: a
"complete" one whose contexts couple target and side symbols, and a reference
one that either ignores the side process entirely (restricted) or sees it
with a staleness of k steps (partial). The per-step estimate is the KL
divergence in bits from the reference to the complete predictive distribution,
taken before the step's symbol is revealed.

A CausalTrace collects the per-step estimates, the per-step sum of absolute
predictor log-ratios (the quantity entering the finite-sample deviation
bound), optional exact oracle values, running totals, and the running
deviation bound. Exports use fixed columns
(i, estimate_bits, truth_bits?, c_i, cum_abs_err?, cum_bound); both the
cumulative error and the bound are normalized by n downstream, never by the
bound horizon.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import IO, Optional

import numpy as np

from .core import Alphabet, SymbolSeq
from .ctw import ContextSchema, ContextTree
from .markov import (
    JointMarkovModel,
    causal_measure_path,
    partial_measure_path,
)


@dataclass(frozen=True)
class EstimatorConfig:
    """Predictor shape for one estimation direction.

    depth is the context depth d of the complete predictor; staleness (when
    set) selects the partial reference predictor that is denied the most
    recent k side samples. direction is a label carried into outputs.
    """

    alphabet_x: Alphabet
    alphabet_y: Alphabet
    depth: int = 1
    staleness: Optional[int] = None
    direction: str = "y_to_x"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.staleness is not None and self.staleness < 1:
            raise ValueError("staleness must be >= 1 when given")


@dataclass
class CausalTrace:
    """Per-step record of a dual-predictor run."""

    estimate_bits: np.ndarray
    c: np.ndarray
    cum_estimate: np.ndarray
    cum_bound: np.ndarray
    logloss_complete: np.ndarray
    logloss_reference: np.ndarray
    truth_bits: Optional[np.ndarray] = None
    cum_abs_err: Optional[np.ndarray] = None
    snapshots: Optional[tuple[np.ndarray, np.ndarray]] = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.estimate_bits.size)

    def _columns(self) -> dict:
        """The exported columns, in order, as arrays."""
        cols = {"i": np.arange(1, len(self) + 1), "estimate_bits": self.estimate_bits}
        if self.truth_bits is not None:
            cols["truth_bits"] = self.truth_bits
        cols["c_i"] = self.c
        if self.cum_abs_err is not None:
            cols["cum_abs_err"] = self.cum_abs_err
        cols["cum_bound"] = self.cum_bound
        return cols

    def write_csv(self, fp: IO[str]) -> None:
        cols = self._columns()
        fp.write(",".join(cols) + "\n")
        # %.12g prints as {:.12g} does, %d of the float-stacked index as its int,
        # and %.0s a NaN bound as an empty field
        row = "%d," + "%.12g," * (len(cols) - 2)
        rows = (row + "%.12g\n", row + "%.0s\n")
        for lo in range(0, len(self), _CHUNK):  # one block of rows at a time bounds the strings
            at = slice(lo, lo + _CHUNK)
            block = np.column_stack([c[at] for c in cols.values()])
            fmt = "".join(map(rows.__getitem__, np.isnan(self.cum_bound[at]).tolist()))
            fp.write(fmt % tuple(block.ravel().tolist()))

    def to_records(self) -> list[dict]:
        """One dict per step; a NaN bound is None."""
        cols = {name: c.tolist() for name, c in self._columns().items()}
        cols["cum_bound"] = [None if math.isnan(b) else b for b in cols["cum_bound"]]
        return [dict(zip(cols, row)) for row in zip(*cols.values())]

    def write_records(self, fp: IO[str]) -> None:
        fp.write(json.dumps({"type": "metadata", **self.metadata}) + "\n")
        for rec in self.to_records():
            fp.write(json.dumps({"type": "step", **rec}) + "\n")


def abs_log_ratio_sum(p: np.ndarray, q: np.ndarray) -> float:
    """Sum over symbols of |log2 p(x)/q(x)|; the per-step coefficient entering
    the deviation bound. Both inputs must be strictly positive."""
    return float(np.abs(np.log2(np.asarray(p)) - np.log2(np.asarray(q))).sum())


# Steps per block of the bound curve, and of the dual run: bounds their temporaries.
_CHUNK, _BLOCK = 512, 2048


def causality_regret_bound(mc, mr, c_norm):
    """Finite-sample bound (bits) on cumulative absolute estimation error:
    mc + mr + (c_norm / sqrt(2)) * sqrt(mc), elementwise over arrays.

    Warns when mc < 1, where the bound's derivation premise is weakened.
    """
    mc, mr, c_norm = (np.asarray(v, dtype=np.float64) for v in (mc, mr, c_norm))
    if (mc < 0).any() or (mr < 0).any() or (c_norm < 0).any():
        raise ValueError("bound inputs must be nonnegative")
    if (mc < 1.0).any():
        warnings.warn(
            "complete-predictor regret budget below 1 bit; bound premise weakened",
            RuntimeWarning,
            stacklevel=2,
        )
    out = mc + mr + (c_norm / math.sqrt(2.0)) * np.sqrt(mc)
    return float(out) if out.ndim == 0 else out


def bound_curve(schema_c: ContextSchema, schema_r: ContextSchema, cvec: np.ndarray):
    """(first, mc, mr, bound): the first 1-based step with both regret
    budgets defined, then per step the complete and reference (plain without
    side information) budgets and the running deviation bound, NaN before
    first. From first on mc >= L(m - 1) + S > 1: the premise always holds."""
    n = cvec.size
    first = max(schema_c.leaf_count(), schema_r.leaf_count())
    mc, mr, bound = (np.full(n, np.nan) for _ in range(3))
    c_sq = np.cumsum(cvec**2)
    for lo in range(first - 1, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        steps = np.arange(lo + 1, hi + 1)
        mc[lo:hi], mr[lo:hi] = schema_c.regret_bound(steps), schema_r.regret_bound(steps)
        bound[lo:hi] = causality_regret_bound(mc[lo:hi], mr[lo:hi], np.sqrt(c_sq[lo:hi]))
    return first, mc, mr, bound


def _dual_run(xs, ys, schema_c: ContextSchema, schema_r: ContextSchema, keep_snapshots: bool):
    """One block update per tree and block of positions; returns rows
    (estimate, c, complete and reference log-loss), snapshots, run stats."""
    t0 = time.perf_counter()
    n = xs.size
    mx = schema_c.target_alphabet.size
    tree_c, tree_r = ContextTree(schema_c), ContextTree(schema_r)
    cols = np.empty((4, n))
    snaps = (np.empty((n, mx)), np.empty((n, mx))) if keep_snapshots else None
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        syms = xs[lo:hi]
        pc = tree_c.update(schema_c.key_paths(xs, ys, lo, hi), syms)
        pr = tree_r.update(schema_r.key_paths(xs, ys, lo, hi), syms)
        logs = np.log2(pc), np.log2(pr)
        ratios = logs[0] - logs[1]
        est = np.matmul(pc[:, None, :], ratios[:, :, None])[:, 0, 0]
        cols[0, lo:hi] = np.where(est < 0.0, 0.0, est)
        cols[1, lo:hi] = np.abs(ratios).sum(axis=1)
        cols[2:, lo:hi] = [-lp[np.arange(hi - lo), syms] for lp in logs]
        if snaps is not None:
            snaps[0][lo:hi], snaps[1][lo:hi] = pc, pr
    elapsed = time.perf_counter() - t0
    return cols, snaps, {
        "nodes_allocated": {
            "complete": tree_c.nodes_allocated, "reference": tree_r.nodes_allocated
        },
        "dual_run_s": elapsed,
        "dual_run_steps_per_s": n / elapsed if elapsed > 0 else None,
    }


def estimate_causal_trace(
    x: SymbolSeq,
    y: SymbolSeq,
    config: EstimatorConfig,
    truth_model: Optional[JointMarkovModel] = None,
    keep_snapshots: bool = False,
) -> CausalTrace:
    """Per-step causal influence of the side stream y on the target stream x:
    the complete (coupled-context) predictor against the reference that the
    config's staleness picks. None gives the restricted (target-only)
    predictor, k the stale one denied the newest k side samples; a k of at
    least the stream length never exposes a side symbol, so the reference and
    the truth are the restricted ones again. The truth path is timed like the
    dual run and the bound curve. Deterministic in its inputs."""
    xs, ys = _check_inputs(x, y, config, truth_model)
    n, k = xs.size, config.staleness
    if k is not None and k >= n:
        k = None
    side = None if k is None else config.alphabet_y
    schema_r = ContextSchema(config.alphabet_x, side, config.depth, k or 0)
    t0 = time.perf_counter()
    truth = None
    if truth_model is not None:
        truth = (
            causal_measure_path(truth_model, xs, ys) if k is None
            else partial_measure_path(truth_model, xs, ys, k)
        )
    truth_s = None if truth is None else time.perf_counter() - t0
    schema_c = ContextSchema(config.alphabet_x, config.alphabet_y, config.depth, 0)
    (est, cvec, llc, llr), snaps, stats = _dual_run(xs, ys, schema_c, schema_r, keep_snapshots)
    lc, sc, lr = schema_c.leaf_count(), schema_c.node_count(), schema_r.leaf_count()
    sr = None if schema_r.side_alphabet is None else schema_r.node_count()
    t0 = time.perf_counter()
    first, _, _, cum_bound = bound_curve(schema_c, schema_r, cvec)
    bound_s = time.perf_counter() - t0
    trace = CausalTrace(
        estimate_bits=est,
        c=cvec,
        cum_estimate=np.cumsum(est),
        cum_bound=cum_bound,
        logloss_complete=llc,
        logloss_reference=llr,
        snapshots=snaps,
        metadata={
            "direction": config.direction,
            "depth": config.depth,
            "staleness": config.staleness,
            "n": int(n),
            "alphabet_x": config.alphabet_x.size,
            "alphabet_y": config.alphabet_y.size,
            "reference": "restricted" if sr is None else "stale",
            "complete_leaves": lc,
            "complete_nodes": sc,
            "reference_leaves": lr,
            "reference_nodes": sr,
            "warmup": max(schema_c.total_depth, schema_r.total_depth),
            "bound_defined_from": first if first <= n else None,
            **stats,
            "truth_s": truth_s,
            "truth_steps_per_s": n / truth_s if truth_s else None,
            "bound_s": bound_s,
            "units": "bits",
            "normalization": "cum_abs_err and cum_bound are divided by n when normalized",
        },
    )
    if truth is not None:
        trace.truth_bits = truth
        trace.cum_abs_err = np.cumsum(np.abs(est - truth))
    return trace


def estimate_partial_trace(
    x: SymbolSeq,
    y: SymbolSeq,
    config: EstimatorConfig,
    truth_model: Optional[JointMarkovModel] = None,
    keep_snapshots: bool = False,
) -> CausalTrace:
    """estimate_causal_trace for a config that must carry a staleness."""
    if config.staleness is None:
        raise ValueError("partial trace requires a staleness in the config")
    return estimate_causal_trace(x, y, config, truth_model, keep_snapshots)


def _check_inputs(x: SymbolSeq, y: SymbolSeq, config: EstimatorConfig, model):
    """Every check of the streams and oracle model, once, before any step."""
    if len(x) != len(y):
        raise ValueError("target and side streams must have equal length")
    if x.alphabet != config.alphabet_x or y.alphabet != config.alphabet_y:
        raise ValueError("stream alphabets do not match the config")
    for seq in (x, y):
        if seq.data.size and (seq.data.min() < 0 or seq.data.max() >= seq.alphabet.size):
            raise ValueError("stream symbol out of alphabet range")
    if model is not None and (
        model.alphabet_x != config.alphabet_x or model.alphabet_y != config.alphabet_y
    ):
        raise ValueError("oracle model alphabets do not match the config")
    return x.data, y.data


def c_vector(trace: CausalTrace) -> tuple[np.ndarray, float]:
    """Per-step sums of absolute predictor log-ratios and their l2 norm."""
    if trace.c is None:
        raise ValueError("trace carries no predictor log-ratio record")
    return trace.c, float(np.sqrt(np.sum(trace.c**2)))


def realized_causality_regret(trace: CausalTrace) -> np.ndarray:
    """Running cumulative absolute deviation between estimate and truth."""
    if trace.truth_bits is None:
        raise ValueError("trace carries no truth column")
    return np.cumsum(np.abs(trace.estimate_bits - trace.truth_bits))


def plug_in_di_rate(trace: CausalTrace) -> float:
    """Time-averaged estimate: the plug-in directed-information rate."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return float(trace.estimate_bits.mean())
