"""Per-layer tracing from outside the library.

The tracer wraps the public functions and methods of the causalpath modules
for the length of one traced op and restores them afterwards. Each wrapped
call is one of two kinds:

- a span: a coarse call (a CLI command, an estimate, a stationary solve)
  recorded as (id, name, layer, start, end, parent, op id), kept in memory
  and written out once when the run ends;
- a hot call: a per-step call (a CTW predict, a ProbDist, a filter step)
  that is only counted and timed, because one record per call would not fit
  in memory. A span-kind function called inside a hot call is treated as hot
  too, so spans always form a tree and hot calls sit only at its fringe.

Self time is a call's duration minus the part its children cover. For a span
that is its duration minus the union of its child spans' intervals minus the
time of the hot calls made directly under it (`self_times`); a hot call's
self time is its duration minus its hot children, added up per layer online.

Callers inside the library import names with `from .x import y`, so a module
function is replaced in every causalpath module that holds it, not only in
the module that defines it.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("ctw", "core", "markov", "measure", "graphs", "ingest", "cli")

HOT, SPAN = True, False


def _count_trees(op, args, result, token):
    op.trees.append(args[0])


def _residual(op, args, result, token):
    op.residual_max = max(op.residual_max, float(result.residual))


def _rows(op, args, result, token):
    op.counters["ingest.rows"] += len(result)


def _simulate_steps(op, args, result, token):
    op.counters["markov.simulate.steps"] += len(result[0])


def _tell(args):
    return args[1].tell()


def _export_bytes(op, args, result, token):
    op.counters["measure.export.bytes"] += args[1].tell() - token


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `attr` is a function name or `Class.method`."""

    module: str
    attr: str
    layer: str
    hot: bool
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# The regret-bound formulas live in ctw, but the bound curve of measure is their
# only per-step caller, so they are accounted as measure's bound work.
TARGETS = (
    Target("ctw", "ContextTree.__init__", "ctw", HOT, after=_count_trees),
    Target("ctw", "ContextTree.predict", "ctw", HOT),
    Target("ctw", "ContextTree.observe", "ctw", HOT),
    Target("ctw", "ContextTree.dump", "ctw", SPAN),
    Target("ctw", "ContextTree.load", "ctw", SPAN),
    Target("ctw", "ContextTree.validate", "ctw", SPAN),
    Target("ctw", "ContextSchema.context_at", "ctw", HOT),
    Target("ctw", "ContextSchema.leaf_count", "ctw", HOT),
    Target("ctw", "ContextSchema.node_count", "ctw", HOT),
    Target("ctw", "kt_predict", "ctw", HOT),
    Target("ctw", "regret_bound_plain", "measure", HOT),
    Target("ctw", "regret_bound_side_info", "measure", HOT),
    Target("core", "ProbDist.__post_init__", "core", HOT),
    Target("core", "SymbolSeq.__post_init__", "core", HOT),
    Target("core", "kl_divergence", "core", HOT),
    Target("core", "entropy", "core", HOT),
    Target("core", "total_variation", "core", HOT),
    Target("markov", "simulate", "markov", SPAN, after=_simulate_steps),
    Target("markov", "random_model", "markov", SPAN),
    Target("markov", "JointMarkovModel.load", "markov", SPAN),
    Target("markov", "JointMarkovModel.save", "markov", SPAN),
    Target("markov", "JointMarkovModel.swapped", "markov", SPAN),
    Target("markov", "RestrictedFilter.__init__", "markov", HOT),
    Target("markov", "RestrictedFilter.predict", "markov", HOT),
    Target("markov", "RestrictedFilter.observe", "markov", HOT),
    Target("markov", "true_complete_dist", "markov", HOT),
    Target("markov", "stale_history_dist", "markov", HOT),
    Target("markov", "true_restricted_brute", "markov", HOT),
    Target("markov", "true_partial_dist", "markov", HOT),
    Target("markov", "true_causal_measure", "markov", HOT),
    Target("markov", "true_partial_causal_measure", "markov", HOT),
    Target("markov", "causal_measure_path", "markov", SPAN),
    Target("markov", "partial_measure_path", "markov", SPAN),
    Target("markov", "stationary_distribution", "markov", SPAN, after=_residual),
    Target("markov", "exact_pdi_rate", "markov", SPAN),
    Target("markov", "exact_tdi_rate", "markov", SPAN),
    Target("markov", "mc_di_rate", "markov", SPAN),
    Target("markov", "directed_information", "markov", SPAN),
    Target("markov", "expected_causal_sum", "markov", SPAN),
    Target("measure", "estimate_causal_trace", "measure", SPAN),
    Target("measure", "estimate_partial_trace", "measure", SPAN),
    Target("measure", "causality_regret_bound", "measure", HOT),
    Target("measure", "abs_log_ratio_sum", "measure", HOT),
    Target("measure", "plug_in_di_rate", "measure", HOT),
    Target("measure", "c_vector", "measure", HOT),
    Target("measure", "realized_causality_regret", "measure", HOT),
    Target("measure", "CausalTrace.write_csv", "measure", SPAN, _tell, _export_bytes),
    Target("measure", "CausalTrace.write_records", "measure", SPAN, _tell, _export_bytes),
    Target("measure", "CausalTrace.to_records", "measure", SPAN),
    Target("graphs", "build_unrolled_network", "graphs", SPAN),
    Target("graphs", "classify_markovicity", "graphs", SPAN),
    Target("graphs", "d_separated", "graphs", SPAN),
    Target("graphs", "nodeset_conditional_mi", "graphs", SPAN),
    Target("ingest", "load_price_csv", "ingest", SPAN, after=_rows),
    Target("ingest", "align_calendars", "ingest", SPAN),
    Target("ingest", "pct_change_quantize", "ingest", SPAN),
    Target("ingest", "shift_for_market_order", "ingest", SPAN),
    Target("ingest", "write_symbol_csv", "ingest", SPAN),
    Target("ingest", "read_symbol_csv", "ingest", SPAN, after=_rows),
    Target("cli", "main", "cli", SPAN),
    Target("cli", "build_parser", "cli", SPAN),
    Target("cli", "cmd_simulate", "cli", SPAN),
    Target("cli", "cmd_estimate", "cli", SPAN),
    Target("cli", "cmd_bounds", "cli", SPAN),
    Target("cli", "cmd_dsep", "cli", SPAN),
    Target("cli", "cmd_stocks", "cli", SPAN),
)

ROOT = "bench.op"

# Per-layer metrics are in seconds unless listed here.
UNITS = {
    "ctw.predict.calls": "count",
    "ctw.observe.calls": "count",
    "ctw.trees": "count",
    "ctw.nodes": "count",
    "ctw.us_per_step": "us",
    "core.probdist.created": "count",
    "core.kl.calls": "count",
    "markov.simulate.steps": "count",
    "markov.filter.predict.calls": "count",
    "markov.true_partial_dist.calls": "count",
    "markov.stationary.calls": "count",
    "markov.stationary.residual_max": "prob",
    "measure.bound.calls": "count",
    "measure.export.bytes": "bytes",
    "ingest.rows": "count",
    "cli.bytes_written": "bytes",
    "trace.coverage_frac": "frac",
    "trace.coverage_frac_min": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    hot_cover: float = 0.0  # time of the hot calls made directly under it


@dataclass
class OpTrace:
    """Everything one traced op recorded, before it is reduced to metrics."""

    op: int
    spans: list = field(default_factory=list)
    calls: dict = field(default_factory=dict)  # name -> [calls, inclusive s]
    hot_self: dict = field(default_factory=dict)  # layer -> self s of hot calls
    counters: dict = field(
        default_factory=lambda: {
            "ingest.rows": 0,
            "markov.simulate.steps": 0,
            "measure.export.bytes": 0,
            "cli.bytes_written": 0,
        }
    )
    trees: list = field(default_factory=list)
    tree_nodes: int = 0
    residual_max: float = 0.0


class _Frame:
    __slots__ = ("hot", "span_id", "child", "hot_cover")

    def __init__(self, hot: bool, span_id: Optional[int]):
        self.hot = hot
        self.span_id = span_id
        self.child = 0.0
        self.hot_cover = 0.0


def _causalpath_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "causalpath" or name.startswith("causalpath."))
    ]


class Tracer:
    """Wraps the library for one op at a time and keeps what the ops record."""

    def __init__(self):
        self.ops: list[OpTrace] = []
        self._stack: list[_Frame] = []
        self._cur: Optional[OpTrace] = None
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installing the wrappers -------------------------------------------------

    def install(self) -> None:
        modules = _causalpath_modules()
        for target in TARGETS:
            mod = sys.modules["causalpath." + target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, target))
                else:
                    new = self._wrap(raw, target)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            else:
                orig = getattr(mod, target.attr)
                new = self._wrap(orig, target)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, new)
                            self._undo.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def _wrap(self, fn, target: Target):
        tracer = self
        name, layer, hot = target.name, target.layer, target.hot
        before, after = target.before, target.after

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            is_hot = hot or parent.hot
            span_id = None
            if not is_hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = _Frame(is_hot, span_id)
            token = before(args) if before is not None else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(frame, name, layer, parent, t0, t1)
            if after is not None:
                after(tracer._cur, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _close(self, frame: _Frame, name, layer, parent: _Frame, t0, t1) -> None:
        dur = t1 - t0
        op = self._cur
        rec = op.calls.get(name)
        if rec is None:
            op.calls[name] = [1, dur]
        else:
            rec[0] += 1
            rec[1] += dur
        parent.child += dur
        if frame.hot:
            op.hot_self[layer] = op.hot_self.get(layer, 0.0) + dur - frame.child
            if not parent.hot:
                parent.hot_cover += dur
        else:
            op.spans.append(
                Span(frame.span_id, name, layer, t0, t1, parent.span_id, op.op, frame.hot_cover)
            )

    # -- one traced op -------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._cur = OpTrace(op_id)
        self._root = _Frame(False, self._next_id)
        self._next_id += 1
        self._stack.append(self._root)
        self._t0 = perf_counter()

    def end_op(self) -> OpTrace:
        t1 = perf_counter()
        self._stack.pop()
        op = self._cur
        op.spans.append(
            Span(self._root.span_id, ROOT, "bench", self._t0, t1, None, op.op, self._root.hot_cover)
        )
        op.tree_nodes = sum(sum(1 for _ in tree.nodes()) for tree in op.trees)
        op.trees = []
        self.ops.append(op)
        self._cur = None
        return op


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span id: the span's duration minus the union of its
    children's intervals (clipped to the span) minus its hot-call cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped) - s.hot_cover
    return out


def op_metrics(op: OpTrace) -> dict:
    """Per-layer metrics of one traced op (seconds are per op)."""
    selfs = self_times(op.spans)
    layer_self = dict(op.hot_self)
    root_s = 0.0
    for s in op.spans:
        if s.name == ROOT:
            root_s = s.end - s.start
        else:
            layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[s.id]
    estimate_self = sum(
        selfs[s.id]
        for s in op.spans
        if s.name in ("measure.estimate_causal_trace", "measure.estimate_partial_trace")
    )

    def calls(*names):
        return sum(op.calls.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(op.calls.get(n, (0, 0.0))[1] for n in names)

    ctw_step = ("ctw.ContextTree.predict", "ctw.ContextTree.observe", "ctw.ContextSchema.context_at")
    steps = calls("ctw.ContextTree.observe") / 2  # each dual-run step updates two trees
    bound = ("measure.causality_regret_bound", "ctw.regret_bound_plain", "ctw.regret_bound_side_info")
    export = ("measure.CausalTrace.write_csv", "measure.CausalTrace.write_records")
    m = {
        "ctw.predict.calls": calls("ctw.ContextTree.predict"),
        "ctw.predict.s": secs("ctw.ContextTree.predict"),
        "ctw.observe.calls": calls("ctw.ContextTree.observe"),
        "ctw.observe.s": secs("ctw.ContextTree.observe"),
        "ctw.context_at.s": secs("ctw.ContextSchema.context_at"),
        "ctw.trees": calls("ctw.ContextTree.__init__"),
        "ctw.nodes": op.tree_nodes,
        "ctw.us_per_step": 1e6 * secs(*ctw_step) / steps if steps else 0.0,
        "core.probdist.created": calls("core.ProbDist.__post_init__"),
        "core.probdist.s": secs("core.ProbDist.__post_init__"),
        "core.kl.calls": calls("core.kl_divergence"),
        "core.kl.s": secs("core.kl_divergence"),
        "markov.simulate.s": secs("markov.simulate"),
        "markov.simulate.steps": op.counters["markov.simulate.steps"],
        "markov.filter.predict.calls": calls("markov.RestrictedFilter.predict"),
        "markov.filter.predict.s": secs("markov.RestrictedFilter.predict"),
        "markov.filter.observe.s": secs("markov.RestrictedFilter.observe"),
        "markov.causal_measure_path.s": secs("markov.causal_measure_path"),
        "markov.mc_di_rate.s": secs("markov.mc_di_rate"),
        "markov.exact_rates.s": secs("markov.exact_pdi_rate", "markov.exact_tdi_rate"),
        "markov.true_partial_dist.calls": calls("markov.true_partial_dist"),
        "markov.stationary.calls": calls("markov.stationary_distribution"),
        "markov.stationary.s": secs("markov.stationary_distribution"),
        "markov.stationary.residual_max": op.residual_max,
        "measure.estimate.s": secs(
            "measure.estimate_causal_trace", "measure.estimate_partial_trace"
        ),
        "measure.self_s": estimate_self,
        "measure.bound.calls": calls(*bound),
        "measure.bound.s": secs(*bound),
        "measure.export.s": secs(*export),
        "measure.export.bytes": op.counters["measure.export.bytes"],
        "graphs.classify.s": secs("graphs.classify_markovicity"),
        "graphs.unroll.s": secs("graphs.build_unrolled_network"),
        "ingest.read_symbols.s": secs("ingest.read_symbol_csv"),
        "ingest.prices.s": secs(
            "ingest.load_price_csv",
            "ingest.align_calendars",
            "ingest.pct_change_quantize",
            "ingest.shift_for_market_order",
        ),
        "ingest.rows": op.counters["ingest.rows"],
        "cli.s": secs("cli.main"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.bytes_written": op.counters["cli.bytes_written"],
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
    covered = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
    m["trace.coverage_frac"] = covered / root_s if root_s > 0 else 0.0
    return m


def run_metrics(
    ops: list[OpTrace], scales: list[float], traced_s: list[float], untraced_s: list[float]
) -> dict:
    """Median over traced ops of each per-op metric, plus the tracing
    overhead: median traced over median untraced op time, minus one.

    The layer times are measured in wall seconds; `scales[i]` turns op i's
    wall seconds into the normalized seconds of `traced_s[i]`, so that every
    time of the result is on the same scale."""
    per_op = []
    for op, scale in zip(ops, scales):
        m = op_metrics(op)
        for key in m:
            if UNITS.get(key, "s") in ("s", "us"):
                m[key] *= scale
        per_op.append(m)
    out = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    out["trace.coverage_frac_min"] = min(m["trace.coverage_frac"] for m in per_op)
    out["trace.op_s"] = statistics.median(traced_s)
    out["trace.untraced_op_s"] = statistics.median(untraced_s)
    out["trace.overhead_frac"] = out["trace.op_s"] / out["trace.untraced_op_s"] - 1.0
    return out


def span_records(ops: list[OpTrace]) -> list[dict]:
    """Spans of all traced ops with their self times, for the trace file."""
    out = []
    for op in ops:
        selfs = self_times(op.spans)
        for s in op.spans:
            out.append(
                {
                    "id": s.id,
                    "name": s.name,
                    "layer": s.layer,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "self_s": selfs[s.id],
                }
            )
    return out
