"""Command-line front end: reproducible simulation, estimation, bound reports,
graph analysis, and the stock-index pipeline.

Every run writes a metadata.json next to its outputs echoing the full
configuration, seeds, and library versions, so any result can be reproduced
from the metadata alone. Exit codes: 0 success, 2 input error, 3 numerical
failure (non-ergodic model or an absolute-continuity violation).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import AbsoluteContinuityError, Alphabet, SymbolSeq
from .ctw import ContextSchema
from .graphs import build_unrolled_network, classify_markovicity
from .ingest import (
    QuantizerSpec,
    align_calendars,
    load_price_csv,
    pct_change_quantize,
    read_csv_column,
    read_symbol_csv,
    shift_for_market_order,
    write_symbol_csv,
)
from .markov import JointMarkovModel, NonErgodicError, simulate
from .measure import (
    CausalTrace,
    EstimatorConfig,
    bound_curve,
    estimate_causal_trace,
    estimate_partial_trace,
    plug_in_di_rate,
)
from .scenarios import SCENARIO_NAMES, scenario_model

OUT_ENV_VAR = "CAUSALPATH_OUT"
_SUMMARY_ROW = "{},{},{},{:.4f},{:.12g},{:.12g},{:.12g},{:.12g}\n"


def _outdir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV_VAR)
    if not out:
        raise ValueError(f"no output directory: pass --out or set {OUT_ENV_VAR}")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_metadata(outdir: Path, command: str, payload: dict) -> None:
    record = {
        "command": command,
        "causalpath_version": __version__,
        "numpy_version": np.__version__,
        **payload,
    }
    with open(outdir / "metadata.json", "w") as fp:
        json.dump(record, fp, indent=1, sort_keys=True)
        fp.write("\n")


def _load_model(args) -> JointMarkovModel:
    if getattr(args, "model", None):
        return JointMarkovModel.load(args.model)
    if getattr(args, "scenario", None):
        params = {}
        for key in ("epsilon", "p1", "p2"):
            v = getattr(args, key, None)
            if v is not None:
                params[key] = v
        return scenario_model(args.scenario, **params)
    raise ValueError("need --model or --scenario")


def _write_symbols(outdir: Path, name: str, seq: SymbolSeq, fmt: str, dates=None) -> None:
    """A symbol CSV, or JSON lines of the same fields; dates are ISO strings."""
    if fmt == "csv":
        with open(outdir / f"{name}.csv", "w") as fp:
            write_symbol_csv(fp, seq, dates)
    else:
        with open(outdir / f"{name}.jsonl", "w") as fp:
            for i, sym in enumerate(seq.data, start=1):
                rec = {"i": i, "symbol": int(sym)}
                if dates is not None:
                    rec["date"] = dates[i - 1]
                fp.write(json.dumps(rec) + "\n")


def _write_trace(outdir: Path, name: str, trace: CausalTrace, fmt: str) -> Path:
    if fmt == "csv":
        path = outdir / f"{name}.csv"
        with open(path, "w") as fp:
            trace.write_csv(fp)
    else:
        path = outdir / f"{name}.jsonl"
        with open(path, "w") as fp:
            trace.write_records(fp)
    return path


# -- subcommands -------------------------------------------------------------------


def cmd_simulate(args) -> int:
    outdir = _outdir(args)
    model = _load_model(args)
    x, y = simulate(model, args.n, args.seed)
    _write_symbols(outdir, "x", x, args.format)
    _write_symbols(outdir, "y", y, args.format)
    _write_metadata(
        outdir,
        "simulate",
        {
            "scenario": args.scenario,
            "model": args.model,
            "n": args.n,
            "seed": args.seed,
            "format": args.format,
            "alphabet_x": model.mx,
            "alphabet_y": model.my,
            "order": model.order,
            "stationary_start": not model.has_custom_initial,
        },
    )
    print(f"wrote x/y symbol files ({args.n} steps) to {outdir}")
    return 0


def _direction_runs(args, x: SymbolSeq, y: SymbolSeq, model):
    """(label, target, side, truth_model) per requested direction."""
    runs = []
    if args.direction in ("yx", "both"):
        runs.append(("y_to_x", x, y, model))
    if args.direction in ("xy", "both"):
        runs.append(("x_to_y", y, x, model.swapped() if model is not None else None))
    return runs


def cmd_estimate(args) -> int:
    outdir = _outdir(args)
    model = JointMarkovModel.load(args.model) if args.model else None
    # an oracle model fixes the alphabets, which a short stream may not use in full
    ax, ay = (model.alphabet_x, model.alphabet_y) if model else (None, None)
    ax = Alphabet(args.alphabet_x) if args.alphabet_x else ax
    ay = Alphabet(args.alphabet_y) if args.alphabet_y else ay
    t0 = time.perf_counter()
    x = read_symbol_csv(args.x, ax)
    t1 = time.perf_counter()
    y = read_symbol_csv(args.y, ay)
    read_s = {"x": t1 - t0, "y": time.perf_counter() - t1}
    source = "model" if model else "inferred"
    alphabets = {  # each alphabet's size and where it came from
        name: {"size": seq.alphabet.size, "source": "flag" if flag else source}
        for name, seq, flag in (("x", x, args.alphabet_x), ("y", y, args.alphabet_y))
    }
    written = []
    trace_meta = {}
    for label, target, side, truth in _direction_runs(args, x, y, model):
        config = EstimatorConfig(
            target.alphabet, side.alphabet, depth=args.d, staleness=args.k, direction=label
        )
        if args.k is not None:
            trace = estimate_partial_trace(target, side, config, truth_model=truth)
        else:
            trace = estimate_causal_trace(target, side, config, truth_model=truth)
        t0 = time.perf_counter()
        path = _write_trace(outdir, f"trace_{label}", trace, args.format)
        export_s = time.perf_counter() - t0
        written.append(str(path))
        trace_meta[label] = {
            **trace.metadata, "export_s": export_s, "export_bytes": path.stat().st_size
        }
        print(
            f"{label}: n={len(trace)} plug-in rate={plug_in_di_rate(trace):.6f} bits/step"
            f" (L={trace.metadata['reference_leaves']}, S={trace.metadata['reference_nodes']}"
            f" reference; L={trace.metadata['complete_leaves']},"
            f" S={trace.metadata['complete_nodes']} complete)"
        )
    _write_metadata(
        outdir,
        "estimate",
        {
            "x": args.x,
            "y": args.y,
            "model": args.model,
            "d": args.d,
            "k": args.k,
            "direction": args.direction,
            "format": args.format,
            "alphabets": alphabets,
            "read_s": read_s,
            "traces": written,
            "truth_columns": model is not None,
            "trace_metadata": trace_meta,
        },
    )
    return 0


def cmd_bounds(args) -> int:
    m = args.m
    side_m = args.side_m or m
    # estimate's checks of depth and staleness
    config = EstimatorConfig(Alphabet(m), Alphabet(side_m), depth=args.d, staleness=args.k)
    schemas = {
        "restricted": ContextSchema(config.alphabet_x, None, args.d, 0),
        "complete": ContextSchema(config.alphabet_x, config.alphabet_y, args.d, 0),
    }
    if args.k is not None:
        schemas["stale"] = ContextSchema(config.alphabet_x, config.alphabet_y, args.d, args.k)
    report: dict = {"m": m, "side_m": side_m, "d": args.d, "n": args.n}
    lines = []  # printed once every bound is defined
    for name, schema in schemas.items():
        entry = {"k": args.k} if name == "stale" else {}
        entry["L"] = schema.leaf_count()
        line = f"{name + ' predictor:':21} L={entry['L']}"
        if schema.side_alphabet is not None:
            entry["S"] = schema.node_count()
            line += f" S={entry['S']}"
        entry["bound_bits"] = schema.regret_bound(args.n)
        report[name] = entry
        lines.append(f"{line} bound={entry['bound_bits']:.2f} bits")
    print("\n".join(lines))
    if args.trace:
        reference = schemas.get("stale", schemas["restricted"])
        curve = _bound_curve_from_trace(args.trace, schemas["complete"], reference)
        report["trace"] = args.trace
        if args.out:
            outdir = _outdir(args)
            with open(outdir / "bound_curve.csv", "w") as fp:
                fp.write("i,m_complete,m_reference,bound_bits\n")
                for row in curve:
                    fp.write(",".join("" if math.isnan(v) else f"{v:.12g}" for v in row) + "\n")
            print(f"wrote bound curve ({len(curve)} rows) to {outdir / 'bound_curve.csv'}")
    if args.out:
        outdir = _outdir(args)
        _write_metadata(outdir, "bounds", report)
    return 0


def _bound_curve_from_trace(trace_path: str, complete, reference) -> np.ndarray:
    """Rows (i, m_complete, m_reference, bound_bits), NaN where undefined."""
    c = read_csv_column(trace_path, "c_i", float)
    if c is None or not c.size:
        raise ValueError(f"{trace_path}: not a trace export with a c_i column")
    bad = np.flatnonzero(~np.isfinite(c) | (c < 0.0))
    if bad.size:
        raise ValueError(
            f"{trace_path}: row {bad[0] + 1} has c_i = {c[bad[0]]}; need a finite value >= 0"
        )
    _, mc, mr, bound = bound_curve(complete, reference, c)
    return np.column_stack([np.arange(1, c.size + 1), mc, mr, bound])


def cmd_dsep(args) -> int:
    outdir = _outdir(args)
    model = _load_model(args)
    horizon = args.horizon or (2 * model.order + 3)
    dag = build_unrolled_network(model, horizon)
    report = classify_markovicity(model)
    with open(outdir / "edges.txt", "w") as fp:
        fp.write(dag.to_edge_list())
    _write_metadata(
        outdir,
        "dsep",
        {
            "scenario": args.scenario,
            "model": args.model,
            "horizon": horizon,
            "edge_count": len(dag.edges),
            "classification": report.branch,
            "cross_mi_bits": {str(k): v for k, v in report.cross_mi.items()},
            "side_pair_mi_max_bits": report.side_pair_mi_max,
            "faithfulness_caveat": report.caveat,
        },
    )
    print(f"classification: {report.branch}")
    print(f"edges ({len(dag.edges)}) written to {outdir / 'edges.txt'}")
    print(f"caveat: {report.caveat}")
    return 0


def cmd_stocks(args) -> int:
    outdir = _outdir(args)
    series_a = load_price_csv(args.prices_a)
    series_b = load_price_csv(args.prices_b)
    aligned_a, aligned_b, align_meta = align_calendars(series_a, series_b)
    spec = QuantizerSpec(args.threshold)
    sym_a = pct_change_quantize(aligned_a, spec)
    sym_b = pct_change_quantize(aligned_b, spec)
    dates = [day.isoformat() for day in aligned_a.dates[1:]]  # once, for both files
    _write_symbols(outdir, f"symbols_{args.label_a}", sym_a, args.format, dates)
    _write_symbols(outdir, f"symbols_{args.label_b}", sym_b, args.format, dates)
    del dates  # else the strings stay alive through both estimates

    rates = {}
    trace_meta = {}
    # a -> b: market b's move conditioned on market a's strictly prior close
    runs = [
        (f"{args.label_a}_to_{args.label_b}", sym_b, sym_a),
        # b -> a: market b closes earlier the same day, so lag it one extra step
        (f"{args.label_b}_to_{args.label_a}",) + shift_for_market_order(sym_a, sym_b),
    ]
    for label, target, side in runs:
        config = EstimatorConfig(
            target.alphabet, side.alphabet, depth=args.d, direction=label
        )
        trace = estimate_causal_trace(target, side, config)
        _write_trace(outdir, f"trace_{label}", trace, args.format)
        rates[label] = plug_in_di_rate(trace)
        trace_meta[label] = trace.metadata
        with open(outdir / f"summary_{label}.csv", "w") as fp:
            fp.write("target_prev,side_prev,count,occupancy_pct,"
                     "mean_bits,median_bits,q25_bits,q75_bits\n")
            fp.writelines(_SUMMARY_ROW.format(*row) for row in _state_summary(trace, target, side))
            fp.write(f"plug_in_di_bits,,,,{rates[label]:.12g},,,\n")
        print(f"{label}: plug-in rate = {rates[label]:.6f} bits/step")
    _write_metadata(
        outdir,
        "stocks",
        {
            "prices_a": args.prices_a,
            "prices_b": args.prices_b,
            "label_a": args.label_a,
            "label_b": args.label_b,
            "threshold": args.threshold,
            "tie_rule": "exact threshold moves map to symbol 1",
            "d": args.d,
            "format": args.format,
            "alignment": align_meta,
            "plug_in_di_bits": rates,
            "trace_metadata": trace_meta,
        },
    )
    return 0


def _state_summary(trace: CausalTrace, target: SymbolSeq, side: SymbolSeq) -> list[tuple]:
    """Rows (target_prev, side_prev, count, occupancy_pct, mean, median, q25,
    q75) of the estimate at steps 1..n-1 grouped by the previous (target,
    side) pair, in state order; an unvisited state has no row."""
    m = side.alphabet.size
    state = target.data[:-1] * m + side.data[:-1]
    # a stable sort keeps each state's values a contiguous run in time order
    runs = trace.estimate_bits[1:][np.argsort(state, kind="stable")]
    counts = np.bincount(state, minlength=target.alphabet.size * m)
    ends = np.cumsum(counts)
    rows = []
    for code in np.flatnonzero(counts).tolist():
        vals = runs[ends[code] - counts[code]:ends[code]]
        rows.append((code // m, code % m, vals.size, 100.0 * vals.size / state.size,
                     float(vals.mean()), float(np.median(vals)),
                     *np.quantile(vals, [0.25, 0.75]).tolist()))
    return rows


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalpath",
        description=(
            "Sample-path causal influence between discrete time series via "
            "sequential prediction, with exact Markov oracles and regret bounds."
        ),
        epilog=f"Default output directory comes from ${OUT_ENV_VAR} when --out is omitted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR})")
        p.add_argument(
            "--format", choices=("csv", "records"), default="csv",
            help="tabular exports as CSV or JSON-lines records",
        )

    def add_model_source(p):
        p.add_argument("--model", help="model description JSON file")
        p.add_argument(
            "--scenario", choices=SCENARIO_NAMES, help="built-in pinned scenario"
        )
        p.add_argument("--epsilon", type=float, help="cross-copy / iid-influence noise")
        p.add_argument("--p1", type=float, help="iid-influence law when side = 1")
        p.add_argument("--p2", type=float, help="iid-influence law when side = 0")

    p = sub.add_parser("simulate", help="sample symbol streams from a model")
    add_model_source(p)
    p.add_argument("--n", type=int, required=True, help="stream length")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    add_out(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate causal influence from symbol files")
    p.add_argument("--x", required=True, help="target symbol CSV")
    p.add_argument("--y", required=True, help="side symbol CSV")
    p.add_argument("--model", help="model JSON for oracle truth columns")
    p.add_argument("--d", type=int, default=1, help="context depth")
    p.add_argument("--k", type=int, help="staleness; selects the partial estimator")
    p.add_argument(
        "--direction", choices=("yx", "xy", "both"), default="both",
        help="yx estimates the influence of y on x",
    )
    p.add_argument("--alphabet-x", type=int,
                   help="target alphabet size (default: the model's, else inferred)")
    p.add_argument("--alphabet-y", type=int,
                   help="side alphabet size (default: the model's, else inferred)")
    add_out(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="worst-case regret and deviation bounds")
    p.add_argument("--m", type=int, required=True, help="target alphabet size")
    p.add_argument("--side-m", type=int, help="side alphabet size (default m)")
    p.add_argument("--d", type=int, default=1, help="context depth")
    p.add_argument("--k", type=int, help="staleness for the stale-tree bound")
    p.add_argument("--n", type=int, required=True, help="horizon")
    p.add_argument("--trace", help="trace CSV; adds the full per-prefix bound curve")
    add_out(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("dsep", help="unrolled network edges and Markovicity class")
    add_model_source(p)
    p.add_argument("--horizon", type=int, help="unrolling horizon (default 2d+3)")
    add_out(p)
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("stocks", help="price CSVs to per-state causal summaries")
    p.add_argument("--prices-a", required=True, help="market A price CSV (closes later in the day)")
    p.add_argument("--prices-b", required=True, help="market B price CSV (closes earlier in the day)")
    p.add_argument("--label-a", default="a", help="output label for market A")
    p.add_argument("--label-b", default="b", help="output label for market B")
    p.add_argument("--threshold", type=float, default=0.008, help="quantizer threshold")
    p.add_argument("--d", type=int, default=1, help="context depth")
    add_out(p)
    p.set_defaults(func=cmd_stocks)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonErgodicError, AbsoluteContinuityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
