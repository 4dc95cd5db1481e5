"""Benchmark of causalpath: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload trace_oracle --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
With `--trace 0` the run times whole ops and prints the end-to-end metrics;
with `--trace 1` it alternates untraced and traced ops on the same inputs and
prints the per-layer metrics. Human-readable lines go first; the last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. A full record of the run (machine, per-op times and
check results, and for a traced run every span) is written to
`.perfbench_out/` in the checkout.

The run is one process with no worker threads; BLAS and OpenMP are pinned
to one thread before numpy loads.
"""

import os
import sys
import time

from speed import SpeedProbe

PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # before numpy, so that its import is measured too
_T_START = time.perf_counter()
PINNED_THREADS = {
    key: "1"
    for key in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402  (the thread pins must precede it)

_T_NUMPY = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import UNITS, Tracer, run_metrics, span_records  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
MIN_OPS = 2  # the reference op and at least one seeded op
TAIL_PCT = 90


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def import_causalpath():
    """Import the library from the checkout's src/, dropping any earlier
    import so that each set-up repetition pays the library's import again."""
    src = ROOT / "src"
    if not (src / "causalpath" / "__init__.py").is_file():
        raise SetupError(f"no causalpath package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "causalpath" or m.startswith("causalpath.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cp = importlib.import_module("causalpath")
    importlib.import_module("causalpath.cli")
    if Path(cp.__file__).resolve().parent != (src / "causalpath").resolve():
        raise SetupError(f"causalpath imported from {cp.__file__}, not from {src}")
    return cp


def setup(workload_cls, scale: str, seed: int, workdir: Path):
    """Import the library, build the workload and the first op's input,
    SETUP_REPS times; returns the last build and each repetition's
    (start, end) times."""
    spans = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        cp = import_causalpath()
        workload = workload_cls(cp, scale, seed, workdir)
        first = workload.make_input(0)
        spans.append((t0, time.perf_counter()))
    if workload.reference is None:
        raise SetupError(f"no recorded reference for {workload.name} at scale {scale}")
    return workload, first, spans


def output_bytes(paths) -> int:
    total = 0
    for path in paths:
        for dirpath, _, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def run_op(workload, inp, tracer=None) -> dict:
    """One op: the timed library call, then the output checks (untimed)."""
    sink = io.StringIO()
    out, error = None, None
    if tracer is not None:
        tracer.install()
        tracer.begin_op(inp["i"])
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            out = workload.run(inp)
    except Exception:  # an op that raises is a failed op, not a failed run
        error = traceback.format_exc(limit=4)
    t1 = time.perf_counter()
    if tracer is not None:
        op_trace = tracer.end_op()
        tracer.uninstall()
        op_trace.counters["cli.bytes_written"] = output_bytes(workload.outputs(inp))
    if error is not None:
        problems, steps = [f"raised: {error}"], 0
    else:
        try:
            problems, steps = workload.check(inp, out)
        except Exception:  # a check that cannot read the output fails the op
            problems, steps = [f"check raised: {traceback.format_exc(limit=4)}"], 0
    for path in workload.outputs(inp):
        shutil.rmtree(path, ignore_errors=True)
    for problem in problems:
        print(f"op {inp['i']} (seed {inp['seed']}) FAILED: {problem}", file=sys.stderr)
    return {
        "i": inp["i"],
        "seed": inp["seed"],
        "traced": tracer is not None,
        "t0": t0,
        "t1": t1,
        "steps": steps,
        "failed": bool(problems),
        "problems": problems,
    }


def measure(workload, first, seconds: float, traced: bool):
    """Run ops until `seconds` have passed (at least MIN_OPS). A traced run
    runs each input twice, untraced then traced. Op times are filled in by
    `timings` once the run is over."""
    tracer = Tracer() if traced else None
    records = []
    t_end = time.perf_counter() + seconds
    i, inp = 0, first
    while True:
        records.append(run_op(workload, inp))
        if traced:
            records.append(run_op(workload, inp, tracer))
        i += 1
        if i >= MIN_OPS and time.perf_counter() >= t_end:
            break
        inp = workload.make_input(i)
    return records, tracer


def tail(values: list) -> tuple:
    """The TAIL_PCT-th percentile of `values`, interpolated between order
    statistics, and the number of values above it. The percentile is fixed,
    so runs with more or fewer ops estimate the same quantile."""
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL_PCT - 1]
    return value, sum(v > value for v in values)


def timings(records: list, probe: SpeedProbe) -> None:
    """Add each op's wall, net and normalized seconds and speed factor; the
    op's time `op_s` is its normalized seconds."""
    for r in records:
        r.update(probe.region(r["t0"], r["t1"]))
        r["op_s"] = r["norm_s"]


def end_to_end(records: list, setup_s: float) -> tuple[dict, dict]:
    op_s = [r["op_s"] for r in records]
    ok = [r for r in records if not r["failed"]]
    tail_s, beyond = tail(op_s)
    failed = len(records) - len(ok)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s_p50": {"value": statistics.median(op_s), "unit": "s"},
        "op_s_tail": {"value": tail_s, "unit": "s"},
        "steps_per_s": {
            "value": statistics.median(r["steps"] / r["op_s"] for r in ok) if ok else 0.0,
            "unit": "1/s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MiB",
        },
        "pass_frac": {"value": len(ok) / len(records), "unit": "frac"},
    }
    notes = {
        "op_s_tail": f"p{TAIL_PCT} of {len(op_s)} ops, {beyond} above it",
        "failed_frac": f"{failed / len(records):.4g} ({failed} of {len(records)} ops)",
        "wall": f"median op wall {statistics.median(r['wall_s'] for r in records):.4f} s,"
                f" median speed factor {statistics.median(r['factor'] for r in records):.3f}",
    }
    return metrics, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a repository reports 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pinned_threads": PINNED_THREADS,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    tag = f"{args.workload}_{args.scale}_seed{args.seed}_trace{args.trace}"
    workdir = OUT_DIR / f"work_{tag}_{os.getpid()}"
    if not PROBE.running:
        PROBE.start()
    try:
        workload, first, setup_spans = setup(
            WORKLOADS[args.workload], args.scale, args.seed, workdir
        )
        records, tracer = measure(workload, first, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        PROBE.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    timings(records, PROBE)
    numpy_s = PROBE.region(_T_START, _T_NUMPY)["norm_s"]
    setup_reps_s = statistics.median(PROBE.region(t0, t1)["norm_s"] for t0, t1 in setup_spans)

    info = machine()
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    record = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace, "machine": info, "ops": records}
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} trace={args.trace}:"
          f" {attempted} ops, {failed} failed")
    print(f"  machine: nproc={info['nproc']} cpu={info['cpu_model']!r} python={info['python']}"
          f" numpy={info['numpy']} threads=1 commit={info['git_commit']}")
    print("  times are speed-normalized seconds (see speed.py)")
    if args.trace:
        traced = [r for r in records if r["traced"]]
        metrics = {
            key: {"value": value, "unit": UNITS.get(key, "s")}
            for key, value in run_metrics(
                tracer.ops,
                [r["net_s"] / r["wall_s"] / r["factor"] for r in traced],
                [r["op_s"] for r in traced],
                [r["op_s"] for r in records if not r["traced"]],
            ).items()
        }
        record["spans"] = span_records(tracer.ops)
    else:
        metrics, notes = end_to_end(records, numpy_s + setup_reps_s)
        record["notes"] = notes
        print(f"  setup_s: numpy import {numpy_s:.4f} s + median of {SETUP_REPS}"
              f" library imports and workload set-ups {setup_reps_s:.4f} s")
        for key, note in notes.items():
            print(f"  {key}: {note}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result_{tag}.json", "w") as fp:
        json.dump(record, fp, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
