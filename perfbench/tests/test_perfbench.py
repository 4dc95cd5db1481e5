"""The benchmark's own checks, at tiny input sizes.

    python -m pytest perfbench/tests -q
"""

import json

import pytest

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import tracer as tr
import workloads as wl
from speed import SpeedProbe


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_passes_every_check_at_tiny_size(capsys, name):
    res = _result(capsys, ["--workload", name, "--seed", "5", "--seconds", "0", "--scale", "tiny"])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == run.MIN_OPS
    assert set(res["metrics"]) == {
        "setup_s", "op_s_p50", "op_s_tail", "steps_per_s", "peak_rss_mb", "pass_frac"
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_covers_the_op_and_only_its_layers(capsys, name):
    res = _result(
        capsys,
        ["--workload", name, "--seed", "5", "--seconds", "0", "--scale", "tiny", "--trace", "1"],
    )
    assert res["correct"] and res["attempted"] == 2 * run.MIN_OPS
    m = {key: v["value"] for key, v in res["metrics"].items()}
    assert m["trace.coverage_frac_min"] >= 0.9
    if name == "rates_oracle":
        assert m["ctw.trees"] == 0 and m["ctw.predict.calls"] == 0
    else:
        assert m["ctw.trees"] == 4 and m["ctw.nodes"] > 0
    if name == "market_sweep":
        assert m["markov.filter.predict.calls"] == 0
    else:
        assert m["markov.filter.predict.calls"] > 0


def _corrupt_trace(inp):
    """Raise one cum_abs_err above its bound in the y_to_x export."""
    path = inp["est"] / "trace_y_to_x.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[5]) + 1.0)
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _nudge_trace(inp):
    """Move one estimate by 1e-9 bits: only the reference comparison sees it."""
    path = inp["est"] / "trace_x_to_y.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-9)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_summary(inp):
    path = inp["out"] / "summary_us_to_hk.csv"
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[4] = repr(float(fields[4]) * 1.5 + 1e-6)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, bad_op, corrupt",
    [
        ("trace_oracle", 1, _corrupt_trace),
        ("trace_oracle", 0, _nudge_trace),
        ("market_sweep", 1, _corrupt_summary),
        ("rates_oracle", 1, lambda out: out.update(mc_rate=out["tdi"][0] + 10 * out["mc_stderr"])),
        ("rates_oracle", 0, lambda out: out.update(class_binary="markov-order-le-2d")),
    ],
)
def test_corrupted_output_counts_as_a_failed_op(tmp_path, name, bad_op, corrupt):
    workload, first, _ = run.setup(wl.WORKLOADS[name], "tiny", 5, tmp_path / "work")
    real_run = workload.run

    def corrupted_run(inp):
        out = real_run(inp)
        if inp["i"] == bad_op:
            corrupt(out if name == "rates_oracle" else inp)
        return out

    workload.run = corrupted_run
    records, _ = run.measure(workload, first, 0.0, traced=False)
    run.timings(records, SpeedProbe())  # never started: every factor is 1
    assert [r["failed"] for r in records] == [i == bad_op for i in range(len(records))]
    metrics, notes = run.end_to_end(records, 0.1)
    assert metrics["pass_frac"]["value"] == 0.5
    assert notes["failed_frac"].startswith("0.5 ")


def _span(i, start, end, parent, hot_cover=0.0):
    return tr.Span(i, f"s{i}", "x", start, end, parent, 0, hot_cover)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span(0, 0.0, 10.0, None, hot_cover=1.0),
        _span(1, 1.0, 4.0, 0),
        _span(2, 3.0, 6.0, 0),  # overlaps span 1
        _span(3, 9.0, 12.0, 0),  # runs past its parent's end
        _span(4, 2.0, 3.0, 1, hot_cover=0.5),
    ]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 6.0 - 1.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 0.5})


def test_online_self_times_add_up_to_the_op(tmp_path):
    cp = run.import_causalpath()
    tracer = tr.Tracer()
    tracer.install()
    tracer.begin_op(0)
    cp.cli.main(["simulate", "--scenario", "bidirectional", "--n", "300", "--seed", "1",
                 "--out", str(tmp_path / "sim")])
    cp.cli.main(["estimate", "--x", str(tmp_path / "sim" / "x.csv"),
                 "--y", str(tmp_path / "sim" / "y.csv"), "--out", str(tmp_path / "est")])
    op = tracer.end_op()
    tracer.uninstall()
    assert cp.ctw.ContextTree.predict.__name__ == "predict"
    assert not hasattr(cp.ctw.ContextTree.predict, "__wrapped__")
    m = tr.op_metrics(op)
    root = op.spans[-1]
    assert root.name == tr.ROOT
    layers = sum(m[f"layer.{layer}.self_s"] for layer in tr.LAYERS)
    root_self = tr.self_times(op.spans)[root.id]
    assert layers + root_self == pytest.approx(root.end - root.start, abs=1e-9)
    assert m["ctw.predict.calls"] == m["ctw.observe.calls"] == 4 * 300
    assert m["markov.simulate.steps"] == 300


def test_input_generators_are_deterministic(tmp_path):
    assert wl.op_seed(7, 0) == wl.REFERENCE_SEED
    assert [wl.op_seed(7, i) for i in range(1, 5)] == [wl.op_seed(7, i) for i in range(1, 5)]
    assert wl.op_seed(7, 1) != wl.op_seed(8, 1)
    assert wl.market_pair(11, 300) == wl.market_pair(11, 300)
    assert wl.market_pair(11, 300) != wl.market_pair(12, 300)
    for name in ("a", "b"):
        wl.write_prices(tmp_path / name, wl.market_pair(11, 300)[0])
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_tail_is_a_fixed_interpolated_percentile():
    assert run.TAIL_PCT == 90
    assert run.tail([float(v) for v in range(1, 12)]) == pytest.approx((10.0, 1))
    assert run.tail([5.0, 1.0, 3.0]) == pytest.approx((4.6, 1))
    assert run.tail([2.0, 1.0]) == pytest.approx((1.9, 1))
