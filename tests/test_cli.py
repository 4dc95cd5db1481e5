import csv
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from causalpath.cli import _state_summary, main
from causalpath.core import Alphabet, SymbolSeq
from causalpath.scenarios import bidirectional_model, unidirectional_model

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_symbol_files(self, tmp_path):
        out = tmp_path / "run"
        assert run("simulate", "--scenario", "independent", "--n", 100,
                   "--seed", 7, "--out", out) == 0
        for name in ("x.csv", "y.csv", "metadata.json"):
            assert (out / name).exists()
        rows = (out / "x.csv").read_text().splitlines()
        assert rows[0] == "i,symbol"
        assert len(rows) == 101

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("simulate", "--scenario", "independent", "--n", 100, "--seed", 7,
                "--out", out)
        assert (a / "x.csv").read_bytes() == (b / "x.csv").read_bytes()
        assert (a / "y.csv").read_bytes() == (b / "y.csv").read_bytes()

    def test_cross_copy_swap_rate(self, tmp_path):
        out = tmp_path / "cc"
        assert run("simulate", "--scenario", "cross-copy", "--epsilon", 0.01,
                   "--n", 5000, "--seed", 3, "--out", out) == 0
        xs = np.array([int(r.split(",")[1]) for r in
                       (out / "x.csv").read_text().splitlines()[1:]])
        ys = np.array([int(r.split(",")[1]) for r in
                       (out / "y.csv").read_text().splitlines()[1:]])
        swap = np.mean(xs[1:] == ys[:-1])
        assert abs(swap - 0.99) < 0.02

    def test_records_format(self, tmp_path):
        out = tmp_path / "rec"
        assert run("simulate", "--scenario", "independent", "--n", 8, "--seed", 1,
                   "--out", out, "--format", "records") == 0
        lines = (out / "x.jsonl").read_text().splitlines()
        assert len(lines) == 8
        first = json.loads(lines[0])
        assert first["i"] == 1 and 0 <= first["symbol"] <= 2

    def test_model_file_source(self, tmp_path):
        model = unidirectional_model()
        mpath = tmp_path / "model.json"
        model.save(mpath)
        out = tmp_path / "m"
        assert run("simulate", "--model", mpath, "--n", 64, "--seed", 1,
                   "--out", out) == 0

    def test_bad_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("simulate", "--model", bad, "--n", 10, "--seed", 0,
                   "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("extra", [
        {"x_window": [3], "y_window": [0]},  # symbol outside the ternary alphabet
        {"x_window": [0], "y_window": [1]},  # a window the file already lists
    ])
    def test_overwriting_model_row_is_input_error(self, tmp_path, extra):
        data = bidirectional_model().to_json_dict()
        data["kernel"].append(dict(data["kernel"][0], **extra))
        mpath = tmp_path / "bad_model.json"
        mpath.write_text(json.dumps(data))
        assert run("simulate", "--model", mpath, "--n", 10, "--seed", 0,
                   "--out", tmp_path / "o") == 2


class TestEstimate:
    @pytest.fixture()
    def sim(self, tmp_path):
        out = tmp_path / "sim"
        run("simulate", "--scenario", "unidirectional", "--n", 400, "--seed", 5,
            "--out", out)
        return out

    def test_both_directions(self, sim, tmp_path):
        out = tmp_path / "est"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--d", 1, "--direction", "both", "--out", out) == 0
        assert (out / "trace_y_to_x.csv").exists()
        assert (out / "trace_x_to_y.csv").exists()

    def test_truth_columns_with_model(self, sim, tmp_path):
        mpath = tmp_path / "model.json"
        unidirectional_model().save(mpath)
        out = tmp_path / "est2"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--model", mpath, "--direction", "yx", "--out", out) == 0
        header = (out / "trace_y_to_x.csv").read_text().splitlines()[0]
        assert header == "i,estimate_bits,truth_bits,c_i,cum_abs_err,cum_bound"

    def test_non_integer_window_in_model_file_is_input_error(self, sim, tmp_path, capsys):
        data = unidirectional_model().to_json_dict()
        data["kernel"][1]["x_window"] = [0.7]
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(data))
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--model", mpath, "--direction", "yx", "--out", tmp_path / "e") == 2
        assert "integers" in capsys.readouterr().err

    def test_both_directions_with_model_truth(self, sim, tmp_path):
        # the reverse direction scores truth against the role-swapped model
        mpath = tmp_path / "model.json"
        unidirectional_model().save(mpath)
        out = tmp_path / "est_both"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--model", mpath, "--direction", "both", "--out", out) == 0
        for name in ("trace_y_to_x.csv", "trace_x_to_y.csv"):
            header = (out / name).read_text().splitlines()[0]
            assert "truth_bits" in header

    def test_partial_mode_records_tree_sizes(self, sim, tmp_path):
        out = tmp_path / "est3"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--k", 1, "--direction", "yx", "--format", "records",
                   "--out", out) == 0
        first = json.loads((out / "trace_y_to_x.jsonl").read_text().splitlines()[0])
        assert first["reference_leaves"] == 27
        assert first["reference_nodes"] == 31

    def test_staleness_beyond_length_with_model(self, tmp_path):
        # K >= n: the truth column is the restricted measure, not an
        # enumeration of every hidden side path
        sim = tmp_path / "sim"
        run("simulate", "--scenario", "bidirectional", "--n", 40, "--seed", 3, "--out", sim)
        mpath = tmp_path / "model.json"
        bidirectional_model().save(mpath)
        out = tmp_path / "est"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv", "--model", mpath,
                   "--k", 50, "--out", out) == 0
        assert "truth_bits" in (out / "trace_y_to_x.csv").read_text().splitlines()[0]

    def test_staleness_above_the_oracle_limit_fails_before_enumerating(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run("simulate", "--scenario", "bidirectional", "--n", 40, "--seed", 3, "--out", sim)
        mpath = tmp_path / "model.json"
        bidirectional_model().save(mpath)
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv", "--model", mpath,
                   "--k", 14, "--out", tmp_path / "est") == 2
        err = capsys.readouterr().err
        assert "staleness k=14" in err and "4782969" in err

    def test_model_supplies_alphabets(self, tmp_path):
        # short binary streams never show the ternary model's top symbol
        mpath = tmp_path / "model.json"
        bidirectional_model().save(mpath)
        for name, symbols in (("x", [0, 1, 1, 0]), ("y", [1, 0, 0, 1]), ("bad", [0, 3, 1, 0])):
            rows = [f"{i},{s}" for i, s in enumerate(symbols, 1)]
            (tmp_path / f"{name}.csv").write_text("\n".join(["i,symbol"] + rows) + "\n")
        out = tmp_path / "est_short"
        assert run("estimate", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
                   "--model", mpath, "--out", out) == 0
        meta = json.loads((out / "metadata.json").read_text())["trace_metadata"]
        assert meta["y_to_x"]["alphabet_x"] == meta["y_to_x"]["alphabet_y"] == 3
        # symbols outside the model's alphabet still fail
        assert run("estimate", "--x", tmp_path / "bad.csv", "--y", tmp_path / "y.csv",
                   "--model", mpath, "--out", tmp_path / "e") == 2

    def test_metadata_records_alphabet_sources(self, tmp_path):
        # the short streams use only 0/1, so an inferred alphabet is binary
        mpath = tmp_path / "model.json"
        bidirectional_model().save(mpath)
        for name, symbols in (("x", [0, 1, 1, 0]), ("y", [1, 0, 0, 1])):
            rows = [f"{i},{s}" for i, s in enumerate(symbols, 1)]
            (tmp_path / f"{name}.csv").write_text("\n".join(["i,symbol"] + rows) + "\n")
        streams = ["--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv"]
        cases = [
            ([], {"x": (2, "inferred"), "y": (2, "inferred")}),
            (["--model", mpath], {"x": (3, "model"), "y": (3, "model")}),
            (["--model", mpath, "--alphabet-y", 3], {"x": (3, "model"), "y": (3, "flag")}),
            (["--alphabet-x", 5], {"x": (5, "flag"), "y": (2, "inferred")}),
        ]
        for i, (extra, expected) in enumerate(cases):
            out = tmp_path / f"est_alpha{i}"
            assert run("estimate", *streams, *extra, "--out", out) == 0
            meta = json.loads((out / "metadata.json").read_text())
            got = {k: (v["size"], v["source"]) for k, v in meta["alphabets"].items()}
            assert got == expected
            assert meta["trace_metadata"]["y_to_x"]["alphabet_x"] == expected["x"][0]

    def test_missing_input_file(self, tmp_path):
        assert run("estimate", "--x", tmp_path / "nope.csv", "--y", tmp_path / "nope.csv",
                   "--out", tmp_path / "e") == 2

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_model_is_input_error(self, sim, tmp_path, bad):
        data = unidirectional_model().to_json_dict()
        text = json.dumps(data)
        row = json.dumps(data["kernel"][0]["x_probs"])
        probs = data["kernel"][0]["x_probs"]
        text = text.replace(row, "[" + ", ".join([bad] + [str(p) for p in probs[1:]]) + "]", 1)
        mpath = tmp_path / "bad_model.json"
        mpath.write_text(text)
        assert bad in mpath.read_text()
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--model", mpath, "--out", tmp_path / "e") == 2

    def test_metadata_carries_trace_metadata(self, sim, tmp_path):
        out = tmp_path / "est4"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--d", 2, "--direction", "both", "--out", out) == 0
        meta = json.loads((out / "metadata.json").read_text())
        for label in ("y_to_x", "x_to_y"):
            tm = meta["trace_metadata"][label]
            assert tm["n"] == 400
            assert tm["bound_defined_from"] == 81  # the complete tree's 9**2 leaves
            assert 1 < tm["nodes_allocated"]["complete"] <= 1 + 10 + 100
            assert 1 < tm["nodes_allocated"]["reference"] <= 1 + 4 + 16
            assert tm["dual_run_s"] > 0
            assert tm["dual_run_steps_per_s"] == pytest.approx(400 / tm["dual_run_s"])

    def test_metadata_times_the_truth_path(self, sim, tmp_path):
        mpath = tmp_path / "model.json"
        unidirectional_model().save(mpath)
        out = tmp_path / "est5"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--model", mpath, "--direction", "both", "--k", 1, "--out", out) == 0
        meta = json.loads((out / "metadata.json").read_text())
        for label in ("y_to_x", "x_to_y"):
            tm = meta["trace_metadata"][label]
            assert tm["truth_s"] > 0
            assert tm["truth_steps_per_s"] == pytest.approx(400 / tm["truth_s"])
            assert tm["bound_s"] >= 0

    def test_metadata_times_reads_and_exports(self, sim, tmp_path):
        out = tmp_path / "est6"
        assert run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
                   "--direction", "both", "--out", out) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert set(meta["read_s"]) == {"x", "y"}
        assert all(s > 0 for s in meta["read_s"].values())
        for label in ("y_to_x", "x_to_y"):
            tm = meta["trace_metadata"][label]
            assert tm["export_s"] > 0
            assert tm["export_bytes"] == (out / f"trace_{label}.csv").stat().st_size


class TestBounds:
    def test_values(self, capsys, tmp_path):
        assert run("bounds", "--m", 3, "--d", 1, "--n", 10000) == 0
        text = capsys.readouterr().out
        assert "43.86" in text
        assert "119.06" in text

    def test_stale_tree_report(self, capsys):
        assert run("bounds", "--m", 3, "--d", 1, "--k", 1, "--n", 50000) == 0
        text = capsys.readouterr().out
        assert "L=27 S=31" in text

    @pytest.mark.parametrize("flag, message", [("--k", "staleness must be >= 1 when given"),
                                               ("--d", "depth must be >= 1")])
    def test_depth_and_staleness_checked_like_estimate(self, capsys, flag, message):
        assert run("bounds", "--m", 3, "--n", 10000, flag, 0) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_horizon_below_leaves_is_input_error(self):
        assert run("bounds", "--m", 3, "--d", 1, "--n", 2) == 2

    @pytest.mark.parametrize("side_m", [0, 1])
    def test_side_alphabet_below_two_is_input_error(self, capsys, side_m):
        # 0 is a given size like any other, not an absent flag
        assert run("bounds", "--m", 3, "--side-m", side_m, "--n", 1000) == 2
        assert "alphabet size must be >= 2" in capsys.readouterr().err

    def test_bound_curve_from_trace(self, tmp_path):
        sim = tmp_path / "sim"
        run("simulate", "--scenario", "independent", "--n", 120, "--seed", 2,
            "--out", sim)
        est = tmp_path / "est"
        run("estimate", "--x", sim / "x.csv", "--y", sim / "y.csv",
            "--direction", "yx", "--out", est)
        out = tmp_path / "bounds"
        assert run("bounds", "--m", 3, "--d", 1, "--n", 120,
                   "--trace", est / "trace_y_to_x.csv", "--out", out) == 0
        rows = (out / "bound_curve.csv").read_text().splitlines()
        assert rows[0] == "i,m_complete,m_reference,bound_bits"
        assert len(rows) == 121

    @pytest.mark.parametrize("k,golden", [(None, "bound_curve_independent.csv"),
                                          (1, "bound_curve_independent_k1.csv")])
    def test_bound_curve_golden(self, tmp_path, k, golden):
        out = tmp_path / "bounds"
        extra = () if k is None else ("--k", k)
        assert run("bounds", "--m", 3, "--d", 1, "--n", 120, *extra,
                   "--trace", DATA / "trace_independent_y_to_x.csv", "--out", out) == 0
        assert (out / "bound_curve.csv").read_bytes() == (DATA / "golden" / golden).read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.5"])
    def test_non_finite_or_negative_c_i_is_input_error(self, tmp_path, capsys, bad):
        lines = (DATA / "trace_independent_y_to_x.csv").read_text().splitlines()
        col = lines[0].split(",").index("c_i")
        row = lines[1].split(",")
        row[col] = bad
        lines[1] = ",".join(row)
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bounds"
        assert run("bounds", "--m", 3, "--d", 1, "--n", 120,
                   "--trace", trace, "--out", out) == 2
        assert "row 1 has c_i" in capsys.readouterr().err
        assert not (out / "bound_curve.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:1], "not a trace export with a c_i column"),
            (lambda lines: [lines[0].replace("c_i", "c")] + lines[1:],
             "not a trace export with a c_i column"),
            (lambda lines: lines[:3] + ["4,0.1"] + lines[4:], r"trace\.csv:4: a row has no 'c_i'"),
            (lambda lines: lines[:2] + ["2,0,x,"] + lines[3:],
             r"trace\.csv:3: could not convert string to float: 'x'"),
        ],
        ids=["header-only", "no-c_i-column", "short-row", "bad-value"],
    )
    def test_malformed_trace_is_input_error(self, tmp_path, capsys, edit, message):
        lines = (DATA / "trace_independent_y_to_x.csv").read_text().splitlines()
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(edit(lines)) + "\n")
        assert run("bounds", "--m", 3, "--d", 1, "--n", 120, "--trace", trace) == 2
        assert re.search(message, capsys.readouterr().err)


class TestDsep:
    @pytest.mark.parametrize(
        "scenario,branch",
        [
            ("independent", "conditionally-d-markov"),
            ("unidirectional", "markov-order-le-2d"),
            ("bidirectional", "no-finite-order"),
        ],
    )
    def test_classification(self, tmp_path, scenario, branch):
        out = tmp_path / scenario
        assert run("dsep", "--scenario", scenario, "--out", out) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["classification"] == branch
        assert (out / "edges.txt").exists()

    def test_non_ergodic_model_exit_code(self, tmp_path):
        # deterministic alternation: the lifted chain has period two
        model = {
            "format": "causalpath-model",
            "version": 1,
            "order": 1,
            "alphabet_x": 2,
            "alphabet_y": 2,
            "kernel": [
                {
                    "x_window": [x],
                    "y_window": [y],
                    "x_probs": [1.0 - (1 - x), 1.0 - x],
                    "y_probs": [1.0 - (1 - y), 1.0 - y],
                }
                for x in (0, 1)
                for y in (0, 1)
            ],
        }
        mpath = tmp_path / "periodic.json"
        mpath.write_text(json.dumps(model))
        assert run("dsep", "--model", mpath, "--out", tmp_path / "o") == 3


class TestStocks:
    def test_fixture_golden(self, tmp_path):
        out = tmp_path / "stocks"
        assert run("stocks", "--prices-a", DATA / "prices_a.csv",
                   "--prices-b", DATA / "prices_b.csv",
                   "--label-a", "dj", "--label-b", "hs", "--out", out) == 0
        for name in ("symbols_dj.csv", "symbols_hs.csv",
                     "summary_dj_to_hs.csv", "summary_hs_to_dj.csv"):
            assert (out / name).read_bytes() == (DATA / "golden" / name).read_bytes()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_threshold_is_input_error(self, tmp_path, bad):
        assert run("stocks", "--prices-a", DATA / "prices_a.csv",
                   "--prices-b", DATA / "prices_b.csv", "--threshold", bad,
                   "--out", tmp_path / "s") == 2

    def test_occupancy_sums_to_hundred(self, tmp_path):
        out = tmp_path / "stocks2"
        run("stocks", "--prices-a", DATA / "prices_a.csv",
            "--prices-b", DATA / "prices_b.csv", "--out", out)
        with open(out / "summary_a_to_b.csv", newline="") as fp:
            rows = [r for r in csv.DictReader(fp) if r["target_prev"] != "plug_in_di_bits"]
        total = sum(float(r["occupancy_pct"]) for r in rows)
        assert total == pytest.approx(100.0, abs=0.01)

    def test_metadata_notes_conventions(self, tmp_path):
        out = tmp_path / "stocks3"
        run("stocks", "--prices-a", DATA / "prices_a.csv",
            "--prices-b", DATA / "prices_b.csv", "--out", out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["tie_rule"].startswith("exact threshold")
        assert "interpolation" in meta["alignment"]
        assert sorted(meta["trace_metadata"]) == ["a_to_b", "b_to_a"]
        for tm in meta["trace_metadata"].values():
            assert tm["bound_defined_from"] == 9
            assert tm["nodes_allocated"]["complete"] > 1
            assert tm["dual_run_steps_per_s"] > 0
            assert tm["truth_s"] is None and tm["truth_steps_per_s"] is None  # no model
            assert tm["bound_s"] >= 0


    @pytest.mark.parametrize(
        "text, where",
        [
            ("date,adj_close\n", "bad.csv"),
            ("date,adj_close\n2026-01-01,1.0\n2026-01-02,nan\n", "bad.csv:3"),
        ],
    )
    def test_malformed_price_file_is_input_error(self, tmp_path, capsys, text, where):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run("stocks", "--prices-a", bad, "--prices-b", DATA / "prices_b.csv",
                   "--out", tmp_path / "s") == 2
        assert f"{where}: " in capsys.readouterr().err


def _per_row_state_summary(est, target, side):
    """The per-row grouping loop that `_state_summary` replaced: the reference."""
    groups = {}
    for i in range(1, est.size):
        state = (int(target.data[i - 1]), int(side.data[i - 1]))
        groups.setdefault(state, []).append(float(est[i]))
    rows = []
    for state in sorted(groups):
        vals = np.array(groups[state])
        rows.append((state[0], state[1], int(vals.size), 100.0 * vals.size / (est.size - 1),
                     float(vals.mean()), float(np.median(vals)),
                     float(np.quantile(vals, 0.25)), float(np.quantile(vals, 0.75))))
    return rows


def test_state_summary_matches_per_row_reference():
    rng = np.random.default_rng(7)
    lengths = [1, 2, 3, 5, 17] + [int(n) for n in rng.integers(4, 3000, size=60)]
    for trial, n in enumerate(lengths):
        mt, ms = 3, int(rng.choice([2, 3]))
        # a narrowed support leaves some states unvisited
        target = SymbolSeq(Alphabet(mt), rng.integers(0, mt - trial % 2, size=n))
        side = SymbolSeq(Alphabet(ms), rng.integers(0, ms, size=n))
        est = rng.normal(0.0, 0.1, size=n) if trial % 3 else rng.choice([0.0, 0.25, 1e-9], size=n)
        trace = SimpleNamespace(estimate_bits=est)
        want = _per_row_state_summary(est, target, side)
        assert _state_summary(trace, target, side) == want
        if n == 2:
            assert len(want) == 1 and want[0][3] == 100.0
        if trial % 2 and n > 1:
            assert len(want) < mt * ms


class TestOutputDir:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSALPATH_OUT", str(tmp_path / "envout"))
        assert run("simulate", "--scenario", "independent", "--n", 16, "--seed", 1) == 0
        assert (tmp_path / "envout" / "x.csv").exists()

    def test_missing_out_is_input_error(self, monkeypatch):
        monkeypatch.delenv("CAUSALPATH_OUT", raising=False)
        assert run("simulate", "--scenario", "independent", "--n", 16, "--seed", 1) == 2
