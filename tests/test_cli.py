import csv
import json
from pathlib import Path

import numpy as np
import pytest

from causalpath.cli import main
from causalpath.scenarios import unidirectional_model

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

    def test_horizon_below_leaves_is_input_error(self):
        assert run("bounds", "--m", 3, "--d", 1, "--n", 2) == 2

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


class TestOutputDir:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAUSALPATH_OUT", str(tmp_path / "envout"))
        assert run("simulate", "--scenario", "independent", "--n", 16, "--seed", 1) == 0
        assert (tmp_path / "envout" / "x.csv").exists()

    def test_missing_out_is_input_error(self, monkeypatch):
        monkeypatch.delenv("CAUSALPATH_OUT", raising=False)
        assert run("simulate", "--scenario", "independent", "--n", 16, "--seed", 1) == 2
