import io
import json
import math

import numpy as np
import pytest

import warnings

from causalpath.core import Alphabet
from causalpath.ctw import ContextSchema
from causalpath.markov import exact_pdi_rate, mc_di_rate, simulate
from causalpath.measure import (
    _CHUNK,
    CausalTrace,
    EstimatorConfig,
    abs_log_ratio_sum,
    bound_curve,
    c_vector,
    causality_regret_bound,
    estimate_causal_trace,
    estimate_partial_trace,
    plug_in_di_rate,
    realized_causality_regret,
)
from causalpath.scenarios import bidirectional_model, independent_model, unidirectional_model

T3 = Alphabet(3)


def ternary_config(**kw):
    return EstimatorConfig(T3, T3, **kw)


class TestCausalTraceEstimation:
    def test_independent_streams_small_estimate(self):
        # x i.i.d.-ish and independent of y: the time-averaged estimate fades
        m = independent_model()
        x, y = simulate(m, 10_000, seed=11)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert trace.estimate_bits.mean() <= 0.02

    def test_iid_uniform_target_small_estimate(self):
        rng = np.random.default_rng(77)
        from causalpath.core import SymbolSeq

        x = SymbolSeq(T3, rng.integers(0, 3, 10_000))
        y = SymbolSeq(T3, rng.integers(0, 3, 10_000))
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert trace.estimate_bits.mean() <= 0.02

    def test_first_step_is_zero(self):
        m = independent_model()
        x, y = simulate(m, 50, seed=1)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert trace.estimate_bits[0] == 0.0

    def test_unidirectional_tracks_truth(self):
        m = unidirectional_model()
        x, y = simulate(m, 10_000, seed=921)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1), truth_model=m)
        mad = np.abs(trace.estimate_bits[-100:] - trace.truth_bits[-100:]).mean()
        assert mad <= 0.05

    def test_deterministic(self):
        m = unidirectional_model()
        x, y = simulate(m, 500, seed=3)
        t1 = estimate_causal_trace(x, y, ternary_config(depth=1))
        t2 = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert np.array_equal(t1.estimate_bits, t2.estimate_bits)
        assert np.array_equal(t1.c, t2.c)

    def test_nonnegative_and_dominated_by_c(self):
        m = bidirectional_model()
        x, y = simulate(m, 2_000, seed=4)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert np.all(trace.estimate_bits >= 0.0)
        assert np.all(trace.c >= trace.estimate_bits - 1e-12)
        assert np.all(np.diff(trace.cum_estimate) >= 0.0)

    def test_length_mismatch_rejected(self):
        m = independent_model()
        x, y = simulate(m, 50, seed=5)
        with pytest.raises(ValueError):
            estimate_causal_trace(x[:-1], y, ternary_config(depth=1))

    def test_alphabet_mismatch_rejected(self):
        m = independent_model()
        x, y = simulate(m, 50, seed=6)
        with pytest.raises(ValueError):
            estimate_causal_trace(x, y, EstimatorConfig(Alphabet(2), T3))

    def test_metadata_counts(self):
        m = independent_model()
        x, y = simulate(m, 50, seed=7)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert trace.metadata["complete_leaves"] == 9
        assert trace.metadata["complete_nodes"] == 10
        assert trace.metadata["reference_leaves"] == 3
        assert trace.metadata["warmup"] == 1


class TestPartialTrace:
    def test_staleness_metadata(self):
        m = bidirectional_model()
        x, y = simulate(m, 200, seed=8)
        trace = estimate_partial_trace(x, y, ternary_config(depth=1, staleness=1))
        assert trace.metadata["reference_leaves"] == 27
        assert trace.metadata["reference_nodes"] == 31
        assert trace.metadata["warmup"] == 2

    def test_staleness_beyond_length_collapses_to_restricted(self):
        m = bidirectional_model()
        x, y = simulate(m, 120, seed=9)
        partial = estimate_partial_trace(
            x, y, ternary_config(depth=1, staleness=500), truth_model=m
        )
        plain = estimate_causal_trace(x, y, ternary_config(depth=1), truth_model=m)
        assert np.array_equal(partial.estimate_bits, plain.estimate_bits)
        # no side symbol is ever exposed: the truth is the restricted one too
        assert np.array_equal(partial.truth_bits, plain.truth_bits)
        assert partial.metadata["reference"] == "restricted"

    def test_requires_staleness(self):
        m = bidirectional_model()
        x, y = simulate(m, 50, seed=10)
        with pytest.raises(ValueError):
            estimate_partial_trace(x, y, ternary_config(depth=1))

    def test_independent_partial_average_small(self):
        m = independent_model()
        x, y = simulate(m, 10_000, seed=12)
        trace = estimate_partial_trace(x, y, ternary_config(depth=1, staleness=1))
        assert trace.estimate_bits.mean() <= 0.02

    def test_truth_column_matches_stepwise_oracle(self):
        from causalpath.markov import partial_measure_path, true_partial_causal_measure

        m = bidirectional_model()
        x, y = simulate(m, 30, seed=22)
        trace = estimate_partial_trace(
            x, y, ternary_config(depth=1, staleness=1), truth_model=m
        )
        path = partial_measure_path(m, x.data, y.data, 1)
        assert np.allclose(trace.truth_bits, path, atol=1e-12)
        for i in (5, 12, 29):
            step = true_partial_causal_measure(m, x.data[:i], y.data[:i], 1)
            assert trace.truth_bits[i] == pytest.approx(step, abs=1e-12)

    def test_partial_truth_equals_full_truth_when_side_is_iid(self):
        # hiding recent samples of an i.i.d. side process loses nothing beyond
        # hiding all of them, so the partial and complete oracles coincide
        from causalpath.markov import causal_measure_path, partial_measure_path

        m = unidirectional_model()
        x, y = simulate(m, 40, seed=23)
        full = causal_measure_path(m, x.data, y.data)
        part = partial_measure_path(m, x.data, y.data, 1)
        assert np.allclose(full, part, atol=1e-10)

    def test_expected_ordering_against_oracle_rates(self):
        # stale conditioning can only lose information on average
        m = bidirectional_model()
        pdi = exact_pdi_rate(m, 1)
        est = mc_di_rate(m, 120_000, seed=13)
        assert pdi <= est.rate + 3 * est.stderr


class TestBoundPieces:
    def test_abs_log_ratio_example(self):
        c = abs_log_ratio_sum([0.8, 0.2], [0.5, 0.5])
        assert c == pytest.approx(2.0, abs=1e-12)
        assert c == pytest.approx(abs(math.log2(1.6)) + abs(math.log2(0.4)), abs=1e-12)

    def test_trace_c_matches_snapshots(self):
        m = unidirectional_model()
        x, y = simulate(m, 300, seed=14)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1), keep_snapshots=True)
        pc, pr = trace.snapshots
        for i in (0, 5, 123, 299):
            assert trace.c[i] == pytest.approx(abs_log_ratio_sum(pc[i], pr[i]), abs=1e-12)

    def test_c_vector_norm(self):
        m = unidirectional_model()
        x, y = simulate(m, 100, seed=15)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        c, norm = c_vector(trace)
        assert norm == pytest.approx(math.sqrt(float((c**2).sum())), rel=1e-12)

    def test_bound_zero_at_zero(self):
        with pytest.warns(RuntimeWarning):
            assert causality_regret_bound(0.0, 0.0, 50.0) == 0.0

    def test_bound_plug_in_value(self):
        got = causality_regret_bound(119.06008640296423, 43.86313713864835, 50.0)
        assert got == pytest.approx(548.7, abs=0.1)

    def test_bound_monotone(self):
        base = causality_regret_bound(100.0, 40.0, 50.0)
        assert causality_regret_bound(120.0, 40.0, 50.0) > base
        assert causality_regret_bound(100.0, 45.0, 50.0) > base
        assert causality_regret_bound(100.0, 40.0, 60.0) > base

    def test_bound_rejects_negative(self):
        with pytest.raises(ValueError):
            causality_regret_bound(-1.0, 0.0, 0.0)

    def test_trace_bound_curve_nondecreasing(self):
        m = unidirectional_model()
        x, y = simulate(m, 500, seed=16)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        defined = trace.cum_bound[~np.isnan(trace.cum_bound)]
        assert np.all(np.diff(defined) >= -1e-9)
        assert np.isnan(trace.cum_bound[0])  # horizon below the leaf count


class TestBoundCurve:
    GEOMETRIES = [(m, d, k) for m in (2, 3) for d in (1, 2, 3) for k in (None, 1, 2)]

    @staticmethod
    def schemas(m, d, k):
        a = Alphabet(m)
        ref = ContextSchema(a, None, d, 0) if k is None else ContextSchema(a, a, d, k)
        return ContextSchema(a, a, d, 0), ref

    @pytest.mark.parametrize("m,d,k", GEOMETRIES)
    def test_premise_holds_wherever_defined(self, m, d, k):
        complete, ref = self.schemas(m, d, k)
        lc, sc = complete.leaf_count(), complete.node_count()
        cvec = np.random.default_rng(m * d).random(max(lc, ref.leaf_count()) + 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, mc, mr, bound = bound_curve(complete, ref, cvec)
        assert first == max(lc, ref.leaf_count())
        assert np.all(np.isnan(bound[: first - 1])) and not np.any(np.isnan(bound[first - 1 :]))
        assert np.all(mc[first - 1 :] >= lc * (m - 1) + sc)
        assert lc * (m - 1) + sc > 1

    @pytest.mark.parametrize("m,d,k", GEOMETRIES)
    def test_matches_per_step_formulas(self, m, d, k):
        complete, ref = self.schemas(m, d, k)
        lc, sc, lr = complete.leaf_count(), complete.node_count(), ref.leaf_count()
        cvec = np.random.default_rng(7 + m * d).random(max(lc, lr) + 2000)
        first, _, _, bound = bound_curve(complete, ref, cvec)
        c_sq = np.cumsum(cvec**2)
        for i in range(first, cvec.size + 1, 97):
            mc = 0.5 * (m - 1) * lc * math.log2(i / lc) + lc * (m - 1) + sc
            mr = 0.5 * (m - 1) * lr * math.log2(i / lr)
            if k is None:
                mr += lr * (m / (m - 1) + math.log2(m)) - 1.0 / (m - 1)
            else:
                mr += lr * (m - 1) + ref.node_count()
            want = mc + mr + math.sqrt(c_sq[i - 1]) / math.sqrt(2.0) * math.sqrt(mc)
            assert abs(bound[i - 1] - want) <= 1e-12 * max(1.0, want)

    def test_trace_records_first_defined_step(self):
        m = unidirectional_model()
        x, y = simulate(m, 50, seed=18)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        assert trace.metadata["bound_defined_from"] == 9
        assert np.isnan(trace.cum_bound[7]) and not np.isnan(trace.cum_bound[8])
        short = estimate_causal_trace(x[:5], y[:5], ternary_config(depth=1))
        assert short.metadata["bound_defined_from"] is None


class TestRealizedRegret:
    def test_zero_when_estimate_equals_truth(self):
        est = np.array([0.1, 0.2, 0.3])
        trace = CausalTrace(
            estimate_bits=est,
            c=np.zeros(3),
            cum_estimate=np.cumsum(est),
            cum_bound=np.full(3, np.nan),
            logloss_complete=np.zeros(3),
            logloss_reference=np.zeros(3),
            truth_bits=est.copy(),
        )
        assert np.allclose(realized_causality_regret(trace), 0.0)

    def test_requires_truth(self):
        m = independent_model()
        x, y = simulate(m, 50, seed=17)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        with pytest.raises(ValueError):
            realized_causality_regret(trace)

    def test_independent_normalized_regret_below_bound(self):
        m = independent_model()
        x, y = simulate(m, 10_000, seed=18)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1), truth_model=m)
        cr = realized_causality_regret(trace)
        for n in (100, 1000, 10_000):
            assert cr[n - 1] / n <= trace.cum_bound[n - 1] / n


class TestPlugInRate:
    def test_zero_trace(self):
        trace = CausalTrace(
            estimate_bits=np.zeros(5),
            c=np.zeros(5),
            cum_estimate=np.zeros(5),
            cum_bound=np.full(5, np.nan),
            logloss_complete=np.zeros(5),
            logloss_reference=np.zeros(5),
        )
        assert plug_in_di_rate(trace) == 0.0

    def test_unidirectional_converges_to_truncated_rate(self):
        from causalpath.markov import exact_tdi_rate

        m = unidirectional_model()
        x, y = simulate(m, 10_000, seed=19)
        trace = estimate_causal_trace(x, y, ternary_config(depth=1))
        # sample-path fluctuation at this horizon dominates the predictor error
        assert plug_in_di_rate(trace) == pytest.approx(exact_tdi_rate(m, 1), abs=0.02)


class TestExports:
    def _trace(self, with_truth=False):
        m = unidirectional_model()
        x, y = simulate(m, 40, seed=20)
        return estimate_causal_trace(
            x, y, ternary_config(depth=1), truth_model=m if with_truth else None
        )

    def test_csv_columns_without_truth(self):
        buf = io.StringIO()
        self._trace().write_csv(buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "i,estimate_bits,c_i,cum_bound"

    def test_csv_columns_with_truth(self):
        buf = io.StringIO()
        self._trace(with_truth=True).write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,estimate_bits,truth_bits,c_i,cum_abs_err,cum_bound"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "1" and first[-1] == ""  # bound undefined at i=1

    def test_records_round_trip(self):
        trace = self._trace(with_truth=True)
        buf = io.StringIO()
        trace.write_records(buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0]["type"] == "metadata"
        steps = [rec for rec in lines if rec["type"] == "step"]
        assert len(steps) == 40
        assert steps[3]["estimate_bits"] == pytest.approx(float(trace.estimate_bits[3]))
        assert steps[3]["truth_bits"] == pytest.approx(float(trace.truth_bits[3]))

    @staticmethod
    def _per_row_csv(trace):
        """Test-local copy of the per-row exporter the column formatter replaced."""
        cols = ["i", "estimate_bits"]
        if trace.truth_bits is not None:
            cols.append("truth_bits")
        cols.append("c_i")
        if trace.cum_abs_err is not None:
            cols.append("cum_abs_err")
        cols.append("cum_bound")
        out = [",".join(cols) + "\n"]
        for i in range(len(trace)):
            row = [str(i + 1), f"{trace.estimate_bits[i]:.12g}"]
            if trace.truth_bits is not None:
                row.append(f"{trace.truth_bits[i]:.12g}")
            row.append(f"{trace.c[i]:.12g}")
            if trace.cum_abs_err is not None:
                row.append(f"{trace.cum_abs_err[i]:.12g}")
            b = trace.cum_bound[i]
            row.append("" if math.isnan(b) else f"{b:.12g}")
            out.append(",".join(row) + "\n")
        return "".join(out)

    @staticmethod
    def _edge_trace(n, with_truth):
        """A trace of random values with NaN bounds at the start, in the middle
        and at the end, and inf, NaN, -0.0 and the smallest subnormal among
        each column's values."""
        rng = np.random.default_rng(n)
        cols = [rng.random(n) * 10.0 ** rng.integers(-8, 8, n) for _ in range(5)]
        specials = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e300, 2.0**53, 1e-5)
        for col in cols:
            spots = rng.permutation(n)
            for k, v in enumerate(specials):
                col[spots[k :: 2 * len(specials)]] = v
        bound = rng.random(n) * 100
        bound[: min(n, 8)] = np.nan
        bound[n // 2 :: 97] = np.nan
        bound[-1:] = np.nan
        bound[n // 3 :: 89] = -0.0
        est, c, truth, err = cols[:4]
        trace = CausalTrace(est, c, np.zeros(n), bound, cols[4], cols[4])
        if with_truth:
            trace.truth_bits, trace.cum_abs_err = truth, err
        return trace

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_column_export_matches_per_row_export_on_edge_values(self, n, with_truth):
        trace = self._edge_trace(n, with_truth)
        buf = io.StringIO()
        trace.write_csv(buf)
        # line lists keep a failure's report short
        want = self._per_row_csv(trace).splitlines(keepends=True)
        assert buf.getvalue().splitlines(keepends=True) == want
        records = trace.to_records()
        assert len(records) == n
        for i in range(n):
            bound = float(trace.cum_bound[i])
            assert records[i]["cum_bound"] == (None if math.isnan(bound) else bound)

    @pytest.mark.parametrize("with_truth", [False, True])
    def test_column_export_matches_per_row_export(self, with_truth):
        m = unidirectional_model()
        x, y = simulate(m, 700, seed=21)  # the bound starts at step 9
        trace = estimate_causal_trace(
            x, y, ternary_config(depth=1), truth_model=m if with_truth else None
        )
        buf = io.StringIO()
        trace.write_csv(buf)
        assert buf.getvalue() == self._per_row_csv(trace)
        records = trace.to_records()
        assert len(records) == 700
        for i in (0, 7, 8, 699):
            rec = records[i]
            assert list(rec) == self._per_row_csv(trace).splitlines()[0].split(",")
            assert rec["i"] == i + 1 and type(rec["i"]) is int
            assert rec["estimate_bits"] == float(trace.estimate_bits[i])
            assert rec["c_i"] == float(trace.c[i])
            bound = float(trace.cum_bound[i])
            assert rec["cum_bound"] == (None if math.isnan(bound) else bound)
            if with_truth:
                assert rec["truth_bits"] == float(trace.truth_bits[i])
                assert rec["cum_abs_err"] == float(trace.cum_abs_err[i])
