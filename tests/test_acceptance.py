"""Acceptance suite: one test per criterion, each printing a PASS line with
its headline numbers and asserting its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere loosened at runtime; pinned
seeds make every number reproducible.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from causalpath.cli import main as cli_main
from causalpath.core import Alphabet
from causalpath.ctw import regret_bound_plain, regret_bound_side_info
from causalpath.graphs import (
    build_unrolled_network,
    classify_markovicity,
    d_separated,
    nodeset_conditional_mi,
)
from causalpath.ingest import PriceSeries, pct_change_quantize
from causalpath.markov import (
    RestrictedFilter,
    directed_information,
    exact_pdi_rate,
    exact_tdi_rate,
    expected_causal_sum,
    mc_di_rate,
    random_model,
    simulate,
    true_causal_measure,
    true_restricted_brute,
)
from causalpath.measure import (
    EstimatorConfig,
    estimate_causal_trace,
    estimate_partial_trace,
    realized_causality_regret,
)
from causalpath.scenarios import (
    bidirectional_model,
    cross_copy_model,
    iid_influence_model,
    independent_model,
    unidirectional_model,
)

DATA = Path(__file__).parent / "data"
B2, T3 = Alphabet(2), Alphabet(3)


def bernoulli_kl(a, b):
    return a * math.log2(a / b) + (1 - a) * math.log2((1 - a) / (1 - b))


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s"
        return elapsed


def _report(num, name, detail, elapsed):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail}) [{elapsed:.1f}s]")


def test_01_oracle_equivalence():
    """Recursive restricted filter vs brute-force marginalization, 50 models."""
    budget = _Budget(10)
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        model = random_model(1, 2, 2, rng)
        x, _ = simulate(model, 12, seed=trial)
        filt = RestrictedFilter(model)
        for i in range(12):
            pf = filt.predict().probs
            pb = true_restricted_brute(model, x.data[:i]).probs
            worst = max(worst, float(np.max(np.abs(pf - pb))))
            filt.observe(int(x.data[i]))
    assert worst <= 1e-10
    _report(1, "oracle equivalence", f"max |filter - brute| = {worst:.2e}", budget.done())


def test_02_finite_horizon_identity():
    """Sum of expected causal measures equals the entropy-difference total."""
    budget = _Budget(30)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        model = random_model(1, 2, 2, rng)
        lhs = expected_causal_sum(model, 8)
        rhs = directed_information(model, 8)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9
    _report(2, "finite-horizon identity", f"max |sum E[C] - DI| = {worst:.2e}", budget.done())


def test_03_analytic_examples():
    """Closed forms to 1e-12; estimator per-state match within 0.02 bits."""
    budget = _Budget(20)
    p1, p2, eps = 0.9, 0.1, 0.1
    model = iid_influence_model(p1, p2, eps)
    mix = p1 * eps + p2 * (1 - eps)
    closed = {1: bernoulli_kl(p1, mix), 0: bernoulli_kl(p2, mix)}
    got1 = true_causal_measure(model, [0, 1, 0], [0, 0, 1])
    got0 = true_causal_measure(model, [0, 1, 0], [0, 1, 0])
    assert got1 == pytest.approx(closed[1], abs=1e-12)
    assert got0 == pytest.approx(closed[0], abs=1e-12)

    x, y = simulate(model, 10_000, seed=316)
    trace = estimate_causal_trace(x, y, EstimatorConfig(B2, B2, depth=1))
    worst_state = 0.0
    for state in (0, 1):
        idx = [i for i in range(9_000, 10_000) if y.data[i - 1] == state]
        diff = abs(trace.estimate_bits[idx].mean() - closed[state])
        worst_state = max(worst_state, diff)
        assert diff <= 0.02

    cc = cross_copy_model(eps)
    same = true_causal_measure(cc, [1, 1, 1], [0, 0, 1])
    diff_hist = true_causal_measure(cc, [0, 0, 1], [0, 0, 1])
    assert same == pytest.approx(bernoulli_kl(1 - eps, eps**2 + (1 - eps) ** 2), abs=1e-12)
    assert diff_hist == pytest.approx(bernoulli_kl(1 - eps, 2 * eps * (1 - eps)), abs=1e-12)
    _report(3, "analytic examples", f"worst per-state gap = {worst_state:.4f} bits", budget.done())


def test_04_regret_bound_containment():
    """Normalized realized regret under the normalized bound at all
    checkpoints; realized predictor regret under the coder bounds at every
    prefix where they are defined."""
    budget = _Budget(60)
    worst_frac = 0.0
    for model in (independent_model(), unidirectional_model()):
        for seed in range(5):
            x, y = simulate(model, 10_000, seed=1000 + seed)
            trace = estimate_causal_trace(
                x, y, EstimatorConfig(T3, T3, depth=1), truth_model=model
            )
            cr = realized_causality_regret(trace)
            for ncp in (100, 1000, 10_000):
                assert cr[ncp - 1] / ncp <= trace.cum_bound[ncp - 1] / ncp
                worst_frac = max(worst_frac, cr[ncp - 1] / trace.cum_bound[ncp - 1])
            # per-predictor realized regret against the in-class truth: the
            # restricted laws of one filter run, the first 200 also stepped
            # one symbol at a time, and the complete laws at the order-1
            # window codes; log-losses per element, as the trace takes them
            xs, ys = x.data, y.data
            rows = RestrictedFilter(model)._run(xs.tolist())
            filt = RestrictedFilter(model)
            for i in range(200):
                assert np.array_equal(filt.predict().probs, rows[i])
                filt.observe(int(xs[i]))
            true_r = -np.log2(rows[np.arange(xs.size), xs])
            true_c = -np.log2(model.kernel_x[xs[:-1] + model.mx * ys[:-1], xs[1:]])
            reg_c = np.cumsum(trace.logloss_complete[1:] - true_c)
            reg_r = np.cumsum(trace.logloss_reference[1:] - true_r[1:])
            n_pref = np.arange(2, 10_001)  # prefix length of each regret entry
            assert np.all(reg_c[7:] <= regret_bound_side_info(3, 9, 10, n_pref[7:]))  # n >= 9
            assert np.all(reg_r[1:] <= regret_bound_plain(3, 3, n_pref[1:]))  # n >= 3
    _report(
        4,
        "regret-bound containment",
        f"worst CR/bound fraction = {worst_frac:.3f}",
        budget.done(),
    )


def test_05_partial_estimate_consistency():
    """Time-averaged staleness-1 estimate within 0.01 bits of the exact rate."""
    budget = _Budget(60)
    model = bidirectional_model()
    pdi = exact_pdi_rate(model, 1)
    x, y = simulate(model, 50_000, seed=501)
    trace = estimate_partial_trace(x, y, EstimatorConfig(T3, T3, depth=1, staleness=1))
    warmup = trace.metadata["warmup"]
    avg = float(trace.estimate_bits[warmup:].mean())
    gap = abs(avg - pdi)
    assert gap <= 0.01
    _report(
        5,
        "partial estimator consistency",
        f"avg {avg:.5f} vs exact {pdi:.5f} (gap {gap:.5f})",
        budget.done(),
    )


def test_06_truncation_bias_and_sandwich():
    """Plug-in converges to the truncated rate, which strictly exceeds the
    Monte Carlo rate; the exact partial rate stays below it."""
    budget = _Budget(120)
    model = bidirectional_model()
    pdi = exact_pdi_rate(model, 1)
    tdi = exact_tdi_rate(model, 1)
    x, y = simulate(model, 50_000, seed=501)
    trace = estimate_causal_trace(x, y, EstimatorConfig(T3, T3, depth=1))
    warmup = trace.metadata["warmup"]
    plug_in = float(trace.estimate_bits[warmup:].mean())
    assert abs(plug_in - tdi) <= 0.01

    est = mc_di_rate(model, 1_000_000, seed=42)
    assert pdi <= est.rate + 3 * est.stderr
    assert est.rate <= tdi + 3 * est.stderr
    bias = tdi - est.rate
    assert bias > 3 * est.stderr
    _report(
        6,
        "truncation bias + sandwich",
        f"pdi {pdi:.5f} <= di {est.rate:.5f}(se {est.stderr:.5f}) <= tdi {tdi:.5f}; "
        f"plug-in gap {abs(plug_in - tdi):.5f}, bias {bias:.5f}",
        budget.done(),
    )


def test_07_graph_suite():
    """d-separation unit cases, scenario classification, soundness sweep."""
    budget = _Budget(30)
    from causalpath.graphs import UnrolledDag

    X = lambda t: ("X", t)
    Y = lambda t: ("Y", t)
    chain = UnrolledDag(("X", "Y"), 3, frozenset({(X(1), X(2)), (X(2), X(3))}))
    fork = UnrolledDag(("X", "Y"), 2, frozenset({(Y(1), X(2)), (Y(1), Y(2))}))
    collider = UnrolledDag(("X", "Y"), 2, frozenset({(X(1), X(2)), (Y(1), X(2))}))
    desc = UnrolledDag(
        ("X", "Y"), 3, frozenset({(X(1), X(2)), (Y(1), X(2)), (X(2), X(3))})
    )
    cases = [
        (chain, {X(1)}, {X(3)}, {X(2)}, True),
        (chain, {X(1)}, {X(3)}, set(), False),
        (chain, {X(1)}, {X(2)}, {X(3)}, False),
        (chain, {X(1)}, {Y(2)}, set(), True),
        (fork, {X(2)}, {Y(2)}, {Y(1)}, True),
        (fork, {X(2)}, {Y(2)}, set(), False),
        (collider, {X(1)}, {Y(1)}, set(), True),
        (collider, {X(1)}, {Y(1)}, {X(2)}, False),
        (desc, {X(1)}, {Y(1)}, {X(3)}, False),
        (desc, {X(1)}, {Y(1)}, set(), True),
        (desc, {X(1)}, {X(3)}, {X(2)}, True),
        (desc, {Y(1)}, {X(3)}, {X(2)}, True),
    ]
    for dag, a, b, c, expected in cases:
        assert d_separated(dag, a, b, c) is expected

    assert classify_markovicity(independent_model()).branch == "conditionally-d-markov"
    assert classify_markovicity(unidirectional_model()).branch == "markov-order-le-2d"
    assert classify_markovicity(bidirectional_model()).branch == "no-finite-order"

    rng = np.random.default_rng(97)
    horizon = 5
    separated_checked = 0
    tried = 0
    while tried < 200:
        kind = int(rng.integers(0, 3))
        model = random_model(1, 2, 2, rng)
        if kind == 1:
            ky = np.tile(rng.dirichlet(np.ones(2)), (4, 1))
            from causalpath.markov import JointMarkovModel

            model = JointMarkovModel(1, B2, B2, model.kernel_x, ky)
        dag = build_unrolled_network(model, horizon)
        nodes = dag.nodes()
        for _ in range(10):
            if tried >= 200:
                break
            tried += 1
            if tried % 4 == 0:
                t = int(rng.integers(2, horizon))
                A = {("X", t - 1), ("Y", t - 1)}
                B = {("X", t + 1)}
                C = {("X", t), ("Y", t)}
            else:
                perm = rng.permutation(len(nodes))
                na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                nc = int(rng.integers(0, 4))
                picks = [nodes[i] for i in perm[: na + nb + nc]]
                A, B = set(picks[:na]), set(picks[na : na + nb])
                C = set(picks[na + nb :])
            if d_separated(dag, A, B, C):
                assert nodeset_conditional_mi(model, horizon, A, B, C) <= 1e-9
                separated_checked += 1
    assert separated_checked >= 40
    _report(
        7,
        "graph suite",
        f"12 unit cases, 3 classifications, {separated_checked}/200 separated triples sound",
        budget.done(),
    )


def test_08_ingestion_golden(tmp_path):
    """Byte-identical fixture outputs and the quantizer unit cases."""
    budget = _Budget(10)
    out = tmp_path / "stocks"
    rc = cli_main(
        [
            "stocks",
            "--prices-a", str(DATA / "prices_a.csv"),
            "--prices-b", str(DATA / "prices_b.csv"),
            "--label-a", "dj", "--label-b", "hs",
            "--out", str(out),
        ]
    )
    assert rc == 0
    for name in (
        "symbols_dj.csv",
        "symbols_hs.csv",
        "summary_dj_to_hs.csv",
        "summary_hs_to_dj.csv",
    ):
        assert (out / name).read_bytes() == (DATA / "golden" / name).read_bytes(), name

    import datetime as dt

    def one_step(start, end):
        series = PriceSeries((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), np.array([start, end]))
        return int(pct_change_quantize(series).data[0])

    assert one_step(1000.0, 1012.0) == 2  # +1.2%
    assert one_step(1000.0, 991.0) == 0  # -0.9%
    assert one_step(1000.0, 1003.0) == 1  # +0.3%
    assert one_step(1000.0, 1008.0) == 1  # exactly +0.8%
    assert one_step(1000.0, 992.0) == 1  # exactly -0.8%
    _report(8, "ingestion golden", "4 files byte-identical, 5 quantizer cases", budget.done())
