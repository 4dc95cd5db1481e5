import math

import numpy as np
import pytest

from causalpath.core import Alphabet
from causalpath.markov import (
    JointMarkovModel,
    NonErgodicError,
    RestrictedFilter,
    directed_information,
    exact_pdi_rate,
    exact_tdi_rate,
    expected_causal_sum,
    mc_di_rate,
    random_model,
    simulate,
    stale_history_dist,
    stationary_distribution,
    true_causal_measure,
    true_complete_dist,
    true_partial_causal_measure,
    true_partial_dist,
    true_restricted_brute,
)
from causalpath.scenarios import (
    bidirectional_model,
    cross_copy_model,
    iid_influence_model,
    independent_model,
    unidirectional_model,
)

B2 = Alphabet(2)


def bernoulli_kl(a: float, b: float) -> float:
    return a * math.log2(a / b) + (1 - a) * math.log2((1 - a) / (1 - b))


def brute_conditional(model, x_hist, y_stale):
    """Independent enumeration oracle for arbitrary-length stale histories:
    average the full-history conditional over every hidden-side completion."""
    from itertools import product

    xs = list(x_hist)
    ys = list(y_stale)
    i1, s = len(xs), len(ys)
    probs = np.zeros(model.mx)
    for hidden in product(range(model.my), repeat=i1 - s):
        yfull = ys + list(hidden)
        w = model.window_index(xs[: model.order], yfull[: model.order])
        pr = model.initial[w]
        for t in range(model.order, i1):
            pr *= model.kernel_x[w, xs[t]] * model.kernel_y[w, yfull[t]]
            w = model.shift_window(w, model.pair_index(xs[t], yfull[t]))
        probs += pr * model.kernel_x[w]
    return probs / probs.sum()


class TestSimulate:
    def test_determinism(self):
        m = random_model(1, 2, 3, np.random.default_rng(0))
        a = simulate(m, 50, seed=9)
        b = simulate(m, 50, seed=9)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_point_mass_kernel_unique_sequence(self):
        # deterministic cycle: x flips, y copies x
        kx = np.zeros((4, 2))
        ky = np.zeros((4, 2))
        for w in range(4):
            xp, yp = w % 2, w // 2
            kx[w, 1 - xp] = 1.0
            ky[w, xp] = 1.0
        init = np.zeros(4)
        init[0] = 1.0  # (x=0, y=0)
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=init)
        runs = [simulate(m, 20, seed=s) for s in (1, 2, 3)]
        for x, y in runs[1:]:
            assert np.array_equal(x.data, runs[0][0].data)
            assert np.array_equal(y.data, runs[0][1].data)

    def test_empirical_frequencies_match_kernel(self):
        m = random_model(1, 2, 2, np.random.default_rng(12), min_prob=0.05)
        x, y = simulate(m, 100_000, seed=5)
        counts = np.zeros((4, 2))
        for t in range(1, len(x)):
            w = m.window_index(x.data[t - 1 : t], y.data[t - 1 : t])
            counts[w, x.data[t]] += 1
        freq = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(freq - m.kernel_x)) < 0.02

    def test_n_below_order_rejected(self):
        m = random_model(2, 2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate(m, 1, seed=0)


class TestCompleteDist:
    def test_iid_influence_rows(self):
        m = iid_influence_model(p1=0.9, p2=0.1, epsilon=0.1)
        assert true_complete_dist(m, [0], [1]).probs[1] == pytest.approx(0.9)
        assert true_complete_dist(m, [1], [1]).probs[1] == pytest.approx(0.9)
        assert true_complete_dist(m, [0], [0]).probs[1] == pytest.approx(0.1)

    def test_ignores_side_when_rows_equal(self):
        m = independent_model()
        rows = {tuple(true_complete_dist(m, [2], [yv]).probs) for yv in range(3)}
        assert len(rows) == 1

    def test_window_length_enforced(self):
        m = iid_influence_model()
        with pytest.raises(ValueError):
            true_complete_dist(m, [0, 1], [1, 0])


class TestRestrictedFilter:
    def test_empty_history_is_initial_marginal(self):
        m = random_model(1, 2, 2, np.random.default_rng(3))
        filt = RestrictedFilter(m)
        marginal = np.zeros(2)
        for w in range(4):
            marginal[w % 2] += m.initial[w]
        assert np.allclose(filt.predict().probs, marginal, atol=1e-12)

    def test_independent_model_gives_own_row(self):
        m = independent_model()
        x, _ = simulate(m, 30, seed=2)
        filt = RestrictedFilter(m)
        for t in range(30):
            if t >= 1:
                own_row = m.kernel_x[m.window_index(x.data[t - 1 : t], [0])]
                assert np.allclose(filt.predict().probs, own_row, atol=1e-12)
            filt.observe(int(x.data[t]))

    def test_matches_brute_on_seeded_models(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(10):
            m = random_model(1, 2, 2, rng)
            x, _ = simulate(m, 12, seed=trial)
            filt = RestrictedFilter(m)
            for i in range(12):
                pf = filt.predict().probs
                pb = true_restricted_brute(m, x.data[:i]).probs
                worst = max(worst, float(np.max(np.abs(pf - pb))))
                filt.observe(int(x.data[i]))
        assert worst <= 1e-10

    def test_order_two_matches_brute(self):
        rng = np.random.default_rng(43)
        m = random_model(2, 2, 2, rng)
        x, _ = simulate(m, 10, seed=3)
        filt = RestrictedFilter(m)
        for i in range(10):
            pb = true_restricted_brute(m, x.data[:i]).probs
            assert np.allclose(filt.predict().probs, pb, atol=1e-10)
            filt.observe(int(x.data[i]))

    def test_chain_rule_consistency(self):
        m = random_model(1, 2, 2, np.random.default_rng(44))
        x, _ = simulate(m, 12, seed=11)
        filt = RestrictedFilter(m)
        log_chain = 0.0
        for t in range(12):
            log_chain += math.log2(filt.predict().prob(int(x.data[t])))
            filt.observe(int(x.data[t]))
        # brute joint probability of x^n
        from itertools import product

        px = 0.0
        for ypath in product(range(2), repeat=12):
            w = m.window_index(x.data[:1], ypath[:1])
            pr = m.initial[w]
            for t in range(1, 12):
                pr *= m.kernel_x[w, x.data[t]] * m.kernel_y[w, ypath[t]]
                w = m.shift_window(w, m.pair_index(int(x.data[t]), ypath[t]))
            px += pr
        assert log_chain == pytest.approx(math.log2(px), abs=1e-9)

    def test_impossible_sequence_raises(self):
        kx = np.tile([1.0, 0.0], (4, 1))  # X is identically 0
        ky = np.tile([0.5, 0.5], (4, 1))
        init = np.array([0.25, 0.0, 0.75, 0.0])  # x1 = 0 surely
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=init)
        filt = RestrictedFilter(m)
        filt.observe(0)
        with pytest.raises(ValueError):
            filt.observe(1)


class TestPartialDist:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(50)
        for trial in range(8):
            m = random_model(1, 2, 2, rng)
            x, y = simulate(m, 9, seed=trial)
            for k in (1, 2, 3):
                window = true_partial_dist(
                    m, x.data[-(1 + k) :], y.data[-(1 + k) : -k], k
                ).probs
                full = brute_conditional(m, x.data, y.data[: len(y) - k])
                assert np.allclose(window, full, atol=1e-10)

    def test_side_blind_model_gives_kernel_row(self):
        m = iid_influence_model()
        blind = independent_model()
        x, y = simulate(blind, 6, seed=1)
        got = true_partial_dist(blind, x.data[-2:], y.data[-2:-1], 1).probs
        row = blind.kernel_x[blind.window_index(x.data[-1:], [0])]
        assert np.allclose(got, row, atol=1e-12)

    def test_staleness_beyond_history_equals_restricted(self):
        m = random_model(1, 2, 2, np.random.default_rng(51))
        x, _ = simulate(m, 7, seed=4)
        stale = stale_history_dist(m, x.data, [])
        brute = true_restricted_brute(m, x.data)
        assert np.allclose(stale.probs, brute.probs, atol=1e-12)

    def test_deterministic_side_collapses_to_kernel_composition(self):
        # side process copies the target, so only one hidden path survives
        rng = np.random.default_rng(55)
        kx = rng.dirichlet(np.ones(2), size=4) * 0.9 + 0.05
        ky = np.zeros((4, 2))
        for w in range(4):
            ky[w, w % 2] = 1.0  # y_{t} = x_{t-1} deterministically
        init = np.zeros(4)
        init[0] = 1.0  # start at (x=0, y=0)
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=init)
        xs = [0, 1, 1, 0]
        got = true_restricted_brute(m, xs).probs
        # the unique consistent hidden path is y_t = x_{t-1}, y_1 = 0
        ys = [0] + xs[:-1]
        expected = m.kernel_x[m.window_index(xs[-1:], ys[-1:])]
        assert np.allclose(got, expected, atol=1e-12)

    def test_enumeration_size_limit_is_explicit(self):
        m = random_model(1, 2, 2, np.random.default_rng(54))
        with pytest.raises(ValueError, match="limit"):
            true_restricted_brute(m, np.zeros(24, dtype=np.int64))

    def test_window_sufficiency(self):
        # extending the history beyond the (d+k)-window never changes the value
        rng = np.random.default_rng(52)
        for trial in range(5):
            m = random_model(1, 2, 2, rng)
            x, y = simulate(m, 10, seed=trial + 60)
            k = 2
            window = true_partial_dist(m, x.data[-3:], y.data[-3:-2], k).probs
            full = brute_conditional(m, x.data, y.data[:-k])
            assert np.allclose(window, full, atol=1e-10)

    def test_window_length_enforced(self):
        m = random_model(1, 2, 2, np.random.default_rng(53))
        with pytest.raises(ValueError):
            true_partial_dist(m, [0, 1], [0, 1], 1)


class TestCausalMeasure:
    def test_iid_influence_closed_form(self):
        p1, p2, eps = 0.9, 0.1, 0.1
        m = iid_influence_model(p1, p2, eps)
        mix = p1 * eps + p2 * (1 - eps)
        got1 = true_causal_measure(m, [0, 1, 0], [0, 0, 1])
        got0 = true_causal_measure(m, [0, 1, 0], [0, 1, 0])
        assert got1 == pytest.approx(bernoulli_kl(p1, mix), abs=1e-12)
        assert got0 == pytest.approx(bernoulli_kl(p2, mix), abs=1e-12)

    def test_iid_influence_epsilon_limit(self):
        p1, p2, eps = 0.9, 0.1, 1e-6
        m = iid_influence_model(p1, p2, eps)
        c1 = true_causal_measure(m, [0, 0], [0, 1])
        c0 = true_causal_measure(m, [0, 0], [0, 0])
        assert c1 == pytest.approx(bernoulli_kl(p1, p2), abs=1e-3)
        assert c0 == pytest.approx(0.0, abs=1e-3)

    def test_cross_copy_closed_forms(self):
        eps = 0.1
        m = cross_copy_model(eps)
        same = true_causal_measure(m, [1, 1, 1], [0, 0, 1])  # x_{i-2} == y_{i-1}
        diff = true_causal_measure(m, [0, 0, 1], [0, 0, 1])  # x_{i-2} != y_{i-1}
        assert same == pytest.approx(bernoulli_kl(1 - eps, eps**2 + (1 - eps) ** 2), abs=1e-12)
        assert diff == pytest.approx(bernoulli_kl(1 - eps, 2 * eps * (1 - eps)), abs=1e-12)

    def test_partial_measure_nonnegative(self):
        m = bidirectional_model()
        x, y = simulate(m, 40, seed=8)
        for i in (5, 17, 39):
            v = true_partial_causal_measure(m, x.data[:i], y.data[:i], 1)
            assert v >= 0.0


class TestStationary:
    def test_doubly_stochastic_uniform(self):
        m = cross_copy_model(0.2)  # every column of the lifted chain sums to 1
        pi = stationary_distribution(m)
        assert np.allclose(pi.probs, 0.25, atol=1e-10)
        assert pi.residual <= 1e-10

    def test_independent_product_form(self):
        m = independent_model()
        pi = stationary_distribution(m).probs

        def marg(A):
            vals, vecs = np.linalg.eig(A.T)
            v = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
            return v / v.sum()

        from causalpath.scenarios import _INDEP_X, _INDEP_Y

        px = marg(np.array(_INDEP_X))
        py = marg(np.array(_INDEP_Y))
        for w in range(9):
            assert pi[w] == pytest.approx(px[w % 3] * py[w // 3], abs=1e-10)

    def test_empirical_occupancy(self):
        m = random_model(1, 2, 2, np.random.default_rng(60), min_prob=0.05)
        pi = stationary_distribution(m).probs
        x, y = simulate(m, 1_000_000, seed=13)
        occ = np.zeros(4)
        for t in range(len(x)):
            occ[m.pair_index(int(x.data[t]), int(y.data[t]))] += 1
        occ /= occ.sum()
        assert np.max(np.abs(occ - pi)) < 0.01

    def test_periodic_chain_detected(self):
        kx = np.zeros((4, 2))
        ky = np.zeros((4, 2))
        for w in range(4):
            xp, yp = w % 2, w // 2
            kx[w, 1 - xp] = 1.0  # deterministic alternation: period 2
            ky[w, 1 - yp] = 1.0
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=np.full(4, 0.25))
        with pytest.raises(NonErgodicError):
            stationary_distribution(m)

    def test_reducible_chain_detected(self):
        kx = np.zeros((4, 2))
        ky = np.zeros((4, 2))
        for w in range(4):
            xp, yp = w % 2, w // 2
            kx[w, xp] = 1.0  # both processes frozen in place
            ky[w, yp] = 1.0
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=np.full(4, 0.25))
        with pytest.raises(NonErgodicError):
            stationary_distribution(m)


class TestRates:
    def test_independent_rates_zero(self):
        m = independent_model()
        assert exact_pdi_rate(m, 1) == pytest.approx(0.0, abs=1e-12)
        assert exact_tdi_rate(m, 1) == pytest.approx(0.0, abs=1e-12)
        assert exact_tdi_rate(m, 2) == pytest.approx(0.0, abs=1e-12)

    def test_unidirectional_identities(self):
        # with an i.i.d. side process the target is marginally Markov, so the
        # truncated rate, the staleness-1 partial rate, and the true rate agree
        m = unidirectional_model()
        tdi = exact_tdi_rate(m, 1)
        pdi = exact_pdi_rate(m, 1)
        assert tdi == pytest.approx(pdi, abs=1e-12)
        est = mc_di_rate(m, 150_000, seed=21)
        assert abs(est.rate - tdi) <= 3 * est.stderr

    def test_mc_independent_within_three_se_of_zero(self):
        m = independent_model()
        est = mc_di_rate(m, 100_000, seed=5)
        assert abs(est.rate) <= max(3 * est.stderr, 1e-9)

    def test_sandwich_on_bidirectional(self):
        m = bidirectional_model()
        pdi = exact_pdi_rate(m, 1)
        tdi = exact_tdi_rate(m, 1)
        est = mc_di_rate(m, 200_000, seed=17)
        assert pdi <= est.rate + 3 * est.stderr
        assert est.rate <= tdi + 3 * est.stderr
        assert pdi < tdi

    def test_pdi_monotone_toward_di(self):
        m = bidirectional_model()
        assert exact_pdi_rate(m, 1) <= exact_pdi_rate(m, 2) + 1e-12

    def test_unidirectional_tdi_window_invariant(self):
        # a marginally Markov target makes the truncated rate window-free
        m = unidirectional_model()
        assert exact_tdi_rate(m, 2) == pytest.approx(exact_tdi_rate(m, 1), abs=1e-12)

    def test_order_two_sandwich(self):
        m = random_model(2, 2, 2, np.random.default_rng(5), min_prob=0.05)
        pdi1, pdi2 = exact_pdi_rate(m, 1), exact_pdi_rate(m, 2)
        tdi2, tdi3 = exact_tdi_rate(m, 2), exact_tdi_rate(m, 3)
        est = mc_di_rate(m, 100_000, seed=9)
        assert pdi1 <= pdi2 + 1e-12
        assert pdi2 <= est.rate + 3 * est.stderr
        assert est.rate <= tdi3 + 3 * est.stderr
        assert tdi3 <= tdi2 + 1e-12  # longer windows tighten the upper bound


class TestFiniteHorizonIdentity:
    def test_expected_causal_sum_equals_entropy_difference(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            m = random_model(1, 2, 2, rng)
            lhs = expected_causal_sum(m, 6)
            rhs = directed_information(m, 6)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_for_independent(self):
        m = independent_model()
        assert expected_causal_sum(m, 3) == pytest.approx(0.0, abs=1e-12)


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        m = random_model(1, 2, 3, np.random.default_rng(80))
        path = tmp_path / "model.json"
        m.save(path)
        loaded = JointMarkovModel.load(path)
        assert loaded.order == m.order
        assert np.allclose(loaded.kernel_x, m.kernel_x)
        assert np.allclose(loaded.kernel_y, m.kernel_y)

    def test_swapped_roles(self):
        m = random_model(1, 2, 3, np.random.default_rng(81))
        s = m.swapped()
        assert s.mx == m.my and s.my == m.mx
        for xw in range(2):
            for yw in range(3):
                w = m.window_index([xw], [yw])
                ws = s.window_index([yw], [xw])
                assert np.allclose(s.kernel_x[ws], m.kernel_y[w])
                assert np.allclose(s.kernel_y[ws], m.kernel_x[w])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_kernel_rejected(self, bad):
        kx = np.full((4, 2), 0.5)
        ky = np.full((4, 2), 0.5)
        kx[2, 0] = bad
        with pytest.raises(ValueError):
            JointMarkovModel(1, B2, B2, kx, ky)
        with pytest.raises(ValueError):
            JointMarkovModel(1, B2, B2, ky, kx)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_initial_rejected(self, bad):
        k = np.full((4, 2), 0.5)
        with pytest.raises(ValueError):
            JointMarkovModel(1, B2, B2, k, k, initial=[bad, 0.5, 0.25, 0.25])

    def test_incomplete_file_rejected(self, tmp_path):
        m = random_model(1, 2, 2, np.random.default_rng(82))
        data = m.to_json_dict()
        data["kernel"] = data["kernel"][:-1]
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            JointMarkovModel.load(path)
