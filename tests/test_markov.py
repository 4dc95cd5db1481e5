import math
import warnings
from itertools import product

import numpy as np
import pytest

from causalpath.core import AbsoluteContinuityError, Alphabet, ProbDist, kl_divergence
from causalpath.markov import (
    JointMarkovModel,
    NonErgodicError,
    RestrictedFilter,
    StationaryDist,
    causal_measure_path,
    directed_information,
    exact_pdi_rate,
    exact_tdi_rate,
    expected_causal_sum,
    mc_di_rate,
    partial_measure_path,
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
    SCENARIO_NAMES,
    bidirectional_model,
    cross_copy_model,
    iid_influence_model,
    independent_model,
    scenario_model,
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


def per_window_pdi_rate(model, k):
    """Reference partial DI rate: the stationary (d+k)-window law times
    KL(complete || true_partial_dist) at every window, summed window by
    window (the enumeration exact_pdi_rate replaced by one conditional MI)."""
    d, B = model.order, model.pair_count
    D = d + k
    pi = stationary_distribution(model).probs
    for _ in range(k):
        # flat index = old_window * B + new_pair: new pair in the lowest digit
        pi = (pi[:, None] * model.pair_transition[np.arange(pi.size) % B**d]).ravel()
    terms = []
    for w in np.nonzero(pi > 0.0)[0]:
        pairs = [(w // B**j) % B for j in reversed(range(D))]  # oldest first
        xs = [p % model.mx for p in pairs]
        ys = [p // model.mx for p in pairs]
        complete = ProbDist(model.alphabet_x, model.kernel_x[w % B**d])
        partial = true_partial_dist(model, xs, ys[:d], k)
        terms.append(pi[w] * kl_divergence(complete, partial))
    return max(math.fsum(terms), 0.0)


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

    @pytest.mark.parametrize("order,mx,my", [(2, 2, 3), (2, 3, 3), (3, 2, 3)])
    def test_ternary_side_matches_brute(self, order, mx, my):
        # folding the side window regroups sums only when my >= 3 and d >= 2
        m = random_model(order, mx, my, np.random.default_rng(46 + 10 * order + mx))
        x, _ = simulate(m, 10, seed=order)
        filt = RestrictedFilter(m)
        worst = 0.0
        for i in range(10):
            pb = true_restricted_brute(m, x.data[:i]).probs
            worst = max(worst, float(np.max(np.abs(filt.predict().probs - pb))))
            filt.observe(int(x.data[i]))
        assert worst <= 1e-10

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

    def test_impossible_symbol_inside_the_initial_window_raises(self):
        # order 2: the initial law puts x = 0 at the newer window position,
        # so a path with x = 1 there fails inside the initial window
        m = random_model(2, 2, 2, np.random.default_rng(47))
        init = m.initial * (m.window_x_positions[1] == 0)
        m = JointMarkovModel(2, B2, B2, m.kernel_x, m.kernel_y, initial=init / init.sum())
        with pytest.raises(ValueError, match="cannot produce"):
            RestrictedFilter(m)._run([1, 1])
        for xs in ([1, 1], [0, 1, 0], [1, 1, 0, 1]):
            ys = [0] * len(xs)
            with pytest.raises(ValueError):
                causal_measure_path(m, xs, ys)
            with pytest.raises(ValueError):
                true_causal_measure(m, xs, ys)

    @pytest.mark.parametrize("order,mx,my", [(1, 2, 2), (2, 3, 2), (3, 2, 3)])
    def test_one_run_equals_predict_then_observe(self, order, mx, my):
        # one _run call over the path, initial window included, gives the
        # rows and the state of the per-symbol calls bit for bit
        m = random_model(order, mx, my, np.random.default_rng(48 + order))
        x, _ = simulate(m, 40, seed=order)
        stepped, whole = RestrictedFilter(m), RestrictedFilter(m)
        rows = []
        for s in x.data.tolist():
            rows.append(stepped.predict().probs)
            stepped.observe(s)
        assert np.array_equal(whole._run(x.data.tolist()), np.array(rows))
        assert np.array_equal(whole.predict().probs, stepped.predict().probs)
        for length in range(order + 2):
            want = np.array(rows[:length]).reshape(length, mx)
            assert np.array_equal(RestrictedFilter(m)._run(x.data[:length].tolist()), want)


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

    @pytest.mark.parametrize("model, n, k, paths", [
        (bidirectional_model(), 15, 14, 3**14), (bidirectional_model(), 40, 39, 3**39),
        (cross_copy_model(), 40, 21, 2**21),
    ])
    def test_path_over_the_limit_fails_up_front(self, model, n, k, paths):
        x, y = simulate(model, n, seed=2)
        with pytest.raises(ValueError, match=f"staleness k={k} needs {paths} hidden"):
            partial_measure_path(model, x.data, y.data, k)

    def test_short_path_under_the_limit_runs(self):
        # only min(k, n - 1) side symbols are ever hidden
        m = bidirectional_model()
        x, y = simulate(m, 5, seed=2)
        assert partial_measure_path(m, x.data, y.data, 30).shape == (5,)

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

    @pytest.mark.parametrize("bad", [-1, 2, 7])
    def test_brute_force_oracles_reject_out_of_range_symbols(self, bad):
        # numpy would wrap -1 to the last symbol; in the last two calls the
        # bad symbol sits where the order-1, k = 1 windows never read it
        m = random_model(1, 2, 2, np.random.default_rng(56))
        calls = [
            lambda: stale_history_dist(m, [bad, 0], [0]),
            lambda: stale_history_dist(m, [0, 0], [bad]),
            lambda: stale_history_dist(m, [bad], []),
            lambda: true_restricted_brute(m, [0, bad]),
            lambda: true_partial_dist(m, [bad, 0], [0], 1),
            lambda: true_partial_dist(m, [0, 0], [bad], 1),
            lambda: true_partial_causal_measure(m, [bad, 0, 0], [0, 0, 0], 1),
            lambda: true_partial_causal_measure(m, [0, 0, 0], [bad, 0, 0], 1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="symbol out of alphabet"):
                call()


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

    def test_matches_dense_build_and_graph_walks(self):
        # scenarios, random sparse kernels and constructed periodic chains
        rng = np.random.default_rng(90)
        models = [scenario_model(name) for name in SCENARIO_NAMES]
        for d in (1, 2):
            for mx in (2, 3):
                for my in (2, 3):
                    for keep in [0.45, 0.7, 0.95] * 10:
                        models.append(sparse_model(rng, d, mx, my, keep))
        models += periodic_models()
        outcomes = set()
        for m in models:
            want = stationary_outcome(dense_stationary, m)
            got = stationary_outcome(stationary_distribution, m)
            assert len(want) == len(got)
            assert all(np.array_equal(a, b) for a, b in zip(want, got)), want
            outcomes.add(want[0] if want[0] != NonErgodicError else want[1])
        assert outcomes == {
            StationaryDist,
            "window chain is not irreducible",
            "window chain is periodic",
        }


def dense_stationary(model):
    """The stationary analysis as a dense transition matrix filled row by row,
    with a depth-first reachability walk each way and a breadth-first
    period walk."""
    W, B = model.num_windows, model.pair_count
    T = np.zeros((W, W))
    for w in range(W):
        base = B * (w % B ** (model.order - 1))
        T[w, base : base + B] += model.pair_transition[w]
    adj = [np.nonzero(T[w] > 0.0)[0] for w in range(W)]
    radj = [[] for _ in range(W)]
    for u in range(W):
        for v in adj[u]:
            radj[int(v)].append(u)

    def reaches_all(graph):
        seen, stack = {0}, [0]
        while stack:
            for v in graph[stack.pop()]:
                if int(v) not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        return len(seen) == W

    if not (reaches_all(adj) and reaches_all(radj)):
        raise NonErgodicError("window chain is not irreducible")
    dist, order, g = [-1] * W, [0], 0
    dist[0] = 0
    for u in order:
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
            else:
                g = math.gcd(g, dist[u] + 1 - dist[v])
    if abs(g) != 1:
        raise NonErgodicError("window chain is periodic")
    A = T.T - np.eye(W)
    A[-1, :] = 1.0
    b = np.zeros(W)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NonErgodicError(f"stationary solve failed: {exc}") from exc
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ T - pi)))
    if residual > 1e-10:
        raise NonErgodicError(f"stationary residual {residual} exceeds 1e-10")
    return StationaryDist(pi, residual)


def stationary_outcome(solve, model):
    try:
        st = solve(model)
    except NonErgodicError as exc:
        return NonErgodicError, str(exc)
    return StationaryDist, st.probs, st.residual


def sparse_rows(rng, rows, m, keep):
    """Random kernel rows that keep each entry with probability keep (at
    least one per row)."""
    mask = rng.random((rows, m)) < keep
    mask[np.arange(rows), rng.integers(0, m, rows)] = True
    raw = rng.dirichlet(np.ones(m), size=rows) * mask
    return raw / raw.sum(axis=1, keepdims=True)


def sparse_model(rng, d, mx, my, keep):
    nwin = (mx * my) ** d
    kx, ky = sparse_rows(rng, nwin, mx, keep), sparse_rows(rng, nwin, my, keep)
    return JointMarkovModel(d, Alphabet(mx), Alphabet(my), kx, ky)


def periodic_models():
    """Chains whose target steps deterministically, x' = oldest x + 1 mod
    mx, beside a free side process: period mx at order 1, period 4 for mx = 2
    at order 2, and two separate cycles for mx = 3 at order 2."""
    rng = np.random.default_rng(91)
    out = []
    for d, mx, my in ((1, 2, 2), (1, 3, 2), (1, 2, 3), (2, 2, 2), (2, 3, 2)):
        nwin = (mx * my) ** d
        oldest = (np.arange(nwin) // (mx * my) ** (d - 1)) % mx
        kx = np.eye(mx)[(oldest + 1) % mx]
        ky = sparse_rows(rng, nwin, my, 1.0)
        out.append(JointMarkovModel(d, Alphabet(mx), Alphabet(my), kx, ky))
    return out


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

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_pdi_matches_per_window_enumeration(self, name):
        m = scenario_model(name)
        for k in (1, 2, 3):
            assert abs(exact_pdi_rate(m, k) - per_window_pdi_rate(m, k)) <= 1e-12

    def test_mc_rate_is_batch_means_of_causal_measure_path(self):
        models = (bidirectional_model(), random_model(2, 2, 3, np.random.default_rng(7)))
        for m in models:
            n, seed, batches = 3000, 12, 50
            est = mc_di_rate(m, n, seed, batches=batches)
            x, y = simulate(m, n, seed)
            vals = causal_measure_path(m, x, y)[m.order :]
            per = vals.size // batches
            means = vals[: per * batches].reshape(batches, per).mean(axis=1)
            assert est.rate == float(vals.mean())
            assert est.stderr == float(means.std(ddof=1) / math.sqrt(batches))
            assert (est.steps, est.batches) == (n - m.order, batches)

    @pytest.mark.parametrize("batches", [-1, 0, 1])
    def test_batch_count_below_two_rejected(self, batches):
        with pytest.raises(ValueError, match="batches"):
            mc_di_rate(bidirectional_model(), 1000, seed=1, batches=batches)

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_horizon_below_order_rejected(self, n):
        m = random_model(2, 2, 2, np.random.default_rng(71))
        for exact in (directed_information, expected_causal_sum):
            with pytest.raises(ValueError, match="order 2"):
                exact(m, n)


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

    def test_non_integer_window_symbol_rejected(self):
        # a cast to int64 truncated 1.9 to the symbol 1 and 0.7 to 0
        m = independent_model()
        with pytest.raises(ValueError, match="integers"):
            m.window_index([1.9], [0])
        assert m.window_index([1.0], [0]) == m.window_index([1], [0])
        data = m.to_json_dict()
        data["kernel"][1]["x_window"] = [0.7]
        with pytest.raises(ValueError, match="integers"):
            JointMarkovModel.from_json_dict(data)

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

    def test_window_index_rejects_out_of_range_symbols(self):
        m = random_model(1, 2, 3, np.random.default_rng(83))
        for xw, yw in (([2], [0]), ([-1], [0]), ([0], [3]), ([1], [-1])):
            with pytest.raises(ValueError, match="alphabet"):
                m.window_index(xw, yw)

    @pytest.mark.parametrize("xw,yw", [([3], [0]), ([-1], [1]), ([1], [3])])
    def test_out_of_range_window_rejected(self, xw, yw):
        # a tenth row must not silently overwrite one of the nine windows
        data = bidirectional_model().to_json_dict()
        data["kernel"].append(dict(data["kernel"][1], x_window=xw, y_window=yw))
        with pytest.raises(ValueError, match="alphabet"):
            JointMarkovModel.from_json_dict(data)

    @pytest.mark.parametrize("section", ["kernel", "initial"])
    def test_window_listed_twice_rejected(self, section):
        m = bidirectional_model()
        data = m.to_json_dict()
        data["initial"] = [
            {"x_window": r["x_window"], "y_window": r["y_window"], "prob": float(p)}
            for r, p in zip(data["kernel"], m.initial)
        ]
        assert JointMarkovModel.from_json_dict(data).has_custom_initial
        data[section].append(dict(data[section][1]))
        with pytest.raises(ValueError, match="twice"):
            JointMarkovModel.from_json_dict(data)

    @pytest.mark.parametrize(
        "model",
        [scenario_model(name) for name in SCENARIO_NAMES]
        + [random_model(order, mx, my, np.random.default_rng(84 + order))
           for order, mx, my in ((1, 2, 3), (2, 3, 2), (3, 2, 2))]
        + [JointMarkovModel(1, B2, B2, np.full((4, 2), 0.5), np.full((4, 2), 0.5),
                            initial=[0.1, 0.2, 0.3, 0.4])],
    )
    def test_save_writes_the_per_window_bytes(self, tmp_path, model):
        def per_window(m):  # each window decoded on its own, as files were first written
            rows = [{"x_window": m.decode_window(w)[0].tolist(),
                     "y_window": m.decode_window(w)[1].tolist(),
                     "x_probs": m.kernel_x[w].tolist(), "y_probs": m.kernel_y[w].tolist()}
                    for w in range(m.num_windows)]
            out = {"format": "causalpath-model", "version": 1, "order": m.order,
                   "alphabet_x": m.mx, "alphabet_y": m.my, "kernel": rows}
            if m.has_custom_initial:
                out["initial"] = [{"x_window": m.decode_window(w)[0].tolist(),
                                   "y_window": m.decode_window(w)[1].tolist(),
                                   "prob": float(m.initial[w])} for w in range(m.num_windows)]
            return out

        import json

        path = tmp_path / "model.json"
        model.save(path)
        assert path.read_text() == json.dumps(per_window(model), indent=1)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(order=0), "order must be >= 1"),
            (lambda d: d["kernel"][1].update(x_window=[]), "window length must equal order 1"),
            (lambda d: d["kernel"][1].update(y_window=[2]), "window symbol out of alphabet range"),
            (lambda d: d["kernel"].pop(), "model file does not cover every window"),
        ],
    )
    def test_load_errors_name_the_fault(self, edit, message):
        data = random_model(1, 2, 2, np.random.default_rng(85)).to_json_dict()
        edit(data)
        with pytest.raises(ValueError, match=message):
            JointMarkovModel.from_json_dict(data)

    def test_incomplete_file_rejected(self, tmp_path):
        m = random_model(1, 2, 2, np.random.default_rng(82))
        data = m.to_json_dict()
        data["kernel"] = data["kernel"][:-1]
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            JointMarkovModel.load(path)


# -- matrix-form paths against the per-step loops they replaced -------------------


def masked_initial_conditional(model, xs, ys):
    """p(x_t | xs, ys) for t = len(xs) < d by masking the initial window law."""
    mask = np.ones(model.num_windows, dtype=bool)
    for t, s in enumerate(xs):
        mask &= model.window_x_positions[t] == s
    for t, s in enumerate(ys):
        mask &= model.window_y_positions[t] == s
    probs = np.zeros(model.mx)
    np.add.at(probs, model.window_x_positions[len(xs)], np.where(mask, model.initial, 0.0))
    return probs / probs.sum()


class LoopFilter:
    """The per-step restricted filter: a joint over initial windows while
    i < d, then a posterior over y-windows folded one symbol at a time."""

    def __init__(self, model):
        self.m, self.i, self.w, self.beta, self.xwin = model, 0, model.initial.copy(), None, 0
        d, mx, my = model.order, model.mx, model.my
        xcodes, ycodes = np.arange(mx**d), np.arange(my**d)
        self.pairidx = sum(
            (((xcodes // mx**j) % mx)[:, None] + mx * ((ycodes // my**j) % my)[None, :])
            * model.pair_count**j
            for j in range(d)
        )

    def predict(self):
        m = self.m
        if self.i < m.order:
            probs = np.zeros(m.mx)
            np.add.at(probs, m.window_x_positions[self.i], self.w)
        else:
            probs = self.beta @ m.kernel_x[self.pairidx[self.xwin]]
        return probs / probs.sum()

    def observe(self, sym):
        m = self.m
        d, mx, my = m.order, m.mx, m.my
        if self.i < d:
            self.w = np.where(m.window_x_positions[self.i] == sym, self.w, 0.0)
            if self.w.sum() <= 0.0:
                raise ValueError("impossible")
            self.w /= self.w.sum()
            if self.i == d - 1:
                ycode = sum(m.window_y_positions[d - 1 - j] * my**j for j in range(d))
                self.beta = np.zeros(my**d)
                np.add.at(self.beta, ycode, self.w)
        else:
            widx = self.pairidx[self.xwin]
            contrib = self.beta * m.kernel_x[widx, sym]
            new_beta = (contrib[:, None] * m.kernel_y[widx]).reshape(my, -1).sum(axis=0)
            if new_beta.sum() <= 0.0:
                raise ValueError("impossible")
            self.beta = new_beta / new_beta.sum()
        # while i < d the code has fewer than d digits and the modulus keeps it
        self.xwin = sym + mx * (self.xwin % mx ** (d - 1))
        self.i += 1


def loop_complete(model, xs, ys, i):
    d = model.order
    if i < d:
        return masked_initial_conditional(model, xs[:i], ys[:i])
    return model.kernel_x[model.window_index(xs[i - d : i], ys[i - d : i])]


def loop_causal_measure_path(model, xs, ys):
    ax, filt, out = model.alphabet_x, LoopFilter(model), []
    for i in range(len(xs)):
        complete = ProbDist(ax, loop_complete(model, xs, ys, i))
        out.append(kl_divergence(complete, ProbDist(ax, filt.predict())))
        filt.observe(int(xs[i]))
    return np.array(out)


def loop_partial_measure_path(model, xs, ys, k):
    ax, d, out = model.alphabet_x, model.order, []
    for i in range(len(xs)):
        if i < d:
            partial = masked_initial_conditional(model, xs[:i], ys[: max(0, i - k)])
        elif i < d + k:
            partial = stale_history_dist(model, xs[:i], ys[: max(0, i - k)]).probs
        else:
            partial = true_partial_dist(model, xs[i - d - k : i], ys[i - d - k : i - k], k).probs
        complete = ProbDist(ax, loop_complete(model, xs, ys, i))
        out.append(kl_divergence(complete, ProbDist(ax, partial)))
    return np.array(out)


def searchsorted_simulate(model, n, seed):
    """The per-step searchsorted sampler."""
    d = model.order
    rng = np.random.default_rng(seed)
    x, y = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    widx = int(rng.choice(model.num_windows, p=model.initial))
    x[:d], y[:d] = model.decode_window(widx)
    cum_x, cum_y = np.cumsum(model.kernel_x, axis=1), np.cumsum(model.kernel_y, axis=1)
    u = rng.random((max(n - d, 1), 2))
    for t in range(d, n):
        xs = min(int(np.searchsorted(cum_x[widx], u[t - d, 0], side="right")), model.mx - 1)
        ys = min(int(np.searchsorted(cum_y[widx], u[t - d, 1], side="right")), model.my - 1)
        x[t], y[t] = xs, ys
        widx = model.shift_window(widx, model.pair_index(xs, ys))
    return x, y


PATH_MODELS = list(SCENARIO_NAMES) + [
    f"random-{d}-{mx}-{my}" for d in (1, 2, 3) for mx in (2, 3) for my in (2, 3)
]


def path_model(name):
    if name in SCENARIO_NAMES:
        return scenario_model(name)
    d, mx, my = map(int, name.split("-")[1:])
    return random_model(d, mx, my, np.random.default_rng(100 * d + 10 * mx + my))


class TestMatrixFormPaths:
    @pytest.mark.parametrize("name", PATH_MODELS)
    def test_paths_match_per_step_loops(self, name):
        m = path_model(name)
        n = 520 if name in SCENARIO_NAMES else 120  # 520 crosses a 512-step block
        x, y = simulate(m, n, seed=len(name))
        xs, ys = x.data, y.data
        got = causal_measure_path(m, xs, ys)
        assert got.shape == (n,)
        assert np.max(np.abs(got - loop_causal_measure_path(m, xs, ys))) <= 1e-12
        for k in (1, 2):
            want = loop_partial_measure_path(m, xs, ys, k)
            assert np.max(np.abs(partial_measure_path(m, xs, ys, k) - want)) <= 1e-12

    @pytest.mark.parametrize("name", PATH_MODELS)
    def test_paths_up_to_the_order(self, name):
        m = path_model(name)
        x, y = simulate(m, m.order + 2, seed=1)
        for length in range(m.order + 3):
            xs, ys = x.data[:length], y.data[:length]
            got = causal_measure_path(m, xs, ys)
            assert got.shape == (length,)
            assert np.allclose(got, loop_causal_measure_path(m, xs, ys), rtol=0, atol=1e-12)
            got = partial_measure_path(m, xs, ys, 2)
            assert np.allclose(got, loop_partial_measure_path(m, xs, ys, 2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", PATH_MODELS)
    def test_simulate_matches_searchsorted_loop(self, name):
        m = path_model(name)
        for seed, length in ((0, m.order), (1, m.order + 1), (2, 1100)):
            x, y = simulate(m, length, seed)
            want_x, want_y = searchsorted_simulate(m, length, seed)
            assert np.array_equal(x.data, want_x) and np.array_equal(y.data, want_y)

    def test_simulate_matches_searchsorted_loop_with_zero_entries(self):
        kx = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 0.8]] * 2)
        ky = np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]] * 2)
        m = JointMarkovModel(1, Alphabet(3), B2, kx, ky, initial=np.full(6, 1 / 6))
        x, y = simulate(m, 700, seed=4)
        want_x, want_y = searchsorted_simulate(m, 700, seed=4)
        assert np.array_equal(x.data, want_x) and np.array_equal(y.data, want_y)

    def test_impossible_sequence_raises(self):
        kx = np.tile([1.0, 0.0], (4, 1))  # X is identically 0
        ky = np.tile([0.5, 0.5], (4, 1))
        init = np.array([0.25, 0.0, 0.75, 0.0])  # x1 = 0 surely
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=init)
        for xs in ([0, 1], [0, 0, 0, 1], [1]):
            with pytest.raises(ValueError):
                causal_measure_path(m, xs, [0] * len(xs))
        assert causal_measure_path(m, [0, 0, 0], [1, 0, 1]).tolist() == [0.0, 0.0, 0.0]

    def test_complete_mass_where_restricted_is_zero(self):
        # Y is surely 0, and X is surely 0 after y = 0: the restricted law
        # puts no mass on 1, but after the impossible y = 1 the complete
        # law does
        kx = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        ky = np.tile([1.0, 0.0], (4, 1))
        m = JointMarkovModel(1, B2, B2, kx, ky, initial=np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(AbsoluteContinuityError):
            causal_measure_path(m, [0, 0, 0], [0, 1, 0])
        with pytest.raises(AbsoluteContinuityError):
            loop_causal_measure_path(m, [0, 0, 0], [0, 1, 0])


def serial_restricted_laws(model, xs):
    """The restricted law at every step of xs by the serial filter loop the
    blocked scan replaced: one product per step with a per-x-window table of
    the predictive law and, per next symbol, the unnormalized posterior over
    side windows (initial-window steps from the brute-force oracle)."""
    d, mx, my = model.order, model.mx, model.my
    ny = my**d
    xwins = list(product(range(mx), repeat=d))  # oldest first: list index is the code
    ywins = list(product(range(my), repeat=d))
    table = np.zeros((mx**d, ny, mx * (1 + ny)))
    for a, xw in enumerate(xwins):
        for c, yw in enumerate(ywins):
            w = model.window_index(xw, yw)
            table[a, c, :mx] = model.kernel_x[w]
            for s in range(mx):
                for ynew in range(my):
                    nxt = (c % my ** (d - 1)) * my + ynew
                    table[a, c, mx + s * ny + nxt] = model.kernel_x[w, s] * model.kernel_y[w, ynew]
    xs = [int(s) for s in xs]
    laws = [true_restricted_brute(model, xs[:i]).probs for i in range(min(d, len(xs)))]
    if len(xs) > d:
        beta = np.array([model.initial[model.window_index(xs[:d], yw)] for yw in ywins])
        beta /= beta.sum()
        xwin = xwins.index(tuple(xs[:d]))
        for s in xs[d:]:
            v = beta.dot(table[xwin])
            laws.append(v[:mx] / v[:mx].sum())
            if v[s] <= 0.0:
                raise ValueError("model cannot produce the observed sequence")
            beta = v[mx + s * ny : mx + (s + 1) * ny] / v[s]
            xwin = s + mx * (xwin % mx ** (d - 1))
    return np.array(laws).reshape(len(xs), mx)


def copy_side_model(kx_side0, kx_side1):
    """Order-1 model whose side symbol never changes: X is drawn from
    kx_side0 or kx_side1 by the side symbol, and every initial window has
    mass."""
    mx = len(kx_side0)
    wins = np.arange(2 * mx)
    kx = np.where((wins // mx == 0)[:, None], kx_side0, kx_side1)
    ky = np.eye(2)[wins // mx]
    return JointMarkovModel(1, Alphabet(mx), B2, kx, ky, initial=np.full(2 * mx, 0.5 / mx))


class TestBlockedScan:
    """The blocked filter scan against the serial loop it replaced: blocks of
    256 steps past the initial window (sqrt(N) from 65,536 steps on), one
    block for more than 16 side windows."""

    @pytest.mark.parametrize("name", PATH_MODELS)
    def test_matches_serial_loop(self, name):
        m = path_model(name)
        d = m.order
        x, _ = simulate(m, 20_000, seed=len(name))
        # one step; one block +- 1 step; two blocks and one step; 79 blocks
        for n in (1, d + 255, d + 257, d + 513, 20_000):
            xs = x.data[:n]
            got = RestrictedFilter(m)._run(xs)
            assert got.shape == (n, m.mx)
            assert np.max(np.abs(got - serial_restricted_laws(m, xs))) <= 1e-13

    @pytest.mark.parametrize("name", ["bidirectional", "random-2-3-2", "random-3-2-2"])
    def test_two_runs_equal_one(self, name):
        m = path_model(name)
        x, _ = simulate(m, 20_000, seed=3)
        whole, split = RestrictedFilter(m), RestrictedFilter(m)
        rows = whole._run(x.data)
        parts = np.vstack([split._run(x.data[:7_001]), split._run(x.data[7_001:])])
        assert np.max(np.abs(parts - rows)) <= 1e-15
        assert np.max(np.abs(split.predict().probs - whole.predict().probs)) <= 1e-15

    @pytest.mark.parametrize(
        "xs,bad",
        [
            # the switch to 1 is inside a block: that block's product is zero
            ([0] * 301 + [1] * 2_000, 301),
            # the switch starts a block of ones: its product is not zero, but
            # the posterior carried into it gives it no mass
            ([0] * 513 + [1] * 2_000, 513),
            # the switch is in the last block, reached only by the replay
            ([0] * 2_000 + [1] * 10, 2_000),
        ],
    )
    def test_impossible_symbol_in_a_later_block_raises(self, xs, bad):
        # X copies the side symbol, which never changes: a 1 after 0s is impossible
        m = copy_side_model([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="cannot produce"):
            serial_restricted_laws(m, xs)
        serial_restricted_laws(m, xs[:bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="model cannot produce"):
                RestrictedFilter(m)._run(xs)
            with pytest.raises(ValueError, match="model cannot produce"):
                causal_measure_path(m, xs, xs)
            assert RestrictedFilter(m)._run(xs[:bad]).shape == (bad, 2)

    def test_possible_path_through_zero_entries_runs_warning_free(self):
        # side 1 never emits a 2, so the early 2s pin the side to 0; in the
        # block of 1s the side-0 row of the block product underflows to zero
        # (0.01 per step against 0.999), the carried mass is zero, and the
        # serial steps carry the posterior through the block
        m = copy_side_model([0.495, 0.01, 0.495], [0.001, 0.999, 0.0])
        rng = np.random.default_rng(5)
        xs = [2] + rng.choice([0, 2], 300).tolist() + [1] * 400 + rng.choice([0, 2], 400).tolist()
        sparse = JointMarkovModel(
            1,
            Alphabet(3),
            B2,
            np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.0, 0.8]] * 2),
            np.array([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]] * 2),
            initial=np.full(6, 1 / 6),
        )
        x, _ = simulate(sparse, 20_000, seed=4)
        # the last block stops short: its padding (x-window 0, symbol 0)
        # cannot follow a run of 1s of the copying model
        copying = copy_side_model([1.0, 0.0], [0.0, 1.0])
        for model, path in ((m, xs), (sparse, x.data), (copying, [1] * 1_000)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = RestrictedFilter(model)._run(path)
            assert np.max(np.abs(got - serial_restricted_laws(model, path))) <= 1e-13
