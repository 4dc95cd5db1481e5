import math

import numpy as np
import pytest

from causalpath.core import (
    AbsoluteContinuityError,
    Alphabet,
    ProbDist,
    SymbolSeq,
    ZeroProbabilityError,
    entropy,
    kl_divergence,
    total_variation,
)

B2 = Alphabet(2)
B3 = Alphabet(3)
B4 = Alphabet(4)


def dist(alphabet, probs):
    return ProbDist(alphabet, np.asarray(probs, dtype=float))


def random_dist(rng, m):
    return ProbDist(Alphabet(m), rng.dirichlet(np.ones(m)))


class TestKL:
    def test_identity_case(self):
        p = dist(B2, [0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_hand_arithmetic(self):
        p = dist(B2, [0.5, 0.5])
        q = dist(B2, [0.25, 0.75])
        expected = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(p, q) == pytest.approx(0.2075, abs=5e-5)

    def test_point_mass(self):
        p = dist(B2, [1.0, 0.0])
        q = dist(B2, [0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_absolute_continuity_violation(self):
        p = dist(B2, [0.5, 0.5])
        q = dist(B2, [1.0, 0.0])
        with pytest.raises(AbsoluteContinuityError):
            kl_divergence(p, q)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(dist(B2, [0.5, 0.5]), dist(B3, [0.3, 0.3, 0.4]))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            p, q = random_dist(rng, m), random_dist(rng, m)
            d = kl_divergence(p, q)
            assert d >= 0.0
            if d < 1e-12:
                assert np.max(np.abs(p.probs - q.probs)) < 1e-5
            assert kl_divergence(p, p) <= 1e-12


class TestEntropy:
    def test_uniform(self):
        assert entropy(ProbDist.uniform(B4)) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        assert entropy(dist(B3, [1.0, 0.0, 0.0])) == 0.0

    def test_bernoulli_quarter(self):
        assert entropy(dist(B2, [0.75, 0.25])) == pytest.approx(0.8113, abs=5e-5)

    def test_bounds_and_concavity(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            m = int(rng.integers(2, 6))
            p, q = random_dist(rng, m), random_dist(rng, m)
            hp, hq = entropy(p), entropy(q)
            assert 0.0 <= hp <= math.log2(m) + 1e-12
            mid = ProbDist(p.alphabet, 0.5 * (p.probs + q.probs))
            assert entropy(mid) >= 0.5 * (hp + hq) - 1e-12


class TestTotalVariation:
    def test_equal(self):
        p = dist(B2, [0.4, 0.6])
        assert total_variation(p, p) == 0.0

    def test_disjoint_support(self):
        assert total_variation(dist(B2, [1, 0]), dist(B2, [0, 1])) == 1.0

    def test_direct_sum(self):
        assert total_variation(dist(B2, [0.5, 0.5]), dist(B2, [0.25, 0.75])) == 0.25

    def test_pinsker(self):
        # KL here is in bits: TV <= sqrt(ln2 * KL_bits / 2)
        rng = np.random.default_rng(303)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            p, q = random_dist(rng, m), random_dist(rng, m)
            tv = total_variation(p, q)
            kl = kl_divergence(p, q)
            assert tv <= math.sqrt(math.log(2.0) * kl / 2.0) + 1e-12


class TestTypes:
    def test_alphabet_minimum_size(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_symbol_range_enforced(self):
        with pytest.raises(ValueError):
            SymbolSeq.from_list(B2, [0, 1, 2])

    def test_probdist_must_normalize(self):
        with pytest.raises(ValueError):
            dist(B2, [0.6, 0.6])
        with pytest.raises(ValueError):
            dist(B2, [-0.1, 1.1])

    @pytest.mark.parametrize(
        "probs",
        [[math.nan, 1.0], [0.5, math.nan], [math.inf, 1.0], [-math.inf, 1.0], [math.nan, math.nan]],
    )
    def test_probdist_rejects_non_finite(self, probs):
        with pytest.raises(ValueError):
            dist(B2, probs)

    def test_zero_entry_log_is_explicit(self):
        p = dist(B2, [1.0, 0.0])
        with pytest.raises(ZeroProbabilityError):
            p.log2_prob(1)

    def test_seq_slicing(self):
        s = SymbolSeq.from_list(B3, [0, 1, 2, 1])
        assert len(s[1:]) == 3
        assert s[2] == 2
