import numpy as np
import pytest

from causalpath.graphs import (
    EDGE_MI_THRESHOLD,
    UnrolledDag,
    build_unrolled_network,
    classify_markovicity,
    d_separated,
    nodeset_conditional_mi,
)
from causalpath.markov import random_model
from causalpath.scenarios import (
    bidirectional_model,
    cross_copy_model,
    iid_influence_model,
    independent_model,
    unidirectional_model,
)


def dag_from(edges):
    horizon = max(t for e in edges for _, t in e)
    return UnrolledDag(("X", "Y"), horizon, frozenset(edges))


X = lambda t: ("X", t)
Y = lambda t: ("Y", t)


class TestDSeparation:
    """Chain, fork, and collider shapes, with and without conditioning."""

    chain = dag_from({(X(1), X(2)), (X(2), X(3))})
    fork = dag_from({(Y(1), X(2)), (Y(1), Y(2))})  # common parent
    collider = dag_from({(X(1), X(2)), (Y(1), X(2))})
    long_collider = dag_from({(X(1), X(2)), (Y(1), X(2)), (X(2), X(3))})

    def test_chain_blocked_by_middle(self):
        assert d_separated(self.chain, {X(1)}, {X(3)}, {X(2)})

    def test_chain_open_without_conditioning(self):
        assert not d_separated(self.chain, {X(1)}, {X(3)}, set())

    def test_fork_blocked_by_parent(self):
        assert d_separated(self.fork, {X(2)}, {Y(2)}, {Y(1)})

    def test_fork_open_without_conditioning(self):
        assert not d_separated(self.fork, {X(2)}, {Y(2)}, set())

    def test_collider_blocked_marginally(self):
        assert d_separated(self.collider, {X(1)}, {Y(1)}, set())

    def test_collider_opened_by_conditioning(self):
        assert not d_separated(self.collider, {X(1)}, {Y(1)}, {X(2)})

    def test_collider_opened_by_descendant(self):
        assert not d_separated(self.long_collider, {X(1)}, {Y(1)}, {X(3)})

    def test_collider_descendant_unconditioned_stays_blocked(self):
        assert d_separated(self.long_collider, {X(1)}, {Y(1)}, set())

    def test_disconnected_nodes_separated(self):
        dag = dag_from({(X(1), X(2))})
        assert d_separated(dag, {X(1)}, {Y(2)}, set())

    def test_direct_edge_never_separated(self):
        assert not d_separated(self.chain, {X(1)}, {X(2)}, {X(3)})

    def test_symmetry(self):
        for a, b, c in [
            ({X(1)}, {Y(1)}, {X(2)}),
            ({X(1)}, {X(3)}, {X(2)}),
            ({X(2)}, {Y(2)}, set()),
        ]:
            for dag in (self.chain, self.fork, self.collider, self.long_collider):
                try:
                    assert d_separated(dag, a, b, c) == d_separated(dag, b, a, c)
                except ValueError:
                    pass  # sets not disjoint for this shape; irrelevant here

    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            d_separated(self.chain, {X(1)}, {X(1)}, set())


class TestBuildNetwork:
    def test_independent_has_no_cross_edges(self):
        dag = build_unrolled_network(independent_model(), 6)
        kinds = {(a[0], b[0]) for a, b in dag.edges}
        assert kinds == {("X", "X"), ("Y", "Y")}

    def test_iid_influence_edges(self):
        dag = build_unrolled_network(iid_influence_model(), 6)
        assert {(a[0], b[0]) for a, b in dag.edges} == {("Y", "X")}
        assert (("Y", 3), ("X", 4)) in dag.edges

    def test_cross_copy_edges(self):
        dag = build_unrolled_network(cross_copy_model(0.1), 6)
        assert {(a[0], b[0]) for a, b in dag.edges} == {("Y", "X"), ("X", "Y")}

    def test_edges_time_invariant_in_interior(self):
        dag = build_unrolled_network(bidirectional_model(), 8)
        kinds = {(a[0], b[0], b[1] - a[1]) for a, b in dag.edges}
        for t in range(2, 9):
            for src, dst, lag in kinds:
                if t - lag >= 1:
                    assert ((src, t - lag), (dst, t)) in dag.edges

    def test_edge_list_format(self):
        dag = build_unrolled_network(iid_influence_model(), 3)
        text = dag.to_edge_list()
        assert "Y:1 -> X:2" in text.splitlines()


class TestClassify:
    def test_independent_branch(self):
        rep = classify_markovicity(independent_model())
        assert rep.branch == "conditionally-d-markov"

    def test_unidirectional_branch(self):
        rep = classify_markovicity(unidirectional_model())
        assert rep.branch == "markov-order-le-2d"
        assert rep.cross_mi[1] > EDGE_MI_THRESHOLD

    def test_bidirectional_branch(self):
        rep = classify_markovicity(bidirectional_model())
        assert rep.branch == "no-finite-order"
        assert rep.side_pair_mi_max > EDGE_MI_THRESHOLD

    def test_caveat_always_attached(self):
        rep = classify_markovicity(independent_model())
        assert "measure-zero" in rep.caveat


class TestSoundness:
    """d-separation on the built graph implies exact conditional independence."""

    @staticmethod
    def _random_small_model(rng):
        # mix dense and sparse couplings so separated triples actually occur
        kind = rng.integers(0, 3)
        model = random_model(1, 2, 2, rng)
        kx, ky = model.kernel_x.copy(), model.kernel_y.copy()
        if kind == 1:  # side process i.i.d.
            ky = np.tile(rng.dirichlet(np.ones(2)), (4, 1))
        elif kind == 2:  # fully independent chains
            for w in range(4):
                kx[w] = model.kernel_x[w % 2]
                ky[w] = model.kernel_y[2 * (w // 2)]
        from causalpath.core import Alphabet
        from causalpath.markov import JointMarkovModel

        return JointMarkovModel(1, Alphabet(2), Alphabet(2), kx, ky)

    def test_random_triples_on_small_models(self, n_triples=120):
        rng = np.random.default_rng(97)
        horizon = 5
        checked = 0
        for trial in range(6):
            model = self._random_small_model(rng)
            dag = build_unrolled_network(model, horizon)
            nodes = dag.nodes()
            for case in range(n_triples // 6):
                if case % 4 == 0:
                    # conditioning on a full time slice separates past and future
                    t = int(rng.integers(2, horizon))
                    A = {("X", t - 1), ("Y", t - 1)}
                    B = {("X", t + 1)}
                    C = {("X", t), ("Y", t)}
                else:
                    perm = rng.permutation(len(nodes))
                    na = int(rng.integers(1, 3))
                    nb = int(rng.integers(1, 3))
                    nc = int(rng.integers(0, 4))
                    picks = [nodes[i] for i in perm[: na + nb + nc]]
                    A, B = set(picks[:na]), set(picks[na : na + nb])
                    C = set(picks[na + nb :])
                if d_separated(dag, A, B, C):
                    mi = nodeset_conditional_mi(model, horizon, A, B, C)
                    assert mi <= 1e-9
                    checked += 1
        assert checked >= 30


def test_nodeset_mi_rejects_unknown_process_name():
    # a name other than "X" was read as the side process Y
    model = bidirectional_model()
    with pytest.raises(ValueError, match="unknown process 'Z'"):
        nodeset_conditional_mi(model, 3, [("Z", 2)], [X(3)], [X(2)])
    assert nodeset_conditional_mi(model, 3, [Y(2)], [X(3)], [X(2)]) > 0.1


def full_path_side_pair_mi(model, ih):
    """Test-local copy of the enumeration over all B**ih paths that the
    prefix-law version replaced."""
    from itertools import combinations

    from causalpath.graphs import _extended_window_dist
    from causalpath.markov import _cmi_table

    B, mx, my = model.pair_count, model.mx, model.my
    arr = _extended_window_dist(model, ih)
    paths = np.arange(B**ih)
    ydig = np.empty((ih, B**ih), dtype=np.int64)
    xcode = np.zeros(B**ih, dtype=np.int64)
    worst = 0.0
    for i in range(1, ih + 1):
        pair = (paths // B ** (ih - i)) % B
        ydig[i - 1] = pair // mx
        xcode = xcode * mx + pair % mx
        for j, k in combinations(range(1, i + 1), 2):
            flat = (ydig[j - 1] * my + ydig[k - 1]) * mx**i + xcode
            joint = np.bincount(flat, weights=arr, minlength=my * my * mx**i)
            worst = max(worst, _cmi_table(joint.reshape(my, my, mx**i)))
    return worst


class TestSidePairMI:
    @pytest.mark.parametrize(
        "model",
        [
            independent_model(),
            unidirectional_model(),
            bidirectional_model(),
            cross_copy_model(0.05),
            iid_influence_model(),
        ],
    )
    def test_prefix_law_matches_full_enumeration(self, model):
        from causalpath.graphs import _max_side_pair_mi

        ih = 2 * model.order + 3
        assert abs(_max_side_pair_mi(model, ih) - full_path_side_pair_mi(model, ih)) <= 1e-15

    def test_random_models_same_value_and_branch(self):
        from causalpath.graphs import _max_side_pair_mi

        rng = np.random.default_rng(41)
        for order, mx, my in ((1, 2, 2), (1, 3, 2), (2, 2, 2), (3, 2, 2)):
            model = random_model(order, mx, my, rng)
            ih = 2 * order + 3
            ours, theirs = _max_side_pair_mi(model, ih), full_path_side_pair_mi(model, ih)
            assert abs(ours - theirs) <= 1e-15
            assert (ours <= EDGE_MI_THRESHOLD) == (theirs <= EDGE_MI_THRESHOLD)
