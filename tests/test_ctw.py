import io
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from causalpath import measure
from causalpath.core import Alphabet, SymbolSeq
from causalpath.ctw import (
    ContextSchema,
    ContextTree,
    kt_predict,
    regret_bound_plain,
    regret_bound_side_info,
)
from causalpath.markov import random_model, simulate
from causalpath.measure import EstimatorConfig, estimate_causal_trace

B2 = Alphabet(2)
B3 = Alphabet(3)

GOLDEN = Path(__file__).parent / "data" / "golden"

# name: (target alphabet, side alphabet, depth, staleness, seed, stream length)
GOLDEN_TREES = {
    "ctw_plain_b3_d0": (B3, None, 0, 0, 21, 50),
    "ctw_plain_b2_d3": (B2, None, 3, 0, 22, 200),
    "ctw_coupled_b3_d1": (B3, B3, 1, 0, 23, 200),
    "ctw_coupled_b3_d2": (B3, B3, 2, 0, 24, 120),
    "ctw_stale_b2_d1_k2": (B2, B2, 1, 2, 25, 200),
}


def seeded_tree(name):
    """Tree fed a seeded skewed target stream through the per-context API."""
    ax, ay, d, k, seed, n = GOLDEN_TREES[name]
    rng = np.random.default_rng(seed)
    weights = np.arange(1, ax.size + 1) / (ax.size * (ax.size + 1) / 2)
    x = rng.choice(ax.size, size=n, p=weights)
    y = None if ay is None else rng.integers(0, ay.size, n)
    sch = ContextSchema(ax, ay, d, k)
    tree = ContextTree(sch)
    for i in range(n):
        tree.observe(sch.context_at(x, i, y), int(x[i]))
    return tree


class TestKT:
    def test_fresh_binary(self):
        assert np.allclose(kt_predict([0, 0], 2).probs, [0.5, 0.5])

    def test_counts_3_1(self):
        assert np.allclose(kt_predict([3, 1], 2).probs, [0.7, 0.3])

    def test_fresh_ternary(self):
        assert np.allclose(kt_predict([0, 0, 0], 3).probs, [1 / 3] * 3)

    def test_strictly_positive(self):
        p = kt_predict([1000, 0, 0], 3)
        assert np.all(p.probs > 0.0)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equals_the_add_half_formula_exactly(self, m):
        rng = np.random.default_rng(60 + m)
        for _ in range(20):
            counts = rng.integers(0, 500, size=m)
            expected = (counts + 0.5) / (counts.sum() + m / 2)
            assert np.array_equal(kt_predict(counts.tolist(), m).probs, expected)


def reference_log2_block(observations, depth, m):
    """Weighted block probability straight from the recursive definition:
    half the node's exchangeable add-half block plus half the product over
    child subtrees, leaves taking the block alone."""

    def kt_block(symbols):
        counts = Counter(symbols)
        out = 0.0
        for c in counts.values():
            for j in range(c):
                out += math.log2(j + 0.5)
        for t in range(len(symbols)):
            out -= math.log2(t + 0.5 * m)
        return out

    def node(path):
        here = [sym for ctx, sym in observations if tuple(ctx[: len(path)]) == path]
        pe = kt_block(here)
        if len(path) == depth:
            return pe
        kids = sorted(
            {ctx[len(path)] for ctx, _ in observations if tuple(ctx[: len(path)]) == path},
            key=lambda v: (v is None, v),
        )
        child_sum = sum(node(path + (c,)) for c in kids)
        hi, lo = max(pe, child_sum), min(pe, child_sum)
        return -1.0 + hi + math.log2(1.0 + 2.0 ** (lo - hi))

    return node(())


def reference_predictive(observations, depth, m, context, symbol):
    before = reference_log2_block(observations, depth, m)
    after = reference_log2_block(observations + [(context, symbol)], depth, m)
    return 2.0 ** (after - before)


class TestPredict:
    def test_fresh_tree_uniform(self):
        tree = ContextTree(ContextSchema(B3, None, depth=2))
        assert np.allclose(tree.predict((1, 2)).probs, [1 / 3] * 3)

    def test_depth1_after_eight_observations(self):
        # context 0 always precedes symbol 1, eight times
        tree = ContextTree(ContextSchema(B2, None, depth=1))
        obs = [((0,), 1)] * 8
        for ctx, sym in obs:
            tree.observe(ctx, sym)
        got = tree.predict((0,)).probs[1]
        # the leaf's add-half estimate
        assert got == pytest.approx(8.5 / 9.0, abs=1e-12)
        # and the full root mixture from an independent recursion
        ref = reference_predictive(obs, 1, 2, (0,), 1)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_mixture_matches_reference_on_mixed_stream(self):
        rng = np.random.default_rng(8)
        tree = ContextTree(ContextSchema(B2, None, depth=2))
        obs = []
        x = rng.integers(0, 2, 10)
        sch = tree.schema
        for i in range(10):
            ctx = sch.context_at(x, i)
            tree.observe(ctx, int(x[i]))
            obs.append((ctx, int(x[i])))
        ctx = sch.context_at(x, 10)
        for a in range(2):
            ref = reference_predictive(obs, 2, 2, ctx, a)
            assert tree.predict(ctx).probs[a] == pytest.approx(ref, rel=1e-10)

    def test_single_node_tree_degenerates_to_kt(self):
        tree = ContextTree(ContextSchema(B3, None, depth=0))
        stream = [0, 0, 1, 2, 0, 1]
        for sym in stream:
            tree.observe((), sym)
        counts = [stream.count(a) for a in range(3)]
        assert np.allclose(tree.predict(()).probs, kt_predict(counts, 3).probs)

    def test_positivity(self):
        rng = np.random.default_rng(9)
        sch = ContextSchema(B3, B3, depth=1, staleness=1)
        tree = ContextTree(sch)
        x = rng.integers(0, 3, 300)
        y = rng.integers(0, 3, 300)
        for i in range(300):
            ctx = sch.context_at(x, i, y)
            assert np.all(tree.predict(ctx).probs > 0.0)
            tree.observe(ctx, int(x[i]))

    def test_malformed_context(self):
        tree = ContextTree(ContextSchema(B2, None, depth=2))
        with pytest.raises(ValueError):
            tree.predict((0,))
        with pytest.raises(ValueError):
            tree.predict((5, 0))
        with pytest.raises(ValueError):
            tree.predict((None, 0))  # absent level above a present one


class TestObserve:
    def test_telescoping_identity(self):
        rng = np.random.default_rng(4)
        sch = ContextSchema(B2, B2, depth=1, staleness=1)
        tree = ContextTree(sch)
        x = rng.integers(0, 2, 500)
        y = rng.integers(0, 2, 500)
        total = 0.0
        for i in range(500):
            ctx = sch.context_at(x, i, y)
            total += math.log2(tree.predict(ctx).prob(int(x[i])))
            tree.observe(ctx, int(x[i]))
        assert total == pytest.approx(tree.log2_block_probability, abs=1e-9)
        tree.validate()

    def test_identical_streams_identical_trees(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 3, 200)
        dumps = []
        for _ in range(2):
            sch = ContextSchema(B3, None, depth=2)
            tree = ContextTree(sch)
            for i in range(200):
                tree.observe(sch.context_at(x, i), int(x[i]))
            buf = io.StringIO()
            tree.dump(buf)
            dumps.append(buf.getvalue())
        assert dumps[0] == dumps[1]

    def test_iid_uniform_logloss_near_one_bit(self):
        rng = np.random.default_rng(6)
        sch = ContextSchema(B2, None, depth=1)
        tree = ContextTree(sch)
        x = rng.integers(0, 2, 4096)
        loss = 0.0
        for i in range(4096):
            ctx = sch.context_at(x, i)
            loss -= math.log2(tree.predict(ctx).prob(int(x[i])))
            tree.observe(ctx, int(x[i]))
        assert loss / 4096 == pytest.approx(1.0, abs=0.05)


class TestSchema:
    def test_stale_leaf_and_node_counts(self):
        sch = ContextSchema(B3, B3, depth=1, staleness=1)
        assert sch.leaf_count() == 27
        assert sch.node_count() == 31

    def test_pair_tree_counts(self):
        sch = ContextSchema(B3, B3, depth=1, staleness=0)
        assert sch.leaf_count() == 9
        assert sch.node_count() == 10

    def test_plain_counts(self):
        sch = ContextSchema(B3, None, depth=1)
        assert sch.leaf_count() == 3
        assert sch.node_count() == 4

    def test_staleness_requires_side_info(self):
        with pytest.raises(ValueError):
            ContextSchema(B3, None, depth=1, staleness=1)

    def test_context_at_start_of_sequence(self):
        sch = ContextSchema(B2, B2, depth=1, staleness=1)
        x = np.array([1, 0, 1])
        y = np.array([0, 1, 1])
        assert sch.context_at(x, 0, y) == (None, None)
        assert sch.context_at(x, 1, y) == (1, None)
        assert sch.context_at(x, 2, y) == (0, 1 + 2 * 0)

    @pytest.mark.parametrize(
        "schema,x,i,y",
        [
            # each would pack into the valid pair code of another pair
            (ContextSchema(B2, B2, depth=1), [2], 1, [0]),
            (ContextSchema(B2, B2, depth=1), [-1], 1, [1]),
            (ContextSchema(B2, B2, depth=1, staleness=1), [3, 0], 2, [0, 0]),
            (ContextSchema(B2, B2, depth=1, staleness=1), [1, 0], 2, [-1, 0]),
            (ContextSchema(B2, None, depth=2), [0, 2], 2, None),
        ],
        ids=["coupled-x-too-large", "coupled-x-negative", "stale-x", "stale-y", "plain-x"],
    )
    def test_context_at_rejects_out_of_range_symbols(self, schema, x, i, y):
        y = None if y is None else np.array(y)
        with pytest.raises(ValueError, match="context symbol out of range"):
            schema.context_at(np.array(x), i, y)


class TestRegretBounds:
    def test_plain_values(self):
        assert regret_bound_plain(3, 3, 10000) == pytest.approx(43.86, abs=0.01)
        assert regret_bound_plain(2, 1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_plain_monotone_in_n(self):
        assert regret_bound_plain(3, 3, 20000) > regret_bound_plain(3, 3, 10000)

    def test_side_info_values(self):
        assert regret_bound_side_info(3, 9, 10, 10000) == pytest.approx(119.06, abs=0.01)
        # direct plug-in at the stale-tree geometry
        expected = 0.5 * 2 * 27 * math.log2(50000 / 27) + 27 * 2 + 31
        assert regret_bound_side_info(3, 27, 31, 50000) == pytest.approx(expected, abs=1e-9)

    def test_side_info_minus_plain_constant_in_n(self):
        diffs = {
            n: regret_bound_side_info(3, 9, 9, n) - regret_bound_plain(3, 9, n)
            for n in (100, 1000, 10000)
        }
        vals = list(diffs.values())
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)
        assert vals[1] == pytest.approx(vals[2], abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regret_bound_plain(3, 9, 5)
        with pytest.raises(ValueError):
            regret_bound_side_info(3, 9, 5, 100)

    def test_budget_nondecreasing(self):
        budgets = [regret_bound_plain(3, 3, n) for n in (10, 100, 1000)]
        assert budgets == sorted(budgets)


class TestRegretContainment:
    """Realized regret against the in-class source never exceeds the bound.

    Each step's prediction is a row of one block update over the stream;
    the first trial also steps the per-context predict/observe calls and
    checks that they give those rows bit for bit."""

    def test_coupled_tree_on_twenty_seeded_models(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            model = random_model(1, 2, 2, rng)
            n = 2000
            x, y = simulate(model, n, seed=trial)
            sch_c = ContextSchema(B2, B2, depth=1, staleness=0)
            laws = ContextTree(sch_c).update(sch_c.key_paths(x.data, y.data), x.data)
            if trial == 0:
                assert_per_context_rows(sch_c, x.data, y.data, laws)
            # realized regret sums start after the warm-up step
            reg_c = 0.0
            for i in range(1, n):
                widx = model.window_index(x.data[i - 1 : i], y.data[i - 1 : i])
                reg_c += math.log2(model.kernel_x[widx, x.data[i]] / laws[i, x.data[i]])
                assert reg_c <= regret_bound_side_info(2, 4, 5, max(i, 4))

    def test_plain_tree_on_marginally_markov_sources(self):
        # with an i.i.d. side process the target stays marginally first order,
        # so the plain depth-1 tree's reference class contains the true law
        from causalpath.markov import JointMarkovModel

        rng = np.random.default_rng(88)
        for trial in range(20):
            kx = rng.dirichlet(np.ones(2), size=4) * 0.9 + 0.05
            ymarg = rng.dirichlet(np.ones(2))
            ky = np.tile(ymarg, (4, 1))
            model = JointMarkovModel(1, B2, B2, kx, ky)
            n = 2000
            x, _ = simulate(model, n, seed=1000 + trial)
            sch = ContextSchema(B2, None, depth=1)
            laws = ContextTree(sch).update(sch.key_paths(x.data), x.data)
            if trial == 0:
                assert_per_context_rows(sch, x.data, None, laws)
            reg = 0.0
            for i in range(1, n):
                xm = int(x.data[i - 1])
                true_p = sum(
                    ymarg[yv] * kx[xm + 2 * yv, x.data[i]] for yv in range(2)
                )
                reg += math.log2(true_p / laws[i, x.data[i]])
                assert reg <= regret_bound_plain(2, 2, max(i, 2))


def assert_per_context_rows(schema, x, y, laws, steps=200):
    """The per-context predict-then-observe calls give the block's rows."""
    tree = ContextTree(schema)
    for i in range(steps):
        ctx = schema.context_at(x, i, y)
        assert np.array_equal(tree.predict(ctx).probs, laws[i])
        tree.observe(ctx, int(x[i]))


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        sch = ContextSchema(B3, B3, depth=1, staleness=1)
        tree = ContextTree(sch)
        x = rng.integers(0, 3, 400)
        y = rng.integers(0, 3, 400)
        for i in range(400):
            tree.observe(sch.context_at(x, i, y), int(x[i]))
        buf = io.StringIO()
        tree.dump(buf)
        buf.seek(0)
        loaded = ContextTree.load(buf)
        assert loaded.schema == tree.schema
        assert loaded.log2_block_probability == pytest.approx(
            tree.log2_block_probability, abs=1e-9
        )
        ctx = sch.context_at(x, 400, y)
        assert np.allclose(loaded.predict(ctx).probs, tree.predict(ctx).probs, atol=1e-12)
        buf2 = io.StringIO()
        loaded.dump(buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_bad_header(self):
        with pytest.raises(ValueError):
            ContextTree.load(io.StringIO("nonsense 9\n"))


def reference_schemas(ax, d):
    """(complete, reference) schema pairs: coupled against plain and stale."""
    return [
        (ContextSchema(ax, ax, d, 0), ContextSchema(ax, None, d, 0)),
        (ContextSchema(ax, ax, d, 0), ContextSchema(ax, ax, d, 1)),
    ]


class TestEngineAgreement:
    """The fused key-path dual run, the per-context API and the recursive
    definition of the weighted block probability give the same predictions."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_three_paths_agree(self, m, d):
        ax = Alphabet(m)
        rng = np.random.default_rng(100 * m + d)
        n = 24
        x = rng.integers(0, m, n)
        y = rng.integers(0, m, n)
        for schema_c, schema_r in reference_schemas(ax, d):
            _, snaps, _ = measure._dual_run(x, y, schema_c, schema_r, keep_snapshots=True)
            for schema, snap in zip((schema_c, schema_r), snaps):
                tree = ContextTree(schema)
                obs = []
                for i in range(n):
                    ctx = schema.context_at(x, i, y)
                    got = tree.predict(ctx).probs
                    assert np.max(np.abs(got - snap[i])) <= 1e-12
                    if i % 3 == 0 or i == n - 1:
                        ref = [
                            reference_predictive(obs, schema.total_depth, m, ctx, a)
                            for a in range(m)
                        ]
                        assert np.max(np.abs(got - ref)) <= 1e-12
                    tree.observe(ctx, int(x[i]))
                    obs.append((ctx, int(x[i])))

    def test_key_paths_by_blocks_match_per_context_keys(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 3, 50)
        y = rng.integers(0, 3, 50)
        for schema in (
            ContextSchema(B3, None, 3),
            ContextSchema(B3, B3, 2),
            ContextSchema(B3, B3, 1, 2),
        ):
            full = schema.key_paths(x, y)
            blocks = [schema.key_paths(x, y, lo, min(lo + 7, 50)) for lo in range(0, 50, 7)]
            assert np.array_equal(np.vstack(blocks), full)
            tree = ContextTree(schema)
            for i in range(50):
                assert full[i].tolist() == tree._context_keys(schema.context_at(x, i, y))

    def test_key_space_beyond_int64(self):
        # radix 10 over 20 coupled levels: keys reach 10**20
        schema = ContextSchema(B3, B3, depth=20)
        rng = np.random.default_rng(12)
        x = rng.integers(0, 3, 40)
        y = rng.integers(0, 3, 40)
        keys = schema.key_paths(x, y)
        assert keys.dtype == object and max(keys[-1]) > 2**63
        _, (snap, _), _ = measure._dual_run(
            x, y, schema, ContextSchema(B3, None, 1), keep_snapshots=True
        )
        tree = ContextTree(schema)
        for i in range(40):
            ctx = schema.context_at(x, i, y)
            assert np.max(np.abs(tree.predict(ctx).probs - snap[i])) <= 1e-12
            tree.observe(ctx, int(x[i]))


class TestFlatStorage:
    @pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
    def test_dump_matches_golden(self, name):
        buf = io.StringIO()
        seeded_tree(name).dump(buf)
        assert buf.getvalue() == (GOLDEN / f"{name}.txt").read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
    def test_load_replays_golden(self, name):
        text = (GOLDEN / f"{name}.txt").read_text()
        tree = ContextTree.load(io.StringIO(text))
        tree.validate()
        buf = io.StringIO()
        tree.dump(buf)
        assert buf.getvalue() == text
        assert tree.log2_block_probability == pytest.approx(
            seeded_tree(name).log2_block_probability, abs=1e-9
        )

    def test_load_rejects_inconsistent_counts(self):
        text = "causalpath-ctw 1 2 - 1 0\n|3,1\n1|1,0\n0|1,1\n"
        with pytest.raises(ValueError):
            ContextTree.load(io.StringIO(text))

    @pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
    def test_node_count_is_visited_prefixes(self, name):
        ax, ay, d, k, seed, n = GOLDEN_TREES[name]
        tree = seeded_tree(name)
        rng = np.random.default_rng(seed)
        weights = np.arange(1, ax.size + 1) / (ax.size * (ax.size + 1) / 2)
        x = rng.choice(ax.size, size=n, p=weights)
        y = None if ay is None else rng.integers(0, ay.size, n)
        prefixes = {
            tree.schema.context_at(x, i, y)[:j]
            for i in range(n)
            for j in range(tree.schema.total_depth + 1)
        }
        assert sum(1 for _ in tree.nodes()) == len(prefixes) == tree.nodes_allocated

    def test_out_of_range_symbol_rejected_at_boundary(self, monkeypatch):
        built = []
        monkeypatch.setattr(measure, "ContextTree", lambda schema: built.append(schema))
        x = SymbolSeq(B3, np.array([0, 1, 2, 1, 0]))
        y = SymbolSeq(B3, np.array([1, 1, 0, 2, 2]))
        x.data[3] = 3  # corrupted after construction
        with pytest.raises(ValueError, match="out of alphabet"):
            estimate_causal_trace(x, y, EstimatorConfig(B3, B3, depth=1))
        assert built == []


def _one_element(f):
    """f applied to a one-element array, as a float."""
    return lambda v: float(f(np.array([v]))[0])


# (log2, exp2, row sum) of a walk: numpy's elementwise kernels and row sum, as
# the block update uses them, or scalar math summed left to right
NUMPY_PRIMITIVES = (
    _one_element(np.log2), _one_element(np.exp2), lambda row: np.array([row]).sum(axis=1)[0]
)
SCALAR_PRIMITIVES = (math.log2, lambda v: pow(2.0, v), sum)


class WalkTree:
    """Test-local copy of the row-by-row CTW walk that the block update
    replaced: per step, a leaf-to-root mixture over the key path's slots,
    then a leaf-to-root fold of the symbol into every node on the path,
    computed with the given (log2, exp2, row sum) primitives."""

    def __init__(self, m, depth, primitives=NUMPY_PRIMITIVES):
        self.m, self.depth = m, depth
        self.log2, self.exp2, self.sum = primitives
        self.slot, self.counts, self.total = {}, [], []
        self.log_pe, self.log_pw, self.child_lpw = [], [], []
        self.fold([0], [None], None)

    def step(self, keys, sym):
        slots = list(map(self.slot.get, keys))
        pred = self.mix(slots)
        self.fold(keys, slots, sym)
        return pred

    def mix(self, slots):
        m, half_m = self.m, 0.5 * self.m
        s = slots[-1]
        if s is None:
            pred = [1.0 / m] * m
        else:
            pred = [(c + 0.5) / (self.total[s] + half_m) for c in self.counts[s]]
        for s in slots[-2::-1]:
            if s is None:
                continue
            alpha = self.exp2(-1.0 + self.log_pe[s] - self.log_pw[s])
            if alpha > 1.0:
                alpha = 1.0
            beta = 1.0 - alpha
            denom = self.total[s] + half_m
            pred = [alpha * ((c + 0.5) / denom) + beta * p for c, p in zip(self.counts[s], pred)]
        norm = self.sum(pred)
        return [p / norm for p in pred]

    def fold(self, keys, slots, sym):
        for j, s in enumerate(slots):
            if s is None:
                slots[j] = self.slot[keys[j]] = len(self.total)
                self.counts.append([0] * self.m)
                self.total.append(0)
                for values in (self.log_pe, self.log_pw, self.child_lpw):
                    values.append(0.0)
        if sym is None:
            return
        half_m = 0.5 * self.m
        delta = 0.0
        for level in range(self.depth, -1, -1):
            s = slots[level]
            cs = self.counts[s]
            self.log_pe[s] += self.log2((cs[sym] + 0.5) / (self.total[s] + half_m))
            cs[sym] += 1
            self.total[s] += 1
            old_lpw = self.log_pw[s]
            if level == self.depth:
                self.log_pw[s] = self.log_pe[s]
            else:
                self.child_lpw[s] += delta
                a, b = -1.0 + self.log_pe[s], -1.0 + self.child_lpw[s]
                if a < b:
                    a, b = b, a
                self.log_pw[s] = a + self.log2(1.0 + self.exp2(b - a))
            delta = self.log_pw[s] - old_lpw


def block_schemas(m, d):
    ax = Alphabet(m)
    return {
        "plain": ContextSchema(ax, None, d, 0),
        "coupled": ContextSchema(ax, ax, d, 0),
        "stale": ContextSchema(ax, ax, d, 1),
    }


def run_blocks(schema, x, y, rows):
    """Predictions of a fresh tree fed the stream in blocks of `rows`."""
    tree = ContextTree(schema)
    preds = [
        tree.update(schema.key_paths(x, y, lo, min(lo + rows, x.size)), x[lo : lo + rows])
        for lo in range(0, x.size, rows)
    ]
    return tree, np.vstack(preds)


def assert_same_state(tree, walk):
    """Every node of the walk exists in the tree with bit-identical state."""
    assert tree.nodes_allocated == len(walk.slot)
    for key, w in walk.slot.items():
        s = tree._slot[key]
        assert tree._counts[s].tolist() == walk.counts[w]
        assert tree._total[s] == walk.total[w]
        assert tree._logs[s].tolist() == [walk.log_pe[w], walk.child_lpw[w], walk.log_pw[w]]


def assert_near_state(tree, walk, rtol):
    """Every node of the walk exists in the tree with the same counts and
    its log state within rtol, relative."""
    assert tree.nodes_allocated == len(walk.slot)
    for key, w in walk.slot.items():
        s = tree._slot[key]
        assert tree._counts[s].tolist() == walk.counts[w]
        assert tree._total[s] == walk.total[w]
        logs = [walk.log_pe[w], walk.child_lpw[w], walk.log_pw[w]]
        assert np.allclose(tree._logs[s], logs, rtol=rtol, atol=0.0)


class TestBlockUpdate:
    """The level-sweep block update equals the row-by-row walk on the same
    numpy primitives exactly, and the walk on scalar math within 1e-12."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_blocks_equal_walk(self, m, d):
        rng = np.random.default_rng(10 * m + d)
        n = 600
        x = rng.integers(0, m, n)
        x[200:260] = 0  # a long run: one node's group spans many rows
        y = rng.integers(0, m, n)
        for kind, schema in block_schemas(m, d).items():
            if kind == "stale" and d == 0:
                continue
            walk = WalkTree(m, schema.total_depth)
            keys = schema.key_paths(x, y).tolist()
            expected = np.array([walk.step(keys[i], int(x[i])) for i in range(n)])
            dumps = set()
            for rows in (1, 7, 4096):
                tree, got = run_blocks(schema, x, y, rows)
                assert np.array_equal(got, expected), (kind, rows)
                assert_same_state(tree, walk)
                assert tree.log2_block_probability == walk.log_pw[0]
                buf = io.StringIO()
                tree.dump(buf)
                dumps.add(buf.getvalue())
            per_row = ContextTree(schema)
            for i in range(n):
                per_row.observe(schema.context_at(x, i, y), int(x[i]))
            buf = io.StringIO()
            per_row.dump(buf)
            assert dumps == {buf.getvalue()}

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_blocks_near_scalar_walk(self, m, d):
        # numpy's SIMD log2/exp2 kernels may round unlike math.log2 and pow:
        # laws agree within 1e-12 absolute, the log state within 1e-12 relative
        rng = np.random.default_rng(10 * m + d)
        n = 600
        x = rng.integers(0, m, n)
        x[200:260] = 0
        y = rng.integers(0, m, n)
        for kind, schema in block_schemas(m, d).items():
            if kind == "stale" and d == 0:
                continue
            walk = WalkTree(m, schema.total_depth, SCALAR_PRIMITIVES)
            keys = schema.key_paths(x, y).tolist()
            expected = np.array([walk.step(keys[i], int(x[i])) for i in range(n)])
            tree, got = run_blocks(schema, x, y, 97)
            assert np.allclose(got, expected, rtol=0.0, atol=1e-12), kind
            assert_near_state(tree, walk, 1e-12)
            assert tree.log2_block_probability == pytest.approx(walk.log_pw[0], rel=1e-12)

    def test_long_block_crosses_into_a_second(self):
        # more rows than one block, so stored state carries across blocks
        rng = np.random.default_rng(31)
        n = 5000
        x = rng.integers(0, 3, n)
        y = rng.integers(0, 3, n)
        schema = ContextSchema(B3, B3, 2, 0)
        walk = WalkTree(3, 2)
        keys = schema.key_paths(x, y).tolist()
        expected = np.array([walk.step(keys[i], int(x[i])) for i in range(n)])
        tree, got = run_blocks(schema, x, y, 4096)
        assert np.array_equal(got, expected)
        assert_same_state(tree, walk)

    def test_object_key_space(self):
        schema = ContextSchema(B3, B3, depth=20)
        rng = np.random.default_rng(12)
        x = rng.integers(0, 3, 60)
        y = rng.integers(0, 3, 60)
        keys = schema.key_paths(x, y)
        assert keys.dtype == object and max(keys[-1]) > 2**63
        walk = WalkTree(3, 20)
        expected = np.array([walk.step(list(keys[i]), int(x[i])) for i in range(60)])
        for rows in (1, 7, 4096):
            tree, got = run_blocks(schema, x, y, rows)
            assert np.array_equal(got, expected)
            assert_same_state(tree, walk)

    def test_predict_reads_the_current_state(self):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 2, 300)
        y = rng.integers(0, 2, 300)
        schema = ContextSchema(B2, B2, 2, 1)
        tree, _ = run_blocks(schema, x, y, 64)
        walk = WalkTree(2, 3)
        keys = schema.key_paths(x, y).tolist()
        for i in range(300):
            walk.step(keys[i], int(x[i]))
        other = rng.integers(0, 2, (2, 300))  # partly unseen contexts
        for xs, ys in ((x, y), (other[0], other[1])):
            for i in range(300):
                ctx = schema.context_at(xs, i, ys)
                slots = list(map(walk.slot.get, tree._context_keys(ctx)))
                assert tree.predict(ctx).probs.tolist() == walk.mix(slots)
