from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml import kernels, models
from coverml.models import ensemble, tree
from coverml.models.base import ModelError
from coverml.models.ensemble import (
    GbtModel,
    GbtParams,
    RandomForestModel,
    RandomForestParams,
)
from coverml.models.importance import feature_importances, validate_importances
from coverml.models.linear import train_logistic
from coverml.models.tree import DecisionTreeParams
from coverml.rng import derived_rng

from test_tree import reference_build_tree, subset_tree


def separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    return X, y


class TestRandomForest:
    def test_reduces_to_decision_tree(self):
        rng = np.random.default_rng(1)
        X = rng.random((120, 4))
        y = rng.integers(0, 2, size=120)
        rf = models.train("rf", 
            X, y, RandomForestParams(num_trees=1, feature_subset_rule="all", bootstrap=False)
        )
        dt = models.train("dt", X, y, DecisionTreeParams(max_depth=5))
        assert np.array_equal(rf.probabilities(X), dt.probabilities(X))
        assert np.array_equal(rf.predictions(X), dt.predictions(X))

    def test_different_seed_changes_forest(self):
        X, y = separable(150, seed=2)
        a = models.train("rf", X, y, RandomForestParams(num_trees=5, seed=1))
        b = models.train("rf", X, y, RandomForestParams(num_trees=5, seed=2))
        assert a.to_dict() != b.to_dict()

    def test_separable_accuracy(self):
        X, y = separable(300, seed=3)
        model = models.train("rf", X, y, RandomForestParams(num_trees=25))
        assert (model.predictions(X) == y).mean() >= 0.95

    def test_raw_score_is_mean_probability(self):
        X, y = separable(80, seed=4)
        model = models.train("rf", X, y, RandomForestParams(num_trees=7))
        assert np.array_equal(model.raw_scores(X), model.probabilities(X))
        probs = model.probabilities(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_serialization_roundtrip(self):
        X, y = separable(60, seed=5)
        model = models.train("rf", X, y, RandomForestParams(num_trees=3))
        back = RandomForestModel.from_dict(model.to_dict())
        assert np.array_equal(back.probabilities(X), model.probabilities(X))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            RandomForestParams(num_trees=0)
        with pytest.raises(ValueError):
            RandomForestParams(feature_subset_rule="log2")

    def test_max_depth_upper_bound(self):
        with pytest.raises(ValueError, match=r"\[1, 30\]"):
            RandomForestParams(max_depth=31)
        assert RandomForestParams(max_depth=30).max_depth == 30


class TestGbt:
    def test_constant_features_keep_base_rate(self):
        X = np.ones((40, 3))
        y = np.array([1] * 30 + [0] * 10)
        model = models.train("gbt", X, y)
        assert np.allclose(model.probabilities(X), 0.75, atol=1e-12)

    def test_separable_reaches_perfect_training_accuracy(self):
        X = np.array([[float(i)] for i in range(20)])
        y = (X[:, 0] >= 10).astype(int)
        model = models.train("gbt", X, y, GbtParams(num_iterations=10))
        assert (model.predictions(X) == y).all()

    def test_zero_learning_rate_is_base_rate_classifier(self):
        X, y = separable(100, seed=6)
        model = models.train("gbt", X, y, GbtParams(learning_rate=0.0))
        p = y.mean()
        assert np.allclose(model.probabilities(X), p, atol=1e-12)
        expected = 1 if p > 0.5 else 0
        assert (model.predictions(X) == expected).all()

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ModelError):
            models.train("gbt", X, np.ones(5, dtype=int))

    def test_training_loss_non_increasing(self):
        X, y = separable(200, seed=7)
        model = models.train("gbt", X, y, GbtParams(num_iterations=15, learning_rate=0.1))
        losses = model.train_losses
        assert len(losses) == 16
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_probability_is_sigmoid_of_twice_score(self):
        X, y = separable(50, seed=8)
        model = models.train("gbt", X, y, GbtParams(num_iterations=3))
        F = model.raw_scores(X)
        assert np.allclose(model.probabilities(X), 1.0 / (1.0 + np.exp(-2.0 * F)), atol=1e-12)

    def test_serialization_roundtrip(self):
        X, y = separable(60, seed=9)
        model = models.train("gbt", X, y, GbtParams(num_iterations=4))
        back = GbtModel.from_dict(model.to_dict())
        assert np.array_equal(back.raw_scores(X), model.raw_scores(X))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GbtParams(num_iterations=0)
        with pytest.raises(ValueError):
            GbtParams(learning_rate=-0.5)

    def test_max_depth_upper_bound(self):
        with pytest.raises(ValueError, match=r"\[1, 30\]"):
            GbtParams(max_depth=31)
        assert GbtParams(max_depth=30).max_depth == 30


class TestPrefixes:
    """The first k trees of a forest or boosted sequence are the model a fit
    with num_trees=k or num_iterations=k gives, which lets cross-validation
    score every such cell from the largest fit."""

    @staticmethod
    def noisy(seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.random((150, 4)), 2)
        y = (X[:, 0] + X[:, 1] + 0.5 * rng.normal(size=150) > 1.0).astype(int)
        return X, y

    @pytest.mark.parametrize("bootstrap, rule", [(True, "sqrt"), (False, "sqrt"), (True, "all")])
    def test_forest_prefix_equals_fresh_forest(self, bootstrap, rule):
        X, y = self.noisy(3)
        base = RandomForestParams(max_depth=4, bootstrap=bootstrap, feature_subset_rule=rule, seed=5)
        forest = models.train("rf", X, y, replace(base, num_trees=6))
        for k in range(1, 7):
            fresh = models.train("rf", X, y, replace(base, num_trees=k))
            assert repr(forest.truncate(k).to_dict()) == repr(fresh.to_dict())

    @pytest.mark.parametrize("learning_rate", [0.1, 0.7])
    def test_boosting_prefix_equals_fresh_sequence(self, learning_rate):
        X, y = self.noisy(4)
        base = GbtParams(max_depth=3, learning_rate=learning_rate)
        model = models.train("gbt", X, y, replace(base, num_iterations=6))
        for k in range(1, 7):
            fresh = models.train("gbt", X, y, replace(base, num_iterations=k))
            assert repr(model.truncate(k).to_dict()) == repr(fresh.to_dict())
            assert np.array_equal(model.truncate(k).raw_scores(X), fresh.raw_scores(X))


class TestTruncateRange:
    """`truncate` and `nested_raw_scores` take k in [1, the fit's own count]
    for rf and gbt, and k >= 1 for dt."""

    @pytest.mark.parametrize("family, count", [("rf", 9), ("gbt", 9)])
    @pytest.mark.parametrize("k", [0, -1, 10, 100])
    def test_outside_one_to_count_rejected(self, family, count, k):
        X, y = separable(80, seed=2)
        params = RandomForestParams(num_trees=count, max_depth=2) if family == "rf" else GbtParams(num_iterations=count)
        model = models.train(family, X, y, params)
        axis = model.nested_axis
        message = rf"{family} truncate takes {axis} in \[1, {count}\], got {k}$"
        with pytest.raises(ModelError, match=message):
            model.truncate(k)
        with pytest.raises(ModelError, match=message):
            model.nested_raw_scores(X, [None, k])
        assert len(model.truncate(count).trees) == count

    @pytest.mark.parametrize("k", [0, -1])
    def test_dt_depth_below_one_rejected(self, k):
        X, y = separable(80, seed=2)
        model = models.train("dt", X, y, DecisionTreeParams(max_depth=3))
        with pytest.raises(ModelError, match=rf"dt truncate takes max_depth >= 1, got {k}$"):
            model.truncate(k)
        with pytest.raises(ModelError, match=rf"dt truncate takes max_depth >= 1, got {k}$"):
            model.nested_raw_scores(X, [k])
        assert repr(model.truncate(40).to_dict()) == repr(model.to_dict())


class TestLockstep:
    """A forest grows its trees in lockstep groups; each tree must be the one
    `grow_trees` grows alone from the same generator, with a one-tree
    `FeatureDraws`, and the one the per-node reference grows with a
    `Generator.choice` call per split."""

    @staticmethod
    def alone(X, y, params, grow):
        """Each tree grown by itself with `grow`, `subset_tree` or
        `reference_build_tree`: its generator draws the bootstrap sample,
        then the feature subsets."""
        n, d = X.shape
        subset = int(np.sqrt(d)) if params.feature_subset_rule == "sqrt" else None
        trees = []
        for t in range(params.num_trees):
            rng = derived_rng(params.seed, 23, t)
            idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
            trees.append(
                grow(
                    X[idx],
                    y[idx],
                    max_depth=params.max_depth,
                    min_instances=params.min_instances_per_node,
                    n_subset_features=subset,
                    rng=rng,
                )
            )
        return [repr(tree) for tree in trees]

    @pytest.mark.parametrize("group", [1, 2, 7])
    @pytest.mark.parametrize("bootstrap, rule", [(True, "sqrt"), (False, "sqrt"), (True, "all"), (False, "all")])
    def test_groups_grow_the_trees_grown_alone(self, monkeypatch, group, bootstrap, rule):
        rng = np.random.default_rng(17)
        X = np.round(rng.random((90, 5)), 1)
        y = (X[:, 0] + X[:, 2] + 0.3 * rng.normal(size=90) > 1.0).astype(int)
        params = RandomForestParams(
            num_trees=7, max_depth=6, min_instances_per_node=2, bootstrap=bootstrap, feature_subset_rule=rule, seed=3
        )
        # Groups of `group` trees: 7 trees make groups of 1, of 2 (2+2+2+1) or one of all 7.
        monkeypatch.setattr(ensemble, "LOCKSTEP_CELLS", group * X.size)
        forest = models.train("rf", X, y, params)
        alone = self.alone(X, y, params, subset_tree)
        assert [repr(t.to_dict()) for t in forest.trees] == alone
        assert alone == self.alone(X, y, params, reference_build_tree)

    def test_forests_of_a_cross_validation_share_one_group(self, monkeypatch):
        """Three folds and the refit of a 700-row, 7-feature table, 20 trees
        each: the 80 trees hold less than LOCKSTEP_CELLS, so they grow in
        one `grow_trees` call, as one forest of 80 trees would."""
        calls = []
        grow = ensemble.grow_trees

        def counting(values, orders, targets, tree_samples, **kwargs):
            calls.append(len(tree_samples))
            return grow(values, orders, targets, tree_samples, **kwargs)

        monkeypatch.setattr(ensemble, "grow_trees", counting)
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(700, 7)), 2)
        y = (X[:, 0] + rng.normal(size=700) > 0).astype(int)
        samples = [(X[:n], y[:n]) for n in (467, 467, 466, 700)]
        got = models.train_batch("rf", samples, RandomForestParams(num_trees=20, max_depth=7))
        assert calls == [80]
        assert sum(n for n in (467, 467, 466, 700)) * 20 * 7 <= ensemble.LOCKSTEP_CELLS
        alone = models.train("rf", X[:466], y[:466], RandomForestParams(num_trees=20, max_depth=7))
        assert repr(got[2].to_dict()) == repr(alone.to_dict())


def copied_forests(samples, params):
    """The forests of checked (X, y) `samples` grown on copies: each tree's
    bootstrap rows copied out of its sample and presorted on their own, the
    trees of each LOCKSTEP_CELLS group in one `grow_trees` call. This is how
    `train_random_forests` grew them before it weighted rows; a reference,
    like `reference_apply`. Each forest is its trees' `repr(to_dict())`."""
    forests = [[] for _ in samples]
    jobs = [(i, t) for i in range(len(samples)) for t in range(params.num_trees)]
    for group in tree.lockstep_groups([samples[i][0].shape for i, _ in jobs], ensemble.LOCKSTEP_CELLS):
        members = [jobs[j] for j in group]
        rngs = [derived_rng(params.seed, 23, t) for _, t in members]
        copies = []
        for (i, _), rng in zip(members, rngs):
            X, y = samples[i]
            rows = rng.integers(0, len(y), size=len(y)) if params.bootstrap else np.arange(len(y))
            copies.append((X[rows], y[rows]))
        d = copies[0][0].shape[1]
        values = np.concatenate([X.T for X, _ in copies], axis=1)
        subset = max(1, int(np.sqrt(d))) if params.feature_subset_rule == "sqrt" else d
        grown, _ = tree.grow_trees(
            values,
            [tree.presort(X.T) for X, _ in copies],
            np.concatenate([y for _, y in copies]),
            range(len(copies)),
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            draws=tree.FeatureDraws(rngs, d, subset) if subset < d else None,
        )
        for (i, _), grown_tree in zip(members, grown):
            forests[i].append(repr(grown_tree.to_dict()))
    return forests


#: Column values with ties, both zeros and the neighbours of 5e-324.
EDGE_VALUES = [-1.0, -1e-323, -5e-324, -0.0, 0.0, 5e-324, 1e-323, 0.5, 2.0]


@st.composite
def edge_column(draw, n):
    kind = draw(st.sampled_from(["ties", "constant", "signed-zero", "edge", "distinct"]))
    if kind == "ties":
        return draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.5]), min_size=n, max_size=n))
    if kind == "constant":
        return [2.5] * n
    if kind == "signed-zero":
        return draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=n, max_size=n))
    if kind == "edge":
        return draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=n, max_size=n))
    return draw(st.lists(st.floats(-3, 3, allow_subnormal=True), min_size=n, max_size=n))


class TestBootstrapWeights:
    """A forest's trees hold each drawn row once, weighted by its draw count,
    and share their samples' values and sort: each tree is, bit for bit,
    the tree grown on its copied bootstrap sample, and no tree copies its
    sample."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_weighted_trees_equal_trees_of_copied_samples(self, data):
        d = data.draw(st.integers(1, 5))
        samples = []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 40))
            X = np.array([data.draw(edge_column(n)) for _ in range(d)], dtype=np.float64).T.copy()
            y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            samples.append((X, y))
        params = RandomForestParams(
            num_trees=data.draw(st.integers(1, 6)),
            max_depth=data.draw(st.integers(1, 8)),
            min_instances_per_node=data.draw(st.integers(1, 4)),
            feature_subset_rule=data.draw(st.sampled_from(["sqrt", "all"])),
            bootstrap=data.draw(st.booleans()),
            seed=data.draw(st.integers(0, 9)),
        )
        # Budgets that put every tree alone, some together, or all together.
        budget = data.draw(st.sampled_from([1, 40 * d, 1 << 21]))
        with mock.patch.object(ensemble, "LOCKSTEP_CELLS", budget):
            got = models.train_batch("rf", samples, params)
            want = copied_forests(samples, params)
        assert [[repr(t.to_dict()) for t in forest.trees] for forest in got] == want

    @pytest.mark.parametrize("budget", [1, 1 << 21])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_no_tree_copies_its_sample(self, monkeypatch, budget, bootstrap):
        """Three folds and the refit of a 700-row, 7-feature table, 20 trees
        each, grown alone or all in one group: `presort` sorts each of the
        four samples once, and a growth call reads the values of its trees'
        samples, 7 × 2,100 for the one group, not 20 times that. A bootstrap
        tree's order holds its distinct rows only, about 63% of them."""
        sorted_sizes, grown = [], []
        presort, grow = ensemble.presort, ensemble.grow_trees

        def sorting(values):
            sorted_sizes.append([values.shape[1]])
            return presort(values)

        def growing(values, orders, targets, tree_samples, counts=None, **kwargs):
            slots = tree._layout(orders, tree_samples, counts)[0].shape[1]
            grown.append((values.shape, len(tree_samples), slots))
            return grow(values, orders, targets, tree_samples, counts=counts, **kwargs)

        monkeypatch.setattr(ensemble, "presort", sorting)
        monkeypatch.setattr(ensemble, "grow_trees", growing)
        monkeypatch.setattr(ensemble, "LOCKSTEP_CELLS", budget)
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(700, 7)), 2)
        y = (X[:, 0] + rng.normal(size=700) > 0).astype(int)
        rows = (467, 467, 466, 700)
        models.train_batch("rf", [(X[:n], y[:n]) for n in rows], RandomForestParams(num_trees=20, bootstrap=bootstrap))
        assert sorted_sizes == [[n] for n in rows]
        if budget == 1:
            assert [shape for shape, _, _ in grown] == [(7, n) for n in rows for _ in range(20)]
        else:
            assert [(shape, trees) for shape, trees, _ in grown] == [((7, sum(rows)), 80)]
        slots = sum(s for _, _, s in grown)
        if bootstrap:
            assert 0.6 * 20 * sum(rows) < slots < 0.66 * 20 * sum(rows)
        else:
            assert slots == 20 * sum(rows)


def batch_sample(rng, n, d, kind):
    """An (X, y) sample of n rows: tied values, a signed-zero column and a
    constant column, or one class only."""
    X = np.round(rng.random((n, d)) * 3.0, 1) - 1.0
    if kind in ("signed-zero", "single-class"):
        X[:, 0] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "constant" or d > 2:
        X[:, -1] = 2.5
    y = (rng.random(n) < 0.5).astype(int)
    y[: 2] = 0, 1
    if kind == "single-class":
        y[:] = 1
    return X, y


def batch_params(data, family):
    depth = data.draw(st.integers(1, 6))
    min_instances = data.draw(st.integers(1, 4))
    if family == "dt":
        return DecisionTreeParams(max_depth=depth, min_instances_per_node=min_instances)
    if family == "rf":
        return RandomForestParams(
            num_trees=data.draw(st.integers(1, 5)),
            max_depth=depth,
            min_instances_per_node=min_instances,
            feature_subset_rule=data.draw(st.sampled_from(["sqrt", "all"])),
            bootstrap=data.draw(st.booleans()),
            seed=data.draw(st.integers(0, 9)),
        )
    return GbtParams(
        num_iterations=data.draw(st.integers(1, 4)),
        learning_rate=data.draw(st.sampled_from([0.1, 0.7])),
        max_depth=depth,
        min_instances_per_node=min_instances,
    )


class TestBatch:
    """Every member of a batch (`models.train_batch`) is the model a fit of
    its sample alone gives, bit for bit, and a sample that fails gets its own
    ModelError while the others train."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_members_equal_fits_alone(self, data):
        family = data.draw(st.sampled_from(["dt", "rf", "gbt"]))
        d = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kinds = data.draw(
            st.lists(st.sampled_from(["ties", "signed-zero", "constant", "single-class"]), min_size=1, max_size=4)
        )
        samples = [batch_sample(rng, data.draw(st.integers(2, 60)), d, kind) for kind in kinds]
        params = batch_params(data, family)
        # Budgets that put every sample alone, some together, or all together.
        budget = data.draw(st.sampled_from([1, 60, 1 << 20]))
        # dt and gbt batch up to BATCH_CELLS, rf up to LOCKSTEP_CELLS.
        with mock.patch.object(tree, "BATCH_CELLS", budget), mock.patch.object(ensemble, "BATCH_CELLS", budget), \
                mock.patch.object(ensemble, "LOCKSTEP_CELLS", budget):
            got = models.train_batch(family, samples, params)
        assert len(got) == len(samples)
        for (X, y), member in zip(samples, got):
            try:
                alone = models.train(family, X, y, params)
            except ModelError as exc:
                assert isinstance(member, ModelError) and str(member) == str(exc)
                continue
            assert repr(member.to_dict()) == repr(alone.to_dict())

    def test_failing_sample_keeps_its_own_error(self):
        rng = np.random.default_rng(3)
        good = batch_sample(rng, 40, 3, "ties")
        single = batch_sample(rng, 30, 3, "single-class")
        empty = (np.zeros((0, 3)), np.zeros(0, dtype=int))
        got = models.train_batch("gbt", [good, single, empty, good], GbtParams(num_iterations=2))
        assert str(got[1]) == "boosting requires both classes in the training data"
        assert str(got[2]) == "training data is empty"
        assert repr(got[0].to_dict()) == repr(got[3].to_dict())
        assert repr(got[0].to_dict()) == repr(models.train("gbt", *good, GbtParams(num_iterations=2)).to_dict())

    def test_params_of_another_family_fail_every_sample(self):
        X, y = separable(20, seed=1)
        got = models.train_batch("rf", [(X, y), (X, y)], GbtParams())
        assert [str(e) for e in got] == ["params for family 'rf' must be RandomForestParams"] * 2


class TestKernelCallSize:
    def test_no_call_holds_more_than_a_root(self, monkeypatch):
        """No kernel call's input holds more cells than d × n, the root of
        one tree, however many nodes or trees a step scores."""
        largest = []
        for name in ("best_split_gini", "best_split_sse"):
            kernel = getattr(kernels, name)

            def recording(x, y, sizes, *weights, kernel=kernel):
                largest.append(max(x.size, y.size, *(w.size for w in weights)))
                return kernel(x, y, sizes, *weights)

            monkeypatch.setattr(kernels, name, recording)
        rng = np.random.default_rng(18)
        X = rng.random((400, 6))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.2 * rng.normal(size=400) > 0.8).astype(int)
        for fit in (
            lambda: models.train("dt", X, y, DecisionTreeParams(max_depth=8)),
            lambda: models.train("gbt", X, y, GbtParams(num_iterations=3, max_depth=6)),
            lambda: models.train("rf", X, y, RandomForestParams(num_trees=12, max_depth=8)),
            lambda: models.train("rf", X, y, RandomForestParams(num_trees=12, max_depth=8, feature_subset_rule="all")),
        ):
            largest.clear()
            fit()
            assert largest and max(largest) <= X.size


class TestGoldenPrediction:
    def test_frozen_triple_reproduced(self):
        """Golden values from the first verified run of this exact fixture."""
        rng = np.random.default_rng(123)
        X = rng.random((200, 5))
        y = ((X[:, 0] + 0.5 * X[:, 3]) > 0.75).astype(int)
        model = models.train("gbt", X, y, GbtParams(num_iterations=8, seed=1))
        raw, prob = model.scores(np.array([[0.9, 0.1, 0.5, 0.8, 0.2]]))
        assert raw.tolist() == [0.5848683502642308]
        assert prob.tolist() == [0.7630974198122307]
        assert model.predictions_from_scores(raw, prob).tolist() == [1]


class TestImportances:
    def test_sums_to_one_tightly(self):
        X, y = separable(200, seed=10)
        for model in (
            models.train("dt", X, y),
            models.train("rf", X, y, RandomForestParams(num_trees=10)),
            models.train("gbt", X, y, GbtParams(num_iterations=5)),
        ):
            imp = feature_importances(model)
            assert abs(sum(imp.values) - 1.0) <= 1e-9
            assert all(v >= 0 for v in imp.values)

    def test_constant_feature_gets_exact_zero(self):
        rng = np.random.default_rng(11)
        X = rng.random((150, 4))
        X[:, 2] = 1.0
        y = (X[:, 0] > 0.5).astype(int)
        for model in (
            models.train("rf", X, y, RandomForestParams(num_trees=10)),
            models.train("gbt", X, y, GbtParams(num_iterations=5)),
        ):
            assert feature_importances(model).values[2] == 0.0

    def test_unsupported_families_rejected(self):
        X, y = separable(30, seed=12)
        lr = train_logistic(X, y)
        with pytest.raises(ModelError, match="dt/rf/gbt"):
            feature_importances(lr)

    def test_validator_tolerances(self):
        validate_importances([0.5, 0.5])
        validate_importances([0.0, 0.0])  # all-zero is allowed
        with pytest.raises(ValueError):
            validate_importances([-0.1, 1.1])
        with pytest.raises(ValueError):
            validate_importances([0.6, 0.6])
        with pytest.raises(ValueError, match="finite"):
            validate_importances([float("nan"), 1.0])

    def test_names_attach_and_rank(self):
        X, y = separable(100, seed=13)
        model = models.train("gbt", X, y, GbtParams(num_iterations=5))
        imp = feature_importances(model, names=("alpha", "beta", "gamma"))
        rows = imp.ranked()
        assert rows[0][0] == 1
        assert {name for _, name, _ in rows} == {"alpha", "beta", "gamma"}
        values = [v for _, _, v in rows]
        assert values == sorted(values, reverse=True)
