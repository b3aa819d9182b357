from dataclasses import replace

import numpy as np
import pytest

from coverml import kernels
from coverml.models import ensemble
from coverml.models.base import ModelError
from coverml.models.ensemble import (
    GbtModel,
    GbtParams,
    RandomForestModel,
    RandomForestParams,
    train_gbt,
    train_random_forest,
)
from coverml.models.importance import feature_importances, validate_importances
from coverml.models.linear import train_logistic
from coverml.models.tree import DecisionTreeParams, build_tree, train_decision_tree
from coverml.rng import derived_rng


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
        rf = train_random_forest(
            X, y, RandomForestParams(num_trees=1, feature_subset_rule="all", bootstrap=False)
        )
        dt = train_decision_tree(X, y, DecisionTreeParams(max_depth=5))
        assert np.array_equal(rf.probabilities(X), dt.probabilities(X))
        assert np.array_equal(rf.predictions(X), dt.predictions(X))

    def test_different_seed_changes_forest(self):
        X, y = separable(150, seed=2)
        a = train_random_forest(X, y, RandomForestParams(num_trees=5, seed=1))
        b = train_random_forest(X, y, RandomForestParams(num_trees=5, seed=2))
        assert a.to_dict() != b.to_dict()

    def test_separable_accuracy(self):
        X, y = separable(300, seed=3)
        model = train_random_forest(X, y, RandomForestParams(num_trees=25))
        assert (model.predictions(X) == y).mean() >= 0.95

    def test_raw_score_is_mean_probability(self):
        X, y = separable(80, seed=4)
        model = train_random_forest(X, y, RandomForestParams(num_trees=7))
        assert np.array_equal(model.raw_scores(X), model.probabilities(X))
        probs = model.probabilities(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_serialization_roundtrip(self):
        X, y = separable(60, seed=5)
        model = train_random_forest(X, y, RandomForestParams(num_trees=3))
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
        model = train_gbt(X, y)
        assert np.allclose(model.probabilities(X), 0.75, atol=1e-12)

    def test_separable_reaches_perfect_training_accuracy(self):
        X = np.array([[float(i)] for i in range(20)])
        y = (X[:, 0] >= 10).astype(int)
        model = train_gbt(X, y, GbtParams(num_iterations=10))
        assert (model.predictions(X) == y).all()

    def test_zero_learning_rate_is_base_rate_classifier(self):
        X, y = separable(100, seed=6)
        model = train_gbt(X, y, GbtParams(learning_rate=0.0))
        p = y.mean()
        assert np.allclose(model.probabilities(X), p, atol=1e-12)
        expected = 1 if p > 0.5 else 0
        assert (model.predictions(X) == expected).all()

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ModelError):
            train_gbt(X, np.ones(5, dtype=int))

    def test_training_loss_non_increasing(self):
        X, y = separable(200, seed=7)
        model = train_gbt(X, y, GbtParams(num_iterations=15, learning_rate=0.1))
        losses = model.train_losses
        assert len(losses) == 16
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_probability_is_sigmoid_of_twice_score(self):
        X, y = separable(50, seed=8)
        model = train_gbt(X, y, GbtParams(num_iterations=3))
        F = model.raw_scores(X)
        assert np.allclose(model.probabilities(X), 1.0 / (1.0 + np.exp(-2.0 * F)), atol=1e-12)

    def test_serialization_roundtrip(self):
        X, y = separable(60, seed=9)
        model = train_gbt(X, y, GbtParams(num_iterations=4))
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
        forest = train_random_forest(X, y, replace(base, num_trees=6))
        for k in range(1, 7):
            fresh = train_random_forest(X, y, replace(base, num_trees=k))
            assert repr(forest.truncate(k).to_dict()) == repr(fresh.to_dict())

    @pytest.mark.parametrize("learning_rate", [0.1, 0.7])
    def test_boosting_prefix_equals_fresh_sequence(self, learning_rate):
        X, y = self.noisy(4)
        base = GbtParams(max_depth=3, learning_rate=learning_rate)
        model = train_gbt(X, y, replace(base, num_iterations=6))
        for k in range(1, 7):
            fresh = train_gbt(X, y, replace(base, num_iterations=k))
            assert repr(model.truncate(k).to_dict()) == repr(fresh.to_dict())
            assert np.array_equal(model.truncate(k).raw_scores(X), fresh.raw_scores(X))


class TestLockstep:
    """A forest grows its trees in lockstep groups; each tree must be the one
    build_tree grows alone from the same generator."""

    @staticmethod
    def alone(X, y, params):
        """Each tree grown by itself: its generator draws the bootstrap
        sample, then the feature subsets."""
        n, d = X.shape
        subset = int(np.sqrt(d)) if params.feature_subset_rule == "sqrt" else None
        trees = []
        for t in range(params.num_trees):
            rng = derived_rng(params.seed, 23, t)
            idx = rng.integers(0, n, size=n) if params.bootstrap else np.arange(n)
            trees.append(
                build_tree(
                    X[idx],
                    y[idx],
                    max_depth=params.max_depth,
                    min_instances=params.min_instances_per_node,
                    n_subset_features=subset,
                    rng=rng,
                )
            )
        return trees

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
        forest = train_random_forest(X, y, params)
        alone = self.alone(X, y, params)
        assert [repr(t.to_dict()) for t in forest.trees] == [repr(t.to_dict()) for t in alone]


class TestKernelCallSize:
    def test_no_call_holds_more_than_a_root(self, monkeypatch):
        """No kernel call's input holds more cells than d × n, the root of
        one tree, however many nodes or trees a step scores."""
        largest = []
        for name in ("best_split_gini", "best_split_sse"):
            kernel = getattr(kernels, name)

            def recording(x, y, sizes, kernel=kernel):
                largest.append(max(x.size, y.size))
                return kernel(x, y, sizes)

            monkeypatch.setattr(kernels, name, recording)
        rng = np.random.default_rng(18)
        X = rng.random((400, 6))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.2 * rng.normal(size=400) > 0.8).astype(int)
        for fit in (
            lambda: train_decision_tree(X, y, DecisionTreeParams(max_depth=8)),
            lambda: train_gbt(X, y, GbtParams(num_iterations=3, max_depth=6)),
            lambda: train_random_forest(X, y, RandomForestParams(num_trees=12, max_depth=8)),
            lambda: train_random_forest(X, y, RandomForestParams(num_trees=12, max_depth=8, feature_subset_rule="all")),
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
        model = train_gbt(X, y, GbtParams(num_iterations=8, seed=1))
        raw, prob = model.scores(np.array([[0.9, 0.1, 0.5, 0.8, 0.2]]))
        assert raw.tolist() == [0.5848683502642308]
        assert prob.tolist() == [0.7630974198122307]
        assert model.predictions_from_scores(raw, prob).tolist() == [1]


class TestImportances:
    def test_sums_to_one_tightly(self):
        X, y = separable(200, seed=10)
        for model in (
            train_decision_tree(X, y),
            train_random_forest(X, y, RandomForestParams(num_trees=10)),
            train_gbt(X, y, GbtParams(num_iterations=5)),
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
            train_random_forest(X, y, RandomForestParams(num_trees=10)),
            train_gbt(X, y, GbtParams(num_iterations=5)),
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

    def test_names_attach_and_rank(self):
        X, y = separable(100, seed=13)
        model = train_gbt(X, y, GbtParams(num_iterations=5))
        imp = feature_importances(model, names=("alpha", "beta", "gamma"))
        rows = imp.ranked()
        assert rows[0][0] == 1
        assert {name for _, name, _ in rows} == {"alpha", "beta", "gamma"}
        values = [v for _, _, v in rows]
        assert values == sorted(values, reverse=True)
