import numpy as np
import pytest

from coverml.models.base import ModelError
from coverml.models.tree import (
    DecisionTreeModel,
    DecisionTreeParams,
    TreeNode,
    build_tree,
    normalized_importance,
    train_decision_tree,
    tree_importance,
)

from helpers import oracle_build_tree, tree_structure

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def accuracy(model, X, y):
    return float((model.predictions(X) == y).mean())


class TestInduction:
    def test_separable_single_feature(self):
        X = np.array([[0.1], [0.2], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = train_decision_tree(X, y)
        assert accuracy(model, X, y) == 1.0
        root = model.root
        assert not root.is_leaf and root.left.is_leaf and root.right.is_leaf

    def test_xor_depth1_is_chance(self):
        model = train_decision_tree(XOR_X, XOR_Y, DecisionTreeParams(max_depth=1))
        # exhaustive enumeration: every depth-1 split leaves both leaves mixed
        assert accuracy(model, XOR_X, XOR_Y) == 0.5

    def test_xor_depth2_is_exact(self):
        model = train_decision_tree(XOR_X, XOR_Y, DecisionTreeParams(max_depth=2))
        assert accuracy(model, XOR_X, XOR_Y) == 1.0

    def test_tie_break_prefers_lower_feature(self):
        # identical columns: both admit the same best split
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        root = build_tree(X, y, max_depth=1)
        assert root.feature == 0

    def test_tie_break_prefers_lower_threshold(self):
        # symmetric labels: splits at 0.5 and 1.5 both give zero decrease,
        # and splitting at 1.5... construct equal-decrease pair explicitly
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 1])
        root = build_tree(X, y, max_depth=1)
        # decreases: thr 0.5 and 2.5 tie (symmetric), thr 1.5 is zero
        assert root.threshold == 0.5

    def test_min_instances_stops_growth(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        root = build_tree(X, y, max_depth=5, min_instances=5)
        assert root.is_leaf

    def test_pure_node_stops(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        root = build_tree(X, y, max_depth=3)
        assert root.is_leaf and root.prob == 1.0

    def test_depth_never_exceeds_max(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 4))
        y = rng.integers(0, 2, size=200)
        for max_depth in (1, 2, 4):
            root = build_tree(X, y, max_depth=max_depth)

            def depth(node):
                return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

            assert depth(root) <= max_depth

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = 8
            X = np.round(rng.random((n, 3)), 1)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            engine = build_tree(X, y, max_depth=2)
            oracle = oracle_build_tree(X, y, max_depth=2)
            assert tree_structure(engine) == tree_structure(oracle)

    def test_probabilities_within_unit_interval(self):
        rng = np.random.default_rng(4)
        X = rng.random((100, 3))
        y = rng.integers(0, 2, size=100)
        model = train_decision_tree(X, y)
        probs = model.probabilities(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_regression_task_fits_means(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, -3.0, -3.0])
        root = build_tree(X, y, max_depth=1, task="sse")
        assert root.threshold == 1.5
        assert root.left.value == 1.0 and root.right.value == -3.0


class TestParamsAndErrors:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeParams(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeParams(threshold=0.0)

    def test_max_depth_upper_bound(self):
        with pytest.raises(ValueError, match=r"\[1, 30\]"):
            DecisionTreeParams(max_depth=31)
        with pytest.raises(ValueError):
            DecisionTreeParams(max_depth=5000)
        # the deepest allowed tree grows on data that splits one row per level
        X = np.arange(3000.0).reshape(-1, 1)
        y = np.arange(3000) % 2
        model = train_decision_tree(X, y, DecisionTreeParams(max_depth=30))
        assert model.probabilities(X).shape == (3000,)

    def test_empty_data(self):
        with pytest.raises(ModelError):
            train_decision_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_nonfinite_features(self):
        with pytest.raises(ModelError):
            train_decision_tree(np.array([[np.inf]]), np.array([1]))

    def test_dimension_mismatch_at_predict(self):
        model = train_decision_tree(np.array([[0.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ModelError):
            model.predictions(np.zeros((2, 3)))


class TestImportance:
    def test_single_split_concentrates(self):
        X = np.zeros((4, 5))
        X[:, 3] = [0.0, 1.0, 2.0, 3.0]
        y = np.array([0, 0, 1, 1])
        model = train_decision_tree(X, y, DecisionTreeParams(max_depth=1))
        imp = model.feature_importances()
        assert imp[3] == 1.0 and imp.sum() == 1.0

    def test_constant_feature_zero(self):
        rng = np.random.default_rng(5)
        X = rng.random((60, 3))
        X[:, 1] = 7.7
        y = (X[:, 0] > 0.5).astype(int)
        model = train_decision_tree(X, y)
        assert model.feature_importances()[1] == 0.0

    def test_unsplit_tree_all_zero(self):
        root = TreeNode(n_samples=4, class_counts=(2, 2), prob=0.5)
        assert normalized_importance(tree_importance(root, 3)).tolist() == [0.0, 0.0, 0.0]


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        rng = np.random.default_rng(6)
        X = rng.random((80, 4))
        y = rng.integers(0, 2, size=80)
        model = train_decision_tree(X, y)
        back = DecisionTreeModel.from_dict(model.to_dict())
        assert np.array_equal(back.probabilities(X), model.probabilities(X))
        assert back.to_dict() == model.to_dict()
