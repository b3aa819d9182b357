"""Random forests and gradient-boosted trees built on the CART core."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import derived_rng
from .base import ModelError, TrainedClassifier, check_training_data
from .linear import sigmoid
from .tree import (
    TreeNode,
    build_tree,
    check_max_depth,
    normalized_importance,
    tree_apply,
    tree_importance,
)


@dataclass(frozen=True)
class RandomForestParams:
    num_trees: int = 100
    max_depth: int = 5
    min_instances_per_node: int = 1
    feature_subset_rule: str = "sqrt"
    bootstrap: bool = True
    seed: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        check_max_depth(self.max_depth)
        if self.feature_subset_rule not in ("sqrt", "all"):
            raise ValueError("feature_subset_rule must be 'sqrt' or 'all'")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


class RandomForestModel(TrainedClassifier):
    """Averages per-tree class-1 probabilities; rawScore is that mean."""

    family = "rf"

    def __init__(self, trees: list[TreeNode], n_features: int, threshold: float):
        self.trees = list(trees)
        self.n_features = n_features
        self.threshold = threshold

    def raw_scores(self, X):
        X = self._check_matrix(X)
        acc = np.zeros(X.shape[0], dtype=np.float64)
        for root in self.trees:
            acc += tree_apply(root, X, "prob")
        return acc / len(self.trees)

    def _probabilities_of(self, raw):
        return raw

    def feature_importances(self) -> np.ndarray:
        acc = np.zeros(self.n_features, dtype=np.float64)
        for root in self.trees:
            acc += normalized_importance(tree_importance(root, self.n_features))
        return normalized_importance(acc)

    def to_dict(self) -> dict:
        return {
            "trees": [t.to_dict() for t in self.trees],
            "n_features": self.n_features,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForestModel":
        return cls([TreeNode.from_dict(t) for t in d["trees"]], d["n_features"], d["threshold"])


def train_random_forest(X, y, params: RandomForestParams = RandomForestParams()) -> RandomForestModel:
    """Bootstrap-aggregated CART trees with per-split feature subsets.

    Each tree's generator is derived from (seed, tree index), so the forest
    is identical across runs.
    """
    X, y = check_training_data(X, y)
    n, d = X.shape
    subset = max(1, math.floor(math.sqrt(d))) if params.feature_subset_rule == "sqrt" else None

    def fit_one(t: int) -> TreeNode:
        rng = derived_rng(params.seed, 23, t)
        if params.bootstrap:
            idx = rng.integers(0, n, size=n)
            Xt, yt = X[idx], y[idx]
        else:
            Xt, yt = X, y
        return build_tree(
            Xt,
            yt,
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            task="gini",
            n_subset_features=subset,
            rng=rng,
        )

    trees = [fit_one(t) for t in range(params.num_trees)]
    return RandomForestModel(trees, d, params.threshold)


@dataclass(frozen=True)
class GbtParams:
    num_iterations: int = 20
    learning_rate: float = 0.1
    max_depth: int = 5
    min_instances_per_node: int = 1
    seed: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        check_max_depth(self.max_depth)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


class GbtModel(TrainedClassifier):
    """Additive score F = F0 + lr * sum(tree outputs); probability sigmoid(2F)."""

    family = "gbt"

    def __init__(
        self,
        base_score: float,
        learning_rate: float,
        trees: list[TreeNode],
        n_features: int,
        threshold: float,
        train_losses: tuple[float, ...] = (),
    ):
        self.base_score = float(base_score)
        self.learning_rate = float(learning_rate)
        self.trees = list(trees)
        self.n_features = n_features
        self.threshold = threshold
        self.train_losses = tuple(train_losses)

    def raw_scores(self, X):
        X = self._check_matrix(X)
        F = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for root in self.trees:
            F += self.learning_rate * tree_apply(root, X, "value")
        return F

    def _probabilities_of(self, raw):
        return sigmoid(2.0 * raw)

    def feature_importances(self) -> np.ndarray:
        acc = np.zeros(self.n_features, dtype=np.float64)
        for root in self.trees:
            acc += normalized_importance(tree_importance(root, self.n_features))
        return normalized_importance(acc)

    def to_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "trees": [t.to_dict() for t in self.trees],
            "n_features": self.n_features,
            "threshold": self.threshold,
            "train_losses": list(self.train_losses),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GbtModel":
        return cls(
            d["base_score"],
            d["learning_rate"],
            [TreeNode.from_dict(t) for t in d["trees"]],
            d["n_features"],
            d["threshold"],
            tuple(d.get("train_losses", ())),
        )


def train_gbt(X, y, params: GbtParams = GbtParams()) -> GbtModel:
    """Stagewise regression trees on the negative gradient of the logistic
    loss over margins.

    Labels map to +-1; the loss is log(1 + exp(-2*y*F)) with base score
    F0 = 0.5*ln(p/(1-p)) from the positive rate, which is undefined for
    single-class data.
    """
    X, y = check_training_data(X, y)
    if y.min() == y.max():
        raise ModelError("boosting requires both classes in the training data")
    ys = 2.0 * y.astype(np.float64) - 1.0
    p = float(y.mean())
    f0 = 0.5 * math.log(p / (1.0 - p))
    F = np.full(X.shape[0], f0, dtype=np.float64)

    trees: list[TreeNode] = []
    losses = [float(np.mean(np.logaddexp(0.0, -2.0 * ys * F)))]
    for _ in range(params.num_iterations):
        residuals = 2.0 * ys * sigmoid(-2.0 * ys * F)
        root = build_tree(
            X,
            residuals,
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            task="sse",
        )
        trees.append(root)
        F += params.learning_rate * tree_apply(root, X, "value")
        losses.append(float(np.mean(np.logaddexp(0.0, -2.0 * ys * F))))
    return GbtModel(f0, params.learning_rate, trees, X.shape[1], params.threshold, tuple(losses))
