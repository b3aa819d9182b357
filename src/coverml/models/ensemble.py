"""Random forests and gradient-boosted trees built on the CART core."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from ..rng import derived_rng
from .base import Count, ModelError, Params, Probability, TrainedClassifier, check_training_data
from .linear import sigmoid
from .tree import Depth, Tree, grow_trees, normalized_importance, presort

#: Sample cells (rows × features) of the trees a forest grows in lockstep:
#: trees of n rows and d features grow max(1, LOCKSTEP_CELLS // (n * d)) at
#: a time. A group holds about 12.5 bytes per cell (float64 values and int32
#: order rows), so at most about 26 MB whatever num_trees is.
LOCKSTEP_CELLS = 1 << 21


@dataclass(frozen=True)
class RandomForestParams(Params):
    num_trees: Count = 100
    max_depth: Depth = 5
    min_instances_per_node: Count = 1
    feature_subset_rule: Literal["sqrt", "all"] = "sqrt"
    bootstrap: bool = True
    seed: int = 1
    threshold: Probability = 0.5


def mean_importance(trees: list[Tree], n_features: int) -> np.ndarray:
    """The normalized sum of the trees' normalized importances."""
    acc = np.zeros(n_features, dtype=np.float64)
    for tree in trees:
        acc += normalized_importance(tree.importance(n_features))
    return normalized_importance(acc)


def _read_trees(model, task: str) -> None:
    """Read the trees of a forest or boosted model from their nested nodes
    (`Tree.from_dict`); ModelError if there are none."""
    if not model.trees:
        raise ModelError(f"{model.family} model holds no trees")
    object.__setattr__(model, "trees", tuple(Tree.from_dict(t, task, model.n_features) for t in model.trees))


@dataclass(frozen=True, eq=False)
class RandomForestModel(TrainedClassifier):
    """Averages per-tree class-1 probabilities; rawScore is that mean."""

    family = "rf"
    nested_axis = "num_trees"
    trees: tuple[Tree, ...]
    n_features: Count
    threshold: Probability

    def raw_scores(self, X):
        columns = self._check_matrix(X).T.copy()
        acc = np.zeros(columns.shape[1], dtype=np.float64)
        for tree in self.trees:
            acc += tree.apply(columns)
        return acc / len(self.trees)

    def _probabilities_of(self, raw):
        return raw

    def truncate(self, k: int) -> "RandomForestModel":
        """The first k trees. Each tree draws from its own generator, so they
        are the forest a fit with num_trees=k grows."""
        return RandomForestModel(self.trees[:k], self.n_features, self.threshold)

    def feature_importances(self) -> np.ndarray:
        return mean_importance(self.trees, self.n_features)

    def _check(self) -> None:
        _read_trees(self, "gini")


def train_random_forest(X, y, params: RandomForestParams = RandomForestParams()) -> RandomForestModel:
    """Bootstrap-aggregated CART trees with per-split feature subsets.

    Each tree's generator is derived from (seed, tree index), so the forest
    is identical across runs. Trees grow in lockstep groups (`grow_trees`):
    a tree draws its bootstrap sample and then its feature subsets from its
    own generator in the order a tree grown alone would, so grouping does
    not change any tree.
    """
    X, y = check_training_data(X, y)
    n, d = X.shape
    subset = max(1, math.floor(math.sqrt(d))) if params.feature_subset_rule == "sqrt" else None
    group = max(1, LOCKSTEP_CELLS // (n * d))
    trees: list[Tree] = []
    for first in range(0, params.num_trees, group):
        rngs = [derived_rng(params.seed, 23, t) for t in range(first, min(first + group, params.num_trees))]
        if params.bootstrap:
            idx = np.stack([rng.integers(0, n, size=n) for rng in rngs])
            values, targets = X.T.take(idx, axis=1), y[idx]
        else:
            values, targets = np.broadcast_to(X.T[:, None], (d, len(rngs), n)), np.broadcast_to(y, (len(rngs), n))
        trees += grow_trees(
            values,
            presort(values),
            targets,
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            task="gini",
            n_subset_features=subset,
            rngs=rngs,
        )[0]
    return RandomForestModel(tuple(trees), d, params.threshold)


@dataclass(frozen=True)
class GbtParams(Params):
    num_iterations: Count = 20
    learning_rate: Annotated[float, "[0, inf)"] = 0.1
    max_depth: Depth = 5
    min_instances_per_node: Count = 1
    seed: int = 1
    threshold: Probability = 0.5


@dataclass(frozen=True, eq=False)
class GbtModel(TrainedClassifier):
    """Additive score F = F0 + lr * sum(tree outputs); probability sigmoid(2F).
    `train_losses` holds the training loss before the first stage and after
    each."""

    family = "gbt"
    nested_axis = "num_iterations"
    base_score: float
    learning_rate: Annotated[float, "[0, inf)"]
    trees: tuple[Tree, ...]
    n_features: Count
    threshold: Probability
    train_losses: tuple[float, ...]

    def raw_scores(self, X):
        columns = self._check_matrix(X).T.copy()
        F = np.full(columns.shape[1], self.base_score, dtype=np.float64)
        for tree in self.trees:
            F += self.learning_rate * tree.apply(columns)
        return F

    def _probabilities_of(self, raw):
        return sigmoid(2.0 * raw)

    def truncate(self, k: int) -> "GbtModel":
        """The first k stages and their losses. A stage fits the residuals
        of the stages before it only, so they are what a fit with
        num_iterations=k builds."""
        return GbtModel(
            self.base_score,
            self.learning_rate,
            self.trees[:k],
            self.n_features,
            self.threshold,
            self.train_losses[: k + 1],
        )

    def feature_importances(self) -> np.ndarray:
        return mean_importance(self.trees, self.n_features)

    def _check(self) -> None:
        _read_trees(self, "sse")
        if len(self.train_losses) != len(self.trees) + 1:
            raise ModelError(f"gbt model has {len(self.trees)} trees but {len(self.train_losses)} train_losses")


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

    # X does not change between stages, so its columns are sorted once.
    values = np.ascontiguousarray(X.T)[:, None]
    order = presort(values)
    trees: list[Tree] = []
    losses = [float(np.mean(np.logaddexp(0.0, -2.0 * ys * F)))]
    for _ in range(params.num_iterations):
        residuals = 2.0 * ys * sigmoid(-2.0 * ys * F)
        (tree,), fitted = grow_trees(
            values,
            order.copy(),
            residuals[None],
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            task="sse",
        )
        trees.append(tree)
        # The leaf values of the training rows: what tree.apply(X.T) gives.
        F += params.learning_rate * fitted
        losses.append(float(np.mean(np.logaddexp(0.0, -2.0 * ys * F))))
    return GbtModel(f0, float(params.learning_rate), tuple(trees), X.shape[1], params.threshold, tuple(losses))
