"""Random forests and gradient-boosted trees built on the CART core."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from ..rng import derived_rng
from .base import Count, ModelError, Params, Probability, TrainedClassifier, check_training_data, per_sample
from .linear import sigmoid
from .tree import (
    BATCH_CELLS,
    Depth,
    FeatureDraws,
    Tree,
    grow_trees,
    lockstep_groups,
    normalized_importance,
    presort,
    tree_outputs,
)

#: Sample cells (rows × features) of the trees that grow in lockstep, of one
#: forest or of the forests of a batch: trees of n rows and d features grow
#: at most max(1, LOCKSTEP_CELLS // (n * d)) at a time, in groups of about
#: equal size. The trees share their samples' values and sort. A group
#: holds, per row a tree drew (about 63% of its rows under bootstrap),
#: int32 order rows and the row's column, weight, target and node: about 6
#: bytes per cell at d = 7, so at most about 13 MB whatever num_trees is.
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


def _prefix_sums(trees, X: np.ndarray, ks: list[int], start: float, weight: float | None) -> list[np.ndarray]:
    """For each k of `ks`, `start` plus the sum of the first k trees' outputs
    on X, each times `weight` unless it is None, from one walk of the first
    max(ks) trees (`tree_outputs`). The outputs are added one tree at a time
    in tree order (`np.add.accumulate` down the trees), so each sum has the
    bits of a loop that adds k trees to `start`."""
    sums = {k: np.empty(X.shape[0]) for k in ks}
    for rows, outputs in tree_outputs(trees[: max(ks)], X):
        if weight is not None:
            outputs *= weight
        outputs[0] += start
        np.add.accumulate(outputs, axis=0, out=outputs)
        for k, total in sums.items():
            total[rows] = outputs[k - 1]
    return [sums[k] for k in ks]


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
        return self.nested_raw_scores(X, [None])[0]

    def nested_raw_scores(self, X, ks):
        """The mean over each prefix of k trees, read from one walk."""
        ks = [len(self.trees) if k is None else self._nested_k(k, len(self.trees)) for k in ks]
        return [total / k for total, k in zip(_prefix_sums(self.trees, self._check_matrix(X), ks, 0.0, None), ks)]

    def _probabilities_of(self, raw):
        return raw

    def truncate(self, k: int) -> "RandomForestModel":
        """The first k trees. Each tree draws from its own generator, so they
        are the forest a fit with num_trees=k grows."""
        self._nested_k(k, len(self.trees))
        return RandomForestModel(self.trees[:k], self.n_features, self.threshold)

    def feature_importances(self) -> np.ndarray:
        return mean_importance(self.trees, self.n_features)

    def _check(self) -> None:
        _read_trees(self, "gini")


def train_random_forests(samples, params: RandomForestParams = RandomForestParams()) -> list:
    """A forest of bootstrap-aggregated CART trees with per-split feature
    subsets for each (X, y) sample. Each entry is the forest a fit of its
    sample alone gives, or the ModelError that sample raises.

    Tree t of every forest has the generator derived from (seed, t), so a
    forest is identical across runs. Trees grow in lockstep groups
    (`grow_trees`): a tree draws its bootstrap sample and then its feature
    subsets from its own generator in the order a tree grown alone would,
    so grouping does not change any tree. The trees grow in groups of up to
    LOCKSTEP_CELLS sample cells (at least one tree), whether they come from
    one forest or several.

    No tree copies its bootstrap sample, as in Spark MLlib's `BaggedPoint`:
    each sample's values are laid out feature-major and presorted once, and
    held from its first group to its last, and a tree passes how often it
    drew each row (`grow_trees`' counts), so it is the tree grown on the
    copied sample.
    """
    out = per_sample(check_training_data, samples)
    ready = [i for i, sample in enumerate(out) if not isinstance(sample, ModelError)]
    trees: dict[int, list[Tree]] = {i: [] for i in ready}
    jobs = [(i, t) for i in ready for t in range(params.num_trees)]
    groups = lockstep_groups([out[i][0].shape for i, _ in jobs], LOCKSTEP_CELLS)
    last = {jobs[j][0]: g for g, group in enumerate(groups) for j in group}
    held = {}  # a sample's feature-major values and presort, up to its last group
    for g, group in enumerate(groups):
        members = [jobs[j] for j in group]
        reads = list(dict.fromkeys(i for i, _ in members))
        for i in reads:
            if i not in held:
                values = np.ascontiguousarray(out[i][0].T)
                held[i] = values, presort(values)
        values = held[reads[0]][0] if len(reads) == 1 else np.concatenate([held[i][0] for i in reads], axis=1)
        rngs = [derived_rng(params.seed, 23, t) for _, t in members]
        n = [out[i][0].shape[0] for i, _ in members]  # rows of each tree's sample
        d = values.shape[0]
        subset = max(1, math.floor(math.sqrt(d))) if params.feature_subset_rule == "sqrt" else d
        grown, _ = grow_trees(
            values,
            [held[i][1] for i in reads],
            np.concatenate([out[i][1] for i in reads]),
            [reads.index(i) for i, _ in members],
            counts=[np.bincount(r.integers(0, m, size=m), minlength=m) for r, m in zip(rngs, n)]
            if params.bootstrap else None,
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
            draws=FeatureDraws(rngs, d, subset) if subset < d else None,
        )
        for (i, _), tree in zip(members, grown):
            trees[i].append(tree)
        for i in reads:
            if last[i] == g:
                del held[i]
    for i in ready:
        out[i] = RandomForestModel(tuple(trees[i]), out[i][0].shape[1], params.threshold)
    return out


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
        return self.nested_raw_scores(X, [None])[0]

    def nested_raw_scores(self, X, ks):
        """F after each prefix of k stages, read from one walk."""
        ks = [len(self.trees) if k is None else self._nested_k(k, len(self.trees)) for k in ks]
        return _prefix_sums(self.trees, self._check_matrix(X), ks, self.base_score, self.learning_rate)

    def _probabilities_of(self, raw):
        return sigmoid(2.0 * raw)

    def truncate(self, k: int) -> "GbtModel":
        """The first k stages and their losses. A stage fits the residuals
        of the stages before it only, so they are what a fit with
        num_iterations=k builds."""
        self._nested_k(k, len(self.trees))
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


def train_gbts(samples, params: GbtParams = GbtParams()) -> list:
    """Stagewise regression trees on the negative gradient of the logistic
    loss over margins, for each (X, y) sample: each step grows one stage of
    every sample's sequence (`grow_trees`), BATCH_CELLS sample cells at a
    time, or one larger sample. Each entry is the model a fit of its sample
    alone gives, or the ModelError that sample raises.

    Labels map to +-1; the loss is log(1 + exp(-2*y*F)) with base score
    F0 = 0.5*ln(p/(1-p)) from the positive rate, which is undefined for
    single-class data. A sample's losses are the mean over its own rows.
    """
    out = per_sample(check_training_data, samples)
    for i, sample in enumerate(out):
        if not isinstance(sample, ModelError) and sample[1].min() == sample[1].max():
            out[i] = ModelError("boosting requires both classes in the training data")
    ready = [i for i, sample in enumerate(out) if not isinstance(sample, ModelError)]
    for group in lockstep_groups([out[i][0].shape for i in ready], BATCH_CELLS):
        members = [ready[j] for j in group]
        sizes = [out[i][0].shape[0] for i in members]
        ends = np.cumsum(sizes).tolist()
        rows = [slice(end - n, end) for n, end in zip(sizes, ends)]
        ys = 2.0 * np.concatenate([out[i][1] for i in members]).astype(np.float64) - 1.0
        f0 = []
        for i in members:
            p = float(out[i][1].mean())
            f0.append(0.5 * math.log(p / (1.0 - p)))
        F = np.repeat(f0, sizes)

        # X does not change between stages, so its columns are sorted once.
        values = np.concatenate([out[i][0].T for i in members], axis=1)
        orders = [presort(out[i][0].T) for i in members]
        trees: list[list[Tree]] = [[] for _ in members]
        losses = [_mean_losses(ys, F, rows)]  # per stage, each sample's
        with np.errstate(over="ignore", invalid="ignore"):  # a large learning_rate overflows; checked below
            for _ in range(params.num_iterations):
                residuals = 2.0 * ys * sigmoid(-2.0 * ys * F)
                grown, fitted = grow_trees(
                    values,
                    orders,
                    residuals,
                    range(len(members)),
                    max_depth=params.max_depth,
                    min_instances=params.min_instances_per_node,
                    task="sse",
                )
                for sample_trees, tree in zip(trees, grown):
                    sample_trees.append(tree)
                # The leaf values of the training rows: the tree's outputs on X.
                F += params.learning_rate * fitted
                losses.append(_mean_losses(ys, F, rows))
        for j, i in enumerate(members):
            sample_losses = tuple(stage[j] for stage in losses)
            if not (np.isfinite(F[rows[j]]).all() and np.isfinite(sample_losses).all()):
                out[i] = ModelError(f"gbt margins are not finite; lower learning_rate ({params.learning_rate!r})")
                continue
            out[i] = GbtModel(
                f0[j], float(params.learning_rate), tuple(trees[j]), out[i][0].shape[1], params.threshold, sample_losses
            )
    return out


def _mean_losses(ys: np.ndarray, F: np.ndarray, rows: list[slice]) -> list[float]:
    """The mean logistic loss over each sample's rows, `rows` its slices."""
    loss = np.logaddexp(0.0, -2.0 * ys * F)
    return [float(np.mean(loss[r])) for r in rows]
