"""CART decision trees on Gini or squared-error impurity.

Candidate thresholds are midpoints between consecutive distinct sorted
values. The best split maximizes weighted impurity decrease with ties broken
by lower feature index, then lower threshold; zero-decrease splits are
accepted so interaction-only structure (an XOR of two columns) is still
reachable within the depth budget. Growth stops at max_depth, on a pure
node, or when a node holds fewer than min_instances_per_node rows.
max_depth lies in [1, MAX_DEPTH], the range Spark ML accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import kernels
from .base import TrainedClassifier, check_training_data

MAX_DEPTH = 30


def check_max_depth(max_depth: int) -> None:
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH}], got {max_depth}")


@dataclass(frozen=True)
class TreeNode:
    n_samples: int
    feature: int = -1
    threshold: float = 0.0
    decrease: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    class_counts: tuple[int, int] | None = None
    prob: float | None = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        d = {"n": self.n_samples}
        if self.class_counts is not None:
            d["counts"] = list(self.class_counts)
            d["prob"] = self.prob
        if self.value is not None:
            d["value"] = self.value
        if not self.is_leaf:
            d.update(
                feature=self.feature,
                threshold=self.threshold,
                decrease=self.decrease,
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TreeNode":
        counts = d.get("counts")
        node = cls(
            n_samples=d["n"],
            class_counts=None if counts is None else (counts[0], counts[1]),
            prob=d.get("prob"),
            value=d.get("value"),
        )
        if "feature" in d:
            node = replace(
                node,
                feature=d["feature"],
                threshold=d["threshold"],
                decrease=d["decrease"],
                left=cls.from_dict(d["left"]),
                right=cls.from_dict(d["right"]),
            )
        return node


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_instances: int = 1,
    task: str = "gini",
    n_subset_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> TreeNode:
    """Grow one CART tree; `task` is "gini" (y in {0,1}) or "sse" (real y).

    Every column is argsorted once, stably, into a `d × n` order matrix
    (the presorted attribute lists of SLIQ and SPRINT). A split partitions
    each node's order matrix into its children with one boolean mask; the
    filter is stable, so each child keeps, per feature, the order a stable
    argsort of its own rows would give (ties in row order). Each node scores
    all its candidate features in one kernel call, which breaks ties by the
    lowest feature, then the lowest threshold.

    When `n_subset_features` is set, each split considers a fresh random
    subset of that many features drawn from `rng` (depth-first order, so the
    tree is a pure function of the generator's seed).
    """
    if task not in ("gini", "sse"):
        raise ValueError(f"unknown task {task!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    yf = np.ascontiguousarray(y, dtype=np.float64)
    n, d = np.shape(X)
    if n_subset_features is not None and rng is None:
        raise ValueError("feature subsetting requires an rng")
    # Feature-major values: X_flat[f * n + r] is row r's value of feature f.
    X_flat = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T).reshape(-1)
    col_start = (np.arange(d) * n)[:, None]
    goes_left = np.empty(n, dtype=bool)

    def stats(target: np.ndarray) -> dict:
        if task == "gini":
            c1 = int(target.sum())
            counts = (target.size - c1, c1)
            return {"class_counts": counts, "prob": c1 / target.size}
        return {"value": float(target.mean())}

    def grow(idx: np.ndarray, order: np.ndarray, depth: int) -> TreeNode:
        # idx holds the node's rows ascending; row f of the (d, m) `order`
        # holds the same rows sorted by feature f.
        target = yf[idx]
        node = {"n_samples": idx.size, **stats(target)}
        if depth >= max_depth or idx.size < min_instances or (target == target[0]).all():
            return TreeNode(**node)
        if n_subset_features is None or n_subset_features >= d:
            feats, rows, starts = None, order, col_start
        else:
            feats = np.sort(rng.choice(d, size=n_subset_features, replace=False))
            rows, starts = order[feats], col_start[feats]
        pos, thr, dec = kernel(X_flat.take(rows + starts).T, yf.take(rows).T)
        if pos < 0:
            return TreeNode(**node)
        f = pos if feats is None else int(feats[pos])
        mask = X_flat.take(idx + f * n) <= thr
        goes_left[idx] = mask
        left = goes_left.take(order)
        # Popped one at a time, so a child's order matrix is referenced only
        # while that child grows.
        children = [order[~left].reshape(d, -1), order[left].reshape(d, -1)]
        del order, rows, left
        return TreeNode(
            **node,
            feature=f,
            threshold=thr,
            decrease=dec,
            left=grow(idx[mask], children.pop(), depth + 1),
            right=grow(idx[~mask], children.pop(), depth + 1),
        )

    return grow(np.arange(n), _presort(X_flat.reshape(d, n)), 0)


def _presort(columns: np.ndarray) -> np.ndarray:
    """Stable argsort of every row of a (d, n) matrix, as compact indices."""
    n = columns.shape[1]
    index_type = np.int32 if n <= np.iinfo(np.int32).max else np.intp
    return np.argsort(columns, axis=1, kind="stable").astype(index_type)


def tree_apply(root: TreeNode, X: np.ndarray, field: str) -> np.ndarray:
    """Evaluate a per-leaf field ("prob" or "value") for every row."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = getattr(node, field)
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def cut_tree(node: TreeNode, depth: int) -> TreeNode:
    """The tree under `node` with every node `depth` levels below it made a
    leaf, which keeps that node's statistics."""
    if node.is_leaf:
        return node
    if depth == 0:
        return TreeNode(node.n_samples, class_counts=node.class_counts, prob=node.prob, value=node.value)
    return replace(node, left=cut_tree(node.left, depth - 1), right=cut_tree(node.right, depth - 1))


def tree_importance(root: TreeNode, n_features: int) -> np.ndarray:
    """Unnormalized importance: sum of n_samples * impurity decrease per feature."""
    imp = np.zeros(n_features, dtype=np.float64)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        imp[node.feature] += node.n_samples * max(node.decrease, 0.0)
        stack.append(node.left)
        stack.append(node.right)
    return imp


def normalized_importance(imp: np.ndarray) -> np.ndarray:
    total = imp.sum()
    return imp / total if total > 0 else imp


@dataclass(frozen=True)
class DecisionTreeParams:
    max_depth: int = 5
    min_instances_per_node: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        check_max_depth(self.max_depth)
        if self.min_instances_per_node < 1:
            raise ValueError("min_instances_per_node must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


class DecisionTreeModel(TrainedClassifier):
    family = "dt"
    nested_axis = "max_depth"

    def __init__(self, root: TreeNode, n_features: int, threshold: float):
        self.root = root
        self.n_features = n_features
        self.threshold = threshold

    def raw_scores(self, X):
        return tree_apply(self.root, self._check_matrix(X), "prob")

    def _probabilities_of(self, raw):
        return raw

    def truncate(self, k: int) -> "DecisionTreeModel":
        """The tree cut at depth k. Growth above depth k does not read
        max_depth, so this is the tree a fit with max_depth=k grows."""
        return DecisionTreeModel(cut_tree(self.root, k), self.n_features, self.threshold)

    def feature_importances(self) -> np.ndarray:
        return normalized_importance(tree_importance(self.root, self.n_features))

    def to_dict(self) -> dict:
        return {
            "root": self.root.to_dict(),
            "n_features": self.n_features,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeModel":
        return cls(TreeNode.from_dict(d["root"]), d["n_features"], d["threshold"])


def train_decision_tree(X, y, params: DecisionTreeParams = DecisionTreeParams()) -> DecisionTreeModel:
    X, y = check_training_data(X, y)
    root = build_tree(
        X,
        y,
        max_depth=params.max_depth,
        min_instances=params.min_instances_per_node,
        task="gini",
    )
    return DecisionTreeModel(root, X.shape[1], params.threshold)
