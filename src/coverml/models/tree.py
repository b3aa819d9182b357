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

    When `n_subset_features` is set, each split considers a fresh random
    subset of that many features drawn from `rng` (depth-first order, so the
    tree is a pure function of the generator's seed).
    """
    if task not in ("gini", "sse"):
        raise ValueError(f"unknown task {task!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    X = np.ascontiguousarray(X, dtype=np.float64)
    yf = np.ascontiguousarray(y, dtype=np.float64)
    n, d = X.shape
    if n_subset_features is not None and rng is None:
        raise ValueError("feature subsetting requires an rng")

    def stats(idx: np.ndarray) -> dict:
        if task == "gini":
            c1 = int(yf[idx].sum())
            counts = (idx.size - c1, c1)
            return {"class_counts": counts, "prob": c1 / idx.size}
        return {"value": float(yf[idx].mean())}

    def is_pure(idx: np.ndarray) -> bool:
        col = yf[idx]
        return bool((col == col[0]).all())

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        leaf = TreeNode(n_samples=idx.size, **stats(idx))
        if depth >= max_depth or idx.size < min_instances or is_pure(idx):
            return leaf
        if n_subset_features is None or n_subset_features >= d:
            feats = range(d)
        else:
            feats = np.sort(rng.choice(d, size=n_subset_features, replace=False))
        best_f, best_thr, best_dec = -1, 0.0, float("-inf")
        target = np.ascontiguousarray(yf[idx])
        for f in feats:
            x = np.ascontiguousarray(X[idx, f])
            order = np.argsort(x, kind="stable")
            thr, dec = kernel(np.ascontiguousarray(x[order]), np.ascontiguousarray(target[order]))
            if dec > best_dec:
                best_f, best_thr, best_dec = int(f), thr, dec
        if best_f < 0:
            return leaf
        mask = X[idx, best_f] <= best_thr
        return replace(
            leaf,
            feature=best_f,
            threshold=best_thr,
            decrease=best_dec,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )

    return grow(np.arange(n), 0)


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

    def __init__(self, root: TreeNode, n_features: int, threshold: float):
        self.root = root
        self.n_features = n_features
        self.threshold = threshold

    def raw_scores(self, X):
        return tree_apply(self.root, self._check_matrix(X), "prob")

    def _probabilities_of(self, raw):
        return raw

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
