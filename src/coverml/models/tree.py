"""CART decision trees on Gini or squared-error impurity.

Candidate thresholds are midpoints between consecutive distinct sorted
values. The best split maximizes weighted impurity decrease with ties broken
by lower feature index, then lower threshold; zero-decrease splits are
accepted so interaction-only structure (an XOR of two columns) is still
reachable within the depth budget. Growth stops at max_depth, on a pure
node, or when a node holds fewer than min_instances_per_node rows.
max_depth lies in [1, MAX_DEPTH], the range Spark ML accepts.

Trees grow in steps, each scoring a batch of nodes in one call of the batch
kernels (`grow_trees`): every open node of a tree when its splits draw
nothing (DT, GBT), so one depth level per step; otherwise the next
depth-first nodes of each tree of a group (RF), so the trees grow in
lockstep while each tree's generator draws its feature subsets in the order
a recursive build would. Nodes are collected flat and turned into TreeNodes
once at the end.
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
    subset of that many features drawn from `rng`, in depth-first order, so
    the tree is a pure function of the generator's seed. `grow_trees` has
    the method.
    """
    values = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)[:, None]
    return grow_trees(
        values,
        presort(values),
        np.asarray(y)[None],
        max_depth=max_depth,
        min_instances=min_instances,
        task=task,
        n_subset_features=n_subset_features,
        rngs=None if rng is None else [rng],
    )[0][0]


def presort(values: np.ndarray) -> np.ndarray:
    """The order matrix of G samples of n rows, given their feature-major
    values `values[f, t, r]` (feature f of sample t's row r).

    Sample t's row r is row t * n + r of the group. The (d + 1, G * n)
    result holds compact indices: row f lists each sample's rows sorted
    stably by feature f (ties in row order), and row d lists them in row
    order. These are the presorted attribute lists of SLIQ and SPRINT, with
    one more list that keeps each node's rows ascending.
    """
    d, g, n = values.shape
    index_type = np.int32 if g * n <= np.iinfo(np.int32).max else np.intp
    order = np.empty((d + 1, g * n), dtype=index_type)
    first = (np.arange(g) * n)[:, None]
    for f in range(d):
        order[f] = (np.argsort(values[f], axis=1, kind="stable") + first).reshape(-1)
    order[d] = np.arange(g * n)
    return order


def grow_trees(
    values: np.ndarray,
    order: np.ndarray,
    targets: np.ndarray,
    *,
    max_depth: int,
    min_instances: int = 1,
    task: str = "gini",
    n_subset_features: int | None = None,
    rngs: list[np.random.Generator] | None = None,
) -> tuple[list[TreeNode], np.ndarray]:
    """Grow one tree on each of G samples of n rows: `values` (d, G, n) as
    `presort` takes them, `order` from `presort`, and `targets` (G, n).
    Returns the trees and, for each of the G * n rows, the statistic of the
    leaf it falls in (the class-1 count for "gini", the mean for "sse").

    A node is a segment of `order`'s columns: row f of the segment holds the
    node's rows sorted by feature f, and row d holds them ascending. Growth
    runs in steps. A step scores a batch of open nodes with the batch
    kernels, then sends the rows of each split node left or right, records
    the children and their statistics, and partitions the segment of each
    node whose children will be scored in place into the two children's
    segments. Every part of a step (the gather into the kernel input, the
    split choice, the children's statistics and stopping checks, the
    partition) is a fixed number of numpy calls over the concatenated
    segments, repeated only when a batch exceeds the cell caps below, so the
    number of calls does not grow with the number of nodes. Only a draw of
    features and a regression node's mean (np.mean, whose pairwise sum a
    segmented sum does not reproduce) are per node.

    Two schedules choose a step's batch. Trees that draw nothing take every
    open node, so a tree grows one depth level per step. Trees that draw a
    feature subset per split (`n_subset_features` below the feature count)
    take the next node of each tree in depth-first order, and the ones after
    it while those have no children to score (their depth is max_depth - 1):
    each tree keeps its own stack, and its generator draws in the order a
    recursive build would, so the trees of a group grow in lockstep and each
    is the tree it would be if grown alone. (A tree's subsets cannot be
    drawn level by level: which node gets the next draw depends on the
    splits before it.)

    No kernel call holds more than d × n cells, the root call of one tree: a
    larger batch is split into several calls, largest nodes first, and a
    call pads each node to its longest (a node that would add more than
    _PADDING_CELLS of padding starts the next call). A partition copies at
    most 4 × d × n order cells at a time, as many bytes as a kernel call's
    two inputs.

    The growth partitions `order` in place.
    """
    if task not in ("gini", "sse"):
        raise ValueError(f"unknown task {task!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    g, n = np.shape(targets)
    d = values.shape[0]
    size = g * n
    draws = n_subset_features is not None and n_subset_features < d
    if n_subset_features is not None and rngs is None:
        raise ValueError("feature subsetting requires an rng")
    k = n_subset_features if draws else d
    X = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)  # X[f * size + row]
    y = np.ascontiguousarray(targets, dtype=np.float64).reshape(-1)
    flat_order = order.reshape(-1)
    goes_left = np.empty(size, dtype=bool)
    cap = d * n  # cells of one tree's root call

    nodes = _Nodes(g * min(2 * n - 1, 2 ** (max_depth + 1) - 1))
    nodes.add(np.arange(g), np.arange(g) * n, np.full(g, n), np.zeros(g, dtype=np.intp))
    node_of_row = np.arange(g).repeat(n)
    pool = nodes.open(0, y, task, max_depth, min_instances).nonzero()[0]
    every_feature = np.broadcast_to(np.arange(d), (nodes.tree.size, d))
    while pool.size:
        if draws:
            # A tree's stack is its entries of the pool in push order. A
            # recursive build scores the top next; a node at depth
            # max_depth - 1 has only leaves below it and pushes nothing, so
            # the entry under it comes next, and so on. A step takes each
            # tree's stack from the top down to the first entry not at depth
            # max_depth - 1, inclusive.
            pool = pool[nodes.tree.take(pool).argsort(kind="stable")]
            trees = nodes.tree.take(pool)
            first = np.empty(pool.size, dtype=bool)
            first[0] = True
            np.not_equal(trees[1:], trees[:-1], out=first[1:])
            starts = first.nonzero()[0]
            at = np.arange(pool.size)
            pushes = nodes.depth.take(pool) != max_depth - 1
            lowest = np.maximum.reduceat(np.where(pushes, at, -1), starts)
            taken = at >= lowest.repeat(np.diff(starts, append=pool.size))
            # From the top of each stack down: the order of the draws.
            batch, pool = pool[taken][::-1], pool[~taken]
            feats = np.array([rngs[t].choice(d, size=k, replace=False) for t in nodes.tree.take(batch).tolist()])
            feats.sort(axis=1)
        else:
            batch, pool = pool, pool[:0]
            feats = every_feature[: batch.size]
        pos, thr, dec = _score(kernel, X, y, flat_order, size, nodes, batch, feats, cap)
        split = pos >= 0
        parents, thr, dec = batch[split], thr[split], dec[split]
        feature = feats[split, pos[split]]
        nodes.feature[parents], nodes.threshold[parents], nodes.decrease[parents] = feature, thr, dec

        # Send each row of a split node left or right. The children are
        # added lefts first, then rights, each with its rows ascending.
        start, count = nodes.start.take(parents), nodes.count.take(parents)
        cols = _ranges(start, count)
        rows = order[d].take(cols)
        left = X.take(rows + (feature * size).repeat(count)) <= thr.repeat(count)
        n_left = np.add.reduceat(left, count.cumsum() - count, dtype=np.intp) if rows.size else count
        tree, depth = nodes.tree.take(parents), nodes.depth.take(parents) + 1
        kid_count = np.concatenate([n_left, count - n_left])
        first = nodes.add(
            np.concatenate([tree, tree]),
            np.concatenate([start, start + n_left]),
            kid_count,
            np.concatenate([depth, depth]),
        )
        kids = np.arange(first, nodes.used)
        nodes.left[parents], nodes.right[parents] = kids.reshape(2, -1)
        kid_rows = np.concatenate([rows.compress(left), rows.compress(~left)])
        node_of_row[kid_rows] = kids.repeat(kid_count)
        scorable = nodes.open(first, y.take(kid_rows), task, max_depth, min_instances).reshape(2, -1)

        # Partition the segments of the nodes whose children will be scored.
        goes_left[rows] = left
        moved = scorable[0] | scorable[1]
        _partition(order, goes_left, start[moved], count[moved], n_left[moved], 4 * cap)

        # Right before left, so that a stack pops the left child first.
        pool = np.concatenate([pool, kids.reshape(2, -1)[::-1].T[scorable[::-1].T]])
    return nodes.trees(g, task), nodes.stat.take(node_of_row)


class _Nodes:
    """Flat node records of a group of trees; children get larger ids than
    their parents, and tree t's root has id t."""

    def __init__(self, capacity: int):
        self.used = 0
        self.tree = np.empty(capacity, dtype=np.intp)
        self.start = np.empty(capacity, dtype=np.intp)
        self.count = np.empty(capacity, dtype=np.intp)
        self.depth = np.empty(capacity, dtype=np.intp)
        self.stat = np.empty(capacity, dtype=np.float64)
        self.feature = np.full(capacity, -1, dtype=np.intp)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.decrease = np.zeros(capacity, dtype=np.float64)
        self.left = np.zeros(capacity, dtype=np.intp)
        self.right = np.zeros(capacity, dtype=np.intp)

    def add(self, tree, start, count, depth) -> int:
        """Append nodes and return the id of the first."""
        first = self.used
        self.used += len(tree)
        new = slice(first, self.used)
        self.tree[new], self.start[new], self.count[new], self.depth[new] = tree, start, count, depth
        return first

    def open(self, first: int, target: np.ndarray, task: str, max_depth: int, min_instances: int) -> np.ndarray:
        """Record the statistics of the nodes from id `first` on, whose
        targets `target` holds node after node, each in ascending row order;
        return which of them are to be scored: not at max_depth, not below
        min_instances rows, not pure."""
        new = slice(first, self.used)
        count = self.count[new]
        offsets = count.cumsum() - count
        if task == "gini":
            c1 = np.add.reduceat(target, offsets)
            pure = (c1 == 0) | (c1 == count)
        else:
            # np.mean is np.add.reduce (a pairwise sum) divided by the count,
            # which a segmented sum does not reproduce; so it is per node.
            c1 = np.array([np.add.reduce(target[a : a + m]) for a, m in zip(offsets.tolist(), count.tolist())])
            c1 /= count
            pure = np.minimum.reduceat(target, offsets) == np.maximum.reduceat(target, offsets)
        self.stat[new] = c1
        return (self.depth[new] < max_depth) & (count >= min_instances) & ~pure

    def trees(self, g: int, task: str) -> list[TreeNode]:
        """TreeNode roots of the g trees, built bottom-up."""
        used = slice(0, self.used)
        count, stat, feature = self.count[used].tolist(), self.stat[used].tolist(), self.feature[used].tolist()
        threshold, decrease = self.threshold[used].tolist(), self.decrease[used].tolist()
        left, right = self.left[used].tolist(), self.right[used].tolist()
        built: list[TreeNode] = [None] * self.used  # type: ignore[list-item]
        for i in range(self.used - 1, -1, -1):
            m, f = count[i], feature[i]
            if task == "gini":
                c1 = int(stat[i])
                counts, prob, value = (m - c1, c1), c1 / m, None
            else:
                counts, prob, value = None, None, stat[i]
            if f < 0:
                built[i] = TreeNode(m, -1, 0.0, 0.0, None, None, counts, prob, value)
            else:
                kids = built[left[i]], built[right[i]]
                built[i] = TreeNode(m, f, threshold[i], decrease[i], *kids, counts, prob, value)
        return built[:g]


#: Padded cells that cost about as much to evaluate as a kernel call's fixed
#: numpy overhead; a node that would add more padding starts a new call.
_PADDING_CELLS = 1 << 12


def _score(kernel, X, y, flat_order, size, nodes, batch, feats, cap):
    """(position in feats, threshold, decrease) of each node of `batch`, in
    kernel calls of at most `cap` cells. Nodes go largest first; a call pads
    every node to its longest with the node's last row."""
    count = nodes.count[batch]
    start = nodes.start[batch]
    k = feats.shape[1]
    pos = np.empty(batch.size, dtype=np.intp)
    thr = np.empty(batch.size)
    dec = np.empty(batch.size)
    by_size = (-count).argsort(kind="stable")
    negated = -count[by_size]
    i = 0
    while i < batch.size:
        m = int(count[by_size[i]])
        # Stop where the cap is reached or a node would add more padding
        # than a call costs.
        shorter = int(negated.searchsorted(_PADDING_CELLS // k - m, side="right"))
        call = by_size[i : max(i + 1, min(i + cap // (m * k), shorter))]
        i += call.size
        c = count[call]
        cols = start[call, None] + np.minimum(np.arange(m), c[:, None] - 1)
        f = feats[call, :, None] * size
        rows = flat_order.take(f + cols[:, None, :])
        xs = X.take(rows + f).reshape(-1, m)
        ys = y.take(rows).reshape(-1, m)
        pos[call], thr[call], dec[call] = kernel(xs.T, ys.T, c)
    return pos, thr, dec


def _partition(order, goes_left, start, count, n_left, cap):
    """Partition each node's segment of `order` in place: in every row, the
    node's rows that go left first, then the others, each in the order they
    had. The filter is stable, so each child keeps, per feature, the order a
    stable argsort of its own rows gives. Nodes go in consecutive groups of
    at most `cap` cells; a larger node goes alone."""
    rows = order.shape[0]
    ends = count.cumsum() * rows
    i = 0
    while i < count.size:
        j = max(i + 1, int(ends.searchsorted((ends[i - 1] if i else 0) + cap, side="right")))
        if j == i + 1:  # one node: its segment and its children's are slices
            a, b, cut = int(start[i]), int(start[i] + count[i]), int(start[i] + n_left[i])
            segment, left, right = order[:, a:b], slice(a, cut), slice(cut, b)
        else:
            s, c, nl = start[i:j], count[i:j], n_left[i:j]
            segment = order.take(_ranges(s, c), axis=1)
            left, right = _ranges(s, nl), _ranges(s + nl, c - nl)
        mask = goes_left.take(segment).reshape(-1)
        # Both halves are copied out before either is written back.
        halves = segment.compress(mask), segment.compress(~mask)
        order[:, left], order[:, right] = (h.reshape(rows, -1) for h in halves)
        i = j


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) over the pairs (s, l)."""
    ends = length.cumsum()
    return (start - ends + length).repeat(length) + np.arange(ends[-1] if ends.size else 0)


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
