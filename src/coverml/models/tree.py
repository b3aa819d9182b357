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
a recursive build would. Nodes are collected flat and each tree is cut from
them as a `Tree` of node arrays, the form every later step reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import kernels
from .base import TrainedClassifier, check_training_data, finite_number, positive_int

MAX_DEPTH = 30


def check_max_depth(max_depth: int) -> None:
    if not 1 <= max_depth <= MAX_DEPTH:
        raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH}], got {max_depth}")


@dataclass(frozen=True, eq=False)
class Tree:
    """One CART tree as flat node arrays, as in scikit-learn's Tree. Node 0
    is the root; a child has a larger id than its parent. Node i holds n[i]
    rows, whose class-1 count (task "gini") or mean target ("sse") is
    stat[i]. A split sends x[feature[i]] <= threshold[i] to left[i] and the
    rest to right[i]; a leaf has feature, left and right -1."""

    task: str
    n: np.ndarray
    stat: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    decrease: np.ndarray
    left: np.ndarray
    right: np.ndarray
    depth: np.ndarray

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """Each row's leaf output (class-1 probability or mean), the rows
        given feature-major: `columns` is X.T, C-contiguous."""
        value = (self.stat / self.n if self.task == "gini" else self.stat).tolist()
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        out = np.empty(columns.shape[1], dtype=np.float64)
        stack = [(0, np.arange(columns.shape[1]))]
        while stack:
            i, rows = stack.pop()
            if feature[i] < 0:
                out[rows] = value[i]
            elif rows.size:
                mask = columns[feature[i]].take(rows) <= threshold[i]
                stack += ((left[i], rows.compress(mask)), (right[i], rows.compress(~mask)))
        return out

    def cut(self, depth: int) -> "Tree":
        """This tree with its nodes `depth` levels down made leaves."""
        leaf = self.depth >= depth
        feature, left, right = (np.where(leaf, -1, a) for a in (self.feature, self.left, self.right))
        return Tree(self.task, self.n, self.stat, feature, self.threshold, self.decrease, left, right, self.depth)

    def importance(self, n_features: int) -> np.ndarray:
        """n * impurity decrease summed per feature, in pre-order with the
        right child first: the order fixes the sums' last bits."""
        imp = np.zeros(n_features, dtype=np.float64)
        gain = (self.n * np.maximum(self.decrease, 0.0)).tolist()
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        stack = [0]
        while stack:
            i = stack.pop()
            if feature[i] >= 0:
                imp[feature[i]] += gain[i]
                stack += (left[i], right[i])
        return imp

    def to_dict(self) -> dict:
        """Nested nodes: n; counts and prob ("gini") or value ("sse"); and at
        a split, feature, threshold, decrease, left and right."""
        columns = tuple(
            a.tolist() for a in (self.n, self.stat, self.feature, self.threshold, self.decrease, self.left, self.right)
        )
        return _node_dict(0, self.task, columns)

    @classmethod
    def from_dict(cls, root: dict, task: str, n_features: int) -> "Tree":
        """The tree `to_dict` wrote, its nodes numbered in pre-order. Raises
        ValueError on a node that `to_dict` does not write: one deeper than
        MAX_DEPTH, a feature outside [0, n_features), a split without both
        children, counts or prob that disagree with n, or a threshold,
        decrease or value that is not a number."""
        nodes = []  # n, stat, feature, threshold, decrease, left, right, depth
        _read_node(root, 0, task, n_features, nodes)
        # Leaves' 0.0 thresholds and decreases make those columns float64.
        return cls(task, *(np.asarray(column) for column in zip(*nodes)))


def _node_dict(i: int, task: str, columns: tuple) -> dict:
    """Node `i` and its subtree as `Tree.to_dict` writes them. A module-level
    function, not a closure, so a save leaves no reference cycle holding the
    column lists."""
    n, stat, feature, threshold, decrease, left, right = columns
    if task == "gini":
        c1 = int(stat[i])
        d = {"n": n[i], "counts": [n[i] - c1, c1], "prob": c1 / n[i]}
    else:
        d = {"n": n[i], "value": stat[i]}
    if feature[i] >= 0:
        d.update(feature=feature[i], threshold=threshold[i], decrease=decrease[i])
        d.update(left=_node_dict(left[i], task, columns), right=_node_dict(right[i], task, columns))
    return d


def _read_node(d: dict, depth: int, task: str, n_features: int, nodes: list) -> int:
    """Append the node `d` and, in pre-order, its subtree to `nodes`; returns
    the node's index. A module-level function, not a closure, so a load
    leaves no reference cycle holding the decoded nodes."""
    if depth > MAX_DEPTH:
        raise ValueError(f"tree deeper than {MAX_DEPTH} levels")
    n = _whole(d["n"], 1, np.inf)
    if task == "gini":
        stat = _whole(d["counts"][1], 0, n + 1)
        if d["counts"] != [n - stat, stat] or _number(d["prob"]) != stat / n:
            raise ValueError(f"tree node counts {d['counts']!r} and prob {d['prob']!r} disagree with n={n}")
    else:
        stat = _number(d["value"])
    i = len(nodes)
    nodes.append([n, float(stat), -1, 0.0, 0.0, -1, -1, depth])
    if "feature" in d:
        if not (isinstance(d.get("left"), dict) and isinstance(d.get("right"), dict)):
            raise ValueError("tree split without both children")
        nodes[i][2:5] = _whole(d["feature"], 0, n_features), _number(d["threshold"]), _number(d["decrease"])
        nodes[i][5:7] = (_read_node(d["left"], depth + 1, task, n_features, nodes),
                         _read_node(d["right"], depth + 1, task, n_features, nodes))
    return i


def _whole(x, low, high) -> int:
    """x if it is an int in [low, high); ValueError otherwise."""
    if isinstance(x, bool) or not isinstance(x, int) or not low <= x < high:
        raise ValueError(f"tree node holds {x!r} where an integer in [{low}, {high}) belongs")
    return x


def _number(x) -> float:
    """x if it is a number; ValueError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"tree node holds {x!r} where a number belongs")
    return x


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_instances: int = 1,
    task: str = "gini",
    n_subset_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> dict:
    """Grow one CART tree and return its nested `Tree.to_dict` form; `task`
    is "gini" (y in {0,1}) or "sse" (real y).

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
    )[0][0].to_dict()


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
) -> tuple[list[Tree], np.ndarray]:
    """Grow one tree on each of G samples of n rows: `values` (d, G, n) as
    `presort` takes them, `order` from `presort`, and `targets` (G, n).
    Returns the G trees and, for each of the G * n rows, the statistic of the
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

    # Each tree's ids ascending (its root first); `local` renumbers the
    # children, and its last entry keeps a leaf's -1.
    tree = nodes.tree[: nodes.used]
    local = np.full(nodes.used + 1, -1)
    grown = []
    for ids in np.split(tree.argsort(kind="stable"), np.bincount(tree, minlength=g).cumsum()[:-1]):
        local[ids] = np.arange(ids.size)
        stats = (a[ids] for a in (nodes.count, nodes.stat, nodes.feature, nodes.threshold, nodes.decrease))
        grown.append(Tree(task, *stats, local.take(nodes.left[ids]), local.take(nodes.right[ids]), nodes.depth[ids]))
    return grown, nodes.stat.take(node_of_row)


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
        self.left = np.full(capacity, -1, dtype=np.intp)
        self.right = np.full(capacity, -1, dtype=np.intp)

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

    def __init__(self, tree: Tree, n_features: int, threshold: float):
        self.tree = tree
        self.n_features = n_features
        self.threshold = threshold

    def raw_scores(self, X):
        return self.tree.apply(self._check_matrix(X).T.copy())

    def _probabilities_of(self, raw):
        return raw

    def truncate(self, k: int) -> "DecisionTreeModel":
        """The tree cut at depth k. Growth above depth k does not read
        max_depth, so this is the tree a fit with max_depth=k grows."""
        return DecisionTreeModel(self.tree.cut(k), self.n_features, self.threshold)

    def feature_importances(self) -> np.ndarray:
        return normalized_importance(self.tree.importance(self.n_features))

    def to_dict(self) -> dict:
        return {
            "root": self.tree.to_dict(),
            "n_features": self.n_features,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTreeModel":
        n_features = positive_int(d["n_features"], "n_features")
        threshold = finite_number(d["threshold"], "threshold")
        return cls(Tree.from_dict(d["root"], "gini", n_features), n_features, threshold)


def train_decision_tree(X, y, params: DecisionTreeParams = DecisionTreeParams()) -> DecisionTreeModel:
    X, y = check_training_data(X, y)
    values = np.ascontiguousarray(X.T)[:, None]
    (tree,), _ = grow_trees(
        values,
        presort(values),
        y[None],
        max_depth=params.max_depth,
        min_instances=params.min_instances_per_node,
        task="gini",
    )
    return DecisionTreeModel(tree, X.shape[1], params.threshold)
