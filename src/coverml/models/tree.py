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
lockstep while each tree takes its feature subsets (`FeatureDraws`) in the
order a recursive build would. One growth call grows the trees of samples
of different sizes, such as the cross-validation folds and the refit that
`train_decision_trees` and the forest and boosting batch trainers take at
once. Nodes are collected flat and each tree is cut from them as a `Tree`
of node arrays, the form every later step reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .. import kernels
from ..fields import finite
from .base import Count, ModelError, Params, Probability, TrainedClassifier, check_training_data, per_sample

MAX_DEPTH = 30
#: The `max_depth` of the tree families.
Depth = Annotated[int, f"[1, {MAX_DEPTH}]"]

#: Sample cells (rows × features) up to which the samples of different fits
#: (the folds of a cross-validation and its refit) grow in one `grow_trees`
#: call. Growth steps cost a fixed number of numpy calls, which a batch of
#: small samples shares; a batch of large ones gains little and holds
#: several times the arrays of one fit.
BATCH_CELLS = 1 << 17


def lockstep_groups(shapes: list[tuple[int, int]], budget: int) -> list[list[int]]:
    """The indices of the samples of (rows, features) `shapes` in groups to
    grow together: the samples of a group have one feature count and keep
    their order, and a group holds at most `budget` cells unless one sample
    alone holds more. The samples of a feature count go in as few groups as
    the budget allows, of about equal cells, since a group takes as many
    growth steps as its largest tree however few trees it holds."""
    by_width: dict[int, list[int]] = {}
    for i, (_, d) in enumerate(shapes):
        by_width.setdefault(d, []).append(i)
    groups = []
    for d, members in by_width.items():
        left = sum(shapes[i][0] for i in members) * d
        count = max(1, -(-left // max(budget, 1)))
        group, cells = [], 0
        for i in members:
            c = shapes[i][0] * d
            # Close the group at the boundary nearest its share of the cells.
            if group and (cells + c > budget or 2 * (cells + c) - c > 2 * left / count):
                groups.append(group)
                left -= cells
                count = max(1, count - 1)
                group, cells = [], 0
            group.append(i)
            cells += c
        groups.append(group)
    return groups


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

    def cut(self, depth: int) -> "Tree":
        """This tree with its nodes `depth` levels down made leaves."""
        leaf = self.depth >= depth
        feature, left, right = (np.where(leaf, -1, a) for a in (self.feature, self.left, self.right))
        return Tree(self.task, self.n, self.stat, feature, self.threshold, self.decrease, left, right, self.depth)

    def importance(self, n_features: int) -> np.ndarray:
        """n * impurity decrease summed per feature, in pre-order with the
        right child first: the order fixes the sums' last bits. A product
        too large for a float is inf, without a warning."""
        imp = np.zeros(n_features, dtype=np.float64)
        gain = [n * max(dec, 0.0) for n, dec in zip(self.n.tolist(), self.decrease.tolist())]
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
        decrease or value that is not a finite number."""
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
    """x if it is a finite number; ValueError otherwise."""
    if not finite(x):
        raise ValueError(f"tree node holds {x!r} where a finite number belongs")
    return x


#: Cells (trees × rows) of a block of `tree_outputs`: its node array, each
#: array a level derives from it and its outputs hold that many entries.
WALK_CELLS = 1 << 15


def tree_outputs(trees, X: np.ndarray):
    """Walk the rows of X (n, d), C-contiguous, down all `trees` at once,
    one level per step, and yield each block of rows as (rows, outputs):
    `rows` a slice of X's rows and `outputs` the (len(trees), rows) outputs
    (class-1 probability or mean) of the leaf each row reaches.

    All trees' nodes go in one table in which a leaf's children are the leaf
    itself, so a step moves every (tree, row) entry of the node array with
    child[2 * node + (x <= threshold)]: left when x <= threshold, right
    otherwise, a NaN included. A block holds at most WALK_CELLS cells of the
    node array, so memory does not grow with n.
    """
    sizes = [tree.n.size for tree in trees]
    starts = np.cumsum(sizes) - sizes
    base = np.repeat(starts, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature < 0
    own = np.arange(base.size)
    left = np.where(leaf, own, np.concatenate([tree.left for tree in trees]) + base)
    right = np.where(leaf, own, np.concatenate([tree.right for tree in trees]) + base)
    child = np.stack([right, left], axis=1).reshape(-1)
    threshold = np.concatenate([tree.threshold for tree in trees])
    value = np.concatenate([tree.stat / tree.n if tree.task == "gini" else tree.stat for tree in trees])
    # A cut tree keeps its depths, so the walk ends below its last split.
    levels = max((int(tree.depth[tree.feature >= 0].max(initial=-1)) + 1 for tree in trees), default=0)
    feature = np.where(leaf, 0, feature)

    n, d = X.shape
    flat = X.reshape(-1)
    block = max(1, WALK_CELLS // len(trees))
    for a in range(0, n, block):
        rows = slice(a, min(n, a + block))
        row_start = np.arange(rows.start, rows.stop) * d
        node = np.repeat(starts[:, None], rows.stop - rows.start, axis=1)
        for _ in range(levels):
            x = flat.take(feature.take(node) + row_start)
            node = child.take(2 * node + (x <= threshold.take(node)))
        yield rows, value.take(node)


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_depth: int,
    min_instances: int = 1,
    task: str = "gini",
) -> dict:
    """Grow one CART tree on every feature and return its nested
    `Tree.to_dict` form; `task` is "gini" (y in {0,1}) or "sse" (real y).
    `grow_trees` has the method."""
    values = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    (tree,), _ = grow_trees(
        values,
        [presort(values)],
        np.asarray(y),
        [0],
        max_depth=max_depth,
        min_instances=min_instances,
        task=task,
    )
    return tree.to_dict()


def presort(values: np.ndarray) -> np.ndarray:
    """The presorted attribute lists of SLIQ and SPRINT for one sample's
    feature-major values (`values[f, r]` is feature f of row r): row f of
    the (d, n) result lists the rows sorted stably by feature f, ties in
    row order."""
    index_type = np.int32 if values.shape[1] <= np.iinfo(np.int32).max else np.intp
    return values.argsort(axis=1, kind="stable").astype(index_type, copy=False)


def grow_trees(
    values: np.ndarray,
    orders: list[np.ndarray],
    targets: np.ndarray,
    tree_samples,
    *,
    counts: list[np.ndarray] | None = None,
    max_depth: int,
    min_instances: int = 1,
    task: str = "gini",
    draws: FeatureDraws | None = None,
) -> tuple[list[Tree], np.ndarray]:
    """Grow T trees on S samples: `values` (d, N) holds the samples' rows
    one after another as `presort` takes them, `orders` their S presorts and
    `targets` (N,) their targets, and tree t grows on sample
    `tree_samples[t]`. Returns the T trees and each slot's (below) leaf
    statistic: the class-1 count for "gini", the mean for "sse". With
    `draws` (a `FeatureDraws` of the T trees), each split considers a
    feature subset from it; without, every feature.

    `counts` (None: every row once) gives, per tree, how often it takes each
    row of its sample, whole numbers, as a bootstrap sample holds a row
    drawn that often ("gini" only). A tree's slots are the rows it takes,
    ascending, and a slot of count c counts as c equal rows: a node's n,
    class-1 count, min_instances and purity use the weighted counts and the
    kernel reads the counts at its cuts as cumulative weights, so each tree
    is, bit for bit, the one grown on the sample with each row repeated
    that often. The trees share their samples' values and presorts
    (`_layout`).

    A node is a segment of a working order matrix's columns: row f of the
    segment holds the node's slots sorted by feature f, and row d holds them
    ascending. Growth runs in steps. A step scores a batch of open nodes
    with the batch kernels, then sends the slots of each split node left or
    right, records the children and their statistics, and partitions the
    segment of each node whose children will be scored into the two
    children's segments. Every part of a step (the gather into the kernel
    input, the split choice, the children's statistics and stopping checks,
    the partition, the feature draws) is a fixed number of numpy calls over
    the concatenated segments, repeated only when a batch exceeds the cell
    caps below, so the number of calls does not grow with the number of
    nodes or trees. Only a regression node's mean (np.mean, whose pairwise
    sum a segmented sum does not reproduce) is per node.

    Two schedules choose a step's batch. Trees that draw nothing take every
    open node, so a tree grows one depth level per step. Trees that draw a
    feature subset per split take the next node of each tree in depth-first
    order, and the ones after it while those have no children to score
    (their depth is max_depth - 1): each tree keeps its own stack and takes
    its subsets in the order a recursive build would, so the trees of a
    group grow in lockstep and each is the tree it would be if grown alone.
    (A tree's subsets cannot be taken level by level: which node gets the
    next subset depends on the splits before it.)

    No kernel call holds more than d × n cells, n the largest tree's slots:
    the root call of that tree. A larger batch is split into several calls,
    largest nodes first, and a call pads each node to its longest (a node
    that would add more than _PADDING_CELLS of padding starts the next
    call). A partition copies at most 4 × d × n order cells at a time, as
    many bytes as a kernel call's two inputs. No input is written.
    """
    if task not in ("gini", "sse"):
        raise ValueError(f"unknown task {task!r}")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if counts is not None and task != "gini":
        raise ValueError("row counts apply to the gini task only")
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    d, size = values.shape
    order, columns, w, sizes = _layout(orders, tree_samples, counts)
    del counts  # growth reads `w`; counts a caller passes inline are freed here
    g = sizes.size
    X = _Reader(np.ascontiguousarray(values, dtype=np.float64).reshape(-1), size, columns)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    if columns is not None:
        y = y.take(columns)
    if w is not None:
        y = y * w  # each slot's class-1 count
    slots = order.shape[1]
    flat_order = order.reshape(-1)
    goes_left = np.empty(slots, dtype=bool)
    cap = d * int(sizes.max())  # cells of the largest tree's root call

    nodes = _Nodes(8 * g, int(np.minimum(2 * sizes - 1, 2 ** (max_depth + 1) - 1).sum()))
    nodes.add(np.arange(g), sizes.cumsum() - sizes, sizes, np.zeros(g, dtype=np.intp))
    node_of_row = np.arange(g).repeat(sizes)
    pool = nodes.open(0, y, w, task, max_depth, min_instances).nonzero()[0]
    while pool.size:
        if draws is not None:
            # A tree's stack is its entries of the pool in push order. A
            # recursive build scores the top next; a node at depth
            # max_depth - 1 has only leaves below it and pushes nothing, so
            # the entry under it comes next, and so on. A step takes each
            # tree's stack from the top down to the first entry not at depth
            # max_depth - 1, inclusive.
            pool = pool[nodes.tree.take(pool).argsort(kind="stable")]
            starts = _run_starts(nodes.tree.take(pool))
            at = np.arange(pool.size)
            pushes = nodes.depth.take(pool) != max_depth - 1
            lowest = np.maximum.reduceat(np.where(pushes, at, -1), starts)
            taken = at >= lowest.repeat(np.diff(starts, append=pool.size))
            # From the top of each stack down: the order of the draws.
            batch, pool = pool[taken][::-1], pool[~taken]
            feats = draws.take(nodes.tree.take(batch))
        else:
            batch, pool = pool, pool[:0]
            feats = np.broadcast_to(np.arange(d), (batch.size, d))
        pos, thr, dec = _score(kernel, X, y, w, flat_order, slots, nodes, batch, feats, cap)
        split = pos >= 0
        parents, thr, dec = batch[split], thr[split], dec[split]
        feature = feats[split, pos[split]]
        nodes.feature[parents], nodes.threshold[parents], nodes.decrease[parents] = feature, thr, dec

        # Send each row of a split node left or right. The children are
        # added lefts first, then rights, each with its rows ascending.
        start, count = nodes.start.take(parents), nodes.count.take(parents)
        cols = _ranges(start, count)
        rows = order[d].take(cols)
        left = X.at(rows, feature.repeat(count)) <= thr.repeat(count)
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
        kid_weights = None if w is None else w.take(kid_rows)
        scorable = nodes.open(first, y.take(kid_rows), kid_weights, task, max_depth, min_instances).reshape(2, -1)

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
        stats = (a[ids] for a in (nodes.n, nodes.stat, nodes.feature, nodes.threshold, nodes.decrease))
        grown.append(Tree(task, *stats, local.take(nodes.left[ids]), local.take(nodes.right[ids]), nodes.depth[ids]))
    return grown, nodes.stat.take(node_of_row)


def _layout(orders: list[np.ndarray], tree_samples, counts):
    """The working order of `grow_trees`: (order, columns, weights, sizes).
    A tree's slots are the rows of its sample it takes, ascending; the
    trees' slots follow one another, `sizes` of each. Row f of the (d + 1,
    slots) order lists each tree's slots sorted stably by feature f (its
    sample's presort row f with the rows it does not take removed; the
    filter keeps the order of the rest), and row d lists them ascending.
    `columns` maps a slot to its column of the values, None where slots are
    those columns (each sample has one tree and takes every row);
    `weights` holds each slot's count, None without `counts`."""
    n = np.array([o.shape[1] for o in orders], dtype=np.intp)
    starts = n.cumsum() - n
    samples = np.asarray(tree_samples, dtype=np.intp)
    taken = None if counts is None else [c > 0 for c in counts]
    sizes = n[samples] if taken is None else np.array([np.count_nonzero(k) for k in taken], dtype=np.intp)
    d, total = orders[0].shape[0], int(sizes.sum())
    order = np.empty((d + 1, total), dtype=np.int32 if total <= np.iinfo(np.int32).max else np.intp)
    order[d] = np.arange(total)
    direct = taken is None and np.array_equal(samples, np.arange(len(orders)))
    columns = None if direct else np.empty(total, dtype=np.intp)
    at = 0
    # Consecutive trees of one sample are laid out at once.
    for run in np.split(np.arange(samples.size), np.flatnonzero(np.diff(samples)) + 1):
        s, m = samples[run[0]], int(sizes[run].sum())
        if taken is None:  # tree j's slots are its sample's rows, from at + j * n on
            shift = (at + n[s] * np.arange(run.size))[:, None]
            for f in range(d):
                np.add(orders[s][f], shift, out=order[f, at : at + m].reshape(run.size, n[s]))
            if not direct:
                columns[at : at + m] = np.tile(np.arange(starts[s], starts[s] + n[s]), run.size)
        else:
            keep = np.stack([taken[j] for j in run])  # (trees, rows)
            # Each taken (tree, row) pair's slot, -1 where the tree does not take the row.
            slot = np.where(keep, keep.cumsum().reshape(keep.shape) - 1 + at, -1)
            for f in range(d):
                ranked = slot.take(orders[s][f], axis=1).reshape(-1)
                order[f, at : at + m] = ranked.compress(ranked >= 0)
            columns[at : at + m] = keep.nonzero()[1] + starts[s]
        at += m
    weights = None if taken is None else np.concatenate([c.compress(k) for c, k in zip(counts, taken)]).astype(float)
    return order, columns, weights, sizes


class _Reader:
    """Reads X[f * size + c] for column c of a slot: the slot itself, or
    `columns[slot]` when slots read shared columns."""

    def __init__(self, X: np.ndarray, size: int, columns: np.ndarray | None):
        self.X, self.size, self.columns = X, size, columns

    def at(self, slots: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Feature `features` of each of `slots` (broadcast together)."""
        cols = slots if self.columns is None else self.columns.take(slots)
        return self.X.take(cols + features * self.size)


class _Nodes:
    """Flat node records of a group of trees; children get larger ids than
    their parents, and tree t's root has id t. A node's rows are `count`
    slots from `start` on, of `n` weighted rows. The arrays grow by
    doubling, up to `most` nodes."""

    #: Each record array and the value of a node that has not set it.
    _FILL = {"tree": 0, "start": 0, "count": 0, "n": 0, "depth": 0, "stat": 0.0, "feature": -1,
             "threshold": 0.0, "decrease": 0.0, "left": -1, "right": -1}

    def __init__(self, capacity: int, most: int):
        self.used, self.most = 0, most
        for name, fill in self._FILL.items():
            dtype = np.float64 if isinstance(fill, float) else np.intp
            setattr(self, name, np.full(min(capacity, most), fill, dtype=dtype))

    def add(self, tree, start, count, depth) -> int:
        """Append nodes and return the id of the first."""
        first = self.used
        self.used += len(tree)
        if self.used > self.tree.size:
            size = min(self.most, max(2 * self.tree.size, self.used))
            for name, fill in self._FILL.items():
                old = getattr(self, name)
                grown = np.full(size, fill, dtype=old.dtype)
                grown[: old.size] = old
                setattr(self, name, grown)
        new = slice(first, self.used)
        self.tree[new], self.start[new], self.count[new], self.depth[new] = tree, start, count, depth
        return first

    def open(self, first: int, target: np.ndarray, weight, task: str, max_depth: int, min_instances: int):
        """Record the statistics of the nodes from id `first` on, whose
        slots' targets (class-1 counts for "gini") `target` holds node after
        node, each in ascending slot order, and their weights `weight`
        (None: 1 each) likewise; return which of them are to be scored: not
        at max_depth, not below min_instances rows, not pure."""
        new = slice(first, self.used)
        count = self.count[new]
        offsets = count.cumsum() - count
        n = count if weight is None else np.add.reduceat(weight, offsets).astype(np.intp)
        self.n[new] = n
        if task == "gini":
            c1 = np.add.reduceat(target, offsets)
            pure = (c1 == 0) | (c1 == n)
        else:
            # np.mean is np.add.reduce (a pairwise sum) divided by the count,
            # which a segmented sum does not reproduce; so it is per node.
            c1 = np.array([np.add.reduce(target[a : a + m]) for a, m in zip(offsets.tolist(), count.tolist())])
            c1 /= count
            pure = np.minimum.reduceat(target, offsets) == np.maximum.reduceat(target, offsets)
        self.stat[new] = c1
        return (self.depth[new] < max_depth) & (n >= min_instances) & ~pure


#: Padded cells that cost about as much to evaluate as a kernel call's fixed
#: numpy overhead; a node that would add more padding starts a new call.
_PADDING_CELLS = 1 << 12


def _score(kernel, X, y, w, flat_order, slots, nodes, batch, feats, cap):
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
        f = feats[call, :, None]
        rows = flat_order.take(f * slots + cols[:, None, :])
        xs = X.at(rows, f).reshape(-1, m)
        ys = y.take(rows).reshape(-1, m)
        ws = () if w is None else (w.take(rows).reshape(-1, m).T,)
        pos[call], thr[call], dec[call] = kernel(xs.T, ys.T, c, *ws)
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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The index at which each run of equal consecutive entries of the
    nonempty `a` starts."""
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first.nonzero()[0]


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) over the pairs (s, l)."""
    ends = length.cumsum()
    return (start - ends + length).repeat(length) + np.arange(ends[-1] if ends.size else 0)


#: Subsets a tree draws ahead at a time, and the cells (subsets × features)
#: that one vectorised draw step holds.
_DRAW_BLOCK = 64
_DRAW_CELLS = 1 << 18


class FeatureDraws:
    """The feature subsets of G trees: the i-th subset that tree t takes is
    what the i-th `rngs[t].choice(d, k, replace=False)` call gives, sorted.

    `choice` draws with bounded integers, each from [0, j] for a j that
    depends only on d and k. For d <= 10,000 or k <= d // 50 it runs Floyd's
    algorithm, one draw for each j = d - k, ..., d - 1, and then shuffles
    the subset, one draw for each j = k - 1, ..., 1. One `integers(0,
    bounds)` call with those bounds (j + 1) tiled makes the draws of many
    subsets in the same order, and `_chosen` replays the algorithm on them
    for all subsets at once. The shuffle only reorders a subset, which
    sorting undoes, so its draws are consumed and not read. Outside that
    range `choice` shuffles the tail of range(d) instead, which this class
    does not replay; a forest's k = floor(sqrt(d)) is at most d // 50 for
    every d > 10,000.

    Each tree draws a block of subsets ahead of use and another when the
    block is used up, so its generator ends past the draws it used.
    """

    def __init__(self, rngs: list[np.random.Generator], d: int, k: int):
        if d > 10000 and k > d // 50:
            raise ValueError(f"choice draws {k} of {d} features by a tail shuffle, which FeatureDraws does not replay")
        self.rngs, self.d, self.k = list(rngs), d, k
        self.bounds = np.concatenate([np.arange(d - k + 1, d + 1), np.arange(k, 1, -1)])
        g = len(self.rngs)
        self.block = max(1, min(_DRAW_BLOCK, _DRAW_CELLS // (g * k)))
        self.subsets = np.empty((g, 0, k), dtype=np.intp)  # each tree's drawn subsets
        self.next = np.zeros(g, dtype=np.intp)  # each tree's first subset not taken
        self.end = np.zeros(g, dtype=np.intp)  # each tree's subsets drawn

    def take(self, trees: np.ndarray) -> np.ndarray:
        """The next subset of each tree that `trees` lists once per subset;
        a tree's entries are consecutive and get its subsets in order."""
        count = np.bincount(trees, minlength=len(self.rngs))
        short = (self.next + count > self.end).nonzero()[0]
        if short.size:
            self._refill(short, count[short])
        starts = _run_starts(trees)
        rank = np.arange(trees.size) - starts.repeat(np.diff(starts, append=trees.size))
        out = self.subsets[trees, self.next.take(trees) + rank]
        self.next += count
        return out

    def _refill(self, trees: np.ndarray, need: np.ndarray) -> None:
        """Draw subsets for `trees` until each holds a block, or its `need`
        if more, keeping the subsets it has not taken."""
        width = max(self.block, int(need.max()))
        if width > self.subsets.shape[1]:
            wider = np.empty((len(self.rngs), width, self.k), dtype=np.intp)
            wider[:, : self.subsets.shape[1]] = self.subsets
            self.subsets = wider
        kept = self.end[trees] - self.next[trees]
        fresh = np.maximum(self.block, need) - kept
        raw = [self.rngs[t].integers(0, np.tile(self.bounds, m)) for t, m in zip(trees.tolist(), fresh.tolist())]
        drawn = _chosen(np.concatenate(raw).reshape(-1, self.bounds.size), self.d, self.k)
        at = 0
        for t, keep, m in zip(trees.tolist(), kept.tolist(), fresh.tolist()):
            a = int(self.next[t])
            self.subsets[t, :keep] = self.subsets[t, a : a + keep].copy()
            self.subsets[t, keep : keep + m] = drawn[at : at + m]
            at += m
        self.next[trees] = 0
        self.end[trees] = kept + fresh


def _chosen(raw: np.ndarray, d: int, k: int) -> np.ndarray:
    """The sorted subsets that Floyd's algorithm makes of the draws `raw`,
    one row of `FeatureDraws.bounds` draws per subset, _DRAW_CELLS cells at
    a time: for j = d - k, ..., d - 1, add the draw, or j if the subset
    already holds the draw."""
    out = np.empty((raw.shape[0], k), dtype=np.intp)
    step = max(1, _DRAW_CELLS // d)
    for a in range(0, raw.shape[0], step):
        r = raw[a : a + step]
        rows = np.arange(r.shape[0])
        seen = np.zeros((r.shape[0], d), dtype=bool)
        chosen = np.empty((r.shape[0], k), dtype=np.intp)
        for t in range(k):
            v = r[:, t]
            v = np.where(seen[rows, v], d - k + t, v)
            seen[rows, v] = True
            chosen[:, t] = v
        out[a : a + r.shape[0]] = np.sort(chosen, axis=1)
    return out


def normalized_importance(imp: np.ndarray) -> np.ndarray:
    total = imp.sum()
    return imp / total if 0 < total < np.inf else imp


@dataclass(frozen=True)
class DecisionTreeParams(Params):
    max_depth: Depth = 5
    min_instances_per_node: Count = 1
    threshold: Probability = 0.5


@dataclass(frozen=True, eq=False)
class DecisionTreeModel(TrainedClassifier):
    family = "dt"
    nested_axis = "max_depth"
    root: Tree
    n_features: Count
    threshold: Probability

    def raw_scores(self, X):
        X = self._check_matrix(X)
        out = np.empty(X.shape[0])
        for rows, (outputs,) in tree_outputs([self.root], X):
            out[rows] = outputs
        return out

    def _probabilities_of(self, raw):
        return raw

    def truncate(self, k: int) -> "DecisionTreeModel":
        """The tree cut at depth k. Growth above depth k does not read
        max_depth, so this is the tree a fit with max_depth=k grows."""
        self._nested_k(k)
        return DecisionTreeModel(self.root.cut(k), self.n_features, self.threshold)

    def feature_importances(self) -> np.ndarray:
        return normalized_importance(self.root.importance(self.n_features))

    def _check(self) -> None:
        object.__setattr__(self, "root", Tree.from_dict(self.root, "gini", self.n_features))


def train_decision_trees(samples, params: DecisionTreeParams = DecisionTreeParams()) -> list:
    """A tree for each (X, y) sample: each step grows a depth level of every
    sample's tree (`grow_trees`), BATCH_CELLS sample cells at a time, or one
    larger sample. Each entry is the model a fit of its sample alone gives,
    or the ModelError that sample raises."""
    out = per_sample(check_training_data, samples)
    ready = [i for i, sample in enumerate(out) if not isinstance(sample, ModelError)]
    for group in lockstep_groups([out[i][0].shape for i in ready], BATCH_CELLS):
        members = [ready[j] for j in group]
        trees, _ = grow_trees(
            np.concatenate([out[i][0].T for i in members], axis=1),
            [presort(out[i][0].T) for i in members],
            np.concatenate([out[i][1] for i in members]),
            range(len(members)),
            max_depth=params.max_depth,
            min_instances=params.min_instances_per_node,
        )
        for i, tree in zip(members, trees):
            out[i] = DecisionTreeModel(tree, out[i][0].shape[1], params.threshold)
    return out
