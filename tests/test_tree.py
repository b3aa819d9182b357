from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml import kernels, models
from coverml.models import ensemble
from coverml.models import tree as tree_module
from coverml.models.base import ModelError
from coverml.models.ensemble import GbtParams, RandomForestParams
from coverml.models.tree import (
    _DRAW_BLOCK,
    MAX_DEPTH,
    DecisionTreeModel,
    DecisionTreeParams,
    FeatureDraws,
    Tree,
    build_tree,
    grow_trees,
    presort,
    tree_outputs,
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
        model = models.train("dt", X, y)
        assert accuracy(model, X, y) == 1.0
        root = model.to_dict()["root"]
        assert "feature" in root and "feature" not in root["left"] and "feature" not in root["right"]

    def test_xor_depth1_is_chance(self):
        model = models.train("dt", XOR_X, XOR_Y, DecisionTreeParams(max_depth=1))
        # exhaustive enumeration: every depth-1 split leaves both leaves mixed
        assert accuracy(model, XOR_X, XOR_Y) == 0.5

    def test_xor_depth2_is_exact(self):
        model = models.train("dt", XOR_X, XOR_Y, DecisionTreeParams(max_depth=2))
        assert accuracy(model, XOR_X, XOR_Y) == 1.0

    def test_tie_break_prefers_lower_feature(self):
        # identical columns: both admit the same best split
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        root = build_tree(X, y, max_depth=1)
        assert root["feature"] == 0

    def test_tie_break_prefers_lower_threshold(self):
        # symmetric labels: splits at 0.5 and 1.5 both give zero decrease,
        # and splitting at 1.5... construct equal-decrease pair explicitly
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 1])
        root = build_tree(X, y, max_depth=1)
        # decreases: thr 0.5 and 2.5 tie (symmetric), thr 1.5 is zero
        assert root["threshold"] == 0.5

    def test_min_instances_stops_growth(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        root = build_tree(X, y, max_depth=5, min_instances=5)
        assert "feature" not in root

    def test_pure_node_stops(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        root = build_tree(X, y, max_depth=3)
        assert "feature" not in root and root["prob"] == 1.0

    def test_depth_never_exceeds_max(self):
        rng = np.random.default_rng(3)
        X = rng.random((200, 4))
        y = rng.integers(0, 2, size=200)
        for max_depth in (1, 2, 4):
            root = build_tree(X, y, max_depth=max_depth)

            def depth(node):
                return 0 if "feature" not in node else 1 + max(depth(node["left"]), depth(node["right"]))

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
        model = models.train("dt", X, y)
        probs = model.probabilities(X)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_regression_task_fits_means(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, -3.0, -3.0])
        root = build_tree(X, y, max_depth=1, task="sse")
        assert root["threshold"] == 1.5
        assert root["left"]["value"] == 1.0 and root["right"]["value"] == -3.0


def scan_one_feature(x, y, task):
    """The per-feature split scan that presorted induction replaced: one
    sorted column in, (threshold, decrease) out, ties to the lowest threshold."""
    n = x.shape[0]
    cut = np.nonzero(x[:-1] != x[1:])[0]
    if cut.size == 0:
        return float("nan"), float("-inf")
    total = float(n)
    nl = (cut + 1).astype(np.float64)
    nr = total - nl
    if task == "gini":
        csum = np.cumsum(y)
        c1 = csum[-1]
        p1 = c1 / total
        p0 = (total - c1) / total
        g_parent = 1.0 - p1 * p1 - p0 * p0
        cl = csum[cut]
        cr = c1 - cl
        pl1 = cl / nl
        pl0 = (nl - cl) / nl
        gl = 1.0 - pl1 * pl1 - pl0 * pl0
        pr1 = cr / nr
        pr0 = (nr - cr) / nr
        gr = 1.0 - pr1 * pr1 - pr0 * pr0
        dec = g_parent - (nl / total) * gl - (nr / total) * gr
    else:
        s = np.cumsum(y)
        ss = np.cumsum(y * y)
        m = s[-1] / total
        imp = ss[-1] / total - m * m
        ml = s[cut] / nl
        il = ss[cut] / nl - ml * ml
        mr = (s[-1] - s[cut]) / nr
        ir = (ss[-1] - ss[cut]) / nr - mr * mr
        dec = imp - (nl / total) * il - (nr / total) * ir
    best = int(np.argmax(dec))
    mid = 0.5 * (x[cut] + x[cut + 1])
    mid = np.where(mid == x[cut + 1], x[cut], mid)
    return float(mid[best]), float(dec[best])


def reference_build_tree(X, y, *, max_depth, min_instances=1, task="gini", n_subset_features=None, rng=None):
    """Per-node induction: a stable argsort and a scan for every candidate
    feature of every node, the lowest feature kept on ties. Returns the
    nested node dicts that `build_tree` returns."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    yf = np.ascontiguousarray(y, dtype=np.float64)
    d = X.shape[1]

    def grow(idx, depth):
        if task == "gini":
            c1 = int(yf[idx].sum())
            node = {"n": idx.size, "counts": [idx.size - c1, c1], "prob": c1 / idx.size}
        else:
            node = {"n": idx.size, "value": float(yf[idx].mean())}
        target = yf[idx]
        if depth >= max_depth or idx.size < min_instances or (target == target[0]).all():
            return node
        if n_subset_features is None or n_subset_features >= d:
            feats = range(d)
        else:
            feats = np.sort(rng.choice(d, size=n_subset_features, replace=False))
        best_f, best_thr, best_dec = -1, 0.0, float("-inf")
        for f in feats:
            x = X[idx, f]
            order = np.argsort(x, kind="stable")
            thr, dec = scan_one_feature(x[order], target[order], task)
            if dec > best_dec:
                best_f, best_thr, best_dec = int(f), thr, dec
        if best_f < 0:
            return node
        mask = X[idx, best_f] <= best_thr
        node.update(
            feature=best_f,
            threshold=best_thr,
            decrease=best_dec,
            left=grow(idx[mask], depth + 1),
            right=grow(idx[~mask], depth + 1),
        )
        return node

    return grow(np.arange(X.shape[0]), 0)


def subset_tree(X, y, *, n_subset_features, rng, **kwargs):
    """The tree `grow_trees` grows on (X, y) alone, each split considering
    the next subset of `n_subset_features` features of a one-tree
    `FeatureDraws` on `rng` (every feature when None or d or more), in the
    nested form `reference_build_tree` returns."""
    values = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    d = values.shape[0]
    k = n_subset_features or d
    draws = FeatureDraws([rng], d, k) if k < d else None
    (tree,), _ = grow_trees(values, [presort(values)], np.asarray(y), [0], draws=draws, **kwargs)
    return tree.to_dict()


def parity_case(rng, kind):
    n, d = int(rng.integers(1, 160)), int(rng.integers(1, 7))
    X = rng.random((n, d))
    if kind == "ties":
        X = np.round(X, 1)
    elif kind == "constant":
        X[:, rng.integers(0, d)] = 3.0
    elif kind == "bootstrap":
        X = X[rng.integers(0, n, size=n)]
    elif kind == "signed-zero":
        X = np.round(3.0 * X) - 1.0
        X[X == 0.0] = -0.0
        X[rng.random((n, d)) < 0.3] = 0.0
    elif kind == "deep":
        X[:, 0] = np.arange(n)
    return X


class TestPresortedParity:
    """build_tree, and `grow_trees` with a one-tree `FeatureDraws`, against
    per-node argsort + scan with a `Generator.choice` call per split: the
    same trees, bit for bit."""

    @pytest.mark.parametrize("task", ["gini", "sse"])
    @pytest.mark.parametrize("kind", ["plain", "ties", "constant", "bootstrap", "signed-zero", "deep"])
    def test_same_tree_as_per_node_sorting(self, task, kind):
        rng = np.random.default_rng(["gini", "sse"].index(task) * 100 + len(kind))
        for trial in range(25):
            X = parity_case(rng, kind)
            n, d = X.shape
            if task == "gini":
                y = (np.arange(n) % 2) if kind == "deep" else rng.integers(0, 2, size=n)
            else:
                y = rng.normal(size=n)
                if trial % 2:
                    y = np.round(y)
            subset = int(rng.integers(1, d + 1)) if trial % 3 == 0 else None
            seed = int(rng.integers(0, 2**31))
            kwargs = dict(
                max_depth=30 if kind == "deep" else int(rng.integers(1, 31)),
                min_instances=int(rng.integers(1, 4)),
                task=task,
            )
            if subset is None:
                got = build_tree(X, y, **kwargs)
            else:
                got = subset_tree(X, y, n_subset_features=subset, rng=np.random.default_rng(seed), **kwargs)
            want = reference_build_tree(X, y, n_subset_features=subset, rng=np.random.default_rng(seed), **kwargs)
            assert repr(got) == repr(want)  # every field; -0.0 differs from 0.0 here


    @pytest.mark.parametrize("subset", [None, 2])
    def test_kernel_calls_follow_the_schedule(self, monkeypatch, subset):
        """A tree that draws feature subsets scores its nodes in depth-first
        order, the next node and the nodes after it whose children are leaves
        per step; a tree that draws nothing scores a whole depth level per
        step, in as few calls as the d × n cell cap allows."""
        calls = []

        def recording(x, y, sizes):
            calls.append((sizes.tolist(), x.shape))
            return gini_kernel(x, y, sizes)

        gini_kernel = kernels.best_split_gini
        monkeypatch.setattr(kernels, "best_split_gini", recording)
        rng = np.random.default_rng(7)
        X = rng.random((300, 5))
        y = rng.integers(0, 2, size=300)
        root = subset_tree(X, y, n_subset_features=subset, rng=np.random.default_rng(1), max_depth=6)

        def internal(node, depth=0):
            if "feature" not in node:
                return []
            return [(depth, node["n"]), *internal(node["left"], depth + 1), *internal(node["right"], depth + 1)]

        scored = internal(root)
        k = subset or 5
        for sizes, (m, columns) in calls:
            # len(x) is the longest node of the call; each node brings k columns
            assert m == max(sizes) and columns == k * len(sizes) and m * columns <= 300 * 5
        if subset:
            # Depth-first order: a call takes the next scored nodes, all but
            # the last of them at depth 5, whose children are leaves.
            position = 0
            for sizes, _ in calls:
                taken = scored[position : position + len(sizes)]
                position += len(sizes)
                assert sorted(n for _, n in taken) == sorted(sizes)
                assert all(depth == 5 for depth, _ in taken[:-1])
            assert position == len(scored) and len(calls) < len(scored)
        else:
            levels = [sorted(n for depth, n in scored if depth == level) for level in range(6)]
            by_call, level = [], 0
            for sizes, _ in calls:
                by_call += sizes
                if sorted(by_call) == levels[level]:
                    by_call, level = [], level + 1
            assert not by_call and level == 6
            assert len(calls) < len(scored) / 2


class TestDepthCut:
    """A tree cut at depth k is the tree a fit with max_depth=k grows, which
    lets cross-validation score every max_depth cell from the deepest fit."""

    @pytest.mark.parametrize("kind", ["plain", "ties", "constant", "bootstrap", "signed-zero"])
    def test_cut_equals_fresh_fit(self, kind):
        rng = np.random.default_rng(40 + len(kind))
        for _ in range(12):
            X = parity_case(rng, kind)
            y = rng.integers(0, 2, size=X.shape[0])
            min_instances = int(rng.integers(1, 4))
            deep = models.train("dt", X, y, DecisionTreeParams(max_depth=8, min_instances_per_node=min_instances))
            for k in range(1, 9):
                fresh = models.train("dt", X, y, DecisionTreeParams(max_depth=k, min_instances_per_node=min_instances))
                assert repr(deep.truncate(k).to_dict()) == repr(fresh.to_dict())


def descend(node, row):
    """The leaf that `row` reaches in a nested `to_dict` tree."""
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node


def descent_scores(family, doc, rows):
    """Raw scores of a dt, rf or gbt `to_dict()`, one row at a time."""
    if family == "dt":
        return [descend(doc["root"], r)["prob"] for r in rows]
    if family == "rf":
        return [sum(descend(t, r)["prob"] for t in doc["trees"]) / len(doc["trees"]) for r in rows]
    out = []
    for r in rows:
        score = doc["base_score"]
        for t in doc["trees"]:
            score += doc["learning_rate"] * descend(t, r)["value"]
        out.append(score)
    return out


#: Few distinct values, so columns tie; -0.0 and 0.0 compare equal.
VALUES = [-1.5, -0.0, 0.0, 0.25, 1.0, 3.0]
CELLS = st.sampled_from(VALUES)
#: Query cells add every threshold a split can choose: the midpoints.
QUERY_CELLS = st.sampled_from(VALUES + [(a + b) / 2 for a, b in zip(VALUES, VALUES[1:])])


class TestFlatApply:
    """Scoring through the flat node arrays against a per-row descent of the
    nested dicts that `to_dict` writes."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply_equals_descent_of_to_dict(self, data):
        n, d = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 4))
        X = np.array(data.draw(st.lists(st.lists(CELLS, min_size=d, max_size=d), min_size=n, max_size=n)))
        if data.draw(st.booleans()):
            X[:, data.draw(st.integers(0, d - 1))] = -0.0
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[0], y[1] = 0, 1  # gbt needs both classes
        family = data.draw(st.sampled_from(["dt", "rf", "gbt"]))
        depth = data.draw(st.integers(1, 6))
        params = {
            "dt": DecisionTreeParams(max_depth=depth),
            "rf": models.RandomForestParams(num_trees=5, max_depth=depth, seed=data.draw(st.integers(0, 9))),
            "gbt": models.GbtParams(num_iterations=4, max_depth=depth),
        }[family]
        model = models.train(family, X, y, params)
        queries = np.array(data.draw(st.lists(st.lists(QUERY_CELLS, min_size=d, max_size=d), min_size=1, max_size=20)))
        rows = np.concatenate([X, queries])
        doc = model.to_dict()
        want = descent_scores(family, doc, rows.tolist())
        assert model.raw_scores(rows).tolist() == want
        back = models.model_type(family).from_dict(doc)
        assert repr(back.to_dict()) == repr(doc)
        assert back.raw_scores(rows).tolist() == want


def reference_apply(tree, columns):
    """Each row's leaf output, one node at a time: the rows given
    feature-major (`columns` is X.T), each split sending its rows with
    x <= threshold left and the rest right."""
    value = (tree.stat / tree.n if tree.task == "gini" else tree.stat).tolist()
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right = tree.left.tolist(), tree.right.tolist()
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


#: Walk input cells: the tie-prone VALUES and what a table never holds.
WALK_CELLS = st.sampled_from(VALUES + [np.nan, np.inf, -np.inf])
#: Thresholds: the midpoints a split chooses, the values themselves and ±inf.
WALK_THRESHOLDS = st.sampled_from(VALUES + [(a + b) / 2 for a, b in zip(VALUES, VALUES[1:])] + [np.inf, -np.inf])


@st.composite
def random_trees(draw, d):
    """A Tree of random shape in pre-order: each node splits with the drawn
    chance while above the drawn depth, up to MAX_DEPTH; a "chain" tree
    splits once per level, so it reaches its depth with few nodes."""
    task = draw(st.sampled_from(["gini", "sse"]))
    depth_cap = draw(st.sampled_from([0, 1, 3, 6, MAX_DEPTH]))
    chain = draw(st.booleans())
    nodes = []  # n, stat, feature, threshold, left, right, depth

    def grow(depth):
        i = len(nodes)
        n = draw(st.integers(1, 50))
        stat = float(draw(st.integers(0, n))) if task == "gini" else draw(st.sampled_from(VALUES + [-2.75e-3]))
        nodes.append([n, stat, -1, 0.0, -1, -1, depth])
        if depth < depth_cap and (chain or draw(st.integers(0, 3)) > 0):
            nodes[i][2] = draw(st.integers(0, d - 1))
            nodes[i][3] = draw(WALK_THRESHOLDS)
            if chain and draw(st.booleans()):
                nodes[i][4] = len(nodes)
                nodes.append([1, 0.0, -1, 0.0, -1, -1, depth + 1])
                nodes[i][5] = grow(depth + 1)
            elif chain:
                nodes[i][4] = grow(depth + 1)
                nodes[i][5] = len(nodes)
                nodes.append([1, 0.0, -1, 0.0, -1, -1, depth + 1])
            else:
                nodes[i][4] = grow(depth + 1)
                nodes[i][5] = grow(depth + 1)
        return i

    grow(0)
    n, stat, feature, threshold, left, right, depth = (np.array(c) for c in zip(*nodes))
    return Tree(task, n, stat.astype(np.float64), feature, threshold.astype(np.float64),
                np.zeros(len(nodes)), left, right, depth)


def walked(trees, X, stops):
    """Each stop's (trees, rows) outputs: the blocks of `tree_outputs` over
    the trees cut at the stop (the trees themselves where it is None) put
    together; the blocks must cover X's rows in order."""
    out = []
    for stop in stops:
        whole = np.empty((len(trees), X.shape[0]))
        at = 0
        for rows, outputs in tree_outputs([tree if stop is None else tree.cut(stop) for tree in trees], X):
            assert rows.start == at and rows.stop > at
            at = rows.stop
            whole[:, rows] = outputs
        assert at == X.shape[0]
        out.append(whole)
    return out


class TestTreeWalk:
    """The level-by-level walk over many trees (`tree_outputs`) against the
    node-at-a-time traversal, bit for bit: every tree's leaf output and the
    output after k levels, which is the leaf of the tree cut at depth k."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_walk_equals_per_node_traversal(self, data):
        d = data.draw(st.integers(1, 4))
        trees = data.draw(st.lists(random_trees(d), min_size=1, max_size=5))
        n = data.draw(st.integers(0, 30))
        X = np.array(data.draw(st.lists(st.lists(WALK_CELLS, min_size=d, max_size=d), min_size=n, max_size=n)))
        X = X.reshape(n, d)
        stops = data.draw(st.lists(st.one_of(st.none(), st.integers(1, MAX_DEPTH + 2)), min_size=1, max_size=4))
        # Budgets that cut the rows into blocks of one, a few, or one block.
        budget = data.draw(st.sampled_from([1, 7, 64, 1 << 15]))
        with mock.patch.object(tree_module, "WALK_CELLS", budget):
            got = walked(trees, X, stops)
        columns = X.T.copy()
        for stop, outputs in zip(stops, got):
            for t, tree in enumerate(trees):
                want = reference_apply(tree if stop is None else tree.cut(stop), columns)
                assert outputs[t].tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [20, 21, 40])
    @pytest.mark.parametrize("n", [0, 9, 10, 11, 19, 20, 21])
    def test_rows_on_both_sides_of_a_block_boundary(self, n, budget):
        """Two trees and a budget of 20 or 21 cells make blocks of 10 rows,
        40 cells blocks of 20; one stop."""
        rng = np.random.default_rng(n)
        X = np.round(rng.normal(size=(200, 3)), 1)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        trees = [models.train("dt", X, y, DecisionTreeParams(max_depth=k)).root for k in (2, 6)]
        query = np.round(rng.normal(size=(n, 3)), 1)
        query[::3, 1] = np.nan
        with mock.patch.object(tree_module, "WALK_CELLS", budget):
            (got,) = walked(trees, query, [None])
        for t, tree in enumerate(trees):
            assert got[t].tobytes() == reference_apply(tree, query.T.copy()).tobytes()

    def test_nan_goes_right_and_signed_zero_ties_left(self):
        """x <= threshold goes left: NaN never does, -0.0 <= 0.0 does."""
        tree = Tree("sse", np.array([3, 1, 2]), np.array([0.0, -1.0, 1.0]), np.array([0, -1, -1]),
                    np.array([0.0, 0.0, 0.0]), np.zeros(3), np.array([1, -1, -1]), np.array([2, -1, -1]),
                    np.array([0, 1, 1]))
        X = np.array([[np.nan], [-0.0], [0.0], [np.inf], [-np.inf], [5e-324]])
        (got,) = walked([tree], X, [None])
        assert got[0].tolist() == [1.0, -1.0, -1.0, 1.0, -1.0, 1.0]

    def test_depth_30_forest_of_mixed_depths(self):
        """Deep dt fits on rows that need every level, walked with shallow
        ones, at every stop."""
        X = np.arange(400.0)[:, None] ** 1.5
        y = (np.arange(400) // 3 + np.arange(400) // 7) % 2
        trees = [models.train("dt", X, y, DecisionTreeParams(max_depth=k)).root for k in (MAX_DEPTH, 1, 9, 20)]
        assert int(trees[0].depth.max()) >= 20
        query = np.concatenate([X, X + 0.5, [[np.nan], [-0.0]]])
        stops = [None, *range(1, MAX_DEPTH + 1)]
        got = walked(trees, query, stops)
        for stop, outputs in zip(stops, got):
            for t, tree in enumerate(trees):
                want = reference_apply(tree if stop is None else tree.cut(stop), query.T.copy())
                assert outputs[t].tobytes() == want.tobytes()


def reference_nested(model, X, k):
    """The raw scores of `model.truncate(k)` (the model where k is None),
    each tree applied by `reference_apply` and the trees' outputs added in
    tree order: the mean for rf, base score plus learning rate times each
    output for gbt."""
    columns = X.T.copy()
    if model.family == "dt":
        return reference_apply(model.root if k is None else model.root.cut(k), columns)
    trees = model.trees if k is None else model.trees[:k]
    if model.family == "rf":
        acc = np.zeros(X.shape[0])
        for tree in trees:
            acc += reference_apply(tree, columns)
        return acc / len(trees)
    F = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for tree in trees:
        F += model.learning_rate * reference_apply(tree, columns)
    return F


class TestNestedScores:
    """`nested_raw_scores` gives every truncation's raw scores, rf and gbt
    from one walk of a fit, dt from one walk of each cut tree; each equals
    `truncate(k).raw_scores` and the tree-by-tree reference bit for bit."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_k_equals_its_truncation(self, data):
        family = data.draw(st.sampled_from(["dt", "rf", "gbt"]))
        n, d = data.draw(st.integers(2, 80)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = np.round(rng.random((n, d)) * 3.0, 1) - 1.0
        y = rng.integers(0, 2, size=n)
        y[:2] = 0, 1
        if family == "dt":
            params = DecisionTreeParams(max_depth=data.draw(st.integers(1, 12)))
            top = params.max_depth + 2  # cuts below the tree's depth change nothing
        elif family == "rf":
            params = models.RandomForestParams(
                num_trees=data.draw(st.integers(1, 8)), max_depth=data.draw(st.integers(1, 6)),
                seed=data.draw(st.integers(0, 9)),
            )
            top = params.num_trees
        else:
            params = models.GbtParams(
                num_iterations=data.draw(st.integers(1, 8)), max_depth=data.draw(st.integers(1, 5)),
                learning_rate=data.draw(st.sampled_from([0.1, 0.7, 0.0])),
            )
            top = params.num_iterations
        model = models.train(family, X, y, params)
        ks = data.draw(st.lists(st.one_of(st.none(), st.integers(1, top)), min_size=1, max_size=6))
        ks += [None, *range(1, top + 1)]
        query = np.concatenate([X, rng.normal(size=(data.draw(st.integers(0, 20)), d))])
        query[::5, 0] = np.nan
        budget = data.draw(st.sampled_from([3, 50, 1 << 15]))
        with mock.patch.object(tree_module, "WALK_CELLS", budget):
            got = model.nested_raw_scores(query, ks)
        assert len(got) == len(ks)
        for k, scores in zip(ks, got):
            assert scores.tobytes() == reference_nested(model, query, k).tobytes()
            assert scores.tobytes() == (model if k is None else model.truncate(k)).raw_scores(query).tobytes()

    @pytest.mark.parametrize("family", ["lr", "svm", "fm"])
    def test_other_families_score_each_model(self, family):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        model = models.train(family, X, (X[:, 0] > 0).astype(int))
        assert type(model).nested_raw_scores is models.TrainedClassifier.nested_raw_scores
        got = model.nested_raw_scores(X, [None, None])
        assert [g.tobytes() for g in got] == [model.raw_scores(X).tobytes()] * 2

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt"])
    def test_zero_rows_and_single_leaf_trees(self, family):
        """Constant features grow only roots; no rows give empty scores."""
        X, y = np.ones((30, 2)), (np.arange(30) % 3 == 0).astype(int)
        model = models.train(family, X, y)
        assert all(int(t.depth.max()) == 0 for t in getattr(model, "trees", [getattr(model, "root", None)]))
        ks = [None, 1, 2]
        for k, scores in zip(ks, model.nested_raw_scores(X[:4], ks)):
            assert scores.tobytes() == reference_nested(model, X[:4], k).tobytes()
        for scores in model.nested_raw_scores(np.zeros((0, 2)), ks):
            assert scores.shape == (0,) and scores.dtype == np.float64


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
        model = models.train("dt", X, y, DecisionTreeParams(max_depth=30))
        assert model.probabilities(X).shape == (3000,)

    def test_empty_data(self):
        with pytest.raises(ModelError):
            models.train("dt", np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_nonfinite_features(self):
        with pytest.raises(ModelError):
            models.train("dt", np.array([[np.inf]]), np.array([1]))

    def test_dimension_mismatch_at_predict(self):
        model = models.train("dt", np.array([[0.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ModelError):
            model.predictions(np.zeros((2, 3)))


class TestImportance:
    def test_single_split_concentrates(self):
        X = np.zeros((4, 5))
        X[:, 3] = [0.0, 1.0, 2.0, 3.0]
        y = np.array([0, 0, 1, 1])
        model = models.train("dt", X, y, DecisionTreeParams(max_depth=1))
        imp = model.feature_importances()
        assert imp[3] == 1.0 and imp.sum() == 1.0

    def test_constant_feature_zero(self):
        rng = np.random.default_rng(5)
        X = rng.random((60, 3))
        X[:, 1] = 7.7
        y = (X[:, 0] > 0.5).astype(int)
        model = models.train("dt", X, y)
        assert model.feature_importances()[1] == 0.0

    def test_unsplit_tree_all_zero(self):
        root = {"n": 4, "counts": [2, 2], "prob": 0.5}
        model = DecisionTreeModel.from_dict({"root": root, "n_features": 3, "threshold": 0.5})
        assert model.feature_importances().tolist() == [0.0, 0.0, 0.0]


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        rng = np.random.default_rng(6)
        X = rng.random((80, 4))
        y = rng.integers(0, 2, size=80)
        model = models.train("dt", X, y)
        back = DecisionTreeModel.from_dict(model.to_dict())
        assert np.array_equal(back.probabilities(X), model.probabilities(X))
        assert back.to_dict() == model.to_dict()

    def test_roundtrip_leaves_no_reference_cycles(self):
        """Writing and reading a tree frees everything it built on return,
        without waiting for the cyclic garbage collector."""
        import gc

        rng = np.random.default_rng(6)
        model = models.train("dt", rng.random((80, 4)), rng.integers(0, 2, size=80))
        gc.collect()
        gc.disable()
        try:
            DecisionTreeModel.from_dict(model.to_dict())
            assert gc.collect() == 0
        finally:
            gc.enable()


def choice_subsets(rng, d, k, count):
    """`count` successive sorted `rng.choice(d, k, replace=False)` subsets."""
    return [sorted(rng.choice(d, size=k, replace=False).tolist()) for _ in range(count)]


#: (d, k) on both sides of `choice`'s switch from Floyd's algorithm to a
#: tail shuffle at d > 10,000 and k > d // 50.
DRAW_SHAPES = [(2, 1), (7, 2), (9, 3), (100, 99), (10000, 9999), (10001, 200), (10001, 201), (20000, 141), (10500, 300)]


class TestDrawParity:
    """FeatureDraws hands out the subsets that successive `Generator.choice`
    calls give, and refuses the shapes that `choice` draws otherwise."""

    @pytest.mark.parametrize("d, k", DRAW_SHAPES)
    def test_block_draws_equal_successive_choice_calls(self, d, k):
        if d > 10000 and k > d // 50:
            with pytest.raises(ValueError, match="tail shuffle"):
                FeatureDraws([np.random.default_rng(0)], d, k)
            return
        for seed in range(3):
            # Takes of 1, 3 and then more than a block: the last refills.
            takes = [1, 3, _DRAW_BLOCK + 5]
            drawn = np.random.default_rng(seed)
            draws = FeatureDraws([drawn, np.random.default_rng(seed + 100)], d, k)
            got = [draws.take(np.zeros(m, dtype=np.intp)).tolist() for m in takes]
            want = choice_subsets(np.random.default_rng(seed), d, k, sum(takes))
            assert sum(got, []) == want

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_trees_draw_from_their_own_generators(self, data):
        """Several trees take interleaved runs of subsets; each tree's are its
        own generator's choice calls in order."""
        d = data.draw(st.integers(2, 12))
        k = data.draw(st.integers(1, d - 1))
        seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
        draws = FeatureDraws([np.random.default_rng(s) for s in seeds], d, k)
        got = [[] for _ in seeds]
        for _ in range(data.draw(st.integers(1, 6))):
            counts = data.draw(st.lists(st.integers(0, 70), min_size=len(seeds), max_size=len(seeds)))
            if not sum(counts):
                continue
            trees = np.repeat(np.arange(len(seeds)), counts)[::-1].copy()
            for t, subset in zip(trees.tolist(), draws.take(trees).tolist()):
                got[t].append(subset)
        for s, subsets in zip(seeds, got):
            assert subsets == choice_subsets(np.random.default_rng(s), d, k, len(subsets))


@st.composite
def layout_case(draw):
    """Samples of tied values and the trees that grow on them: (values,
    orders, tree_samples, each sample's rows), 1-4 trees per sample."""
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=3))
    values = np.array(
        draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), min_size=d * sum(sizes), max_size=d * sum(sizes)))
    ).reshape(d, sum(sizes))
    starts = np.cumsum(sizes) - sizes
    orders = [presort(values[:, a : a + n]) for a, n in zip(starts, sizes)]
    trees = [draw(st.integers(1, 4)) for _ in sizes]
    return values, orders, np.repeat(np.arange(len(sizes)), trees), sizes


class TestLayout:
    """`grow_trees` lays out its trees' slots itself (`_layout`) from the
    samples' presorts and the trees' draw counts, and writes none of its
    inputs."""

    @given(case=layout_case(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_order_is_each_trees_stable_sort(self, case, data):
        """Row f of a tree's slots is the stable sort by feature f of the
        rows it takes, with or without counts."""
        values, orders, tree_samples, sizes = case
        starts = np.cumsum(sizes) - sizes
        counts = data.draw(st.sampled_from([None, "drawn"]))
        if counts:
            counts = [np.array(data.draw(st.lists(st.integers(0, 3), min_size=sizes[s], max_size=sizes[s])))
                      for s in tree_samples]
        order, columns, weights, slots = tree_module._layout(orders, tree_samples, counts)
        d = values.shape[0]
        at = 0
        for t, s in enumerate(tree_samples):
            rows = np.arange(sizes[s]) if counts is None else counts[t].nonzero()[0]
            assert slots[t] == rows.size
            own = slice(at, at + rows.size)
            cols = np.arange(at, at + rows.size) if columns is None else columns[own]
            assert cols.tolist() == (starts[s] + rows).tolist()
            assert order[d, own].tolist() == list(range(at, at + rows.size))
            for f in range(d):
                want = at + np.argsort(values[f, starts[s] + rows], kind="stable")
                assert order[f, own].tolist() == want.tolist()
            if counts is not None:
                assert weights[own].tolist() == counts[t][rows].tolist()
            at += rows.size
        assert order.shape[1] == at and (weights is None) == (counts is None)

    @given(case=layout_case())
    @settings(max_examples=150, deadline=None)
    def test_no_counts_equal_counts_of_one(self, case):
        """Trees that take every row lay out as trees that take each row
        once; where slots are rows, the slot of column c is c."""
        _, orders, tree_samples, sizes = case
        order, columns, weights, slots = tree_module._layout(orders, tree_samples, None)
        ones = [np.ones(sizes[s], dtype=np.intp) for s in tree_samples]
        order_1, columns_1, weights_1, slots_1 = tree_module._layout(orders, tree_samples, ones)
        assert np.array_equal(order, order_1) and order.dtype == order_1.dtype
        assert np.array_equal(slots, slots_1) and weights is None and (weights_1 == 1.0).all()
        one_each = len(tree_samples) == len(sizes)
        assert (columns is None) == one_each
        assert np.array_equal(np.arange(order.shape[1]) if one_each else columns, columns_1)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("dt", DecisionTreeParams(max_depth=6)),
            ("gbt", GbtParams(num_iterations=4, max_depth=4)),
            ("rf", RandomForestParams(num_trees=6, max_depth=6, bootstrap=True)),
            ("rf", RandomForestParams(num_trees=6, max_depth=6, bootstrap=False)),
        ],
    )
    def test_no_input_is_written(self, monkeypatch, family, params):
        """Every sample's values and presort, the targets and the counts
        are marked read-only before growth; the trees are those of an
        ordinary run."""
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(300, 5)), 1)
        y = (X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=300) > 0).astype(int)
        samples = [(X[:n], y[:n]) for n in (200, 200, 300)]
        want = [repr(model.to_dict()) for model in models.train_batch(family, samples, params)]
        grow = tree_module.grow_trees

        def read_only(values, orders, targets, tree_samples, counts=None, **kwargs):
            for a in (values, *orders, targets, *(counts or ())):
                a.flags.writeable = False
            return grow(values, orders, targets, tree_samples, counts=counts, **kwargs)

        monkeypatch.setattr(tree_module, "grow_trees", read_only)
        monkeypatch.setattr(ensemble, "grow_trees", read_only)
        assert [repr(model.to_dict()) for model in models.train_batch(family, samples, params)] == want
