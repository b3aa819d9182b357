import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml import kernels, models
from coverml.models.base import ModelError
from coverml.models.tree import DecisionTreeModel, DecisionTreeParams, build_tree, train_decision_tree

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
        root = model.to_dict()["root"]
        assert "feature" in root and "feature" not in root["left"] and "feature" not in root["right"]

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
        model = train_decision_tree(X, y)
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
    """build_tree against per-node argsort + scan: the same trees, bit for bit."""

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
                n_subset_features=subset,
            )
            got = build_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
            want = reference_build_tree(X, y, rng=np.random.default_rng(seed), **kwargs)
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
        root = build_tree(X, y, max_depth=6, n_subset_features=subset, rng=np.random.default_rng(1))

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
            deep = train_decision_tree(X, y, DecisionTreeParams(max_depth=8, min_instances_per_node=min_instances))
            for k in range(1, 9):
                fresh = train_decision_tree(X, y, DecisionTreeParams(max_depth=k, min_instances_per_node=min_instances))
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
        root = {"n": 4, "counts": [2, 2], "prob": 0.5}
        model = DecisionTreeModel.from_dict({"root": root, "n_features": 3, "threshold": 0.5})
        assert model.feature_importances().tolist() == [0.0, 0.0, 0.0]


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        rng = np.random.default_rng(6)
        X = rng.random((80, 4))
        y = rng.integers(0, 2, size=80)
        model = train_decision_tree(X, y)
        back = DecisionTreeModel.from_dict(model.to_dict())
        assert np.array_equal(back.probabilities(X), model.probabilities(X))
        assert back.to_dict() == model.to_dict()

    def test_roundtrip_leaves_no_reference_cycles(self):
        """Writing and reading a tree frees everything it built on return,
        without waiting for the cyclic garbage collector."""
        import gc

        rng = np.random.default_rng(6)
        model = train_decision_tree(rng.random((80, 4)), rng.integers(0, 2, size=80))
        gc.collect()
        gc.disable()
        try:
            DecisionTreeModel.from_dict(model.to_dict())
            assert gc.collect() == 0
        finally:
            gc.enable()
