import numpy as np
import pytest

from coverml import kernels

from helpers import gini

NO_SPLIT = (-1, float("nan"), float("-inf"))


def brute_gini(x, y):
    """Direct formula evaluation at every boundary of a sorted feature."""
    n = len(x)
    best = (float("nan"), float("-inf"))
    c1 = float(sum(y))
    g_parent = gini(n - c1, c1)
    for i in range(n - 1):
        if x[i] == x[i + 1]:
            continue
        nl = i + 1.0
        cl = float(sum(y[: i + 1]))
        dec = g_parent - (nl / n) * gini(nl - cl, cl) - ((n - nl) / n) * gini(
            (n - nl) - (c1 - cl), c1 - cl
        )
        if dec > best[1]:
            thr = 0.5 * (x[i] + x[i + 1])
            if thr == x[i + 1]:
                thr = x[i]
            best = (thr, dec)
    return best


def split(kernel, x, y):
    """The split of one node of len(x) rows, as Python scalars."""
    pos, thr, dec = kernel(x, y, [len(x)])
    return int(pos[0]), float(thr[0]), float(dec[0])


def one_feature(x):
    """A node of len(x) rows and one candidate feature."""
    return np.asarray(x, dtype=np.float64)[:, None]


def sorted_case(rng, n, tie_heavy):
    x = rng.random(n)
    if tie_heavy:
        x = np.round(x, 1)
    x = np.sort(x)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return x, y


def node_case(rng, m, k, tie_heavy, real_target):
    """One node as the tree builder lays it out: (m, k) sorted values and the
    targets in each column's order, ties kept in row order."""
    X = rng.random((m, k))
    if tie_heavy:
        X = np.round(X, 1)
    y = rng.normal(size=m) if real_target else rng.integers(0, 2, size=m).astype(np.float64)
    order = np.argsort(X, axis=0, kind="stable")
    return np.take_along_axis(X, order, axis=0), y[order]


def same_split(a, b):
    """Bitwise-equal splits; the no-split sentinel (-1, nan, -inf) compares equal."""
    if np.isneginf(a[2]) and np.isneginf(b[2]):
        return a[0] == b[0] == -1 and np.isnan(a[1]) and np.isnan(b[1])
    return a == b


def per_column_best(kernel, xs, ys):
    """The split the multi-feature contract promises, from one call per
    column: the largest decrease, ties to the lowest column."""
    best = NO_SPLIT
    for j in range(xs.shape[1]):
        pos, thr, dec = split(kernel, xs[:, j : j + 1], ys[:, j : j + 1])
        assert pos in (0, -1)
        if dec > best[2]:
            best = (j, thr, dec)
    return best


def test_constant_feature_has_no_split():
    x = np.full(5, 2.0)
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    for kernel in (kernels.best_split_gini, kernels.best_split_sse):
        assert same_split(split(kernel, one_feature(x), one_feature(y)), NO_SPLIT)
        assert same_split(split(kernel, np.tile(x[:, None], 3), np.tile(y[:, None], 3)), NO_SPLIT)
        assert same_split(split(kernel, one_feature([7.0]), one_feature([1.0])), NO_SPLIT)


def test_gini_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(200):
        x, y = sorted_case(rng, int(rng.integers(2, 40)), trial % 2 == 0)
        pos, thr, dec = split(kernels.best_split_gini, one_feature(x), one_feature(y))
        assert pos == (-1 if np.isneginf(dec) else 0)
        expected = brute_gini(x.tolist(), y.tolist())
        if np.isneginf(expected[1]):
            assert np.isneginf(dec) and np.isnan(thr)
        else:
            assert (thr, dec) == expected


def test_sse_picks_variance_reducing_threshold():
    x = one_feature([0.0, 1.0, 2.0, 3.0])
    y = one_feature([5.0, 5.0, -5.0, -5.0])
    pos, thr, dec = split(kernels.best_split_sse, x, y)
    assert (pos, thr) == (0, 1.5)
    assert dec == pytest.approx(25.0)


def brute_sse(x, y):
    """(threshold, decrease) of every boundary of a sorted feature, by direct variance sums."""
    n = len(x)

    def sse(part):
        m = sum(part) / len(part)
        return sum((v - m) ** 2 for v in part)

    parent = sse(y) / n
    out = []
    for i in range(n - 1):
        if x[i] == x[i + 1]:
            continue
        thr = 0.5 * (x[i] + x[i + 1])
        if thr == x[i + 1]:
            thr = x[i]
        out.append((thr, parent - (sse(y[: i + 1]) + sse(y[i + 1 :])) / n))
    return out


def test_sse_matches_brute_force():
    rng = np.random.default_rng(1)
    checked = 0
    for trial in range(200):
        x, _ = sorted_case(rng, int(rng.integers(2, 40)), trial % 2 == 0)
        y = rng.normal(size=x.shape[0])
        candidates = brute_sse(x.tolist(), y.tolist())
        pos, thr, dec = split(kernels.best_split_sse, one_feature(x), one_feature(y))
        if not candidates:
            assert same_split((pos, thr, dec), NO_SPLIT)
            continue
        decs = sorted(d for _, d in candidates)
        if len(decs) > 1 and decs[-1] - decs[-2] < 1e-9:
            continue  # near-tie: the winner depends on rounding
        best_thr, best_dec = max(candidates, key=lambda c: c[1])
        assert pos == 0 and thr == best_thr
        assert dec == pytest.approx(best_dec, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("task", ["gini", "sse"])
def test_multi_feature_matches_per_column_calls(task):
    """Scoring k columns in one call gives, bit for bit, the best of k
    one-column calls, ties to the lowest column."""
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    rng = np.random.default_rng(2)
    for trial in range(300):
        m, k = int(rng.integers(1, 40)), int(rng.integers(1, 7))
        xs, ys = node_case(rng, m, k, trial % 2 == 0, task == "sse")
        if trial % 5 == 0:
            xs[:, int(rng.integers(0, k))] = 0.25  # a constant column
        assert same_split(split(kernel, xs, ys), per_column_best(kernel, xs, ys))


def test_gini_multi_feature_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(200):
        m, k = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        xs, ys = node_case(rng, m, k, trial % 2 == 0, real_target=False)
        expected = NO_SPLIT
        for j in range(k):
            thr, dec = brute_gini(xs[:, j].tolist(), ys[:, j].tolist())
            if dec > expected[2]:
                expected = (j, thr, dec)
        assert same_split(split(kernels.best_split_gini, xs, ys), expected)


def test_sse_multi_feature_matches_brute_force():
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(200):
        m, k = int(rng.integers(2, 30)), int(rng.integers(2, 6))
        xs, ys = node_case(rng, m, k, trial % 2 == 0, real_target=True)
        candidates = [
            (dec, j, thr)
            for j in range(k)
            for thr, dec in brute_sse(xs[:, j].tolist(), ys[:, j].tolist())
        ]
        pos, thr, dec = split(kernels.best_split_sse, xs, ys)
        if not candidates:
            assert same_split((pos, thr, dec), NO_SPLIT)
            continue
        decs = sorted(c[0] for c in candidates)
        if len(decs) > 1 and decs[-1] - decs[-2] < 1e-9:
            continue  # near-tie: the winner depends on rounding
        best_dec, best_j, best_thr = max(candidates)
        assert (pos, thr) == (best_j, best_thr)
        assert dec == pytest.approx(best_dec, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("kernel", [kernels.best_split_gini, kernels.best_split_sse])
def test_equal_columns_tie_to_the_lowest_feature(kernel):
    rng = np.random.default_rng(5)
    xs, ys = node_case(rng, 25, 1, tie_heavy=True, real_target=kernel is kernels.best_split_sse)
    single = split(kernel, xs, ys)
    constant = np.zeros_like(xs)
    pos, thr, dec = split(kernel, np.hstack([constant, xs, xs, xs]), np.hstack([ys, ys, ys, ys]))
    assert (pos, thr, dec) == (1, single[1], single[2])


@pytest.mark.parametrize("kernel", [kernels.best_split_gini, kernels.best_split_sse])
def test_tie_break_feature_before_threshold(kernel):
    x = np.array([0.0, 1.0, 2.0, 3.0])
    # Mirror-image targets: cut 2.5 of the first column and cut 0.5 of the
    # second give the same decrease; the lower feature wins although its
    # threshold is higher.
    high, low = np.array([0.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])
    xs = np.column_stack([x, x])
    pos, thr, _ = split(kernel, xs, np.column_stack([high, low]))
    assert (pos, thr) == (0, 2.5)
    pos, thr, _ = split(kernel, xs, np.column_stack([low, high]))
    assert (pos, thr) == (0, 0.5)
    # Within one column, symmetric targets tie at 0.5 and 2.5: the lower wins.
    pos, thr, _ = split(kernel, one_feature(x), one_feature([1.0, 0.0, 0.0, 1.0]))
    assert (pos, thr) == (0, 0.5)


def test_midpoint_never_rounds_up_to_the_right_value():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    pos, thr, _ = split(kernels.best_split_gini, one_feature([lo, hi]), one_feature([0.0, 1.0]))
    assert (pos, thr) == (0, lo)



def bits(split):
    """A split as exact bit patterns, so -0.0 differs from 0.0 and NaN equals NaN."""
    pos, thr, dec = split
    return int(pos), float(thr).hex(), float(dec).hex()


def batch_of(nodes):
    """Nodes laid side by side as the tree builder lays them out: each node's
    columns padded below with its last row to the longest node's length."""
    m = max(len(x) for x, _ in nodes)
    pad = [np.concatenate([a, np.repeat(a[-1:], m - len(a), axis=0)]) for x, y in nodes for a in (x, y)]
    return np.hstack(pad[0::2]), np.hstack(pad[1::2]), np.array([len(x) for x, _ in nodes])


@pytest.mark.parametrize("task", ["gini", "sse"])
def test_batch_matches_per_node_calls(task):
    """One call over nodes of unequal sizes gives, bit for bit, what one call
    per node gives: feature, threshold and decrease. Every third call has
    mostly distinct values, so that the kernel evaluates its whole grid of
    cuts; the others evaluate only the candidates."""
    kernel = kernels.best_split_gini if task == "gini" else kernels.best_split_sse
    rng = np.random.default_rng(6)
    for trial in range(60):
        k = int(rng.integers(1, 5))
        low, ties = (40, False) if trial % 3 == 0 else (1, trial % 2 == 0)
        nodes = [node_case(rng, int(rng.integers(low, 50)), k, ties, task == "sse") for _ in range(6)]
        nodes.append(node_case(rng, 1, k, False, task == "sse"))  # a 1-row node
        xs, ys = node_case(rng, 12, k, False, task == "sse")
        nodes.append((np.full_like(xs, 0.5), ys))  # a constant node
        xs, ys = node_case(rng, 20, k, True, task == "sse")
        nodes.append((np.where(xs < 0.15, -0.0, np.where(xs < 0.3, 0.0, xs)), ys))  # ties, -0.0 beside 0.0
        order = rng.permutation(len(nodes))
        nodes = [nodes[i] for i in order]
        x, y, sizes = batch_of(nodes)
        pos, thr, dec = kernel(x, y, sizes)
        assert pos.shape == thr.shape == dec.shape == (len(nodes),)
        for j, (xj, yj) in enumerate(nodes):
            assert bits((pos[j], thr[j], dec[j])) == bits(split(kernel, xj, yj))


@pytest.mark.parametrize("kernel", [kernels.best_split_gini, kernels.best_split_sse])
def test_batch_results_for_unsplittable_nodes(kernel):
    one_row = (one_feature([3.0]), one_feature([1.0]))
    constant = (one_feature([2.0, 2.0]), one_feature([0.0, 1.0]))
    x, y, sizes = batch_of([one_row, constant])
    pos, thr, dec = kernel(x, y, sizes)
    assert pos.tolist() == [-1, -1] and np.isnan(thr).all() and np.isneginf(dec).all()
    with pytest.raises(ValueError, match="split evenly"):
        kernel(np.zeros((3, 3)), np.zeros((3, 3)), np.array([3, 3]))
