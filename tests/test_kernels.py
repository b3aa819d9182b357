import numpy as np
import pytest

from coverml import kernels

from helpers import gini


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


def sorted_case(rng, n, tie_heavy):
    x = rng.random(n)
    if tie_heavy:
        x = np.round(x, 1)
    x = np.sort(x)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return x, y


def same_split(a, b):
    """Bitwise-equal splits; the no-split sentinel (nan, -inf) compares equal."""
    if np.isneginf(a[1]) and np.isneginf(b[1]):
        return np.isnan(a[0]) and np.isnan(b[0])
    return a == b


def test_constant_feature_has_no_split():
    x = np.full(5, 2.0)
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    thr, dec = kernels.best_split_gini(x, y)
    assert dec == float("-inf") and np.isnan(thr)
    thr, dec = kernels.best_split_sse(x, y)
    assert dec == float("-inf") and np.isnan(thr)


def test_gini_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(200):
        x, y = sorted_case(rng, int(rng.integers(2, 40)), trial % 2 == 0)
        assert same_split(kernels.best_split_gini(x, y), brute_gini(x.tolist(), y.tolist()))


def test_sse_picks_variance_reducing_threshold():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([5.0, 5.0, -5.0, -5.0])
    thr, dec = kernels.best_split_sse(x, y)
    assert thr == 1.5
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
        thr, dec = kernels.best_split_sse(x, y)
        if not candidates:
            assert np.isneginf(dec) and np.isnan(thr)
            continue
        decs = sorted(d for _, d in candidates)
        if len(decs) > 1 and decs[-1] - decs[-2] < 1e-9:
            continue  # near-tie: the winner depends on rounding
        best_thr, best_dec = max(candidates, key=lambda c: c[1])
        assert thr == best_thr
        assert dec == pytest.approx(best_dec, rel=1e-9, abs=1e-12)
        checked += 1
    assert checked > 150
