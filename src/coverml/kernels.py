"""Split-scan kernels for CART tree induction.

Each kernel scans one pre-sorted feature column and returns the threshold
with the largest impurity decrease. Ties resolve to the lowest threshold,
the tie-break tree induction promises, because np.argmax returns the first
maximum.
"""

from __future__ import annotations

import numpy as np


def _midpoints(x: np.ndarray, cut: np.ndarray) -> np.ndarray:
    # Guard against the midpoint rounding up to the right value, which would
    # send the whole node left under the `value <= threshold` rule.
    mid = 0.5 * (x[cut] + x[cut + 1])
    return np.where(mid == x[cut + 1], x[cut], mid)


def best_split_gini(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Best threshold by Gini impurity decrease on a pre-sorted feature.

    `x` must be sorted ascending and `y` must hold 0/1 class labels in the
    same order. Returns (threshold, decrease); decrease is -inf when every
    value is equal (no candidate split).
    """
    n = x.shape[0]
    cut = np.nonzero(x[:-1] != x[1:])[0]
    if cut.size == 0:
        return float("nan"), float("-inf")

    total = float(n)
    csum = np.cumsum(y)
    c1 = csum[-1]
    p1 = c1 / total
    p0 = (total - c1) / total
    g_parent = 1.0 - p1 * p1 - p0 * p0

    nl = (cut + 1).astype(np.float64)
    cl = csum[cut]
    nr = total - nl
    cr = c1 - cl
    pl1 = cl / nl
    pl0 = (nl - cl) / nl
    gl = 1.0 - pl1 * pl1 - pl0 * pl0
    pr1 = cr / nr
    pr0 = (nr - cr) / nr
    gr = 1.0 - pr1 * pr1 - pr0 * pr0
    dec = g_parent - (nl / total) * gl - (nr / total) * gr

    best = int(np.argmax(dec))
    return float(_midpoints(x, cut)[best]), float(dec[best])


def best_split_sse(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Best threshold by weighted variance decrease (squared-error impurity).

    Same contract as :func:`best_split_gini` but `y` is a real-valued target.
    """
    n = x.shape[0]
    cut = np.nonzero(x[:-1] != x[1:])[0]
    if cut.size == 0:
        return float("nan"), float("-inf")

    total = float(n)
    s = np.cumsum(y)
    ss = np.cumsum(y * y)
    m = s[-1] / total
    imp = ss[-1] / total - m * m

    nl = (cut + 1).astype(np.float64)
    nr = total - nl
    ml = s[cut] / nl
    il = ss[cut] / nl - ml * ml
    mr = (s[-1] - s[cut]) / nr
    ir = (ss[-1] - ss[cut]) / nr - mr * mr
    dec = imp - (nl / total) * il - (nr / total) * ir

    best = int(np.argmax(dec))
    return float(_midpoints(x, cut)[best]), float(dec[best])
