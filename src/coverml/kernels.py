"""Split-scan kernels for CART tree induction.

Each kernel scores every candidate feature of one tree node in one call.
`x` and `y` are `(m, k)` arrays for a node of m rows and k candidate
features: column j holds feature j's values sorted ascending and the
targets in that same order, so `len(x)` is the node's row count. A cut
between sorted positions i and i + 1 is a candidate only where the two
values differ; every other position scores -inf. The cumulative sums run
along the sorted axis with the same expressions, in the same order, as a
scan of one column, so a feature's decreases do not depend on the other
columns passed beside it.

The best split has the largest decrease. Ties resolve to the lowest
feature, then the lowest threshold: np.argmax returns the first maximum in
row-major order of the `(k, m - 1)` decrease matrix. A kernel returns
`(feature position, threshold, decrease)`, where the position indexes the
columns of `x`; when no column has two distinct values it returns
`(-1, nan, -inf)`.
"""

from __future__ import annotations

import numpy as np

_NO_SPLIT = (-1, float("nan"), float("-inf"))


def _best(x: np.ndarray, dec: np.ndarray) -> tuple[int, float, float]:
    # x is (k, m) and dec is (k, m - 1), both feature-major.
    if dec.size == 0:
        return _NO_SPLIT
    dec[x[:, :-1] == x[:, 1:]] = -np.inf
    f, i = divmod(int(np.argmax(dec)), dec.shape[1])
    if dec[f, i] == -np.inf:
        return _NO_SPLIT
    lo, hi = x[f, i], x[f, i + 1]
    # Guard against the midpoint rounding up to the right value, which would
    # send the whole node left under the `value <= threshold` rule.
    mid = 0.5 * (lo + hi)
    return f, float(lo if mid == hi else mid), float(dec[f, i])


def best_split_gini(x: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
    """Best split of one node by Gini impurity decrease; `y` holds 0/1 labels."""
    x, y = x.T, y.T
    total = float(x.shape[1])
    csum = np.cumsum(y, axis=1)
    c1 = csum[:, -1:]
    p1 = c1 / total
    p0 = (total - c1) / total
    g_parent = 1.0 - p1 * p1 - p0 * p0

    nl = np.arange(1.0, total)
    nr = total - nl
    cl = csum[:, :-1]
    cr = c1 - cl
    # gl = 1 - pl1*pl1 - pl0*pl0 with pl1 = cl/nl, pl0 = (nl - cl)/nl, and gr
    # likewise on the right; evaluated in place, in that order, so a node
    # holds four (k, m) temporaries.
    gl = cl / nl
    pl0 = np.subtract(nl, cl, out=cl)
    pl0 /= nl
    gl *= gl
    np.subtract(1.0, gl, out=gl)
    pl0 *= pl0
    gl -= pl0
    gr = cr / nr
    pr0 = np.subtract(nr, cr, out=cr)
    pr0 /= nr
    gr *= gr
    np.subtract(1.0, gr, out=gr)
    pr0 *= pr0
    gr -= pr0
    # dec = g_parent - (nl/total)*gl - (nr/total)*gr
    dec = gl
    dec *= nl / total
    np.subtract(g_parent, dec, out=dec)
    gr *= nr / total
    dec -= gr
    return _best(x, dec)


def best_split_sse(x: np.ndarray, y: np.ndarray) -> tuple[int, float, float]:
    """Best split of one node by weighted variance decrease (squared-error
    impurity); `y` is a real-valued target."""
    x, y = x.T, y.T
    total = float(x.shape[1])
    s = np.cumsum(y, axis=1)
    ss = np.cumsum(y * y, axis=1)
    s_all, ss_all = s[:, -1:], ss[:, -1:]
    m = s_all / total
    imp = ss_all / total - m * m

    nl = np.arange(1.0, total)
    nr = total - nl
    s, ss = s[:, :-1], ss[:, :-1]
    # il = ss/nl - ml*ml with ml = s/nl, ir = (ss_all - ss)/nr - mr*mr with
    # mr = (s_all - s)/nr; evaluated in place, in that order.
    ml = s / nl
    il = ss / nl
    ml *= ml
    il -= ml
    mr = np.subtract(s_all, s, out=s)
    mr /= nr
    ir = np.subtract(ss_all, ss, out=ss)
    ir /= nr
    mr *= mr
    ir -= mr
    # dec = imp - (nl/total)*il - (nr/total)*ir
    dec = il
    dec *= nl / total
    np.subtract(imp, dec, out=dec)
    ir *= nr / total
    dec -= ir
    return _best(x, dec)
