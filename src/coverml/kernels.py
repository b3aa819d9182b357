"""Split-scan kernels for CART tree induction.

Each kernel scores every candidate feature of a batch of tree nodes in one
call. `x` and `y` are `(M, K)` arrays for N nodes of k candidate features
each, K = N * k: columns `j * k` to `j * k + k - 1` belong to node j, and
each holds one feature's values sorted ascending with the targets in that
same order. `sizes` gives the nodes' row counts. Node j's columns hold its
rows in their first `sizes[j]` rows and repeat its last row below that, so
`M` is at least the largest size and `len(x)` is the padded row count of
the call. The tree builder (`models.tree.grow_trees`) passes a whole depth
level of a tree that draws no feature subsets, or the next depth-first
nodes of each tree of a random forest grown in lockstep, whose per-split
draws must keep their depth-first order.

A cut between sorted positions i and i + 1 is a candidate only where the
two values differ, so never inside the padding. The cumulative sums run
along the sorted axis of each column, padding included, and a node's
totals are read at its last row. The decrease is evaluated with the same
expressions, in the same order, as a scan of one column of one node: over
the whole grid of cuts, the non-candidates masked afterwards, when at least
half the cuts are candidates, and otherwise at the candidates only. So a
node's decreases depend neither on the columns beside it nor on the
padding below it. A whole-grid evaluation also computes the padded lanes
of the shorter nodes, which can divide by zero; those lanes are masked,
and their floating-point warnings are silenced on purpose.

The best split of a node has the largest decrease. Ties resolve to the
lowest feature, then the lowest threshold: the first maximum in row-major
order of the node's `(k, M - 1)` grid of cuts. A kernel returns
`(feature position, threshold, decrease)`, where the position indexes the
node's k columns; when no column has two distinct values it returns
`(-1, nan, -inf)`. The three are arrays with one entry per node.
"""

from __future__ import annotations

import numpy as np


class _Cuts:
    """Where a call evaluates its decreases: the whole (K, M - 1) grid of
    cuts, masked afterwards, when at least half the cuts are candidates;
    otherwise only the candidates, gathered in row-major order of the grid
    into 1-D arrays."""

    def __init__(self, x: np.ndarray, sizes) -> None:
        m, k_total = x.shape
        self.x = x.T
        self.sizes = np.asarray(sizes, dtype=np.intp)
        self.k = k_total // self.sizes.size
        if self.k * self.sizes.size != k_total:
            raise ValueError(f"{k_total} columns do not split evenly over {self.sizes.size} nodes")
        last = (self.sizes - 1).repeat(self.k)  # each column's last row
        self.totals = last + 1.0
        self._last = last + np.arange(0, k_total * m, m)  # flat, in a (K, M) array
        self.cut = self.x[:, :-1] != self.x[:, 1:]
        # A gathered cut costs more than a grid cell and holds more
        # temporaries (its indices). In timed calls of 60 to 100,000 rows the
        # gather stopped paying between half and nine tenths of the cuts
        # being candidates; the switch takes the lower end, where the
        # largest calls cross over.
        self.dense = m > 1 and 2 * np.count_nonzero(self.cut) >= self.cut.size
        if self.dense:
            padded = self.sizes.min() < m
            self.total = self.totals[:, None] if padded else float(m)
            self.nl = np.arange(1.0, m)
        else:
            self.flat = self.cut.reshape(-1).nonzero()[0]
            self.col = self.flat // (m - 1)
            self.total = self.totals.take(self.col)
            self.nl = (self.flat - self.col * (m - 1)) + 1.0

    def at(self, cumulative: np.ndarray) -> np.ndarray:
        """A (K, M) cumulative sum read at each cut: the sum of the rows up
        to and including the cut's left row."""
        if self.dense:
            return cumulative[:, :-1]
        return cumulative.reshape(-1).take(self.flat + self.col)

    def at_last(self, cumulative: np.ndarray) -> np.ndarray:
        """A (K, M) cumulative sum read at each column's last row."""
        return cumulative.reshape(-1).take(self._last)

    def of_column(self, values: np.ndarray) -> np.ndarray:
        """A per-column (K,) value for each cut."""
        return values[:, None] if self.dense else values.take(self.col)

    def best(self, dec: np.ndarray):
        n_nodes, (k_total, m) = self.sizes.size, self.x.shape
        # Every cut of the grid, -inf where it is not a candidate; np.argmax
        # returns the first maximum of each node's row-major block.
        if self.dense:
            dec[~self.cut] = -np.inf
            grid = dec.reshape(n_nodes, -1)
        else:
            grid = np.empty((n_nodes, max(self.k * (m - 1), 1)))
            grid.fill(-np.inf)
            grid.reshape(-1)[self.flat] = dec
        best = grid.argmax(axis=1)
        gain = grid[np.arange(n_nodes), best]
        f, pos = np.divmod(best, max(m - 1, 1))
        col = np.arange(0, k_total, self.k) + f
        lo, hi = self.x[col, pos], self.x[col, np.minimum(pos + 1, m - 1)]
        # Guard against the midpoint rounding up to the right value, which
        # would send the whole node left under the `value <= threshold` rule.
        mid = 0.5 * (lo + hi)
        thr = np.where(mid == hi, lo, mid)
        none = gain == -np.inf
        f[none] = -1
        thr[none] = np.nan
        return f, thr, gain


# A whole-grid call evaluates the padded lanes of its shorter nodes too: they
# can divide by zero, and best() masks them, so the warnings are silenced.
_PADDED_LANES = np.errstate(divide="ignore", invalid="ignore")


@_PADDED_LANES
def best_split_gini(x: np.ndarray, y: np.ndarray, sizes):
    """Best split of each node by Gini impurity decrease; `y` holds 0/1 labels."""
    cuts = _Cuts(x, sizes)
    csum = y.T.cumsum(axis=1)
    c1 = cuts.at_last(csum)
    p1 = c1 / cuts.totals
    p0 = (cuts.totals - c1) / cuts.totals
    g_parent = cuts.of_column(1.0 - p1 * p1 - p0 * p0)

    total, nl = cuts.total, cuts.nl
    nr = total - nl
    cl = cuts.at(csum)
    cr = cuts.of_column(c1) - cl
    # gl = 1 - pl1*pl1 - pl0*pl0 with pl1 = cl/nl, pl0 = (nl - cl)/nl, and
    # gr likewise on the right; evaluated in place, in that order.
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
    gr *= np.divide(nr, total, out=nr)
    dec -= gr
    return cuts.best(dec)


@_PADDED_LANES
def best_split_sse(x: np.ndarray, y: np.ndarray, sizes):
    """Best split of each node by weighted variance decrease (squared-error
    impurity); `y` is a real-valued target."""
    cuts = _Cuts(x, sizes)
    y = y.T
    s = y.cumsum(axis=1)
    ss = (y * y).cumsum(axis=1)
    s_all, ss_all = cuts.at_last(s), cuts.at_last(ss)
    m = s_all / cuts.totals
    imp = cuts.of_column(ss_all / cuts.totals - m * m)

    total, nl = cuts.total, cuts.nl
    nr = total - nl
    s, ss = cuts.at(s), cuts.at(ss)
    # il = ss/nl - ml*ml with ml = s/nl, ir = (ss_all - ss)/nr - mr*mr with
    # mr = (s_all - s)/nr; evaluated in place, in that order.
    ml = s / nl
    il = ss / nl
    ml *= ml
    il -= ml
    mr = np.subtract(cuts.of_column(s_all), s, out=s)
    mr /= nr
    ir = np.subtract(cuts.of_column(ss_all), ss, out=ss)
    ir /= nr
    mr *= mr
    ir -= mr
    # dec = imp - (nl/total)*il - (nr/total)*ir
    dec = il
    dec *= nl / total
    np.subtract(imp, dec, out=dec)
    ir *= np.divide(nr, total, out=nr)
    dec -= ir
    return cuts.best(dec)
