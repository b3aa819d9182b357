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

The Gini kernel also takes row weights `w` in the layout of `x`: a row of
weight c counts as c equal rows, as a random forest's bootstrap sample
holds a drawn row as often as it was drawn, and `y` then holds each row's
class-1 count, its label times c. The row and class-1 counts left of a cut
are cumulative weights instead of positions. They are whole numbers below
2**53, so each is the float64 that the positions of the c-fold rows give,
and a split depends only on counts at cuts between distinct values: the
weighted node and the node of repeated rows get the same split, bit for
bit.

Both kernels run one scan. A criterion is its impurity as a function of a
row count and the criterion's cumulative sums over those rows: Gini
impurity of the class-1 count, or variance of the sums of the targets and
of their squares. The scan evaluates it for each node and for the rows
left and right of each cut, and weighs the three into the decrease.

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
    into 1-D arrays. `nl` and `total` are the row counts left of each cut
    and in its node: positions, or cumulative weights `w`."""

    def __init__(self, x: np.ndarray, sizes, w: np.ndarray | None = None) -> None:
        m, k_total = x.shape
        self.x = x.T
        self.sizes = np.asarray(sizes, dtype=np.intp)
        self.k = k_total // self.sizes.size
        if self.k * self.sizes.size != k_total:
            raise ValueError(f"{k_total} columns do not split evenly over {self.sizes.size} nodes")
        last = (self.sizes - 1).repeat(self.k)  # each column's last row
        self._last = last + np.arange(0, k_total * m, m)  # flat, in a (K, M) array
        cw = None if w is None else w.T.cumsum(axis=1)
        self.totals = last + 1.0 if cw is None else self.at_last(cw)
        self.cut = self.x[:, :-1] != self.x[:, 1:]
        # A gathered cut costs more than a grid cell and holds more
        # temporaries (its indices). In timed calls of 60 to 100,000 rows the
        # gather stopped paying between half and nine tenths of the cuts
        # being candidates; the switch takes the lower end, where the
        # largest calls cross over.
        self.dense = m > 1 and 2 * np.count_nonzero(self.cut) >= self.cut.size
        if self.dense:
            # Nodes of m rows each, unweighted, all hold m.
            same = cw is None and self.sizes.min() == m
            self.total = float(m) if same else self.totals[:, None]
            self.nl = np.arange(1.0, m) if cw is None else self.at(cw)
        else:
            self.flat = self.cut.reshape(-1).nonzero()[0]
            self.col = self.flat // (m - 1)
            self.total = self.totals.take(self.col)
            self.nl = (self.flat - self.col * (m - 1)) + 1.0 if cw is None else self.at(cw)

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


def _gini(n, c1):
    """Gini impurity 1 - p1*p1 - p0*p0 of n rows of which c1 are class 1,
    with p1 = c1/n and p0 = (n - c1)/n; evaluated in place, in that order,
    over c1."""
    p1 = c1 / n
    p0 = np.subtract(n, c1, out=c1)
    p0 /= n
    p1 *= p1
    np.subtract(1.0, p1, out=p1)
    p0 *= p0
    p1 -= p0
    return p1


def _variance(n, s, ss):
    """Variance ss/n - m*m of n targets summing to s, whose squares sum to
    ss, with m = s/n; evaluated in place, in that order, over s and ss."""
    m = np.divide(s, n, out=s)
    v = np.divide(ss, n, out=ss)
    m *= m
    v -= m
    return v


# A whole-grid call evaluates the padded lanes of its shorter nodes too: they
# can divide by zero, and best() masks them, so the warnings are silenced.
@np.errstate(divide="ignore", invalid="ignore")
def _scan(cuts: _Cuts, sums: list, impurity):
    """Best split of each node by the decrease of `impurity(n, *sums)`,
    which may overwrite the sums it is given, from the criterion's (K, M)
    cumulative sums: parent - (nl/total)*left - (nr/total)*right."""
    # Every side's sums are read before impurity() overwrites their sources.
    last = [cuts.at_last(s) for s in sums]
    left = [cuts.at(s) for s in sums]
    right = [cuts.of_column(a) - b for a, b in zip(last, left)]
    parent = cuts.of_column(impurity(cuts.totals, *last))
    total, nl = cuts.total, cuts.nl
    nr = total - nl
    dec = impurity(nl, *left)
    dec *= nl / total
    np.subtract(parent, dec, out=dec)
    right = impurity(nr, *right)
    right *= np.divide(nr, total, out=nr)
    # Into the right side's array, which is contiguous: best() reshapes it.
    return cuts.best(np.subtract(dec, right, out=right))


def best_split_gini(x: np.ndarray, y: np.ndarray, sizes, w: np.ndarray | None = None):
    """Best split of each node by Gini impurity decrease; `y` holds 0/1
    labels, or with row weights `w` each row's class-1 count."""
    return _scan(_Cuts(x, sizes, w), [y.T.cumsum(axis=1)], _gini)


def best_split_sse(x: np.ndarray, y: np.ndarray, sizes):
    """Best split of each node by weighted variance decrease (squared-error
    impurity); `y` is a real-valued target."""
    return _scan(_Cuts(x, sizes), [y.T.cumsum(axis=1), (y.T * y.T).cumsum(axis=1)], _variance)
