"""Degree-2 factorization machine with logistic loss.

The pairwise term is evaluated through the factored identity
0.5 * sum_f[(V_f . x)^2 - (V_f^2 . x^2)], which is O(k * nnz) instead of the
naive O(k * d^2) pairwise sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..fields import Matrix, Vector
from ..rng import derived_rng
from .base import Count, ModelError, Params, Probability, TrainedClassifier, check_training_data
from .linear import sigmoid


def fm_raw_scores(X: np.ndarray, w0: float, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    linear = X @ w + w0
    XV = X @ V
    pair = 0.5 * ((XV * XV).sum(axis=1) - ((X * X) @ (V * V)).sum(axis=1))
    return linear + pair


def _fm_grad(X, ys, w0, w, V):
    """The gradient in (w0, w, V) of the loss of `fm_loss_and_grad`, after
    the margins -ys * score that the loss is a function of."""
    n = X.shape[0]
    XX = X * X
    XV = X @ V
    scores = (X @ w + w0) + 0.5 * ((XV * XV).sum(axis=1) - (XX @ (V * V)).sum(axis=1))
    neg_ys = -ys
    neg_margins = neg_ys * scores
    # d loss / d score
    g = neg_ys * sigmoid(neg_margins) / n
    return neg_margins, float(g.sum()), X.T @ g, X.T @ (g[:, None] * XV) - (XX.T @ g)[:, None] * V


def fm_loss_and_grad(X, ys, w0, w, V):
    """Mean logistic loss over {-1,+1} labels and its gradient in (w0, w, V)."""
    neg_margins, g_w0, g_w, g_V = _fm_grad(X, ys, w0, w, V)
    return float(np.add.reduce(np.logaddexp(0.0, neg_margins))) / X.shape[0], g_w0, g_w, g_V


@dataclass(frozen=True)
class FMParams(Params):
    factor_dim: Count = 8
    init_std: Annotated[float, "[0, inf)"] = 0.01
    step_size: Annotated[float, "(0, inf)"] = 0.1
    max_iter: Count = 20
    batch_size: Count = 32
    seed: int = 1
    threshold: Probability = 0.5


@dataclass(frozen=True, eq=False)
class FMModel(TrainedClassifier):
    family = "fm"
    w0: float
    w: Vector
    V: Matrix
    threshold: Probability

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    def raw_scores(self, X):
        return fm_raw_scores(self._check_matrix(X), self.w0, self.w, self.V)

    def _probabilities_of(self, raw):
        return sigmoid(raw)

    def _check(self) -> None:
        if self.V.shape[0] != self.w.size:
            raise ModelError(f"fm model V has {self.V.shape[0]} rows, w has {self.w.size} entries")


def train_fm(X, y, params: FMParams = FMParams()) -> FMModel:
    """Seeded mini-batch gradient descent; epochs reshuffle from the seed. A
    step computes only the gradient and updates the model in place.

    With init_std=0 the factor matrix starts at zero and stays there (its
    gradient vanishes), reducing the score path to plain logistic regression.
    """
    X, y = check_training_data(X, y)
    ys = 2.0 * y.astype(np.float64) - 1.0
    n, d = X.shape
    rng = derived_rng(params.seed, 29)
    w0 = 0.0
    w = np.zeros(d)
    V = rng.normal(0.0, params.init_std, size=(d, params.factor_dim)) if params.init_std > 0 else np.zeros((d, params.factor_dim))

    step = params.step_size
    # A step too large overflows; the check after the loop reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            order = rng.permutation(n)
            for start in range(0, n, params.batch_size):
                batch = order[start : start + params.batch_size]
                _, g_w0, g_w, g_V = _fm_grad(X[batch], ys[batch], w0, w, V)
                w0 -= step * g_w0
                g_w *= step
                w -= g_w
                g_V *= step
                V -= g_V
    if not (np.isfinite(w0) and np.isfinite(w).all() and np.isfinite(V).all()):
        raise ModelError(f"fm weights are not finite; lower step_size ({step!r})")
    return FMModel(w0, w, V, params.threshold)
