"""Degree-2 factorization machine with logistic loss.

The pairwise term is evaluated through the factored identity
0.5 * sum_f[(V_f . x)^2 - (V_f^2 . x^2)], which is O(k * nnz) instead of the
naive O(k * d^2) pairwise sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import derived_rng
from .base import TrainedClassifier, check_training_data, finite_array, finite_number
from .linear import sigmoid


def fm_raw_scores(X: np.ndarray, w0: float, w: np.ndarray, V: np.ndarray) -> np.ndarray:
    linear = X @ w + w0
    XV = X @ V
    pair = 0.5 * ((XV * XV).sum(axis=1) - ((X * X) @ (V * V)).sum(axis=1))
    return linear + pair


def fm_loss_and_grad(X, ys, w0, w, V):
    """Mean logistic loss over {-1,+1} labels and its gradient in (w0, w, V)."""
    n = X.shape[0]
    XV = X @ V
    scores = (X @ w + w0) + 0.5 * ((XV * XV).sum(axis=1) - ((X * X) @ (V * V)).sum(axis=1))
    loss = float(np.mean(np.logaddexp(0.0, -ys * scores)))
    # d loss / d score
    g = -ys * sigmoid(-ys * scores) / n
    g_w0 = float(g.sum())
    g_w = X.T @ g
    g_V = X.T @ (g[:, None] * XV) - ((X * X).T @ g)[:, None] * V
    return loss, g_w0, g_w, g_V


@dataclass(frozen=True)
class FMParams:
    factor_dim: int = 8
    init_std: float = 0.01
    step_size: float = 0.1
    max_iter: int = 20
    batch_size: int = 32
    seed: int = 1
    threshold: float = 0.5

    def __post_init__(self):
        if self.factor_dim < 1:
            raise ValueError("factor_dim must be >= 1")
        if self.init_std < 0:
            raise ValueError("init_std must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")


class FMModel(TrainedClassifier):
    family = "fm"

    def __init__(self, w0: float, w: np.ndarray, V: np.ndarray, threshold: float):
        self.w0 = float(w0)
        self.w = np.asarray(w, dtype=np.float64)
        self.V = np.asarray(V, dtype=np.float64)
        self.threshold = threshold
        self.n_features = self.w.shape[0]

    def raw_scores(self, X):
        return fm_raw_scores(self._check_matrix(X), self.w0, self.w, self.V)

    def _probabilities_of(self, raw):
        return sigmoid(raw)

    def to_dict(self) -> dict:
        return {
            "w0": self.w0,
            "w": self.w.tolist(),
            "V": self.V.tolist(),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FMModel":
        w = finite_array(d["w"], "w", (None,))
        V = finite_array(d["V"], "V", (w.size, None))
        return cls(finite_number(d["w0"], "w0"), w, V, finite_number(d["threshold"], "threshold"))


def train_fm(X, y, params: FMParams = FMParams()) -> FMModel:
    """Seeded mini-batch gradient descent; epochs reshuffle from the seed.

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

    for _ in range(params.max_iter):
        order = rng.permutation(n)
        for start in range(0, n, params.batch_size):
            batch = order[start : start + params.batch_size]
            _, g_w0, g_w, g_V = fm_loss_and_grad(X[batch], ys[batch], w0, w, V)
            w0 -= params.step_size * g_w0
            w -= params.step_size * g_w
            V -= params.step_size * g_V
    return FMModel(w0, w, V, params.threshold)
