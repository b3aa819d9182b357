"""Logistic regression and linear SVM, trained by deterministic descent."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..fields import Vector
from .base import Count, Params, Probability, TrainedClassifier, check_training_data

#: Step size for SVM subgradient descent when reg_param is zero (the 1/(reg*t)
#: schedule is undefined there).
SVM_FIXED_STEP = 0.1

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_and_grad(w, b, X, y, reg_param, fit_intercept):
    """Mean logistic loss + reg_param/2 * ||w||^2 (intercept unregularized)."""
    n = X.shape[0]
    z = X @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * reg_param * float(w @ w)
    resid = sigmoid(z) - y
    gw = X.T @ resid / n + reg_param * w
    gb = float(np.mean(resid)) if fit_intercept else 0.0
    return loss, gw, gb


def hinge_loss_and_grad(w, b, X, ys, reg_param, fit_intercept):
    """Mean hinge loss + reg_param/2 * ||w||^2 with labels in {-1, +1}.

    At the hinge kink the zero subgradient branch is taken (strict margin
    violations only).
    """
    n = X.shape[0]
    margins = X @ w + b
    viol = 1.0 - ys * margins > 0.0
    loss = float(np.mean(np.maximum(0.0, 1.0 - ys * margins))) + 0.5 * reg_param * float(w @ w)
    coef = np.where(viol, -ys, 0.0)
    gw = X.T @ coef / n + reg_param * w
    gb = float(np.mean(coef)) if fit_intercept else 0.0
    return loss, gw, gb


def _standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (X - mu) / sd, mu, sd


def _destandardize(w: np.ndarray, b: float, mu: np.ndarray, sd: np.ndarray) -> tuple[np.ndarray, float]:
    w_orig = w / sd
    return w_orig, b - float(w_orig @ mu)


@dataclass(frozen=True)
class LogisticParams(Params):
    max_iter: Count = 10
    reg_param: Annotated[float, "[0, inf)"] = 0.1
    threshold: Probability = 0.5
    tol: Annotated[float, "(0, inf)"] = 1e-6
    fit_intercept: bool = True
    standardization: bool = True


@dataclass(frozen=True, eq=False)
class LogisticModel(TrainedClassifier):
    family = "lr"
    weights: Vector
    intercept: float
    threshold: Probability

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def raw_scores(self, X):
        return self._check_matrix(X) @ self.weights + self.intercept

    def _probabilities_of(self, raw):
        return sigmoid(raw)


def _descend(value_grad, w, b, max_iter, tol, fit_intercept):
    """Full-batch gradient descent with Armijo backtracking; never increases
    the objective."""
    loss, gw, gb = value_grad(w, b)
    for _ in range(max_iter):
        gnorm_sq = float(gw @ gw) + gb * gb
        if np.sqrt(gnorm_sq) < tol:
            break
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            w_new = w - step * gw
            b_new = b - step * gb if fit_intercept else b
            loss_new, gw_new, gb_new = value_grad(w_new, b_new)
            if np.isfinite(loss_new) and loss_new <= loss - _ARMIJO_C * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break
        w, b, loss, gw, gb = w_new, b_new, loss_new, gw_new, gb_new
    return w, b


def train_logistic(X, y, params: LogisticParams = LogisticParams()) -> LogisticModel:
    X, y = check_training_data(X, y)
    yf = y.astype(np.float64)
    mu = sd = None
    if params.standardization:
        X, mu, sd = _standardize(X)

    def value_grad(w, b):
        return logistic_loss_and_grad(w, b, X, yf, params.reg_param, params.fit_intercept)

    w = np.zeros(X.shape[1])
    w, b = _descend(value_grad, w, 0.0, params.max_iter, params.tol, params.fit_intercept)
    if params.standardization:
        w, b = _destandardize(w, b, mu, sd)
    return LogisticModel(w, b, params.threshold)


@dataclass(frozen=True)
class LinearSvmParams(Params):
    reg_param: Annotated[float, "[0, inf)"] = 0.1
    max_iter: Count = 100
    tol: Annotated[float, "(0, inf)"] = 1e-6
    fit_intercept: bool = True
    standardization: bool = True


@dataclass(frozen=True, eq=False)
class LinearSvmModel(TrainedClassifier):
    """Margin classifier: rawScore is the margin, no probability output."""

    family = "svm"
    threshold = None
    weights: Vector
    intercept: float

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def raw_scores(self, X):
        return self._check_matrix(X) @ self.weights + self.intercept


def train_linear_svm(X, y, params: LinearSvmParams = LinearSvmParams()) -> LinearSvmModel:
    """Subgradient descent on the hinge objective with step 1/(reg*t)
    (fixed step when unregularized)."""
    X, y = check_training_data(X, y)
    ys = 2.0 * y.astype(np.float64) - 1.0
    mu = sd = None
    if params.standardization:
        X, mu, sd = _standardize(X)

    w = np.zeros(X.shape[1])
    b = 0.0
    for t in range(1, params.max_iter + 1):
        _, gw, gb = hinge_loss_and_grad(w, b, X, ys, params.reg_param, params.fit_intercept)
        if np.sqrt(float(gw @ gw) + gb * gb) < params.tol:
            break
        step = 1.0 / (params.reg_param * t) if params.reg_param > 0 else SVM_FIXED_STEP
        w = w - step * gw
        if params.fit_intercept:
            b = b - step * gb
    if params.standardization:
        w, b = _destandardize(w, b, mu, sd)
    return LinearSvmModel(w, b)
