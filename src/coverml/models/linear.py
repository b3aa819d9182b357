"""Logistic regression and linear SVM, trained by deterministic descent."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ..fields import Vector
from .base import Count, ModelError, Params, Probability, TrainedClassifier, check_training_data

#: Step size for SVM subgradient descent when reg_param is zero (the 1/(reg*t)
#: schedule is undefined there).
SVM_FIXED_STEP = 0.1

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for each entry, computed from exp(-|z|) so that no
    exponent overflows: 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    np.divide(e, d, out=e)
    np.divide(1.0, d, out=d)
    return np.where(z >= 0, d, e)


def _logistic_loss(z, y, w, reg_param) -> float:
    """The objective of `logistic_loss_and_grad` at scores z = X @ w + b."""
    return float(np.add.reduce(np.logaddexp(0.0, z) - y * z)) / z.shape[0] + 0.5 * reg_param * float(w @ w)


def _logistic_grad(X, z, y, w, reg_param, fit_intercept):
    """The gradient in (w, b) of `logistic_loss_and_grad` at scores z = X @ w + b."""
    n = X.shape[0]
    resid = sigmoid(z) - y
    gw = X.T @ resid / n + reg_param * w
    gb = float(np.add.reduce(resid)) / n if fit_intercept else 0.0
    return gw, gb


def logistic_loss_and_grad(w, b, X, y, reg_param, fit_intercept):
    """Mean logistic loss + reg_param/2 * ||w||^2 (intercept unregularized)."""
    z = X @ w + b
    return _logistic_loss(z, y, w, reg_param), *_logistic_grad(X, z, y, w, reg_param, fit_intercept)


def _hinge_grad(w, b, X, ys, reg_param, fit_intercept, slack, gw) -> float:
    """The subgradient in (w, b) of `hinge_loss_and_grad`: writes the slacks
    1 - ys * (X @ w + b) into `slack` and the part in w into `gw`, both
    float64 buffers, and returns the part in b."""
    n = X.shape[0]
    np.matmul(X, w, out=slack)
    slack += b
    slack *= ys
    np.subtract(1.0, slack, out=slack)
    coef = np.where(slack > 0.0, -ys, 0.0)
    np.matmul(X.T, coef, out=gw)
    gw /= n
    gw += reg_param * w
    return float(np.add.reduce(coef)) / n if fit_intercept else 0.0


def hinge_loss_and_grad(w, b, X, ys, reg_param, fit_intercept):
    """Mean hinge loss + reg_param/2 * ||w||^2 with labels in {-1, +1}.

    At the hinge kink the zero subgradient branch is taken (strict margin
    violations only).
    """
    slack, gw = np.empty(X.shape[0]), np.empty(X.shape[1])
    gb = _hinge_grad(w, b, X, ys, reg_param, fit_intercept, slack, gw)
    loss = float(np.add.reduce(np.maximum(0.0, slack))) / X.shape[0] + 0.5 * reg_param * float(w @ w)
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


def train_logistic(X, y, params: LogisticParams = LogisticParams()) -> LogisticModel:
    """Full-batch gradient descent with Armijo backtracking, which never
    increases the objective. A backtracking step computes only the loss; the
    gradient is computed once a step is taken."""
    X, y = check_training_data(X, y)
    yf = y.astype(np.float64)
    mu = sd = None
    if params.standardization:
        X, mu, sd = _standardize(X)
    reg, fit_intercept = params.reg_param, params.fit_intercept

    w, b = np.zeros(X.shape[1]), 0.0
    z = X @ w + b
    loss = _logistic_loss(z, yf, w, reg)
    gw, gb = _logistic_grad(X, z, yf, w, reg, fit_intercept)
    for _ in range(params.max_iter):
        gnorm_sq = float(gw @ gw) + gb * gb
        if math.sqrt(gnorm_sq) < params.tol:
            break
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            w_new = w - step * gw
            b_new = b - step * gb if fit_intercept else b
            z = X @ w_new + b_new
            loss_new = _logistic_loss(z, yf, w_new, reg)
            if math.isfinite(loss_new) and loss_new <= loss - _ARMIJO_C * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break
        w, b, loss = w_new, b_new, loss_new
        gw, gb = _logistic_grad(X, z, yf, w, reg, fit_intercept)
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
    (fixed step when unregularized). A step computes only the subgradient,
    into buffers made once, and updates w in place."""
    X, y = check_training_data(X, y)
    ys = 2.0 * y.astype(np.float64) - 1.0
    mu = sd = None
    if params.standardization:
        X, mu, sd = _standardize(X)

    w, b = np.zeros(X.shape[1]), 0.0
    slack, gw = np.empty(X.shape[0]), np.empty(X.shape[1])
    # A reg_param near zero makes the 1/(reg*t) step overflow; the check
    # after the loop reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, params.max_iter + 1):
            gb = _hinge_grad(w, b, X, ys, params.reg_param, params.fit_intercept, slack, gw)
            if math.sqrt(float(gw @ gw) + gb * gb) < params.tol:
                break
            step = 1.0 / (params.reg_param * t) if params.reg_param > 0 else SVM_FIXED_STEP
            gw *= step
            w -= gw
            if params.fit_intercept:
                b = b - step * gb
    if not (math.isfinite(b) and np.isfinite(w).all()):
        raise ModelError(f"svm weights are not finite; raise reg_param ({params.reg_param!r})")
    if params.standardization:
        w, b = _destandardize(w, b, mu, sd)
    return LinearSvmModel(w, b)
