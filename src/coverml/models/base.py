"""Shared prediction contract for the six classifier families."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..vectors import FeatureVector


class Prediction(NamedTuple):
    raw_score: float
    probability: float | None
    prediction: int


class ModelError(ValueError):
    """Bad training data or a prediction-contract violation."""


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ModelError("feature matrix must be 2-dimensional")
    if X.shape[0] == 0:
        raise ModelError("training data is empty")
    if y.shape != (X.shape[0],):
        raise ModelError(f"labels have shape {y.shape}, expected ({X.shape[0]},)")
    if not np.isfinite(X).all():
        raise ModelError("feature matrix contains non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise ModelError("labels must be 0 or 1")
    return X, y


class TrainedClassifier:
    """Immutable fitted model; prediction is a pure function of (model, row)."""

    family: str = "?"
    n_features: int
    threshold: float | None

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _probabilities_of(self, raw: np.ndarray) -> np.ndarray | None:
        """Class-1 probabilities from raw scores, or None for margin-only
        families."""
        return None

    def probabilities(self, X: np.ndarray) -> np.ndarray | None:
        """Class-1 probabilities, or None for margin-only families."""
        return self._probabilities_of(self.raw_scores(X))

    def scores(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Raw scores and probabilities (or None) from one pass over the model."""
        raw = self.raw_scores(X)
        return raw, self._probabilities_of(raw)

    def predictions_from_scores(self, raw: np.ndarray, prob: np.ndarray | None) -> np.ndarray:
        """0/1 predictions: probability above the threshold, or a positive
        margin for families without probabilities."""
        if prob is None:
            return (raw > 0.0).astype(np.int64)
        return (prob > self.threshold).astype(np.int64)

    def predictions(self, X: np.ndarray) -> np.ndarray:
        return self.predictions_from_scores(*self.scores(X))

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(
                f"feature dimension mismatch: model expects {self.n_features}, got {X.shape}"
            )
        return X

    def to_dict(self) -> dict:
        raise NotImplementedError


def predict(model: TrainedClassifier, features: FeatureVector) -> Prediction:
    """Score one row: (rawScore, probability or None, 0/1 prediction)."""
    if features.size != model.n_features:
        raise ModelError(
            f"feature dimension mismatch: model expects {model.n_features}, got {features.size}"
        )
    dense = features.to_dense()
    if not np.isfinite(dense).all():
        raise ModelError("feature vector contains non-finite values")
    raw, prob = model.scores(dense.reshape(1, -1))
    pred = int(model.predictions_from_scores(raw, prob)[0])
    return Prediction(float(raw[0]), None if prob is None else float(prob[0]), pred)
