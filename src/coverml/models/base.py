"""Shared prediction contract for the six classifier families."""

from __future__ import annotations

import numpy as np


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
    #: The parameter along which one fit holds every smaller fit (see
    #: `truncate`), or None when the family has no such axis.
    nested_axis: str | None = None

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

    def truncate(self, k: int) -> "TrainedClassifier":
        """The model a fit with `nested_axis` set to k gives, cut from this
        model, which was fit on the same data with a value of at least k and
        the same parameters otherwise."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

