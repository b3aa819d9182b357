"""Shared prediction contract for the six classifier families, and the
field declarations their parameters and model files share."""

from __future__ import annotations

import dataclasses
from typing import Annotated

import numpy as np

from ..fields import check_types, read_fields

#: A class-1 probability cut, the `threshold` of every family that has one.
Probability = Annotated[float, "(0, 1)"]
#: A count of at least one: iterations, trees, features, rows of a node.
Count = Annotated[int, "[1, inf)"]


class ModelError(ValueError):
    """Bad training data or a prediction-contract violation."""


class Params:
    """A family's hyperparameters, a frozen dataclass: each field's
    annotation declares its type and bounds, and construction checks them,
    so a grid cell or a params document is checked where it is built."""

    def __post_init__(self):
        check_types(self, ModelError, type(self).__name__)


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


def per_sample(fn, samples) -> list:
    """`fn(X, y)` for each (X, y) sample, or the ModelError it raises."""
    out = []
    for X, y in samples:
        try:
            out.append(fn(X, y))
        except ModelError as exc:
            out.append(exc)
    return out


class TrainedClassifier:
    """Immutable fitted model; prediction is a pure function of (model, row).

    Each family is a frozen dataclass whose fields, in declaration order, are
    the keys of its model file. A model that `train` or `truncate` builds is
    not checked; one read from a file is (`from_dict`).
    """

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

    def nested_raw_scores(self, X: np.ndarray, ks) -> list[np.ndarray]:
        """The raw scores of `truncate(k)` for each k of `ks`, or of this
        model where k is None, each what that model's `raw_scores` gives.
        This default scores them one after another; rf and gbt read them all
        from one walk of their trees."""
        return [(self if k is None else self.truncate(k)).raw_scores(X) for k in ks]

    def _nested_k(self, k: int, most: int | None = None) -> int:
        """k if `truncate` takes it: at least 1 and, when `most` is given, at
        most `most`. ModelError naming k and the range otherwise."""
        if k < 1 or (most is not None and k > most):
            allowed = ">= 1" if most is None else f"in [1, {most}]"
            raise ModelError(f"{self.family} truncate takes {self.nested_axis} {allowed}, got {k}")
        return k

    def to_dict(self) -> dict:
        """Each field under its name: an array as nested lists, a tree as
        its nested nodes (`Tree.to_dict`), a tuple as a list."""
        return {f.name: _plain(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d) -> "TrainedClassifier":
        """The model `to_dict` wrote. Raises ModelError on an unknown or a
        missing key and on a field of the wrong type or out of its bound,
        and `_check` reads the trees and checks what holds across fields."""
        what = f"{cls.family} model"
        model = cls(**read_fields(cls, d, what, ModelError))
        check_types(model, ModelError, what)
        model._check()
        return model

    def _check(self) -> None:
        """Read the fields that need others (trees need `n_features`) and
        check the conditions across fields; ModelError if one fails."""


def _plain(value):
    """A field's value as JSON holds it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value

