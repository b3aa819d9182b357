"""Tree-ensemble feature importances and their validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import ModelError, TrainedClassifier

#: Tolerance for accepting an externally supplied importance vector; engine
#: output is normalized and lands well inside 1e-9.
VALIDATOR_TOL = 1e-5


@dataclass(frozen=True)
class FeatureImportances:
    """Nonnegative per-feature weights summing to 1 (or all zero)."""

    values: tuple[float, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.names is not None and len(self.names) != len(values):
            raise ValueError("names and values must align")
        validate_importances(values, tol=VALIDATOR_TOL)

    def ranked(self) -> list[tuple[int, str, float]]:
        """(rank, name, value) rows sorted by descending value."""
        names = self.names or tuple(f"f{i}" for i in range(len(self.values)))
        order = sorted(range(len(self.values)), key=lambda i: (-self.values[i], i))
        return [(r + 1, names[i], self.values[i]) for r, i in enumerate(order)]


def validate_importances(values, tol: float = VALIDATOR_TOL) -> None:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("importances must be a nonempty vector")
    if not np.isfinite(arr).all():
        raise ValueError("importances must be finite")
    if (arr < 0).any():
        raise ValueError("importances must be nonnegative")
    total = float(arr.sum())
    if total != 0.0 and abs(total - 1.0) > tol:
        raise ValueError(f"importances must sum to 1 within {tol}, got {total!r}")


def feature_importances(model: TrainedClassifier, names=None) -> FeatureImportances:
    """Impurity-decrease importances for tree-based families (dt, rf, gbt)."""
    getter = getattr(model, "feature_importances", None)
    if getter is None:
        raise ModelError(
            f"feature importances are only defined for dt/rf/gbt models, not {model.family!r}"
        )
    values = getter()
    return FeatureImportances(tuple(float(v) for v in values), None if names is None else tuple(names))
