"""Classifier families: registry, parameter handling, and training dispatch."""

from __future__ import annotations

from typing import Callable

from ..fields import field_checkers, read_fields
from .base import ModelError, TrainedClassifier, per_sample
from .ensemble import (
    GbtModel,
    GbtParams,
    RandomForestModel,
    RandomForestParams,
    train_gbts,
    train_random_forests,
)
from .fm import FMModel, FMParams, train_fm
from .importance import FeatureImportances, feature_importances, validate_importances
from .linear import (
    LinearSvmModel,
    LinearSvmParams,
    LogisticModel,
    LogisticParams,
    train_linear_svm,
    train_logistic,
)
from .tree import DecisionTreeModel, DecisionTreeParams, train_decision_trees

#: Canonical family order used everywhere a full sweep is reported.
FAMILY_ORDER = ("lr", "dt", "rf", "fm", "gbt", "svm")


def _each(trainer: Callable) -> Callable:
    """A batch trainer that fits one sample after another with `trainer`."""
    return lambda samples, params: per_sample(lambda X, y: trainer(X, y, params), samples)


#: Each family's params, model and batch trainer (see `train_batch`).
_FAMILIES: dict[str, tuple[type, type, Callable]] = {
    "lr": (LogisticParams, LogisticModel, _each(train_logistic)),
    "dt": (DecisionTreeParams, DecisionTreeModel, train_decision_trees),
    "rf": (RandomForestParams, RandomForestModel, train_random_forests),
    "fm": (FMParams, FMModel, _each(train_fm)),
    "gbt": (GbtParams, GbtModel, train_gbts),
    "svm": (LinearSvmParams, LinearSvmModel, _each(train_linear_svm)),
}
# The field checkers are built at import (see `fields.field_checkers`).
for _params, _model, _ in _FAMILIES.values():
    field_checkers(_params)
    field_checkers(_model)


def check_family(family: str) -> str:
    if family not in _FAMILIES:
        raise ModelError(f"unknown model family {family!r}; choose from {{{','.join(FAMILY_ORDER)}}}")
    return family


def params_type(family: str) -> type:
    return _FAMILIES[check_family(family)][0]


def model_type(family: str) -> type:
    return _FAMILIES[check_family(family)][1]


def default_params(family: str):
    return params_type(family)()


def params_from_dict(family: str, d: dict):
    cls = params_type(family)
    return cls(**read_fields(cls, d, f"{family} parameter", ModelError))


def train_batch(family: str, samples, params=None) -> list:
    """One model per (X, y) sample, all with `params` (the family's defaults
    when None). Each entry is the model a fit of that sample alone gives, or
    the ModelError that sample raises. dt, rf and gbt grow the samples'
    trees together (`models.tree.grow_trees`); the other families fit one
    sample after another."""
    cls, _, trainer = _FAMILIES[check_family(family)]
    if params is None:
        params = cls()
    if not isinstance(params, cls):
        return [ModelError(f"params for family {family!r} must be {cls.__name__}") for _ in samples]
    return trainer(samples, params)


def train(family: str, X, y, params=None) -> TrainedClassifier:
    """The model of `train_batch` on the one sample (X, y); raises its
    ModelError."""
    (model,) = train_batch(family, [(X, y)], params)
    if isinstance(model, ModelError):
        raise model
    return model


def classifier_from_dict(family: str, d: dict) -> TrainedClassifier:
    return model_type(family).from_dict(d)


__all__ = [
    "FAMILY_ORDER",
    "FeatureImportances",
    "GbtModel",
    "GbtParams",
    "DecisionTreeModel",
    "DecisionTreeParams",
    "FMModel",
    "FMParams",
    "LinearSvmModel",
    "LinearSvmParams",
    "LogisticModel",
    "LogisticParams",
    "ModelError",
    "RandomForestModel",
    "RandomForestParams",
    "TrainedClassifier",
    "check_family",
    "classifier_from_dict",
    "default_params",
    "feature_importances",
    "params_from_dict",
    "params_type",
    "train",
    "train_batch",
    "train_decision_trees",
    "train_fm",
    "train_gbts",
    "train_linear_svm",
    "train_logistic",
    "train_random_forests",
    "validate_importances",
]
