"""Classifier families: registry, parameter handling, and training dispatch."""

from __future__ import annotations

from typing import Callable

from ..fields import field_checkers, read_fields
from .base import ModelError, TrainedClassifier
from .ensemble import (
    GbtModel,
    GbtParams,
    RandomForestModel,
    RandomForestParams,
    train_gbt,
    train_random_forest,
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
from .tree import DecisionTreeModel, DecisionTreeParams, train_decision_tree

#: Canonical family order used everywhere a full sweep is reported.
FAMILY_ORDER = ("lr", "dt", "rf", "fm", "gbt", "svm")

_FAMILIES: dict[str, tuple[type, type, Callable]] = {
    "lr": (LogisticParams, LogisticModel, train_logistic),
    "dt": (DecisionTreeParams, DecisionTreeModel, train_decision_tree),
    "rf": (RandomForestParams, RandomForestModel, train_random_forest),
    "fm": (FMParams, FMModel, train_fm),
    "gbt": (GbtParams, GbtModel, train_gbt),
    "svm": (LinearSvmParams, LinearSvmModel, train_linear_svm),
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


def train(family: str, X, y, params=None) -> TrainedClassifier:
    cls, _, trainer = _FAMILIES[check_family(family)]
    if params is None:
        params = cls()
    if not isinstance(params, cls):
        raise ModelError(f"params for family {family!r} must be {cls.__name__}")
    return trainer(X, y, params)


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
    "train_decision_tree",
    "train_fm",
    "train_gbt",
    "train_linear_svm",
    "train_logistic",
    "train_random_forest",
    "validate_importances",
]
