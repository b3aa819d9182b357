"""Classifier families: registry, parameter handling, and training dispatch."""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..fields import read_fields
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


def params_to_dict(params) -> dict:
    return dataclasses.asdict(params)


#: The Python type each annotated params field accepts. A bool is an int to
#: Python but is accepted only by a bool field.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def check_param_types(cls: type, values: dict) -> None:
    """Reject a value whose type does not match the params field it sets."""
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in values.items():
        kind = declared[name]
        if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _FIELD_TYPES[kind]):
            raise ModelError(f"{cls.__name__} field {name!r} takes {kind}, got {value!r}")


def params_from_dict(family: str, d: dict):
    cls = params_type(family)
    kwargs = read_fields(cls, d, f"{family} parameter", ModelError)
    check_param_types(cls, kwargs)
    return cls(**kwargs)


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
    "check_param_types",
    "classifier_from_dict",
    "default_params",
    "feature_importances",
    "params_from_dict",
    "params_to_dict",
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
