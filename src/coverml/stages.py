"""Feature-preparation stages and the fittable pipeline that chains them.

Estimators learn a transformer from a table; transformers are pure
table-to-table maps that append (or, for the imputer, replace) columns.
A pipeline fits each estimator on the cumulatively transformed table and can
be terminated by a classifier trained on the assembled feature column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import models
from .models.base import finite_number
from .table import ColumnSpec, DataTable, TableError

MISSING_TOKEN = "__MISSING__"
INVALID_POLICIES = ("keep", "skip", "error")


class PipelineError(ValueError):
    """Stage misconfiguration or a schema/value failure during fit/transform."""


def _check_policy(policy: str) -> str:
    if policy not in INVALID_POLICIES:
        raise PipelineError(f"handle_invalid must be one of {INVALID_POLICIES}, got {policy!r}")
    return policy


# -- string indexing -----------------------------------------------------------


@dataclass(frozen=True)
class StringIndexer:
    """Maps category text to dense indices ordered by descending frequency,
    ties broken by ascending label text. Nulls index as a regular
    MISSING token."""

    input_col: str
    output_col: str
    handle_invalid: str = "keep"

    def __post_init__(self):
        _check_policy(self.handle_invalid)

    def fit(self, table: DataTable) -> "StringIndexModel":
        spec = table.spec(self.input_col)
        if spec.kind != "categorical_text":
            raise PipelineError(f"string indexer input {self.input_col!r} must be categorical_text")
        codes, categories = table.codes(self.input_col)
        if not codes.size:
            raise PipelineError(f"cannot index empty column {self.input_col!r}")
        # Slot 0 counts the nulls; a category no row has gets no index.
        per_code = np.bincount(codes + 1, minlength=len(categories) + 1).tolist()
        counts: dict[str, int] = {MISSING_TOKEN: per_code[0]} if per_code[0] else {}
        for label, count in zip(categories, per_code[1:]):
            if count:
                counts[label] = counts.get(label, 0) + count
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        mapping = {label: i for i, (label, _) in enumerate(ordered)}
        return StringIndexModel(self.input_col, self.output_col, mapping, self.handle_invalid)

    def to_dict(self) -> dict:
        return {
            "type": "string_index",
            "input": self.input_col,
            "output": self.output_col,
            "handle_invalid": self.handle_invalid,
        }


@dataclass(frozen=True)
class StringIndexModel:
    input_col: str
    output_col: str
    mapping: Mapping[str, int]
    handle_invalid: str = "keep"

    def transform(self, table: DataTable) -> DataTable:
        codes, categories = table.codes(self.input_col)
        index = {label: float(idx) for label, idx in self.mapping.items()}
        if MISSING_TOKEN in index:
            index[None] = index[MISSING_TOKEN]
        # NaN marks an unseen value; the last entry is the null code's.
        unseen = float(len(self.mapping)) if self.handle_invalid == "keep" else np.nan
        lookup = np.array([index.get(label, unseen) for label in categories + (None,)], dtype=np.float64)
        indices = lookup[codes]
        invalid = np.isnan(indices)
        if invalid.any():
            if self.handle_invalid == "skip":
                kept = np.flatnonzero(~invalid)
                table = table.select_rows(kept)
                indices = indices[kept]
            else:
                row = int(np.argmax(invalid))
                key = MISSING_TOKEN if codes[row] < 0 else categories[codes[row]]
                raise PipelineError(f"unseen label {key!r} in column {self.input_col!r} at row {row}")
        return table.with_column(ColumnSpec(self.output_col, "numeric", nullable=False), indices)

    def to_dict(self) -> dict:
        return {
            "type": "string_index_model",
            "input": self.input_col,
            "output": self.output_col,
            "mapping": [[label, idx] for label, idx in self.mapping.items()],
            "handle_invalid": self.handle_invalid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StringIndexModel":
        mapping = {}
        for label, idx in d["mapping"]:
            if not isinstance(label, str) or type(idx) is not int:
                raise PipelineError(f"string index mapping pairs text with an integer index, got {[label, idx]!r}")
            mapping[label] = idx
        return cls(d["input"], d["output"], mapping, d["handle_invalid"])


# -- numeric null imputation -----------------------------------------------------


@dataclass(frozen=True)
class MeanImputer:
    """Replaces numeric nulls with the fit table's column mean (fit-time only,
    so no information flows back from transform data)."""

    columns: tuple[str, ...]

    def fit(self, table: DataTable) -> "MeanImputeModel":
        means = {}
        for name in self.columns:
            if table.spec(name).kind != "numeric":
                raise PipelineError(f"imputer column {name!r} must be numeric")
            values = table.numbers(name)
            values = values[~np.isnan(values)]
            if not values.size:
                raise PipelineError(f"imputer column {name!r} is entirely null at fit time")
            means[name] = float(np.mean(values))
        return MeanImputeModel(means)

    def to_dict(self) -> dict:
        return {"type": "impute_mean", "columns": list(self.columns)}


@dataclass(frozen=True)
class MeanImputeModel:
    means: Mapping[str, float]

    def transform(self, table: DataTable) -> DataTable:
        for name, mean in self.means.items():
            values = table.numbers(name)
            nulls = np.isnan(values)
            if nulls.any():
                table = table.replace_column(name, np.where(nulls, mean, values))
        return table

    def to_dict(self) -> dict:
        return {"type": "impute_mean_model", "means": [[n, m] for n, m in self.means.items()]}

    @classmethod
    def from_dict(cls, d: dict) -> "MeanImputeModel":
        return cls({name: finite_number(mean, f"imputer mean of {name!r}") for name, mean in d["means"]})


# -- vector assembly -------------------------------------------------------------


@dataclass(frozen=True)
class VectorAssembler:
    """Concatenates numeric scalars and vectors into one vector column, in the
    declared input order. A transformer with no fit state."""

    input_cols: tuple[str, ...]
    output_col: str

    def fit(self, table: DataTable) -> "VectorAssembler":
        for name in self.input_cols:
            kind = table.spec(name).kind
            if kind == "categorical_text":
                raise PipelineError(
                    f"assembler input {name!r} is categorical text; index it before assembling"
                )
        return self

    def transform(self, table: DataTable) -> DataTable:
        out = ColumnSpec(self.output_col, "vector", nullable=False)
        if table.row_count == 0:
            return table.with_column(out, [])
        blocks = []
        first_null: list[tuple[int, int, str]] = []
        for pos, name in enumerate(self.input_cols):
            kind = table.spec(name).kind
            if kind == "vector":
                blocks.append(table.feature_matrix(name))
                continue
            if kind in ("boolean", "label"):
                codes = table.codes(name)[0]
                block = np.where(codes < 0, np.nan, codes)
            else:
                block = table.numbers(name)
            # Checked scalars are finite, so NaN marks exactly the nulls.
            nulls = np.isnan(block)
            if nulls.any():
                first_null.append((int(np.argmax(nulls)), pos, name))
            blocks.append(block)
        if first_null:
            row, _, name = min(first_null)
            raise PipelineError(f"null value in column {name!r} at row {row}")
        matrix = np.column_stack(blocks) if blocks else np.zeros((table.row_count, 0))
        return table.with_column(out, matrix)

    def to_dict(self) -> dict:
        return {"type": "assemble", "inputs": list(self.input_cols), "output": self.output_col}

    @classmethod
    def from_dict(cls, d: dict) -> "VectorAssembler":
        return cls(tuple(d["inputs"]), d["output"])


# -- vector indexing ---------------------------------------------------------------


@dataclass(frozen=True)
class VectorIndexer:
    """Re-encodes low-cardinality vector dimensions to contiguous indices.

    A dimension is treated as categorical iff its distinct fit-time value
    count is at most max_categories; its values map to 0..k-1 ordered
    ascending by original value.
    """

    input_col: str
    output_col: str
    max_categories: int = 20
    handle_invalid: str = "skip"

    def __post_init__(self):
        _check_policy(self.handle_invalid)
        if self.max_categories < 1:
            raise PipelineError("max_categories must be >= 1")

    def fit(self, table: DataTable) -> "VectorIndexModel":
        matrix = table.feature_matrix(self.input_col)
        if matrix.shape[0] == 0:
            raise PipelineError(f"cannot fit vector indexer on empty column {self.input_col!r}")
        category_maps: dict[int, dict[float, int]] = {}
        for dim in range(matrix.shape[1]):
            distinct = np.unique(matrix[:, dim])
            if distinct.size <= self.max_categories:
                category_maps[dim] = {float(v): i for i, v in enumerate(distinct)}
        return VectorIndexModel(
            self.input_col, self.output_col, matrix.shape[1], category_maps, self.handle_invalid
        )

    def to_dict(self) -> dict:
        return {
            "type": "vector_index",
            "input": self.input_col,
            "output": self.output_col,
            "max_categories": self.max_categories,
            "handle_invalid": self.handle_invalid,
        }


@dataclass(frozen=True)
class VectorIndexModel:
    input_col: str
    output_col: str
    size: int
    category_maps: Mapping[int, Mapping[float, int]]
    handle_invalid: str = "skip"

    def transform(self, table: DataTable) -> DataTable:
        if table.row_count == 0:
            return table.with_column(ColumnSpec(self.output_col, "vector", nullable=False), [])
        matrix = table.feature_matrix(self.input_col)
        if matrix.shape[1] != self.size:
            raise PipelineError(
                f"vector column {self.input_col!r} has size {matrix.shape[1]}, expected {self.size}"
            )
        out = matrix.copy()
        keep_mask = np.ones(matrix.shape[0], dtype=bool)
        for dim, mapping in self.category_maps.items():
            col = matrix[:, dim]
            keys = np.array(sorted(mapping), dtype=np.float64)
            codes = np.array([mapping[k] for k in keys.tolist()] + [len(mapping)], dtype=np.float64)
            at = np.searchsorted(keys, col)
            # The NaN pad equals nothing, so values above every key are unseen.
            seen = np.append(keys, np.nan)[at] == col
            out[:, dim] = np.where(seen, codes[at], float(len(mapping)))
            if seen.all():
                continue
            if self.handle_invalid == "skip":
                keep_mask &= seen
            elif self.handle_invalid == "error":
                row = int(np.argmin(seen))
                raise PipelineError(
                    f"unseen value {col[row]!r} in dimension {dim} of {self.input_col!r} at row {row}"
                )
        if not keep_mask.all():
            table = table.select_rows(np.flatnonzero(keep_mask))
            out = out[keep_mask]
        return table.with_column(ColumnSpec(self.output_col, "vector", nullable=False), out)

    def to_dict(self) -> dict:
        return {
            "type": "vector_index_model",
            "input": self.input_col,
            "output": self.output_col,
            "size": self.size,
            "category_maps": {
                str(dim): [[v, i] for v, i in mapping.items()]
                for dim, mapping in self.category_maps.items()
            },
            "handle_invalid": self.handle_invalid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VectorIndexModel":
        maps = {
            int(dim): {v: i for v, i in pairs} for dim, pairs in d["category_maps"].items()
        }
        return cls(d["input"], d["output"], d["size"], maps, d["handle_invalid"])


# -- min-max scaling ----------------------------------------------------------------


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine per-dimension rescale of a vector column to [lo, hi] learned
    from fit data. Outputs are not clamped; a constant dimension maps to the
    midpoint (hi+lo)/2."""

    input_col: str
    output_col: str
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise PipelineError("minmax range must satisfy lo < hi")

    def fit(self, table: DataTable) -> "MinMaxModel":
        matrix = table.feature_matrix(self.input_col)
        if matrix.shape[0] == 0:
            raise PipelineError(f"cannot fit minmax scaler on empty column {self.input_col!r}")
        return MinMaxModel(
            self.input_col,
            self.output_col,
            tuple(matrix.min(axis=0).tolist()),
            tuple(matrix.max(axis=0).tolist()),
            self.lo,
            self.hi,
        )

    def to_dict(self) -> dict:
        return {
            "type": "minmax",
            "input": self.input_col,
            "output": self.output_col,
            "lo": self.lo,
            "hi": self.hi,
        }


@dataclass(frozen=True)
class MinMaxModel:
    input_col: str
    output_col: str
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    lo: float = 0.0
    hi: float = 1.0

    def transform(self, table: DataTable) -> DataTable:
        if table.row_count == 0:
            return table.with_column(ColumnSpec(self.output_col, "vector", nullable=False), [])
        matrix = table.feature_matrix(self.input_col)
        mins = np.asarray(self.mins)
        maxs = np.asarray(self.maxs)
        span = maxs - mins
        constant = span == 0.0
        safe_span = np.where(constant, 1.0, span)
        scaled = (matrix - mins) / safe_span * (self.hi - self.lo) + self.lo
        scaled[:, constant] = (self.hi + self.lo) / 2.0
        return table.with_column(ColumnSpec(self.output_col, "vector", nullable=False), scaled)

    def to_dict(self) -> dict:
        return {
            "type": "minmax_model",
            "input": self.input_col,
            "output": self.output_col,
            "mins": list(self.mins),
            "maxs": list(self.maxs),
            "lo": self.lo,
            "hi": self.hi,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxModel":
        return cls(d["input"], d["output"], tuple(d["mins"]), tuple(d["maxs"]), d["lo"], d["hi"])


# -- pipeline ---------------------------------------------------------------------

_ESTIMATOR_PARSERS = {
    "string_index": lambda d: StringIndexer(d["input"], d["output"], d.get("handle_invalid", "keep")),
    "impute_mean": lambda d: MeanImputer(tuple(d["columns"])),
    "assemble": lambda d: VectorAssembler(tuple(d["inputs"]), d["output"]),
    "vector_index": lambda d: VectorIndexer(
        d["input"], d["output"], d.get("max_categories", 20), d.get("handle_invalid", "skip")
    ),
    "minmax": lambda d: MinMaxScaler(d["input"], d["output"], d.get("lo", 0.0), d.get("hi", 1.0)),
}

_MODEL_PARSERS = {
    "string_index_model": StringIndexModel.from_dict,
    "impute_mean_model": MeanImputeModel.from_dict,
    "assemble": VectorAssembler.from_dict,
    "vector_index_model": VectorIndexModel.from_dict,
    "minmax_model": MinMaxModel.from_dict,
}


@dataclass(frozen=True)
class PipelineSpec:
    """Ordered estimator stages plus the feature column the classifier reads."""

    stages: tuple
    features_col: str = "features"

    def to_dict(self) -> dict:
        return {"stages": [s.to_dict() for s in self.stages], "features_column": self.features_col}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineSpec":
        stages = []
        for i, sd in enumerate(d.get("stages", [])):
            parser = _ESTIMATOR_PARSERS.get(sd.get("type"))
            if parser is None:
                raise PipelineError(f"unknown stage type {sd.get('type')!r} at stage {i}")
            stages.append(parser(sd))
        return cls(tuple(stages), d.get("features_column", "features"))

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(json.loads(text))


def default_pipeline_spec(table: DataTable, exclude: Sequence[str] = ()) -> PipelineSpec:
    """Index every categorical column, assemble them with the remaining
    numeric/boolean columns, re-encode low-cardinality dimensions, scale to
    [0,1], and assemble the normalized vector into `features`."""
    excluded = set(exclude)
    label_col = table.label_column()
    if label_col is not None:
        excluded.add(label_col)
    stages: list = []
    assembled: list[str] = []
    for spec in table.schema:
        if spec.name in excluded or spec.kind == "vector":
            continue
        if spec.kind == "categorical_text":
            out = spec.name + "_idx"
            stages.append(StringIndexer(spec.name, out, "keep"))
            assembled.append(out)
        else:
            assembled.append(spec.name)
    if not assembled:
        raise PipelineError("no feature columns available for the default pipeline")
    stages.append(VectorAssembler(tuple(assembled), "catFeatures"))
    stages.append(VectorIndexer("catFeatures", "idxCatFeatures", 20, "skip"))
    stages.append(MinMaxScaler("idxCatFeatures", "normFeatures", 0.0, 1.0))
    stages.append(VectorAssembler(("normFeatures",), "features"))
    return PipelineSpec(tuple(stages), "features")


def _stage_outputs(stage, names: dict[str, tuple[str, ...]]):
    """Track which source columns feed each derived column, for importance
    reporting."""
    if isinstance(stage, (StringIndexer, StringIndexModel)):
        names[stage.output_col] = (stage.input_col,)
    elif isinstance(stage, VectorAssembler):
        parts: list[str] = []
        for c in stage.input_cols:
            parts.extend(names.get(c, (c,)))
        names[stage.output_col] = tuple(parts)
    elif isinstance(stage, (VectorIndexer, VectorIndexModel, MinMaxScaler, MinMaxModel)):
        names[stage.output_col] = names.get(stage.input_col, (stage.input_col,))


@dataclass(frozen=True)
class FittedPipeline:
    """Fitted transformers in order, optionally ending in a trained classifier."""

    transformers: tuple
    features_col: str = "features"
    classifier: models.TrainedClassifier | None = None
    feature_names: tuple[str, ...] | None = None

    @property
    def family(self) -> str:
        return self.classifier.family if self.classifier is not None else "pipeline"

    def transform(self, table: DataTable) -> DataTable:
        for i, tr in enumerate(self.transformers):
            try:
                table = tr.transform(table)
            except TableError as exc:
                raise PipelineError(f"stage {i} failed: {exc}") from exc
        if self.classifier is not None:
            table = self._append_predictions(table)
        return table

    def _append_predictions(self, table: DataTable) -> DataTable:
        if table.row_count:
            X = table.feature_matrix(self.features_col)
        else:
            X = np.zeros((0, self.classifier.n_features))
        raw, prob = self.classifier.scores(X)
        pred = self.classifier.predictions_from_scores(raw, prob)
        table = table.with_column(ColumnSpec("rawScore", "numeric", nullable=False), raw)
        if prob is not None:
            table = table.with_column(ColumnSpec("probability", "numeric", nullable=False), prob)
        table = table.with_column(
            ColumnSpec("prediction", "numeric", nullable=False), pred.astype(np.float64)
        )
        if table.label_column() is not None:
            table = table.with_column(
                ColumnSpec("trueLabel", "numeric", nullable=False), table.label_array().astype(np.float64)
            )
        return table

    def to_dict(self) -> dict:
        d = {
            "transformers": [t.to_dict() for t in self.transformers],
            "features_column": self.features_col,
            "feature_names": None if self.feature_names is None else list(self.feature_names),
        }
        if self.classifier is not None:
            d["classifier"] = {
                "family": self.classifier.family,
                "model": self.classifier.to_dict(),
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPipeline":
        transformers = []
        for td in d["transformers"]:
            parser = _MODEL_PARSERS.get(td.get("type"))
            if parser is None:
                raise PipelineError(f"unknown fitted stage type {td.get('type')!r}")
            transformers.append(parser(td))
        classifier = None
        if "classifier" in d:
            classifier = models.classifier_from_dict(
                d["classifier"]["family"], d["classifier"]["model"]
            )
        names = d.get("feature_names")
        return cls(
            tuple(transformers),
            d.get("features_column", "features"),
            classifier,
            None if names is None else tuple(names),
        )


def fit_stages(spec: PipelineSpec, table: DataTable) -> tuple[FittedPipeline, DataTable]:
    """Fit every estimator on the cumulatively transformed table: the fitted
    stages (no classifier) and the fit table as they transform it, so a caller
    that trains on it need not transform the fit table a second time."""
    names: dict[str, tuple[str, ...]] = {}
    fitted = []
    for i, stage in enumerate(spec.stages):
        try:
            model = stage.fit(table)
            table = model.transform(table)
        except (TableError, PipelineError) as exc:
            raise PipelineError(f"stage {i} ({type(stage).__name__}) failed: {exc}") from exc
        _stage_outputs(model, names)
        fitted.append(model)
    return FittedPipeline(tuple(fitted), spec.features_col, None, names.get(spec.features_col)), table


def fit_pipeline(
    spec: PipelineSpec,
    table: DataTable,
    classifier: tuple[str, object] | None = None,
) -> FittedPipeline:
    """Fit every estimator on the cumulatively transformed table; when a
    (family, params) pair is given, finish by training that classifier on the
    assembled features against the table's label column."""
    prepared, table = fit_stages(spec, table)
    if classifier is None:
        return prepared
    family, params = classifier
    X = table.feature_matrix(spec.features_col)
    trained = models.train(family, X, table.label_array(), params)
    return replace(prepared, classifier=trained)
