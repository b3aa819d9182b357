"""Feature-preparation stages and the fittable pipeline that chains them.

Estimators learn a transformer from a table; transformers are pure
table-to-table maps that append (or, for the imputer, replace) columns.
A pipeline fits each estimator on the cumulatively transformed table and can
be terminated by a classifier trained on the assembled feature column.

Each stage class is the one declaration of its JSON form, in pipeline specs
and model files alike: the object holds `"type"` (the class's `TYPE`), then
each field in declaration order under its name, except that `input_col`,
`output_col` and `input_cols` are stored as `input`, `output` and `inputs`.
A tuple field is written as an array and a mapping field as an array of
`[key, value]` pairs; `VectorIndexModel.category_maps` alone is an object
keyed by the dimension's decimal text. The constructor is the only check: it
takes each field in memory form or in the form the file holds, checks it
against its annotation, and then checks the stage's own conditions, so a
stage read from a file is held to what `fit` builds.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Annotated, ClassVar, Literal, Sequence

import numpy as np

from . import models
from .fields import check_types, field_checkers, read_fields
from .table import ColumnSpec, DataTable, TableError

MISSING_TOKEN = "__MISSING__"
INVALID_POLICIES = ("keep", "skip", "error")
#: What an indexing stage does with a value it has not seen.
Policy = Literal[INVALID_POLICIES]

#: Stage and pipeline fields stored under another key than their name.
_KEYS = {"input_col": "input", "output_col": "output", "input_cols": "inputs", "features_col": "features_column"}


class PipelineError(ValueError):
    """Stage misconfiguration or a schema/value failure during fit/transform."""


class _Stage:
    """The JSON form and the field checks that every stage class shares."""

    TYPE: ClassVar[str]

    def __post_init__(self):
        check_types(self, PipelineError, f"{self.TYPE} stage", _KEYS)

    @classmethod
    def _trusted(cls, *values):
        """The stage whose fields, in declaration order, are `values`, each
        already in the form the checks store (a tuple, not a list); nothing
        is checked. Only `fit` calls this, with values it has just computed."""
        stage = object.__new__(cls)
        for f, value in zip(fields(cls), values, strict=True):
            object.__setattr__(stage, f.name, value)
        stage._derive()
        return stage

    def _derive(self) -> None:
        """Build what `transform` reads besides the fields, once per stage:
        `_trusted` calls this, and so does `__post_init__` of a stage that
        has something to build, after its checks."""

    def to_dict(self) -> dict:
        d = {"type": self.TYPE}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = [[k, v] for k, v in value.items()]
            elif isinstance(value, tuple):
                value = list(value)
            d[_KEYS.get(f.name, f.name)] = value
        return d


# -- string indexing -----------------------------------------------------------


@dataclass(frozen=True)
class StringIndexer(_Stage):
    """Maps category text to dense indices ordered by descending frequency,
    ties broken by ascending label text. Nulls index as a regular
    MISSING token."""

    TYPE = "string_index"
    input_col: str
    output_col: str
    handle_invalid: Policy = "keep"

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
        return StringIndexModel._trusted(self.input_col, self.output_col, mapping, self.handle_invalid)


@dataclass(frozen=True)
class StringIndexModel(_Stage):
    TYPE = "string_index_model"
    input_col: str
    output_col: str
    mapping: Mapping[str, int]
    handle_invalid: Policy = "keep"

    def __post_init__(self):
        super().__post_init__()
        if sorted(self.mapping.values()) != list(range(len(self.mapping))):
            raise PipelineError("a string index mapping must give its k labels the codes 0..k-1")
        self._derive()

    def _derive(self) -> None:
        """Each label's index as a float; a null takes MISSING_TOKEN's."""
        index = {label: float(idx) for label, idx in self.mapping.items()}
        if MISSING_TOKEN in index:
            index[None] = index[MISSING_TOKEN]
        object.__setattr__(self, "_index", index)

    def transform(self, table: DataTable) -> DataTable:
        codes, categories = table.codes(self.input_col)
        # NaN marks an unseen value; the last entry is the null code's.
        unseen = float(len(self.mapping)) if self.handle_invalid == "keep" else np.nan
        lookup = np.array([self._index.get(label, unseen) for label in categories + (None,)], dtype=np.float64)
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


# -- numeric null imputation -----------------------------------------------------


@dataclass(frozen=True)
class MeanImputer(_Stage):
    """Replaces numeric nulls with the fit table's column mean (fit-time only,
    so no information flows back from transform data)."""

    TYPE = "impute_mean"
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
            with np.errstate(over="ignore"):
                means[name] = float(np.mean(values))
            if not np.isfinite(means[name]):
                raise PipelineError(f"imputer column {name!r} has a mean beyond the float range")
        return MeanImputeModel._trusted(means)


@dataclass(frozen=True)
class MeanImputeModel(_Stage):
    TYPE = "impute_mean_model"
    means: Mapping[str, float]

    def transform(self, table: DataTable) -> DataTable:
        for name, mean in self.means.items():
            values = table.numbers(name)
            nulls = np.isnan(values)
            if nulls.any():
                table = table.replace_column(name, np.where(nulls, mean, values))
        return table


# -- vector assembly -------------------------------------------------------------


@dataclass(frozen=True)
class VectorAssembler(_Stage):
    """Concatenates numeric scalars and vectors into one vector column, in the
    declared input order. A transformer with no fit state."""

    TYPE = "assemble"
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


# -- vector indexing ---------------------------------------------------------------


@dataclass(frozen=True)
class VectorIndexer(_Stage):
    """Re-encodes low-cardinality vector dimensions to contiguous indices.

    A dimension is treated as categorical iff its distinct fit-time value
    count is at most max_categories; its values map to 0..k-1 ordered
    ascending by original value.
    """

    TYPE = "vector_index"
    input_col: str
    output_col: str
    max_categories: Annotated[int, "[1, inf)"] = 20
    handle_invalid: Policy = "skip"

    def fit(self, table: DataTable) -> "VectorIndexModel":
        matrix = table.feature_matrix(self.input_col)
        if matrix.shape[0] == 0:
            raise PipelineError(f"cannot fit vector indexer on empty column {self.input_col!r}")
        category_maps: dict[int, dict[float, int]] = {}
        for dim in range(matrix.shape[1]):
            distinct = np.unique(matrix[:, dim])
            if distinct.size <= self.max_categories:
                category_maps[dim] = {float(v): i for i, v in enumerate(distinct)}
        return VectorIndexModel._trusted(
            self.input_col, self.output_col, matrix.shape[1], category_maps, self.handle_invalid
        )


@dataclass(frozen=True)
class VectorIndexModel(_Stage):
    TYPE = "vector_index_model"
    input_col: str
    output_col: str
    size: Annotated[int, "[0, inf)"]
    category_maps: Mapping[int, Mapping[float, int]]
    handle_invalid: Policy = "skip"

    def __post_init__(self):
        if isinstance(self.category_maps, dict):  # a file holds the dimensions as decimal text
            maps = {int(d) if isinstance(d, str) and d.isdecimal() else d: m for d, m in self.category_maps.items()}
            object.__setattr__(self, "category_maps", maps)
        super().__post_init__()
        if any(not 0 <= dim < self.size for dim in self.category_maps):
            raise PipelineError(f"vector index dimensions must lie in [0, {self.size}), got {list(self.category_maps)}")
        if any(sorted(m.values()) != list(range(len(m))) for m in self.category_maps.values()):
            raise PipelineError("a vector index category map must give its k values the codes 0..k-1")
        self._derive()

    def _derive(self) -> None:
        """Per categorical dimension, its values ascending, the same with a
        NaN pad (which equals nothing, so values above every key are
        unseen), and their codes with the unseen code last."""
        lookups = {}
        for dim, mapping in self.category_maps.items():
            keys = np.array(sorted(mapping), dtype=np.float64)
            codes = np.array([mapping[k] for k in keys.tolist()] + [len(mapping)], dtype=np.float64)
            lookups[dim] = (keys, np.append(keys, np.nan), codes)
        object.__setattr__(self, "_lookups", lookups)

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
        for dim, (keys, padded, codes) in self._lookups.items():
            col = matrix[:, dim]
            at = np.searchsorted(keys, col)
            seen = padded[at] == col
            out[:, dim] = np.where(seen, codes[at], float(keys.size))
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
        maps = {str(dim): [[v, i] for v, i in m.items()] for dim, m in self.category_maps.items()}
        return {**super().to_dict(), "category_maps": maps}


# -- min-max scaling ----------------------------------------------------------------


@dataclass(frozen=True)
class MinMaxScaler(_Stage):
    """Affine per-dimension rescale of a vector column to [lo, hi] learned
    from fit data. Outputs are not clamped; a constant dimension maps to the
    midpoint (hi+lo)/2."""

    TYPE = "minmax"
    input_col: str
    output_col: str
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.lo < self.hi:
            raise PipelineError("minmax range must satisfy lo < hi")

    def fit(self, table: DataTable) -> "MinMaxModel":
        matrix = table.feature_matrix(self.input_col)
        if matrix.shape[0] == 0:
            raise PipelineError(f"cannot fit minmax scaler on empty column {self.input_col!r}")
        mins, maxs = tuple(matrix.min(axis=0).tolist()), tuple(matrix.max(axis=0).tolist())
        return MinMaxModel._trusted(self.input_col, self.output_col, mins, maxs, self.lo, self.hi)


@dataclass(frozen=True)
class MinMaxModel(_Stage):
    TYPE = "minmax_model"
    input_col: str
    output_col: str
    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.lo < self.hi:
            raise PipelineError("minmax range must satisfy lo < hi")
        if len(self.mins) != len(self.maxs):
            raise PipelineError(f"minmax mins has {len(self.mins)} entries, maxs {len(self.maxs)}")

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


# -- pipeline ---------------------------------------------------------------------

#: Each stage class by its `TYPE`, with its field checkers built at import
#: (see `fields.field_checkers`).
_STAGE_TYPES = {cls.TYPE: cls for cls in _Stage.__subclasses__()}
for _cls in _STAGE_TYPES.values():
    field_checkers(_cls)


def _read_stages(docs, method: str) -> tuple:
    """The stages the JSON objects `docs` declare, each of a class that has
    `method`: "fit" for the stages of a spec, "transform" for fitted ones."""
    if not isinstance(docs, list):
        raise PipelineError(f"stages must be a JSON array, got {docs!r}")
    stages = []
    for i, d in enumerate(docs):
        kind = d.get("type") if isinstance(d, dict) else None
        cls = _STAGE_TYPES.get(kind) if isinstance(kind, str) else None
        if not hasattr(cls, method):
            raise PipelineError(f"stage {i}: no stage type {kind!r} can {method}")
        doc = {k: v for k, v in d.items() if k != "type"}
        stages.append(cls(**read_fields(cls, doc, f"{kind} stage", PipelineError, _KEYS)))
    return tuple(stages)


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
        kwargs = read_fields(cls, d, "pipeline spec", PipelineError, _KEYS)
        return cls(**{**kwargs, "stages": _read_stages(kwargs["stages"], "fit")})

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
            stages.append(StringIndexer(spec.name, out))
            assembled.append(out)
        else:
            assembled.append(spec.name)
    if not assembled:
        raise PipelineError("no feature columns available for the default pipeline")
    stages.append(VectorAssembler(tuple(assembled), "catFeatures"))
    stages.append(VectorIndexer("catFeatures", "idxCatFeatures"))
    stages.append(MinMaxScaler("idxCatFeatures", "normFeatures"))
    stages.append(VectorAssembler(("normFeatures",), "features"))
    return PipelineSpec(tuple(stages))


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
            d["classifier"] = {"family": self.classifier.family, "model": self.classifier.to_dict()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FittedPipeline":
        kwargs = read_fields(cls, d, "fitted pipeline", PipelineError, _KEYS)
        kwargs["transformers"] = _read_stages(kwargs["transformers"], "transform")
        if "classifier" in kwargs:
            family, model = kwargs["classifier"]["family"], kwargs["classifier"]["model"]
            kwargs["classifier"] = models.classifier_from_dict(family, model)
        if kwargs.get("feature_names") is not None:
            kwargs["feature_names"] = tuple(kwargs["feature_names"])
        return cls(**kwargs)


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
        if hasattr(model, "output_col"):
            # The source columns that feed each derived column, for importance reporting.
            inputs = model.input_cols if isinstance(model, VectorAssembler) else (model.input_col,)
            names[model.output_col] = tuple(n for c in inputs for n in names.get(c, (c,)))
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
