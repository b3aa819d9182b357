"""Parameter grids, k-fold cross-validation, and the six-family benchmark.

Default per-family grids (all overridable through grid JSON):

    lr   reg_param      [0.01, 0.5]
    dt   max_depth      [3, 5]
    rf   num_trees      [50, 100]
    fm   factor_dim     [4, 8]
    gbt  num_iterations [10, 20]
    svm  reg_param      [0.01, 0.5]

Cross-validation prepares each fold once: the preparation stages are fit
on the fold's training rows, and its training and validation rows are
transformed once for every cell. Along a nested capacity axis (dt
max_depth, rf num_trees, gbt num_iterations) one model per fold serves every
value: smaller values score a truncation of the largest fit, which equals a
fresh fit with that value; rf and gbt score them all from one walk of the
fit's trees.
The folds' models of one such group train as one batch, and when the grid
is one group (the default dt, rf and gbt grids are; the lr, fm and svm
ones are two), the refit on the full table trains in the same batch.

Reported fit_minutes cover the full cross-validation sweep including the
final refit, not a single model fit.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import models
from .fields import check_types, field_checkers, read_fields
from .metrics import EvalReport, MetricError, evaluate_scores, pr_curve, roc_curve
from .rng import derived_rng
from .stages import FittedPipeline, PipelineError, PipelineSpec, fit_pipeline, fit_stages
from .table import DataTable, TableError

DEFAULT_GRID_AXES: dict[str, dict[str, list]] = {
    "lr": {"reg_param": [0.01, 0.5]},
    "dt": {"max_depth": [3, 5]},
    "rf": {"num_trees": [50, 100]},
    "fm": {"factor_dim": [4, 8]},
    "gbt": {"num_iterations": [10, 20]},
    "svm": {"reg_param": [0.01, 0.5]},
}

EVALUATOR_METRICS = ("auc_roc", "auc_pr")


class SelectionError(ValueError):
    """Invalid grid/config, or every grid cell failed."""


def build_param_grid(base, axes: dict[str, list]) -> list:
    """Cartesian product of axis values over a base parameter set.

    Axes expand in declaration order with values in listed order, so the
    grid order is deterministic; empty axes give [base]. Axes arrive from
    grid files, so their shape is checked here; each cell's constructor
    checks its values and names the field of a bad one.
    """
    if not isinstance(axes, dict):
        raise SelectionError(f"grid axes must be an object of field -> list of values, got {axes!r}")
    valid = {f.name for f in dataclasses.fields(base)}
    unknown = [a for a in axes if a not in valid]
    if unknown:
        raise SelectionError(
            f"unknown grid axis {unknown[0]!r} for {type(base).__name__}; valid fields: {sorted(valid)}"
        )
    for name, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise SelectionError(f"grid axis {name!r} takes a list of values, got {values!r}")
    return [dataclasses.replace(base, **dict(zip(axes, combo))) for combo in itertools.product(*axes.values())]


def default_grid(family: str) -> list:
    base = models.default_params(family)
    return build_param_grid(base, DEFAULT_GRID_AXES.get(family, {}))


@dataclass(frozen=True)
class CVConfig:
    folds: Annotated[int, "[2, inf)"] = 3
    metric: Literal[EVALUATOR_METRICS] = "auc_roc"
    seed: int = 1
    #: Kept for existing configs and validated (>= 1); the folds train in
    #: one process, so it changes neither speed nor results.
    parallelism: Annotated[int, "[1, inf)"] = 1

    def __post_init__(self):
        check_types(self, SelectionError, "CV config")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CVConfig":
        return cls(**read_fields(cls, json.loads(text), "CV config", SelectionError))


field_checkers(CVConfig)


@dataclass(frozen=True)
class CVCell:
    params: object
    fold_metrics: tuple[float, ...] | None
    mean_metric: float | None
    error: str | None = None


@dataclass(frozen=True)
class CVResult:
    cells: tuple[CVCell, ...]
    best_index: int
    model: FittedPipeline
    fit_minutes: float

    @property
    def best_params(self):
        return self.cells[self.best_index].params

    @property
    def best_mean_metric(self) -> float:
        return self.cells[self.best_index].mean_metric


def make_folds(n_rows: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded non-stratified partition into near-equal validation folds."""
    if folds > n_rows:
        raise SelectionError(f"cannot make {folds} folds from {n_rows} rows")
    perm = derived_rng(seed, 31).permutation(n_rows)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _score_metric(metric: str, scores, labels) -> float:
    if metric == "auc_roc":
        return roc_curve(scores, labels)[1]
    return pr_curve(scores, labels)[1]


#: Failures that end one cell on one fold; any other exception ends the call.
_CELL_ERRORS = (MetricError, PipelineError, models.ModelError, TableError)


def _prepare_fold(spec: PipelineSpec, table: DataTable, val_idx: np.ndarray, fold_no: int):
    """Fit the preparation stages on a fold's training rows and transform its
    validation rows, once for every cell.

    Returns the training matrix and labels, and the validation matrix and
    labels or, when validation cannot be scored, the error text. A cell
    reports that error only if its training succeeds, as when the whole
    pipeline ran per cell and scored validation rows after training.
    """
    train_table = table.select_rows(np.setdiff1d(np.arange(table.row_count), val_idx))
    labels = train_table.label_array()
    if labels.min() == labels.max():
        raise MetricError(f"fold {fold_no}: training portion contains a single class")
    prepared, train_out = fit_stages(spec, train_table)
    X = train_out.feature_matrix(spec.features_col)
    y = train_out.label_array()
    try:
        val_out = prepared.transform(table.select_rows(val_idx))
        if val_out.row_count == 0:
            raise MetricError(f"fold {fold_no}: no validation rows survived the pipeline")
        validation = (val_out.feature_matrix(spec.features_col), val_out.label_array())
    except _CELL_ERRORS as exc:
        validation = str(exc)
    return X, y, validation


def _prepare_whole(spec: PipelineSpec, table: DataTable):
    """Fit the preparation stages on the whole table: the fitted stages, and
    the training matrix and labels, as `fit_pipeline` trains on them."""
    prepared, out = fit_stages(spec, table)
    return prepared, (out.feature_matrix(spec.features_col), out.label_array())


def _validation_metric(raw: np.ndarray, y_val: np.ndarray, metric: str) -> float:
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        # The error a rawScore table column of these scores raises.
        row = int(bad[0])
        raise TableError(f"column 'rawScore' expects finite numbers, got {float(raw[row])!r} at row {row}")
    return _score_metric(metric, raw, y_val)


def _fold_outcomes(model, validation, ks: list, metric: str) -> list:
    """The metric on one fold of each cell that scores `truncate(k)` of
    `model` (the model itself where k is None), or the cell's error text:
    the fold's training error (`model` a ModelError), its validation error
    (`validation` a string), or what scoring raises. `nested_raw_scores`
    scores every cell; an error it raises is each cell's."""
    if isinstance(model, models.ModelError):
        return [str(model)] * len(ks)
    if isinstance(validation, str):
        return [validation] * len(ks)
    X_val, y_val = validation
    try:
        raws = model.nested_raw_scores(X_val, ks)
    except _CELL_ERRORS as exc:
        return [str(exc)] * len(ks)
    outcomes = []
    for raw in raws:
        try:
            outcomes.append(_validation_metric(raw, y_val, metric))
        except _CELL_ERRORS as exc:
            outcomes.append(str(exc))
    return outcomes


def _nest_groups(family: str, grid: list) -> list[tuple[object, list[tuple[int, int | None]]]]:
    """The grid as (params to train, [(cell index, k)]) groups, one model
    per group and fold.

    Cells whose parameters differ only in the family's nested axis
    (`TrainedClassifier.nested_axis`) share the fit of the largest value in
    the group; a cell with a smaller value k scores `truncate(k)` of it and
    the others (k None) score the fit itself. Duplicated cells share a fit.
    """
    cls = models.params_type(family)
    axis = models.model_type(family).nested_axis
    groups: dict[object, list[tuple[int, object, int | None]]] = {}
    for ci, params in enumerate(grid):
        if isinstance(params, cls):
            rest = dataclasses.asdict(params)
            k = rest.pop(axis, None)
            # repr, unlike ==, tells 0.0 from -0.0 and 1 from True.
            key = repr(rest)
        else:
            k, key = None, ci  # models.train reports the mismatch
        groups.setdefault(key, []).append((ci, params, k))
    out = []
    for members in groups.values():
        _, params, top = max(members, key=lambda m: m[2] or 0)  # k is None or >= 1
        out.append((params, [(ci, None if k == top else k) for ci, _, k in members]))
    return out


def cross_validate(
    spec: PipelineSpec,
    family: str,
    grid: list,
    table: DataTable,
    config: CVConfig = CVConfig(),
) -> CVResult:
    """Grid search over seeded k-folds, preparing each fold once.

    Each fold fits the preparation stages on its training rows and
    transforms its training and validation rows once; every cell trains on
    those matrices. Cells that differ only in the family's nested axis
    (dt `max_depth`, rf `num_trees`, gbt `num_iterations`) share one model
    per fold, trained with the group's largest value and truncated for the
    others, which gives the same model as a fresh fit. A group's models of
    all folds train as one batch (`models.train_batch`), which grows the
    folds' trees together, and each fold's model scores all its cells
    (`nested_raw_scores`); `config.parallelism` is validated but changes
    neither speed nor results.

    Cell score is the arithmetic mean of the held-out fold metrics; the best
    cell is the max mean with ties broken by earliest grid order, and the
    returned model is refit on the full table with those parameters. When
    the grid is one group, the best cell is a truncation of the group's fit,
    so the full table joins the group's batch and the refit is the
    truncation of its model; otherwise the refit trains after the cells are
    scored. Cells
    whose folds degenerate (single-class training portion, empty or
    single-class validation) carry an error instead of a score; if every
    cell fails the whole call raises.
    """
    models.check_family(family)
    if not grid:
        raise SelectionError("parameter grid is empty")
    if table.label_column() is None:
        raise TableError("cross-validation data has no label column")

    start = time.perf_counter()
    groups = _nest_groups(family, grid)
    folds = make_folds(table.row_count, config.folds, config.seed)
    # A one-group grid's refit is a truncation of the group's fit on the
    # whole table, so that fit trains in the group's batch. `whole` ends
    # as its model, or as the error its preparation or fit raised, which
    # surfaces where a refit after the cells raises it. The whole table
    # is prepared first, while no fold's matrices are held.
    whole = whole_sample = None
    if len(groups) == 1:
        try:
            whole_stages, whole_sample = _prepare_whole(spec, table)
        except _CELL_ERRORS as exc:
            whole = exc
    # Each fold's training matrix, labels and validation, or its error.
    prepared: list = []
    for fold_no, val_idx in enumerate(folds):
        try:
            prepared.append(_prepare_fold(spec, table, val_idx, fold_no))
        except _CELL_ERRORS as exc:
            prepared.append(str(exc))
    ready = [fi for fi, fold in enumerate(prepared) if not isinstance(fold, str)]
    samples = [prepared[fi][:2] for fi in ready] + ([whole_sample] if whole_sample is not None else [])

    per_fold = [[fold] * len(grid) if isinstance(fold, str) else [None] * len(grid) for fold in prepared]
    for params, members in groups:
        fits = models.train_batch(family, samples, params)
        if len(fits) > len(ready):
            whole = fits.pop()
        for fi, model in zip(ready, fits):
            scored = _fold_outcomes(model, prepared[fi][2], [k for _, k in members], config.metric)
            for (ci, _), outcome in zip(members, scored):
                per_fold[fi][ci] = outcome

    cells = []
    for ci, params in enumerate(grid):
        outcomes = [fold[ci] for fold in per_fold]
        errors = [o for o in outcomes if isinstance(o, str)]
        if errors:
            cells.append(CVCell(params, None, None, "; ".join(errors)))
        else:
            cells.append(CVCell(params, tuple(outcomes), float(np.mean(outcomes))))

    best_index = -1
    for ci, cell in enumerate(cells):
        if cell.mean_metric is None:
            continue
        if best_index < 0 or cell.mean_metric > cells[best_index].mean_metric:
            best_index = ci
    if best_index < 0:
        details = "; ".join(f"cell {ci}: {c.error}" for ci, c in enumerate(cells))
        raise SelectionError(f"every grid cell failed: {details}")
    if len(groups) > 1:
        refit = fit_pipeline(spec, table, classifier=(family, cells[best_index].params))
    elif isinstance(whole, Exception):
        raise whole
    else:
        k = dict(groups[0][1])[best_index]
        refit = dataclasses.replace(whole_stages, classifier=whole if k is None else whole.truncate(k))
    return CVResult(tuple(cells), best_index, refit, (time.perf_counter() - start) / 60.0)


# -- benchmark ------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    family: str
    fit_minutes: float | None = None
    precision: float | None = None
    recall: float | None = None
    auc_roc: float | None = None
    auc_pr: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[BenchmarkRow, ...]

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.rows)

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        header = ("Model", "Comp Time (mins)", "Precision", "Recall", "AUC ROC", "AUC PR")
        body = []
        for r in self.rows:
            if r.error is not None:
                body.append((r.family.upper(), "FAILED", "-", "-", "-", "-"))
            else:
                body.append(
                    (
                        r.family.upper(),
                        f"{r.fit_minutes:.4f}",
                        f"{r.precision:.6f}",
                        f"{r.recall:.6f}",
                        f"{r.auc_roc:.6f}",
                        f"{r.auc_pr:.6f}",
                    )
                )
        widths = [max(len(header[i]), *(len(row[i]) for row in body)) for i in range(len(header))]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)


def evaluate_fitted(fitted: FittedPipeline, table: DataTable, fit_minutes: float = 0.0, metadata=None) -> EvalReport:
    """Transform a labeled table and build the full evaluation report."""
    return evaluate_transformed(fitted.transform(table), fit_minutes=fit_minutes, metadata=metadata)


def evaluate_transformed(out: DataTable, fit_minutes: float = 0.0, metadata=None) -> EvalReport:
    """The full evaluation report from the rawScore, prediction, and
    trueLabel columns of a fitted pipeline's output."""
    if out.row_count == 0:
        raise MetricError("no rows survived the pipeline transform")
    scores = out.numbers("rawScore")
    labels = out.numbers("trueLabel").astype(np.int64)
    preds = out.numbers("prediction").astype(np.int64)
    return evaluate_scores(scores, labels, preds, fit_minutes=fit_minutes, metadata=metadata)


def benchmark(
    train_table: DataTable,
    test_table: DataTable,
    spec: PipelineSpec,
    families=models.FAMILY_ORDER,
    config: CVConfig = CVConfig(),
    grids: dict[str, list] | None = None,
) -> BenchmarkReport:
    """Cross-validate each family on the training split and report held-out
    metrics, one row per family in the requested order. A family that fails
    keeps its row (with the error) and the sweep continues."""
    rows = []
    for family in families:
        models.check_family(family)
        grid = (grids or {}).get(family) or default_grid(family)
        try:
            cv = cross_validate(spec, family, grid, train_table, config)
            report = evaluate_fitted(cv.model, test_table, fit_minutes=cv.fit_minutes)
            rows.append(
                BenchmarkRow(
                    family=family,
                    fit_minutes=cv.fit_minutes,
                    precision=report.precision,
                    recall=report.recall,
                    auc_roc=report.auc_roc,
                    auc_pr=report.auc_pr,
                )
            )
        except (SelectionError, MetricError, PipelineError, models.ModelError, TableError) as exc:
            rows.append(BenchmarkRow(family=family, error=str(exc)))
    return BenchmarkReport(tuple(rows))
