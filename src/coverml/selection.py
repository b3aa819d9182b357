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
fresh fit with that value.

Reported fit_minutes cover the full cross-validation sweep including the
final refit, not a single model fit.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import models
from .metrics import EvalReport, MetricError, evaluate_scores, pr_curve, roc_curve, timed_fit
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
    grid files, so their shape and value types are checked here.
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
        for value in values:
            models.check_param_types(type(base), {name: value})
    if not axes:
        return [base]
    names = list(axes)
    cells = []
    for combo in itertools.product(*(axes[n] for n in names)):
        cells.append(dataclasses.replace(base, **dict(zip(names, combo))))
    return cells


def default_grid(family: str) -> list:
    base = models.default_params(family)
    return build_param_grid(base, DEFAULT_GRID_AXES.get(family, {}))


@dataclass(frozen=True)
class CVConfig:
    folds: int = 3
    metric: str = "auc_roc"
    seed: int = 1
    #: Kept for existing configs and validated (>= 1); folds run one after
    #: another, so it changes neither speed nor results.
    parallelism: int = 1

    def __post_init__(self):
        for name in ("folds", "seed", "parallelism"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise SelectionError(f"{name} must be an integer, got {value!r}")
        if self.folds < 2:
            raise SelectionError("folds must be >= 2")
        if self.metric not in EVALUATOR_METRICS:
            raise SelectionError(f"metric must be one of {EVALUATOR_METRICS}")
        if self.parallelism < 1:
            raise SelectionError("parallelism must be >= 1")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CVConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SelectionError(f"CV config must be a JSON object, got {doc!r}")
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - valid
        if unknown:
            raise SelectionError(f"unknown CV config field(s): {sorted(unknown)}")
        return cls(**doc)


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
    train_table = table.select_rows(np.setdiff1d(np.arange(table.row_count), val_idx).tolist())
    labels = train_table.label_array()
    if labels.min() == labels.max():
        raise MetricError(f"fold {fold_no}: training portion contains a single class")
    prepared, train_out = fit_stages(spec, train_table)
    X = train_out.feature_matrix(spec.features_col)
    y = train_out.label_array()
    try:
        val_out = prepared.transform(table.select_rows(val_idx.tolist()))
        if val_out.row_count == 0:
            raise MetricError(f"fold {fold_no}: no validation rows survived the pipeline")
        validation = (val_out.feature_matrix(spec.features_col), val_out.label_array())
    except _CELL_ERRORS as exc:
        validation = str(exc)
    return X, y, validation


def _validation_metric(model, X_val: np.ndarray, y_val: np.ndarray, metric: str) -> float:
    raw = model.raw_scores(X_val)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        # The error a rawScore table column of these scores raises.
        row = int(bad[0])
        raise TableError(f"column 'rawScore' expects finite numbers, got {float(raw[row])!r} at row {row}")
    return _score_metric(metric, raw, y_val)


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
    others, which gives the same model as a fresh fit. Folds run one after
    another: `config.parallelism` is validated but changes neither speed nor
    results.

    Cell score is the arithmetic mean of the held-out fold metrics; the best
    cell is the max mean with ties broken by earliest grid order, and the
    returned model is refit on the full table with those parameters. Cells
    whose folds degenerate (single-class training portion, empty or
    single-class validation) carry an error instead of a score; if every
    cell fails the whole call raises.
    """
    models.check_family(family)
    if not grid:
        raise SelectionError("parameter grid is empty")
    if table.label_column() is None:
        raise TableError("cross-validation data has no label column")

    def run() -> tuple[tuple[CVCell, ...], int, FittedPipeline]:
        groups = _nest_groups(family, grid)

        def run_fold(fold_no: int, val_idx: np.ndarray) -> list:
            """Each cell's metric on this fold, or its error text."""
            try:
                X, y, validation = _prepare_fold(spec, table, val_idx, fold_no)
            except _CELL_ERRORS as exc:
                return [str(exc)] * len(grid)
            outcomes: list = [None] * len(grid)
            for params, members in groups:
                try:
                    model = models.train(family, X, y, params)
                except _CELL_ERRORS as exc:
                    for ci, _ in members:
                        outcomes[ci] = str(exc)
                    continue
                for ci, k in members:
                    if isinstance(validation, str):
                        outcomes[ci] = validation
                        continue
                    try:
                        outcomes[ci] = _validation_metric(
                            model if k is None else model.truncate(k), *validation, config.metric
                        )
                    except _CELL_ERRORS as exc:
                        outcomes[ci] = str(exc)
            return outcomes

        folds = make_folds(table.row_count, config.folds, config.seed)
        per_fold = [run_fold(fi, val_idx) for fi, val_idx in enumerate(folds)]

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
        refit = fit_pipeline(spec, table, classifier=(family, cells[best_index].params))
        return tuple(cells), best_index, refit

    (cells, best_index, refit), minutes = timed_fit(run)
    return CVResult(cells, best_index, refit, minutes)


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
    reports: dict = field(default_factory=dict, compare=False)

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
    scores = np.asarray(out.column("rawScore"), dtype=np.float64)
    labels = np.asarray(out.column("trueLabel"), dtype=np.float64).astype(np.int64)
    preds = np.asarray(out.column("prediction"), dtype=np.float64).astype(np.int64)
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
    reports = {}
    for family in families:
        models.check_family(family)
        grid = (grids or {}).get(family) or default_grid(family)
        try:
            cv = cross_validate(spec, family, grid, train_table, config)
            report = evaluate_fitted(cv.model, test_table, fit_minutes=cv.fit_minutes)
            reports[family] = report
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
    return BenchmarkReport(tuple(rows), reports)
