import dataclasses
import json

import numpy as np
import pytest

from coverml import models
from coverml.datasets import derive_label, generate_xor
from coverml.metrics import MetricError, pr_curve, roc_curve
from coverml.models import GbtParams, LogisticParams, ModelError, RandomForestParams, default_params
from coverml.selection import (
    CVCell,
    CVConfig,
    SelectionError,
    benchmark,
    build_param_grid,
    cross_validate,
    default_grid,
    make_folds,
)
from coverml.stages import (
    MinMaxScaler,
    PipelineError,
    PipelineSpec,
    StringIndexer,
    VectorAssembler,
    default_pipeline_spec,
    fit_pipeline,
)
from coverml.table import ColumnSpec, DataTable, TableError


def small_table(n=90, seed=0):
    rng = np.random.default_rng(seed)
    cats = [f"C{v}" for v in rng.integers(0, 4, size=n)]
    noise = [f"N{v}" for v in rng.integers(0, 3, size=n)]
    labels = [1 if (c in ("C0", "C1")) == (rng.random() < 0.85) else 0 for c in cats]
    return DataTable(
        [
            ColumnSpec("cat", "categorical_text"),
            ColumnSpec("noise", "categorical_text"),
            ColumnSpec("label", "label", nullable=False),
        ],
        {"cat": cats, "noise": noise, "label": labels},
    )


def simple_spec():
    return PipelineSpec(
        (
            StringIndexer("cat", "c"),
            StringIndexer("noise", "n"),
            VectorAssembler(("c", "n"), "features"),
        ),
        features_col="features",
    )


class TestParamGrid:
    def test_five_binary_axes_give_32_cells(self):
        axes = {
            "reg_param": [0.01, 0.5],
            "max_iter": [1, 5],
            "tol": [1e-4, 1e-3],
            "fit_intercept": [True, False],
            "standardization": [True, False],
        }
        grid = build_param_grid(LogisticParams(), axes)
        assert len(grid) == 32
        assert len({tuple(sorted(dataclasses.asdict(p).items())) for p in grid}) == 32
        # declaration order: first axis varies slowest
        assert grid[0].reg_param == 0.01 and grid[-1].reg_param == 0.5

    def test_empty_axes_returns_base(self):
        base = LogisticParams()
        assert build_param_grid(base, {}) == [base]

    def test_single_axis(self):
        grid = build_param_grid(LogisticParams(), {"reg_param": [0.1, 0.9]})
        assert [p.reg_param for p in grid] == [0.1, 0.9]
        assert grid[0].max_iter == grid[1].max_iter

    def test_unknown_axis_rejected(self):
        with pytest.raises(SelectionError, match="num_trees"):
            build_param_grid(LogisticParams(), {"num_trees": [5]})

    @pytest.mark.parametrize("axes", [[1], {"reg_param": 0.1}, {"reg_param": None}])
    def test_malformed_axes_rejected(self, axes):
        with pytest.raises(SelectionError):
            build_param_grid(LogisticParams(), axes)

    @pytest.mark.parametrize(
        "base, axes",
        [
            (RandomForestParams(), {"num_trees": ["10"]}),
            (RandomForestParams(), {"num_trees": [2.5]}),
            (RandomForestParams(), {"num_trees": [True]}),
            (RandomForestParams(), {"bootstrap": [1]}),
            (LogisticParams(), {"reg_param": ["0.1"]}),
            (LogisticParams(), {"reg_param": [False]}),
        ],
    )
    def test_mistyped_axis_values_rejected(self, base, axes):
        with pytest.raises(ModelError, match=next(iter(axes))):
            build_param_grid(base, axes)

    def test_float_fields_take_integers(self):
        assert [p.reg_param for p in build_param_grid(LogisticParams(), {"reg_param": [0, 1.5]})] == [0, 1.5]

    def test_default_grids_cover_all_families(self):
        for family in ("lr", "dt", "rf", "fm", "gbt", "svm"):
            grid = default_grid(family)
            assert len(grid) >= 1


class TestFolds:
    def test_partition(self):
        folds = make_folds(100, 3, seed=5)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(100))
        assert {len(f) for f in folds} == {33, 34}

    def test_deterministic(self):
        a = make_folds(50, 4, seed=2)
        b = make_folds(50, 4, seed=2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_many_folds(self):
        with pytest.raises(SelectionError):
            make_folds(2, 3, seed=1)


def manual_cell_mean(spec, family, params, table, config):
    """Independent exhaustive per-cell evaluation on the same seeded folds."""
    folds = make_folds(table.row_count, config.folds, config.seed)
    all_idx = np.arange(table.row_count)
    scores = []
    for val_idx in folds:
        train_idx = np.setdiff1d(all_idx, val_idx)
        fitted = fit_pipeline(spec, table.select_rows(train_idx.tolist()), classifier=(family, params))
        out = fitted.transform(table.select_rows(val_idx.tolist()))
        s = np.asarray(out.column("rawScore"), dtype=float)
        y = np.asarray(out.column("trueLabel"), dtype=float).astype(int)
        scores.append(roc_curve(s, y)[1])
    return float(np.mean(scores))


class TestCrossValidate:
    def test_single_cell_matches_manual_evaluation(self):
        table = small_table()
        spec = simple_spec()
        config = CVConfig(folds=3, seed=11)
        params = LogisticParams()
        result = cross_validate(spec, "lr", [params], table, config)
        assert result.best_index == 0
        assert result.cells[0].mean_metric == pytest.approx(
            manual_cell_mean(spec, "lr", params, table, config), abs=0
        )

    def test_better_cell_selected(self):
        table = derive_label(generate_xor(300, seed=4))
        spec = default_pipeline_spec(table, exclude=("IsCovered",))
        config = CVConfig(folds=3, seed=7)
        grid = [GbtParams(max_depth=1, num_iterations=2), GbtParams(max_depth=4, num_iterations=15)]
        result = cross_validate(spec, "gbt", grid, table, config)
        means = [manual_cell_mean(spec, "gbt", p, table, config) for p in grid]
        assert means[1] > means[0]
        assert result.best_index == 1
        assert result.cells[1].mean_metric == pytest.approx(means[1], abs=0)

    def test_tie_breaks_to_earliest_cell(self):
        table = small_table()
        params = LogisticParams()
        result = cross_validate(simple_spec(), "lr", [params, params], table, CVConfig(seed=3))
        assert result.cells[0].mean_metric == result.cells[1].mean_metric
        assert result.best_index == 0

    def test_identical_across_parallelism(self):
        table = small_table(seed=6)
        spec = simple_spec()
        grid = build_param_grid(LogisticParams(), {"reg_param": [0.01, 0.5], "max_iter": [2, 5]})
        results = [
            cross_validate(spec, "lr", grid, table, CVConfig(folds=3, seed=9, parallelism=p))
            for p in (1, 2, 8)
        ]
        base = results[0]
        for other in results[1:]:
            assert other.best_index == base.best_index
            for a, b in zip(base.cells, other.cells):
                assert a.fold_metrics == b.fold_metrics
            assert other.model.to_dict() == base.model.to_dict()

    def test_refit_uses_full_table(self):
        table = small_table(seed=8)
        result = cross_validate(simple_spec(), "lr", [LogisticParams()], table, CVConfig(seed=2))
        full_fit = fit_pipeline(simple_spec(), table, classifier=("lr", result.best_params))
        assert result.model.to_dict() == full_fit.to_dict()

    def test_degenerate_fold_reported_per_cell(self):
        # 4 positives in 6 rows with 3 folds: some training portion is fine,
        # but a table with one lone negative makes some fold single-class
        table = DataTable(
            [ColumnSpec("cat", "categorical_text"), ColumnSpec("label", "label", nullable=False)],
            {"cat": ["a", "b", "a", "b", "a", "b"], "label": [1, 1, 1, 1, 1, 0]},
        )
        spec = PipelineSpec(
            (StringIndexer("cat", "c"), VectorAssembler(("c",), "features")), "features"
        )
        with pytest.raises(SelectionError, match="single class|no validation|one positive|one negative"):
            cross_validate(spec, "lr", [LogisticParams()], table, CVConfig(folds=3, seed=1))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_scale_is_a_stage_error(self):
        # x spans +-1e308, so the min-max span overflows to inf and scaling
        # gives NaN: every fold records a stage error; none escapes the sweep.
        table, spec = overflowing_minmax()
        with pytest.raises(SelectionError, match=r"stage 1 \(MinMaxScaler\) failed"):
            cross_validate(spec, "lr", [LogisticParams()], table, CVConfig(folds=3, seed=1))

    def test_empty_grid_rejected(self):
        with pytest.raises(SelectionError):
            cross_validate(simple_spec(), "lr", [], small_table(), CVConfig())

    def test_missing_label_rejected(self):
        t = DataTable([ColumnSpec("cat", "categorical_text")], {"cat": ["a", "b", "c"]})
        with pytest.raises(Exception):
            cross_validate(simple_spec(), "lr", [LogisticParams()], t, CVConfig())

    def test_auc_pr_metric_drives_selection(self):
        table = small_table(seed=12)
        config = CVConfig(folds=3, seed=4, metric="auc_pr")
        result = cross_validate(simple_spec(), "lr", [LogisticParams()], table, config)
        # independent recomputation with the PR evaluator on the same folds
        from coverml.metrics import pr_curve

        folds = make_folds(table.row_count, config.folds, config.seed)
        all_idx = np.arange(table.row_count)
        expected = []
        for val_idx in folds:
            train_idx = np.setdiff1d(all_idx, val_idx)
            fitted = fit_pipeline(
                simple_spec(), table.select_rows(train_idx.tolist()), classifier=("lr", LogisticParams())
            )
            out = fitted.transform(table.select_rows(val_idx.tolist()))
            s = np.asarray(out.column("rawScore"), dtype=float)
            y = np.asarray(out.column("trueLabel"), dtype=float).astype(int)
            expected.append(pr_curve(s, y)[1])
        assert result.cells[0].fold_metrics == tuple(expected)

    def test_fit_minutes_positive(self):
        result = cross_validate(simple_spec(), "lr", [LogisticParams()], small_table(), CVConfig())
        assert result.fit_minutes > 0


def overflowing_minmax(n=60):
    """A numeric column spanning more than the float64 range, assembled and
    min-max scaled."""
    x = [1e308 if i % 2 else -1e308 for i in range(n)]
    table = DataTable(
        [ColumnSpec("x", "numeric"), ColumnSpec("label", "label", nullable=False)],
        {"x": x, "label": [(i // 2) % 2 for i in range(n)]},
    )
    spec = PipelineSpec((VectorAssembler(("x",), "raw"), MinMaxScaler("raw", "features")), "features")
    return table, spec


def reference_cross_validate(spec, family, grid, table, config):
    """The per-(cell, fold) path that fold-level preparation replaced: the
    whole pipeline is fit and the validation rows transformed for every cell
    on every fold. Returns (cells, best_index, refit) or raises
    SelectionError as cross_validate does."""
    folds = make_folds(table.row_count, config.folds, config.seed)
    all_idx = np.arange(table.row_count)
    curve = roc_curve if config.metric == "auc_roc" else pr_curve

    def fit_and_score(params, fold_no, val_idx):
        train_table = table.select_rows(np.setdiff1d(all_idx, val_idx).tolist())
        labels = train_table.label_array()
        if labels.min() == labels.max():
            raise MetricError(f"fold {fold_no}: training portion contains a single class")
        fitted = fit_pipeline(spec, train_table, classifier=(family, params))
        out = fitted.transform(table.select_rows(val_idx.tolist()))
        if out.row_count == 0:
            raise MetricError(f"fold {fold_no}: no validation rows survived the pipeline")
        scores = np.asarray(out.column("rawScore"), dtype=np.float64)
        labels = np.asarray(out.column("trueLabel"), dtype=np.float64).astype(np.int64)
        return curve(scores, labels)[1]

    cells = []
    for params in grid:
        metrics, errors = [], []
        for fold_no, val_idx in enumerate(folds):
            try:
                metrics.append(fit_and_score(params, fold_no, val_idx))
            except (MetricError, PipelineError, ModelError, TableError) as exc:
                errors.append(str(exc))
        if errors:
            cells.append(CVCell(params, None, None, "; ".join(errors)))
        else:
            cells.append(CVCell(params, tuple(metrics), float(np.mean(metrics))))
    scored = [ci for ci, cell in enumerate(cells) if cell.mean_metric is not None]
    if not scored:
        details = "; ".join(f"cell {ci}: {cell.error}" for ci, cell in enumerate(cells))
        raise SelectionError(f"every grid cell failed: {details}")
    best = max(scored, key=lambda ci: (cells[ci].mean_metric, -ci))
    return tuple(cells), best, fit_pipeline(spec, table, classifier=(family, grid[best]))


def numeric_table(n=150, seed=0):
    """Numeric columns with ties and a two-valued column, label from a noisy
    sum, assembled into `features` as is."""
    rng = np.random.default_rng(seed)
    a = np.round(rng.normal(size=n), 1)
    b = rng.random(n)
    c = np.where(rng.random(n) < 0.5, 1.0, 2.0)
    label = (a + b + 0.4 * rng.normal(size=n) > 0.5).astype(int)
    table = DataTable(
        [ColumnSpec(name, "numeric") for name in "abc"] + [ColumnSpec("label", "label", nullable=False)],
        {"a": a.tolist(), "b": b.tolist(), "c": c.tolist(), "label": label.tolist()},
    )
    return table, PipelineSpec((VectorAssembler(("a", "b", "c"), "features"),), "features")


def single_class_training_fold():
    """Every negative sits in fold 0's validation rows, so fold 0 trains on
    one class; the other folds score by PR, which needs positives only."""
    n, config = 45, CVConfig(folds=3, seed=2, metric="auc_pr")
    table, spec = numeric_table(n, seed=3)
    label = np.ones(n, dtype=int)
    label[make_folds(n, config.folds, config.seed)[0][::2]] = 0
    table = table.replace_column("label", label.tolist())
    return "gbt", build_param_grid(GbtParams(max_depth=2), {"num_iterations": [2, 1]}), table, spec, config


def empty_validation_fold():
    """Fold 1's validation rows alone carry category "u", which its training
    rows never saw, and the indexer skips unseen categories. The GbtParams
    cell fails in training first, so it reports that error on fold 1 too."""
    n, config = 60, CVConfig(folds=3, seed=4)
    rng = np.random.default_rng(5)
    cats = np.array([f"k{v}" for v in rng.integers(0, 3, size=n)], dtype=object)
    cats[make_folds(n, config.folds, config.seed)[1]] = "u"
    table = DataTable(
        [ColumnSpec("cat", "categorical_text"), ColumnSpec("label", "label", nullable=False)],
        {"cat": cats.tolist(), "label": rng.integers(0, 2, size=n).tolist()},
    )
    spec = PipelineSpec(
        (StringIndexer("cat", "c", handle_invalid="skip"), VectorAssembler(("c",), "features")), "features"
    )
    grid = [*build_param_grid(default_params("dt"), {"max_depth": [1, 3]}), GbtParams()]
    return "dt", grid, table, spec, config


def non_finite_scores():
    """Fold 2's positives hold 1e308 where the other rows lie in [0, 1], so
    min-max scaling fit without them leaves 1e308 in fold 2's validation
    matrix; weakly regularised weights then score it as inf, a per-cell
    error, while strongly regularised cells score."""
    n, config = 60, CVConfig(folds=3, seed=1)
    rng = np.random.default_rng(0)
    x = rng.random(n)
    label = (x + rng.normal(0, 0.2, n) > 0.5).astype(int)
    fold = make_folds(n, config.folds, config.seed)[2]
    x[fold] = np.where(label[fold] == 1, 1e308, 0.0)
    table = DataTable(
        [ColumnSpec("x", "numeric"), ColumnSpec("label", "label", nullable=False)],
        {"x": x.tolist(), "label": label.tolist()},
    )
    spec = PipelineSpec((VectorAssembler(("x",), "raw"), MinMaxScaler("raw", "features")), "features")
    return "lr", build_param_grid(LogisticParams(), {"reg_param": [0.0, 0.5, 5.0]}), table, spec, config


def outcome(run, *args):
    try:
        cells, best, refit = run(*args)
    except SelectionError as exc:
        return "failed", str(exc)
    return repr(cells), best, refit.to_dict()


def as_tuple(result):
    return result.cells, result.best_index, result.model


PARITY_GRIDS = {
    "rf trees x depth": ("rf", RandomForestParams(), {"num_trees": [4, 1, 3], "max_depth": [2, 4]}),
    "gbt iterations x rate": ("gbt", GbtParams(max_depth=2), {"num_iterations": [2, 5], "learning_rate": [0.3, 0.1]}),
    "dt depth x min instances": ("dt", default_params("dt"), {"max_depth": [3, 1, 6], "min_instances_per_node": [1, 10]}),
    "rf duplicated": ("rf", RandomForestParams(max_depth=3), {"num_trees": [3, 3, 1]}),
    "gbt duplicated": ("gbt", GbtParams(max_depth=2), {"num_iterations": [3, 1, 3, 2]}),
    "dt duplicated": ("dt", default_params("dt"), {"max_depth": [2, 5, 2]}),
    "lr": ("lr", LogisticParams(), {"reg_param": [0.01, 0.5, 0.01], "max_iter": [3, 8]}),
    "svm": ("svm", default_params("svm"), {"reg_param": [0.01, 0.5]}),
    "fm": ("fm", default_params("fm"), {"factor_dim": [2, 4]}),
}


class TestFoldLevelParity:
    """cross_validate against the per-(cell, fold) path it replaced: the same
    cells (metrics and error text), best index and refit model."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("case", sorted(PARITY_GRIDS))
    def test_grids(self, case, parallelism):
        family, base, axes = PARITY_GRIDS[case]
        grid = build_param_grid(base, axes)
        table, spec = numeric_table()
        config = CVConfig(folds=3, seed=7, parallelism=parallelism)
        want = outcome(reference_cross_validate, spec, family, grid, table, config)
        got = outcome(lambda *a: as_tuple(cross_validate(*a)), spec, family, grid, table, config)
        assert got == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "case, expected",
        [
            (single_class_training_fold, "fold 0: training portion contains a single class"),
            (empty_validation_fold, "fold 1: no validation rows survived the pipeline"),
            (non_finite_scores, "expects finite numbers, got inf"),
        ],
    )
    def test_failing_cells(self, case, expected, parallelism):
        family, grid, table, spec, config = case()
        config = dataclasses.replace(config, parallelism=parallelism)
        want = outcome(reference_cross_validate, spec, family, grid, table, config)
        got = outcome(lambda *a: as_tuple(cross_validate(*a)), spec, family, grid, table, config)
        assert got == want
        assert expected in repr(got)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_training_error_in_some_cells(self, parallelism):
        # A GbtParams cell in an rf grid fails in models.train on every fold.
        grid = [RandomForestParams(num_trees=2, max_depth=3), GbtParams(), RandomForestParams(num_trees=3, max_depth=3)]
        table, spec = numeric_table(seed=1)
        config = CVConfig(folds=3, seed=2, parallelism=parallelism)
        want = outcome(reference_cross_validate, spec, "rf", grid, table, config)
        got = outcome(lambda *a: as_tuple(cross_validate(*a)), spec, "rf", grid, table, config)
        assert got == want
        assert "params for family 'rf' must be RandomForestParams" in got[0]


class TestWorkDoneOnce:
    @pytest.mark.parametrize(
        "family, base, axes, groups",
        [
            ("rf", RandomForestParams(), {"num_trees": [3, 1, 2], "max_depth": [2, 3]}, 2),
            ("gbt", GbtParams(max_depth=2), {"num_iterations": [1, 4], "learning_rate": [0.1]}, 1),
            ("dt", default_params("dt"), {"max_depth": [2, 4, 3], "min_instances_per_node": [1, 5]}, 2),
            ("lr", LogisticParams(), {"reg_param": [0.01, 0.5, 0.01]}, 2),
        ],
    )
    def test_one_preparation_per_fold_and_one_fit_per_group(self, monkeypatch, family, base, axes, groups):
        preparations, fits = [], []
        fit_indexer, train = StringIndexer.fit, models.train

        def counting_fit(self, table):
            if self.input_col == "cat":
                preparations.append(table.row_count)
            return fit_indexer(self, table)

        def counting_train(family, X, y, params=None):
            fits.append(params)
            return train(family, X, y, params)

        monkeypatch.setattr(StringIndexer, "fit", counting_fit)
        monkeypatch.setattr(models, "train", counting_train)
        grid = build_param_grid(base, axes)
        result = cross_validate(simple_spec(), family, grid, small_table(), CVConfig(folds=3, seed=3))
        assert len(preparations) == 3 + 1
        assert len(fits) == 3 * groups + 1
        assert fits[-1] == result.best_params
        axis = models.model_type(family).nested_axis
        if axis is not None:
            largest = max(getattr(p, axis) for p in grid)
            assert all(getattr(p, axis) == largest for p in fits[:-1])


class TestBenchmark:
    def test_six_rows_in_canonical_order(self, benefits_small):
        from coverml.datasets import train_test_split

        train, test = train_test_split(benefits_small, 0.3, seed=1)
        spec = default_pipeline_spec(train, exclude=("IsCovered",))
        grids = {f: [default_params(f)] for f in ("lr", "dt", "rf", "fm", "gbt", "svm")}
        grids["rf"] = [dataclasses.replace(default_params("rf"), num_trees=10)]
        report = benchmark(train, test, spec, config=CVConfig(folds=2, seed=1), grids=grids)
        assert [r.family for r in report.rows] == ["lr", "dt", "rf", "fm", "gbt", "svm"]
        assert not report.failed
        for row in report.rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.auc_roc <= 1.0
            assert row.fit_minutes >= 0.0

    def test_subset_in_requested_order(self, benefits_small):
        from coverml.datasets import train_test_split

        train, test = train_test_split(benefits_small, 0.3, seed=1)
        spec = default_pipeline_spec(train, exclude=("IsCovered",))
        report = benchmark(
            train,
            test,
            spec,
            families=("gbt", "lr"),
            config=CVConfig(folds=2, seed=1),
            grids={"gbt": [GbtParams(num_iterations=3)], "lr": [LogisticParams()]},
        )
        assert [r.family for r in report.rows] == ["gbt", "lr"]

    def test_failures_recorded_and_sweep_continues(self):
        # single-class data: every family degenerates inside CV
        table = DataTable(
            [ColumnSpec("cat", "categorical_text"), ColumnSpec("label", "label", nullable=False)],
            {"cat": ["a", "b", "c", "d", "e", "f"], "label": [1] * 6},
        )
        spec = PipelineSpec(
            (StringIndexer("cat", "c"), VectorAssembler(("c",), "features")), "features"
        )
        report = benchmark(table, table, spec, families=("lr", "gbt"), config=CVConfig(folds=2, seed=1))
        assert report.failed
        assert [r.family for r in report.rows] == ["lr", "gbt"]
        assert all(r.error is not None for r in report.rows)
        text = report.to_text()
        assert "FAILED" in text

    def test_text_and_json_agree(self, benefits_small):
        from coverml.datasets import train_test_split

        train, test = train_test_split(benefits_small, 0.3, seed=1)
        spec = default_pipeline_spec(train, exclude=("IsCovered",))
        report = benchmark(
            train,
            test,
            spec,
            families=("lr",),
            config=CVConfig(folds=2, seed=1),
            grids={"lr": [LogisticParams()]},
        )
        doc = json.loads(report.to_json())
        text_row = report.to_text().splitlines()[1].split()
        json_row = doc["rows"][0]
        assert text_row[0] == json_row["family"].upper()
        assert float(text_row[2]) == pytest.approx(json_row["precision"], abs=5e-7)
        assert float(text_row[4]) == pytest.approx(json_row["auc_roc"], abs=5e-7)


class TestConfig:
    def test_json_roundtrip(self):
        config = CVConfig(folds=4, metric="auc_pr", seed=7, parallelism=2)
        assert CVConfig.from_json(config.to_json()) == config

    def test_json_unknown_field_rejected(self):
        with pytest.raises(SelectionError, match="stratified"):
            CVConfig.from_json('{"folds": 3, "stratified": true}')

    @pytest.mark.parametrize(
        "field, value", [("folds", "3"), ("folds", 2.5), ("seed", 1.0), ("seed", None), ("parallelism", True)]
    )
    def test_integer_fields_take_integers(self, field, value):
        with pytest.raises(SelectionError, match=field):
            CVConfig(**{field: value})

    def test_json_must_be_an_object(self):
        with pytest.raises(SelectionError, match="object"):
            CVConfig.from_json("[3]")

    def test_validation(self):
        with pytest.raises(SelectionError):
            CVConfig(folds=1)
        with pytest.raises(SelectionError):
            CVConfig(metric="accuracy")
        with pytest.raises(SelectionError):
            CVConfig(parallelism=0)
