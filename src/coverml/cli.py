"""Command-line surface: ingest, sample, split, synth, train, evaluate,
benchmark, importance, predict, header.

All randomness flows from --seed; identical invocations produce identical
output files (no timestamps are written anywhere). The parser is built once
per process, and `main` looks the command up as `cmd_<name>` each time it
runs one, so a function put in place of a `cmd_*` attribute of this module
(as the benchmark's tracer does) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import models
from .datasets import (
    DEFAULT_LABEL_SOURCE,
    DEFAULT_POSITIVE_VALUES,
    SynthSpec,
    derive_label,
    generate_synthetic,
    generate_xor,
    sample_rows,
    train_test_split,
)
from .metrics import EvalReport, curve_to_csv, float_reprs
from .models import feature_importances
from .persist import load_model, read_header, save_model
from .selection import (
    CVConfig,
    SelectionError,
    benchmark,
    build_param_grid,
    cross_validate,
    default_grid,
    evaluate_transformed,
)
from .stages import FittedPipeline, PipelineSpec, default_pipeline_spec
from .table import DataTable, read_csv, schema_from_json, schema_to_json, write_csv


class CliError(Exception):
    pass


def _load(path, what: str, parse):
    """`parse` applied to the bytes of the `what` file at `path`. A missing
    file, or a document of the wrong shape (a missing key, a list where an
    object belongs), is a `CliError` that names the file."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"no such {what} file: {p}")
    try:
        return parse(p.read_bytes())
    except (KeyError, IndexError, TypeError, AttributeError, RecursionError) as exc:
        raise CliError(f"{p}: malformed {what}: {exc!r}") from exc


def _load_table(path) -> DataTable:
    return _load(path, "table", DataTable.from_json_bytes)


def _save_table(table: DataTable, path) -> None:
    Path(path).write_bytes(table.to_json_bytes())


def _print_table(rows: list[tuple[str, str]], headers: tuple[str, str]) -> None:
    width = max(len(headers[0]), *(len(r[0]) for r in rows))
    print(f"{headers[0].ljust(width)}  {headers[1]}")
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")


# -- commands ---------------------------------------------------------------


def cmd_ingest(args) -> int:
    schema = _load(args.schema, "schema", schema_from_json)
    table = read_csv(args.input, schema, delimiter=args.delimiter, header=not args.no_header)
    if args.derive_label:
        positives = [v for v in args.positive_values.split(",") if v]
        table = derive_label(table, args.label_source, positives)
    _save_table(table, args.out)
    print(f"rows: {table.row_count}")
    for name, nulls in table.null_counts().items():
        print(f"nulls[{name}]: {nulls}")
    print(f"wrote {args.out}")
    return 0


def cmd_sample(args) -> int:
    table = _load_table(args.data)
    out = sample_rows(table, args.fraction, args.seed)
    _save_table(out, args.out)
    print(f"sampled {out.row_count} of {table.row_count} rows -> {args.out}")
    return 0


def cmd_split(args) -> int:
    table = _load_table(args.data)
    train, test = train_test_split(table, args.test_fraction, args.seed)
    _save_table(train, args.train_out)
    _save_table(test, args.test_out)
    print(f"train: {train.row_count} rows -> {args.train_out}")
    print(f"test:  {test.row_count} rows -> {args.test_out}")
    return 0


def cmd_synth(args) -> int:
    if args.kind == "benefits":
        if args.spec:
            spec = _load(args.spec, "synth spec", SynthSpec.from_json)
        else:
            spec = SynthSpec(row_count=args.rows, positive_rate=args.positive_rate, seed=args.seed)
        table = generate_synthetic(spec)
    else:
        table = generate_xor(args.rows, args.seed, flip_rate=args.flip_rate)
    _save_table(table, args.out)
    if args.csv_out:
        write_csv(table, args.csv_out)
    if args.schema_out:
        Path(args.schema_out).write_text(schema_to_json(table.schema), encoding="utf-8")
    print(f"generated {table.row_count} rows ({args.kind}) -> {args.out}")
    return 0


def _split_spec_config(args, table: DataTable) -> tuple[DataTable, DataTable, PipelineSpec, CVConfig]:
    """The train/test split, pipeline spec and CV config that `train` and
    `benchmark` take from their shared flags."""
    train_part, test_part = train_test_split(table, args.test_fraction, args.seed)
    if args.pipeline:
        spec = _load(args.pipeline, "pipeline spec", PipelineSpec.from_json)
    else:
        spec = default_pipeline_spec(train_part, exclude=tuple(c for c in args.exclude.split(",") if c))
    if args.cv_config:
        config = _load(args.cv_config, "CV config", CVConfig.from_json)
    else:
        config = CVConfig(folds=args.folds, metric=args.metric, seed=args.seed, parallelism=args.threads)
    return train_part, test_part, spec, config


def _resolve_grid(family: str, doc) -> list:
    """A family's grid from one grid document, `{"axes", "base"}` or the
    axes alone: the form of a `train --grid` file and of each entry of a
    `benchmark --grids` file."""
    if not isinstance(doc, dict):
        raise SelectionError(f"the {family} grid must be a JSON object, got {doc!r}")
    axes = doc.get("axes", doc)
    base_over = doc.get("base", {}) if "axes" in doc else {}
    if not isinstance(base_over, dict):
        raise SelectionError(f"grid base must be an object of field -> value, got {base_over!r}")
    base = models.params_from_dict(family, base_over) if base_over else models.default_params(family)
    return build_param_grid(base, axes)


def _grids(data: bytes) -> dict:
    doc = json.loads(data)
    if not isinstance(doc, dict):
        raise SelectionError(f"grids file must hold a JSON object of family -> grid, got {doc!r}")
    return {family: _resolve_grid(family, grid) for family, grid in doc.items()}


def cmd_train(args) -> int:
    family = models.check_family(args.model)
    table = _load_table(args.data)
    source_fp = table.fingerprint()
    train_part, test_part, spec, config = _split_spec_config(args, table)
    if args.grid:
        grid = _load(args.grid, "grid", lambda data: _resolve_grid(family, json.loads(data)))
    else:
        grid = default_grid(family)
    if args.test_out:
        _save_table(test_part, args.test_out)
    cv = cross_validate(spec, family, grid, train_part, config)
    save_model(
        cv.model,
        args.out,
        seed=args.seed,
        data_fingerprint=train_part.fingerprint(),
        source_fingerprint=source_fp,
    )
    print(f"fit_minutes: {cv.fit_minutes}")
    print(f"best_params: {json.dumps(models.params_to_dict(cv.best_params), sort_keys=True)}")
    print(f"best_{config.metric}: {cv.best_mean_metric}")
    print(f"wrote {args.out}")
    return 0


def _require_pipeline(model) -> FittedPipeline:
    if not isinstance(model, FittedPipeline) or model.classifier is None:
        raise CliError("model file does not contain a fitted pipeline with a classifier")
    return model


def _write_predictions(out_table: DataTable, path) -> None:
    """One line per row: the quoted feature vector, the prediction and the
    true label (empty without a `trueLabel` column), each number as its
    `repr`. Columns are formatted a column at a time (`float_reprs`), and
    each line is one join of its fields."""
    features = out_table.feature_matrix("features")
    n = out_table.row_count
    fields = [float_reprs(features[:, j]) for j in range(features.shape[1])]
    if fields:
        fields[0] = list(map('"[{}'.format, fields[0]))
        fields[-1] = list(map('{}]"'.format, fields[-1]))
    else:
        fields = [['"[]"'] * n]
    fields.append(float_reprs(out_table.numbers("prediction")))
    if out_table.has_column("trueLabel"):
        fields.append(float_reprs(out_table.numbers("trueLabel")))
    else:
        fields.append([""] * n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("features,prediction,trueLabel\n")
        fh.writelines(map("{}\n".format, map(",".join, zip(*fields))))


def _note_dropped(rows_in: int, rows_out: int) -> None:
    if rows_out < rows_in:
        print(f"note: {rows_in - rows_out} of {rows_in} rows were dropped by the pipeline")


def _score(
    fitted: FittedPipeline, table: DataTable, metadata: dict, predictions_path
) -> tuple[EvalReport, int]:
    """One pipeline pass over `table`: the evaluation report and the number
    of rows that came out, with the predictions CSV written from the same
    output when a path is given. The transformed table is released on
    return, before the report is serialized, so peak memory stays at that of
    a single pass."""
    out = fitted.transform(table)
    report = evaluate_transformed(out, metadata=metadata)
    if predictions_path:
        _write_predictions(out, predictions_path)
    return report, out.row_count


def cmd_evaluate(args) -> int:
    model, header = load_model(args.model)
    fitted = _require_pipeline(model)
    table = _load_table(args.data)
    fp = table.fingerprint()
    in_sample = fp in (header.get("data_fingerprint"), header.get("source_fingerprint"))
    metadata = {"in_sample": in_sample, "family": fitted.family, "data_fingerprint": fp}
    report, rows_out = _score(fitted, table, metadata, args.predictions)
    # Only the batch's row count is used from here on: the decoded table is
    # released before the report is encoded, so the two are never held at once.
    rows_in = table.row_count
    del table
    c = report.counts
    _print_table(
        [
            ("TP", repr(float(c.tp))),
            ("FP", repr(float(c.fp))),
            ("TN", repr(float(c.tn))),
            ("FN", repr(float(c.fn))),
            ("Precision", repr(report.precision)),
            ("Recall", repr(report.recall)),
        ],
        ("metric", "value"),
    )
    if in_sample:
        print("note: evaluated in-sample (data matches the model's training data)")
    _note_dropped(rows_in, rows_out)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {args.out}")
    if args.predictions:
        print(f"wrote {args.predictions}")
    if args.roc_csv:
        curve_to_csv(report.roc_points, args.roc_csv, ("fpr", "tpr"))
        print(f"wrote {args.roc_csv}")
    if args.pr_csv:
        curve_to_csv(report.pr_points, args.pr_csv, ("recall", "precision"))
        print(f"wrote {args.pr_csv}")
    return 0


def cmd_predict(args) -> int:
    model, _ = load_model(args.model)
    fitted = _require_pipeline(model)
    table = _load_table(args.data)
    out = fitted.transform(table)
    _write_predictions(out, args.out)
    _note_dropped(table.row_count, out.row_count)
    print(f"wrote {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    table = _load_table(args.data)
    families = tuple(f for f in args.models.split(",") if f)
    for f in families:
        models.check_family(f)
    train_part, test_part, spec, config = _split_spec_config(args, table)
    grids = _load(args.grids, "grids", _grids) if args.grids else None
    report = benchmark(train_part, test_part, spec, families, config, grids)
    text = report.to_text()
    print(text)
    for row in report.rows:
        if row.error is not None:
            print(f"error: {row.family}: {row.error}", file=sys.stderr)
    if args.out_json:
        Path(args.out_json).write_text(report.to_json(), encoding="utf-8")
    if args.out_text:
        Path(args.out_text).write_text(text + "\n", encoding="utf-8")
    return 1 if report.failed else 0


def cmd_importance(args) -> int:
    model, _ = load_model(args.model)
    if isinstance(model, FittedPipeline):
        if model.classifier is None:
            raise CliError("pipeline has no trained classifier")
        ranking = feature_importances(model.classifier, names=model.feature_names)
    else:
        ranking = feature_importances(model)
    rows = [(str(rank), name, f"{value:.9f}") for rank, name, value in ranking.ranked()]
    widths = [
        max(len("Ranking"), *(len(r[0]) for r in rows)),
        max(len("Feature"), *(len(r[1]) for r in rows)),
    ]
    print(f"{'Ranking'.ljust(widths[0])}  {'Feature'.ljust(widths[1])}  Importance value")
    for rank, name, value in rows:
        print(f"{rank.ljust(widths[0])}  {name.ljust(widths[1])}  {value}")
    return 0


def cmd_header(args) -> int:
    print(json.dumps(read_header(args.model), indent=2))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverml",
        description="Benefit-coverage classification engine: data prep, six model families, CV grid search, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The split, pipeline and CV flags of `train` and `benchmark`.
    cv = argparse.ArgumentParser(add_help=False)
    cv.add_argument("--pipeline", help="pipeline spec JSON (default: derived from the schema)")
    cv.add_argument("--test-fraction", type=float, default=0.3)
    cv.add_argument("--folds", type=int, default=3)
    cv.add_argument("--metric", choices=("auc_roc", "auc_pr"), default="auc_roc")
    cv.add_argument("--cv-config", help="CV configuration JSON (overrides the fold/metric/seed/thread flags)")
    cv.add_argument("--exclude", default=DEFAULT_LABEL_SOURCE,
                    help="comma-separated columns kept out of the derived default pipeline")
    cv.add_argument("--seed", type=int, default=1)
    cv.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility (>= 1); folds run in order, so it changes neither speed nor results")

    p = sub.add_parser("ingest", help="parse a CSV against a schema into a table snapshot")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--derive-label", action="store_true", help="append a 0/1 label column")
    p.add_argument("--label-source", default=DEFAULT_LABEL_SOURCE)
    p.add_argument("--positive-values", default=",".join(DEFAULT_POSITIVE_VALUES))
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="seeded without-replacement row sample")
    p.add_argument("--data", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="seeded train/test partition")
    p.add_argument("--data", required=True)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic table")
    p.add_argument("--kind", choices=("benefits", "xor"), default="benefits")
    p.add_argument("--rows", type=int, default=10000)
    p.add_argument("--positive-rate", type=float, default=0.81)
    p.add_argument("--flip-rate", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--spec", help="JSON synth spec (overrides the other knobs)")
    p.add_argument("--out", required=True)
    p.add_argument("--csv-out")
    p.add_argument("--schema-out")

    p = sub.add_parser("train", parents=[cv], help="split, cross-validate a family over a grid, refit, save")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="one of " + ",".join(models.FAMILY_ORDER))
    p.add_argument("--grid", help="grid JSON: axes (and optional base overrides)")
    p.add_argument("--test-out", help="save the held-out split for later evaluation")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score a labeled table and print the metric table")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="write the JSON evaluation report here")
    p.add_argument("--predictions", help="write per-row features,prediction,trueLabel CSV here")
    p.add_argument("--roc-csv", help="export the ROC curve as two-column CSV")
    p.add_argument("--pr-csv", help="export the PR curve as two-column CSV")

    p = sub.add_parser("predict", help="write per-row predictions for a table")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("benchmark", parents=[cv], help="cross-validated sweep over model families")
    p.add_argument("--data", required=True)
    p.add_argument("--models", default=",".join(models.FAMILY_ORDER))
    p.add_argument("--grids", help="JSON mapping family -> grid axes")
    p.add_argument("--out-json")
    p.add_argument("--out-text")

    p = sub.add_parser("importance", help="ranked feature importances of a tree-family model")
    p.add_argument("--model", required=True)

    p = sub.add_parser("header", help="print a model file's header metadata")
    p.add_argument("--model", required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
