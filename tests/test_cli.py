import hashlib
import json
import re
import struct
import warnings

import pytest

from coverml.cli import main
from coverml.datasets import SynthSpec, derive_label, generate_synthetic
from coverml.persist import load_model, read_header, save_model
from coverml.stages import FittedPipeline
from coverml.table import ColumnSpec, DataTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path, capsys):
    """Synthesize a small benefits CSV + schema and ingest it with a label."""
    code, _, err = run(
        capsys,
        "synth",
        "--kind",
        "benefits",
        "--rows",
        "1500",
        "--seed",
        "5",
        "--out",
        str(tmp_path / "raw.tbl"),
        "--csv-out",
        str(tmp_path / "raw.csv"),
        "--schema-out",
        str(tmp_path / "schema.json"),
    )
    assert code == 0, err
    code, _, err = run(
        capsys,
        "ingest",
        "--input",
        str(tmp_path / "raw.csv"),
        "--schema",
        str(tmp_path / "schema.json"),
        "--derive-label",
        "--out",
        str(tmp_path / "data.tbl"),
    )
    assert code == 0, err
    return tmp_path


class TestIngest:
    def test_summary_and_snapshot(self, workdir, capsys):
        assert (workdir / "data.tbl").exists()
        table = DataTable.from_json_bytes((workdir / "data.tbl").read_bytes())
        assert table.row_count == 1500
        assert table.label_column() == "label"

    def test_missing_schema_names_path(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "ingest",
            "--input",
            str(tmp_path / "x.csv"),
            "--schema",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "o.tbl"),
        )
        assert code == 1
        assert "absent.json" in err

    def test_rerun_is_byte_identical(self, workdir, capsys):
        first = (workdir / "data.tbl").read_bytes()
        code, _, _ = run(
            capsys,
            "ingest",
            "--input",
            str(workdir / "raw.csv"),
            "--schema",
            str(workdir / "schema.json"),
            "--derive-label",
            "--out",
            str(workdir / "data2.tbl"),
        )
        assert code == 0
        assert (workdir / "data2.tbl").read_bytes() == first

    def test_malformed_row_reports_number(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("A,B\nx,1.0\ny\n")
        (tmp_path / "schema.json").write_text(
            json.dumps(
                {
                    "columns": [
                        {"name": "A", "kind": "categorical_text"},
                        {"name": "B", "kind": "numeric"},
                    ]
                }
            )
        )
        code, _, err = run(
            capsys,
            "ingest",
            "--input",
            str(tmp_path / "bad.csv"),
            "--schema",
            str(tmp_path / "schema.json"),
            "--out",
            str(tmp_path / "o.tbl"),
        )
        assert code == 1
        assert "row 1" in err


class TestSampleSplit:
    def test_sample_exact_count(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "sample",
            "--data",
            str(workdir / "data.tbl"),
            "--fraction",
            "0.2",
            "--seed",
            "3",
            "--out",
            str(workdir / "s.tbl"),
        )
        assert code == 0
        assert "sampled 300 of 1500" in out

    def test_split_sizes(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "split",
            "--data",
            str(workdir / "data.tbl"),
            "--test-fraction",
            "0.3",
            "--seed",
            "3",
            "--train-out",
            str(workdir / "tr.tbl"),
            "--test-out",
            str(workdir / "te.tbl"),
        )
        assert code == 0
        train = DataTable.from_json_bytes((workdir / "tr.tbl").read_bytes())
        test = DataTable.from_json_bytes((workdir / "te.tbl").read_bytes())
        assert train.row_count == 1050 and test.row_count == 450


def train_gbt(workdir, capsys, out="m.bin", extra=()):
    grid = workdir / "grid.json"
    grid.write_text(json.dumps({"axes": {"num_iterations": [5]}}))
    return run(
        capsys,
        "train",
        "--data",
        str(workdir / "data.tbl"),
        "--model",
        "gbt",
        "--grid",
        str(grid),
        "--seed",
        "1",
        "--test-out",
        str(workdir / "test.tbl"),
        "--out",
        str(workdir / out),
        *extra,
    )


class TestTrain:
    def test_trains_and_reports(self, workdir, capsys):
        code, out, err = train_gbt(workdir, capsys)
        assert code == 0, err
        assert "fit_minutes:" in out and "best_params:" in out
        assert (workdir / "m.bin").exists()

    def test_unknown_family_lists_choices(self, workdir, capsys):
        code, _, err = run(
            capsys,
            "train",
            "--data",
            str(workdir / "data.tbl"),
            "--model",
            "mlp",
            "--out",
            str(workdir / "m.bin"),
        )
        assert code == 1
        assert re.search(r"lr.*dt.*rf.*fm.*gbt.*svm", err)

    def test_determinism_byte_identical_models(self, workdir, capsys):
        code, _, _ = train_gbt(workdir, capsys, out="m1.bin")
        assert code == 0
        code, _, _ = train_gbt(workdir, capsys, out="m2.bin")
        assert code == 0
        assert (workdir / "m1.bin").read_bytes() == (workdir / "m2.bin").read_bytes()

    def test_max_depth_beyond_limit_is_an_error_line(self, workdir, capsys):
        grid = workdir / "deep.json"
        grid.write_text(json.dumps({"axes": {"max_depth": [5000]}}))
        code, _, err = run(
            capsys,
            "train",
            "--data",
            str(workdir / "data.tbl"),
            "--model",
            "dt",
            "--grid",
            str(grid),
            "--out",
            str(workdir / "deep.bin"),
        )
        assert code == 1
        assert err.startswith("error:") and "max_depth" in err
        assert "Traceback" not in err
        assert not (workdir / "deep.bin").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_scale_is_an_error_line(self, tmp_path, capsys):
        n = 90
        table = DataTable(
            [ColumnSpec("x", "numeric"), ColumnSpec("label", "label", nullable=False)],
            {"x": [1e308 if i % 2 else -1e308 for i in range(n)], "label": [(i // 2) % 2 for i in range(n)]},
        )
        (tmp_path / "wide.tbl").write_bytes(table.to_json_bytes())
        (tmp_path / "pipeline.json").write_text(json.dumps({"stages": [
            {"type": "assemble", "inputs": ["x"], "output": "raw"},
            {"type": "minmax", "input": "raw", "output": "features"},
        ]}))
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "wide.tbl"), "--model", "lr",
                           "--pipeline", str(tmp_path / "pipeline.json"), "--out", str(tmp_path / "m.bin"))
        assert code == 1
        assert err.startswith("error: ") and "stage 1 (MinMaxScaler) failed" in err
        assert "Traceback" not in err


class TestDivergingTraining:
    """A finite, in-bound grid value that makes training diverge ends the
    command with one `error:` line naming the parameter and no model file,
    and no numpy warning, which a terminal would print before that line."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("diverging")
        table = derive_label(generate_synthetic(SynthSpec(row_count=600, seed=1)))
        (tmp / "data.tbl").write_bytes(table.to_json_bytes())
        return tmp / "data.tbl"

    @pytest.mark.parametrize(
        "family, axis, value", [("gbt", "learning_rate", 1e308), ("fm", "step_size", 1000.0), ("svm", "reg_param", 1e-320)]
    )
    def test_one_error_line_names_the_parameter(self, data, tmp_path, capsys, family, axis, value):
        (tmp_path / "grid.json").write_text(json.dumps({"axes": {axis: [value]}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "train", "--data", str(data), "--model", family,
                               "--grid", str(tmp_path / "grid.json"), "--out", str(tmp_path / "m.bin"))
        assert [str(w.message) for w in caught] == []
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and axis in err
        assert not (tmp_path / "m.bin").exists()


class TestEvaluate:
    def test_metric_table_order_and_outputs(self, workdir, capsys):
        train_gbt(workdir, capsys)
        code, out, err = run(
            capsys,
            "evaluate",
            "--model",
            str(workdir / "m.bin"),
            "--data",
            str(workdir / "test.tbl"),
            "--out",
            str(workdir / "report.json"),
            "--predictions",
            str(workdir / "preds.csv"),
            "--roc-csv",
            str(workdir / "roc.csv"),
            "--pr-csv",
            str(workdir / "pr.csv"),
        )
        assert code == 0, err
        assert (workdir / "roc.csv").read_text().splitlines()[0] == "fpr,tpr"
        assert (workdir / "pr.csv").read_text().splitlines()[0] == "recall,precision"
        lines = [l.split()[0] for l in out.strip().splitlines()]
        assert lines[:7] == ["metric", "TP", "FP", "TN", "FN", "Precision", "Recall"]
        report = json.loads((workdir / "report.json").read_text())
        assert report["metadata"]["in_sample"] is False
        preds = (workdir / "preds.csv").read_text().splitlines()
        assert preds[0] == "features,prediction,trueLabel"
        assert len(preds) >= 2
        assert re.match(r'^"\[.*\]",(0\.0|1\.0),(0\.0|1\.0)$', preds[1])

    def test_pipeline_runs_once_with_predictions(self, workdir, capsys, monkeypatch):
        train_gbt(workdir, capsys)
        calls = []
        original = FittedPipeline.transform

        def counting(self, table):
            calls.append(table.row_count)
            return original(self, table)

        monkeypatch.setattr(FittedPipeline, "transform", counting)
        code, _, err = run(
            capsys,
            "evaluate",
            "--model",
            str(workdir / "m.bin"),
            "--data",
            str(workdir / "test.tbl"),
            "--out",
            str(workdir / "report.json"),
            "--predictions",
            str(workdir / "preds.csv"),
        )
        assert code == 0, err
        assert calls == [450]

    def test_in_sample_flagged(self, workdir, capsys):
        train_gbt(workdir, capsys)
        code, out, _ = run(
            capsys,
            "evaluate",
            "--model",
            str(workdir / "m.bin"),
            "--data",
            str(workdir / "data.tbl"),
        )
        assert code == 0
        assert "in-sample" in out


def with_unseen_issuers(workdir, rows):
    """test.tbl with an IssuerId no training row has at `rows`, which the
    default pipeline's `VectorIndexer(skip)` drops."""
    test = DataTable.from_json_bytes((workdir / "test.tbl").read_bytes())
    issuers = list(test.column("IssuerId"))
    for i in rows:
        issuers[i] = "ISS99"
    (workdir / "unseen.tbl").write_bytes(test.replace_column("IssuerId", issuers).to_json_bytes())
    return workdir / "unseen.tbl"


class TestDroppedRowsNote:
    NOTE = "note: 3 of 450 rows were dropped by the pipeline"

    def test_evaluate_counts_dropped_rows(self, workdir, capsys):
        train_gbt(workdir, capsys)
        data = with_unseen_issuers(workdir, [0, 5, 10])
        code, out, err = run(capsys, "evaluate", "--model", str(workdir / "m.bin"), "--data", str(data),
                             "--predictions", str(workdir / "preds.csv"))
        assert code == 0, err
        assert self.NOTE in out.splitlines()
        assert len((workdir / "preds.csv").read_text().splitlines()) == 1 + 447

    def test_predict_counts_dropped_rows(self, workdir, capsys):
        train_gbt(workdir, capsys)
        data = with_unseen_issuers(workdir, [0, 5, 10])
        code, out, err = run(capsys, "predict", "--model", str(workdir / "m.bin"), "--data", str(data),
                             "--out", str(workdir / "p.csv"))
        assert code == 0, err
        assert self.NOTE in out.splitlines()

    @pytest.mark.parametrize("verb, out_flag", [("evaluate", "--predictions"), ("predict", "--out")])
    def test_clean_batch_has_no_note(self, workdir, capsys, verb, out_flag):
        train_gbt(workdir, capsys)
        code, out, err = run(capsys, verb, "--model", str(workdir / "m.bin"), "--data",
                             str(workdir / "test.tbl"), out_flag, str(workdir / "p.csv"))
        assert code == 0, err
        assert "dropped" not in out
        assert len((workdir / "p.csv").read_text().splitlines()) == 1 + 450


def rewrite_header(path, header_bytes):
    """The model file at `path` with its JSON header replaced."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[8:12])
    body = data[12 + header_len :]
    path.write_bytes(data[:8] + struct.pack("<I", len(header_bytes)) + header_bytes + body)


class TestMalformedModelFile:
    def test_header_without_body_len(self, workdir, capsys):
        train_gbt(workdir, capsys)
        model = workdir / "m.bin"
        header = read_header(model)
        del header["body_len"]
        rewrite_header(model, json.dumps(header).encode())
        code, _, err = run(
            capsys, "evaluate", "--model", str(model), "--data", str(workdir / "test.tbl")
        )
        assert code == 1
        assert err.startswith("error:") and "body_len" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["evaluate", "header"])
    def test_header_not_an_object(self, workdir, capsys, verb):
        train_gbt(workdir, capsys)
        model = workdir / "m.bin"
        rewrite_header(model, b"[1]")
        extra = ("--data", str(workdir / "test.tbl")) if verb == "evaluate" else ()
        code, _, err = run(capsys, verb, "--model", str(model), *extra)
        assert code == 1
        assert err.startswith("error:") and "not a JSON object" in err
        assert "Traceback" not in err


AB_SCHEMA = {"columns": [{"name": "a", "kind": "numeric"}, {"name": "b", "kind": "numeric"}]}
TBL_HEAD = {"format": "coverml-table", "version": 1, "schema": [{"name": "a", "kind": "numeric", "nullable": True}]}
#: Documents valid for the `small` fixture but for one misspelled optional key.
MISSPELLED_STAGE_KEY = {"stages": [{"type": "assemble", "inputs": ["a", "b"], "output": "v"},
                                   {"type": "vector_index", "input": "v", "output": "features", "max_categorie": 5}]}
MISSPELLED_COLUMN_KEY = {"columns": [{"name": "a", "kind": "numeric", "nullabel": False}, {"name": "b", "kind": "numeric"}]}


class TestMalformedInputFiles:
    """Every JSON input document is read one way: a malformed one ends the
    command with one `error:` line and no output file. The data has the
    one-letter numeric columns `a` and `b`, so a column list given as the
    string "ab" would otherwise name real columns."""

    @pytest.fixture()
    def small(self, tmp_path):
        a = [float(i % 7) for i in range(60)]
        table = DataTable(
            [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric"), ColumnSpec("y", "label", nullable=False)],
            {"a": a, "b": [float(i % 5) for i in range(60)], "y": [int(v > 3) for v in a]},
        )
        (tmp_path / "data.tbl").write_bytes(table.to_json_bytes())
        (tmp_path / "data.csv").write_text("a,b\n,1.0\n2.0,3.0\n")
        (tmp_path / "grid.json").write_text(json.dumps({"axes": {}}))
        return tmp_path

    def check(self, capsys, out, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize(
        "doc",
        [
            {"stages": [{"type": "string_index"}]},
            {"stages": [5]},
            [],
            {"stages": [{"type": "vector_index", "input": "v", "output": "w", "max_categories": "20"}]},
            {"stages": [{"type": "impute_mean", "columns": "ab"},
                        {"type": "assemble", "inputs": ["a", "b"], "output": "features"}]},
            {"stages": [{"type": "assemble", "inputs": "ab", "output": "features"}]},
            MISSPELLED_STAGE_KEY,
        ],
    )
    def test_pipeline_spec(self, small, capsys, doc):
        self.train_with_spec(small, capsys, doc)

    def train_with_spec(self, small, capsys, doc):
        (small / "spec.json").write_text(json.dumps(doc))
        return self.check(capsys, small / "m.bin", "train", "--data", str(small / "data.tbl"), "--model", "lr",
                          "--grid", str(small / "grid.json"), "--pipeline", str(small / "spec.json"),
                          "--out", str(small / "m.bin"))

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"columns": [{"name": "a"}]},
            {"columns": [{"name": "a", "kind": "numeric", "nullable": "no"}, {"name": "b", "kind": "numeric"}]},
            MISSPELLED_COLUMN_KEY,
        ],
    )
    def test_schema(self, small, capsys, doc):
        self.ingest_with_schema(small, capsys, doc)

    def ingest_with_schema(self, small, capsys, doc):
        (small / "schema.json").write_text(json.dumps(doc))
        return self.check(capsys, small / "out.tbl", "ingest", "--input", str(small / "data.csv"),
                          "--schema", str(small / "schema.json"), "--out", str(small / "out.tbl"))

    def test_misspelled_key_is_named(self, small, capsys):
        assert "'max_categorie'" in self.train_with_spec(small, capsys, MISSPELLED_STAGE_KEY)
        assert "'nullabel'" in self.ingest_with_schema(small, capsys, MISSPELLED_COLUMN_KEY)

    @pytest.mark.parametrize("doc", [{"rows": 5}, [1], {"row_count": "5"}, {"row_count": 5.5}])
    def test_synth_spec(self, small, capsys, doc):
        (small / "synth.json").write_text(json.dumps(doc))
        self.check(capsys, small / "s.tbl", "synth", "--spec", str(small / "synth.json"),
                   "--out", str(small / "s.tbl"))

    @pytest.mark.parametrize("doc", [[], TBL_HEAD])
    def test_table(self, small, capsys, doc):
        (small / "bad.tbl").write_text(json.dumps(doc))
        self.check(capsys, small / "s.tbl", "sample", "--data", str(small / "bad.tbl"),
                   "--fraction", "0.5", "--out", str(small / "s.tbl"))

    def test_nesting_past_the_recursion_limit(self, small, capsys):
        (small / "schema.json").write_text("[" * 100_000 + "]" * 100_000)
        self.check(capsys, small / "out.tbl", "ingest", "--input", str(small / "data.csv"),
                   "--schema", str(small / "schema.json"), "--out", str(small / "out.tbl"))

    def test_well_formed_inputs_still_run(self, small, capsys):
        (small / "schema.json").write_text(json.dumps(AB_SCHEMA))
        code, out, err = run(capsys, "ingest", "--input", str(small / "data.csv"),
                             "--schema", str(small / "schema.json"), "--out", str(small / "out.tbl"))
        assert code == 0, err
        assert "nulls[a]: 1" in out
        spec = {"stages": [{"type": "impute_mean", "columns": ["a"]},
                           {"type": "assemble", "inputs": ["a", "b"], "output": "features"}]}
        (small / "spec.json").write_text(json.dumps(spec))
        code, _, err = run(capsys, "train", "--data", str(small / "data.tbl"), "--model", "lr",
                           "--grid", str(small / "grid.json"), "--pipeline", str(small / "spec.json"),
                           "--out", str(small / "m.bin"))
        assert code == 0, err

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character(self, small, capsys, delimiter):
        (small / "schema.json").write_text(json.dumps(AB_SCHEMA))
        err = self.check(capsys, small / "out.tbl", "ingest", "--input", str(small / "data.csv"),
                         "--schema", str(small / "schema.json"), "--delimiter", delimiter,
                         "--out", str(small / "out.tbl"))
        assert err == f"error: delimiter must be one character, got {delimiter!r}\n"

    @pytest.mark.parametrize("where", ["ingest --input", "ingest --out", "train --data", "evaluate --out"])
    def test_directory_for_a_file(self, small, capsys, where):
        """A directory where a file is read or written: exit 1 and one
        `error:` line, not a traceback."""
        folder = small / "folder"
        folder.mkdir()
        (small / "schema.json").write_text(json.dumps(AB_SCHEMA))
        ingest = ["ingest", "--input", str(small / "data.csv"), "--schema", str(small / "schema.json"),
                  "--out", str(small / "out.tbl")]
        spec = {"stages": [{"type": "assemble", "inputs": ["a", "b"], "output": "features"}]}
        (small / "spec.json").write_text(json.dumps(spec))
        train = ["train", "--data", str(small / "data.tbl"), "--model", "lr", "--grid", str(small / "grid.json"),
                 "--pipeline", str(small / "spec.json"), "--out", str(small / "m.bin")]
        evaluate = ["evaluate", "--model", str(small / "m.bin"), "--data", str(small / "data.tbl"),
                    "--out", str(small / "report.json")]
        command, flag = where.split()
        if command == "evaluate":
            assert run(capsys, *train)[0] == 0
        argv = {"ingest": ingest, "train": train, "evaluate": evaluate}[command]
        argv[argv.index(flag) + 1] = str(folder)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_failed_late_write_removes_earlier_outputs(self, small, capsys, command):
        """`--out` names a directory, so the command fails after it wrote
        `--test-out` or `--predictions`: that file is removed, stdout stays
        empty, and a later output that was never opened keeps its bytes."""
        folder = small / "folder"
        folder.mkdir()
        spec = {"stages": [{"type": "assemble", "inputs": ["a", "b"], "output": "features"}]}
        (small / "spec.json").write_text(json.dumps(spec))
        train = ["train", "--data", str(small / "data.tbl"), "--model", "lr", "--grid", str(small / "grid.json"),
                 "--pipeline", str(small / "spec.json")]
        (small / "roc.csv").write_text("kept\n")
        if command == "train":
            argv, early = [*train, "--test-out", str(small / "t.tbl"), "--out", str(folder)], small / "t.tbl"
        else:
            assert run(capsys, *train, "--out", str(small / "m.bin"))[0] == 0
            argv = ["evaluate", "--model", str(small / "m.bin"), "--data", str(small / "data.tbl"),
                    "--out", str(folder), "--predictions", str(small / "p.csv"), "--roc-csv", str(small / "roc.csv")]
            early = small / "p.csv"
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not early.exists() and folder.is_dir() and not any(folder.iterdir())
        assert (small / "roc.csv").read_text() == "kept\n"


class TestBenchmark:
    def test_subset_order_and_agreement(self, workdir, capsys):
        grids = workdir / "grids.json"
        grids.write_text(
            json.dumps({"gbt": {"num_iterations": [4]}, "lr": {"reg_param": [0.1]}})
        )
        code, out, err = run(
            capsys,
            "benchmark",
            "--data",
            str(workdir / "data.tbl"),
            "--models",
            "gbt,lr",
            "--grids",
            str(grids),
            "--folds",
            "2",
            "--seed",
            "1",
            "--out-json",
            str(workdir / "bench.json"),
            "--out-text",
            str(workdir / "bench.txt"),
        )
        assert code == 0, err
        lines = (workdir / "bench.txt").read_text().strip().splitlines()
        assert lines[0].split()[:2] == ["Model", "Comp"]
        assert lines[1].startswith("GBT") and lines[2].startswith("LR")
        doc = json.loads((workdir / "bench.json").read_text())
        assert [r["family"] for r in doc["rows"]] == ["gbt", "lr"]
        for row, line in zip(doc["rows"], lines[1:]):
            cells = line.split()
            assert float(cells[2]) == pytest.approx(row["precision"], abs=5e-7)
            assert float(cells[3]) == pytest.approx(row["recall"], abs=5e-7)

    def test_family_failure_sets_exit_code(self, tmp_path, capsys):
        from coverml.table import ColumnSpec, DataTable

        single_class = DataTable(
            [ColumnSpec("cat", "categorical_text"), ColumnSpec("label", "label", nullable=False)],
            {"cat": [f"c{i % 4}" for i in range(40)], "label": [1] * 40},
        )
        (tmp_path / "one.tbl").write_bytes(single_class.to_json_bytes())
        code, out, _ = run(
            capsys,
            "benchmark",
            "--data",
            str(tmp_path / "one.tbl"),
            "--models",
            "lr",
            "--folds",
            "2",
        )
        assert code == 1
        assert "FAILED" in out

    def test_failure_reasons_on_stderr(self, tmp_path, capsys):
        """Each failed row's reason goes to stderr as an error line; the
        table on stdout keeps its FAILED rows."""
        from coverml.models import FAMILY_ORDER

        unlabeled = DataTable(
            [ColumnSpec("cat", "categorical_text"), ColumnSpec("x", "numeric")],
            {"cat": [f"c{i % 4}" for i in range(40)], "x": [float(i) for i in range(40)]},
        )
        (tmp_path / "unlabeled.tbl").write_bytes(unlabeled.to_json_bytes())
        code, out, err = run(capsys, "benchmark", "--data", str(tmp_path / "unlabeled.tbl"), "--folds", "2")
        assert code == 1
        rows = out.splitlines()[1:]
        assert [r.split() for r in rows] == [[f.upper(), "FAILED", "-", "-", "-", "-"] for f in FAMILY_ORDER]
        assert err.splitlines() == [f"error: {f}: cross-validation data has no label column" for f in FAMILY_ORDER]

    @pytest.mark.parametrize(
        "entry",
        [{"axes": {"max_depth": [3]}}, {"base": {"max_depth": 3}, "axes": {}}],
    )
    def test_grids_entry_takes_the_train_grid_form(self, workdir, capsys, entry):
        """An entry of `--grids` is read as a `train --grid` document, so the
        `{"axes", "base"}` form selects what the bare axes select."""
        rows = []
        for grids in ({"dt": {"max_depth": [3]}}, {"dt": entry}):
            (workdir / "grids.json").write_text(json.dumps(grids))
            code, _, err = run(capsys, "benchmark", "--data", str(workdir / "data.tbl"), "--models", "dt",
                               "--grids", str(workdir / "grids.json"), "--folds", "2",
                               "--out-json", str(workdir / "bench.json"))
            assert code == 0, err
            (row,) = json.loads((workdir / "bench.json").read_text())["rows"]
            del row["fit_minutes"]
            rows.append(row)
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            {"lr": [0.1]},
            {"lr": {"axes": {"reg_param": 0.1}}},
            pytest.param('{"lr": {"axes": {"reg_param": [NaN]}}}', id="axis-nan"),
            pytest.param('{"lr": {"base": {"reg_param": 1e400}, "axes": {}}}', id="base-1e400"),
        ],
    )
    def test_malformed_grids_is_an_error_line(self, workdir, capsys, doc):
        (workdir / "grids.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, _, err = run(capsys, "benchmark", "--data", str(workdir / "data.tbl"), "--models", "lr",
                           "--grids", str(workdir / "grids.json"), "--out-json", str(workdir / "bench.json"))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (workdir / "bench.json").exists()

    def test_unknown_family_rejected(self, workdir, capsys):
        code, _, err = run(
            capsys, "benchmark", "--data", str(workdir / "data.tbl"), "--models", "gbt,xgb"
        )
        assert code == 1
        assert "xgb" in err


class TestImportance:
    def test_ranking_table(self, workdir, capsys):
        train_gbt(workdir, capsys)
        code, out, err = run(capsys, "importance", "--model", str(workdir / "m.bin"))
        assert code == 0, err
        lines = out.strip().splitlines()
        assert lines[0].split()[:2] == ["Ranking", "Feature"]
        body = [l.split() for l in lines[1:]]
        assert body[0][0] == "1" and body[0][1] == "Exclusions"
        printed_sum = sum(float(cells[2]) for cells in body)
        assert abs(printed_sum - 1.0) <= 1e-6
        assert any(cells[1] == "IsEHB" and float(cells[2]) == 0.0 for cells in body)

    def test_unsupported_family_names_supported_ones(self, workdir, capsys):
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"axes": {}}))
        run(
            capsys,
            "train",
            "--data",
            str(workdir / "data.tbl"),
            "--model",
            "lr",
            "--grid",
            str(grid),
            "--out",
            str(workdir / "lr.bin"),
        )
        code, _, err = run(capsys, "importance", "--model", str(workdir / "lr.bin"))
        assert code == 1
        assert "dt/rf/gbt" in err


class TestPredictAndHeader:
    def test_predict_writes_rows(self, workdir, capsys):
        train_gbt(workdir, capsys)
        code, _, err = run(
            capsys,
            "predict",
            "--model",
            str(workdir / "m.bin"),
            "--data",
            str(workdir / "test.tbl"),
            "--out",
            str(workdir / "p.csv"),
        )
        assert code == 0, err
        lines = (workdir / "p.csv").read_text().splitlines()
        assert lines[0] == "features,prediction,trueLabel"
        assert len(lines) > 100

    @pytest.mark.parametrize("verb, out_flag", [("evaluate", "--predictions"), ("predict", "--out")])
    def test_predictions_read_the_pipeline_features_column(self, tmp_path, capsys, verb, out_flag):
        table = derive_label(generate_synthetic(SynthSpec(row_count=300, seed=2)))
        (tmp_path / "data.tbl").write_bytes(table.to_json_bytes())
        spec = {"stages": [{"type": "string_index", "input": "Exclusions", "output": "e"},
                           {"type": "assemble", "inputs": ["e", "IsEHB"], "output": "feats"}],
                "features_column": "feats"}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "grid.json").write_text(json.dumps({"axes": {}}))
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "data.tbl"), "--model", "lr",
                           "--grid", str(tmp_path / "grid.json"), "--pipeline", str(tmp_path / "spec.json"),
                           "--out", str(tmp_path / "m.bin"))
        assert code == 0, err
        code, _, err = run(capsys, verb, "--model", str(tmp_path / "m.bin"), "--data", str(tmp_path / "data.tbl"),
                           out_flag, str(tmp_path / "p.csv"))
        assert code == 0, err
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "features,prediction,trueLabel" and len(lines) == 301
        assert lines[1].startswith('"[') and lines[1].count(",") == 3

    def test_header_prints_metadata(self, workdir, capsys):
        train_gbt(workdir, capsys)
        code, out, _ = run(capsys, "header", "--model", str(workdir / "m.bin"))
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "gbt"
        assert doc["format_version"] == 1


class TestCvConfigAndExclude:
    def test_cv_config_json_drives_training(self, workdir, capsys):
        cv = workdir / "cv.json"
        cv.write_text(json.dumps({"folds": 2, "metric": "auc_pr", "seed": 3, "parallelism": 2}))
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"axes": {"num_iterations": [3]}}))
        code, out, err = run(
            capsys,
            "train",
            "--data",
            str(workdir / "data.tbl"),
            "--model",
            "gbt",
            "--grid",
            str(grid),
            "--cv-config",
            str(cv),
            "--out",
            str(workdir / "cvm.bin"),
        )
        assert code == 0, err
        assert "best_auc_pr:" in out

    @pytest.mark.parametrize("doc", [{"folds": "3"}, {"folds": 2.5}, {"parallelism": True}, [3]])
    def test_malformed_cv_config_is_an_error_line(self, workdir, capsys, doc):
        cv = workdir / "cv.json"
        cv.write_text(json.dumps(doc))
        code, _, err = run(capsys, "train", "--data", str(workdir / "data.tbl"), "--model", "lr",
                           "--cv-config", str(cv), "--out", str(workdir / "bad.bin"))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (workdir / "bad.bin").exists()

    @pytest.mark.parametrize(
        "family, doc",
        [
            ("lr", [1]),
            ("lr", {"axes": {"reg_param": 0.1}}),
            ("lr", {"axes": [0.1]}),
            ("rf", {"axes": {"num_trees": ["10"]}}),
            ("rf", {"axes": {"num_trees": [2.5]}}),
            ("dt", {"base": {"max_depth": None}, "axes": {}}),
            ("dt", {"base": [3], "axes": {}}),
            # Non-finite numbers, written as Python's json writes them, or as
            # a literal too large for a float: through an axis and a base.
            pytest.param("lr", '{"axes": {"reg_param": [NaN]}}', id="lr-axis-nan"),
            pytest.param("svm", '{"axes": {"reg_param": [0.1, Infinity]}}', id="svm-axis-infinity"),
            pytest.param("fm", '{"axes": {"step_size": [1e400]}}', id="fm-axis-1e400"),
            pytest.param("gbt", '{"axes": {"learning_rate": [-Infinity]}}', id="gbt-axis-minus-infinity"),
            pytest.param("lr", '{"base": {"reg_param": 1e400}, "axes": {}}', id="lr-base-1e400"),
            pytest.param("fm", '{"base": {"step_size": NaN}, "axes": {}}', id="fm-base-nan"),
            pytest.param("gbt", '{"base": {"learning_rate": Infinity}, "axes": {}}', id="gbt-base-infinity"),
        ],
    )
    def test_malformed_grid_is_an_error_line(self, workdir, capsys, family, doc):
        grid = workdir / "bad_grid.json"
        text = doc if isinstance(doc, str) else json.dumps(doc)
        grid.write_text(text)
        code, _, err = run(capsys, "train", "--data", str(workdir / "data.tbl"), "--model", family,
                           "--grid", str(grid), "--out", str(workdir / "bad.bin"))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (workdir / "bad.bin").exists()
        for name in ("reg_param", "step_size", "learning_rate"):
            if name in text:
                assert err.count("\n") == 1 and repr(name) in err

    def test_exclude_keeps_custom_label_source_out_of_features(self, workdir, capsys):
        from coverml.persist import load_model

        code, _, err = run(
            capsys,
            "ingest",
            "--input",
            str(workdir / "raw.csv"),
            "--schema",
            str(workdir / "schema.json"),
            "--derive-label",
            "--label-source",
            "Exclusions",
            "--positive-values",
            "EXC08,EXC09",
            "--out",
            str(workdir / "alt.tbl"),
        )
        assert code == 0, err
        grid = workdir / "grid.json"
        grid.write_text(json.dumps({"axes": {}}))
        code, _, err = run(
            capsys,
            "train",
            "--data",
            str(workdir / "alt.tbl"),
            "--model",
            "dt",
            "--grid",
            str(grid),
            "--exclude",
            "Exclusions,IsCovered",
            "--out",
            str(workdir / "alt.bin"),
        )
        assert code == 0, err
        model, _ = load_model(workdir / "alt.bin")
        assert "Exclusions" not in model.feature_names
        assert "IsCovered" not in model.feature_names


class TestSynthXor:
    def test_xor_kind(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "synth",
            "--kind",
            "xor",
            "--rows",
            "200",
            "--seed",
            "2",
            "--out",
            str(tmp_path / "x.tbl"),
        )
        assert code == 0
        table = DataTable.from_json_bytes((tmp_path / "x.tbl").read_bytes())
        assert table.row_count == 200
        assert "FeatureA" in table.column_names

    def test_spec_file_override(self, tmp_path, capsys):
        spec = SynthSpec(row_count=123, seed=9)
        (tmp_path / "spec.json").write_text(spec.to_json())
        code, _, _ = run(
            capsys,
            "synth",
            "--spec",
            str(tmp_path / "spec.json"),
            "--out",
            str(tmp_path / "s.tbl"),
        )
        assert code == 0
        t = DataTable.from_json_bytes((tmp_path / "s.tbl").read_bytes())
        assert t.row_count == 123
        assert t == generate_synthetic(spec)


class TestTreeModelBytes:
    """sha256 of tree-family model files, recorded before split finding moved
    to presorted columns and one kernel call per node; any change to a split,
    threshold or decrease changes these. A loaded file saves back to the same
    bytes, and its importances keep the bits recorded when trees were still
    recursive node objects (summed in pre-order, right child first). The lr,
    svm and fm files were pinned before each family's model fields were
    declared once, for reading and writing alike."""

    GRIDS = {
        "dt": {"max_depth": [10]},
        "rf": {"num_trees": [8], "max_depth": [8]},
        "gbt": {"num_iterations": [5]},
        "lr": {"reg_param": [0.5]},
        "svm": {"reg_param": [0.01]},
        "fm": {"factor_dim": [4]},
    }
    DIGESTS = {
        "dt": "21bad03913bb180e4722a722854bc82aad9a099c9bebb627baa02fa451f95708",
        "rf": "c4876006b8649204b4805305a5376b6c196a8d8bc81d9cdabfc4497074074e48",
        "gbt": "82890323eed3029a9558a4073fd06e8125f6697daccb2142983f8722e6d09563",
        "lr": "5efe84765e115f453dc8b8eaef7f5c611caae4ebf8dc871de66eecd458ca4a91",
        "svm": "9c4c0250bca668791ef898582ed303fc0f41832c54b1bec7b29fd56d59e81920",
        "fm": "fb80684f7d77d471b699453f7e1f3b3ae1e48336d6bc72dd279a16e7c5209d32",
    }
    IMPORTANCES = {
        "dt": "[0.4066581785739662, 0.10811837912846227, 0.16870409515476356, 0.04403074084487315, "
        "0.11578717189899204, 0.15670143439894282, 0.0]",
        "rf": "[0.3871541342198503, 0.09717925319327522, 0.19369758155551678, 0.06199669650478739, "
        "0.12511115064619716, 0.13486118388037321, 0.0]",
        "gbt": "[0.5872107919509596, 0.020585194183071674, 0.1219093441892, 0.007022919595482707, "
        "0.10013684079768229, 0.16313490928360375, 0.0]",
    }

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pinned")
        assert main(["synth", "--rows", "600", "--seed", "1", "--out", str(d / "raw.tbl"),
                     "--csv-out", str(d / "raw.csv"), "--schema-out", str(d / "schema.json")]) == 0
        assert main(["ingest", "--input", str(d / "raw.csv"), "--schema", str(d / "schema.json"),
                     "--derive-label", "--out", str(d / "data.tbl")]) == 0
        return d

    def model_file(self, data, family):
        """The `coverml train` model file of `family`, trained once per class."""
        out = data / f"{family}.bin"
        if not out.exists():
            grid = data / f"grid_{family}.json"
            grid.write_text(json.dumps({"axes": self.GRIDS[family]}))
            assert main(["train", "--data", str(data / "data.tbl"), "--model", family,
                         "--grid", str(grid), "--seed", "1", "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt", "lr", "svm", "fm"])
    def test_model_file_digest(self, data, family):
        out = self.model_file(data, family)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[family]

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt", "lr", "svm", "fm"])
    def test_load_and_save_again_is_identical(self, data, family):
        model, header = load_model(self.model_file(data, family))
        again = data / f"{family}-again.bin"
        save_model(model, again, seed=header["seed"], data_fingerprint=header["data_fingerprint"],
                   source_fingerprint=header["source_fingerprint"])
        assert hashlib.sha256(again.read_bytes()).hexdigest() == self.DIGESTS[family]

    @pytest.mark.parametrize("family", ["dt", "rf", "gbt"])
    def test_importances_keep_their_bits(self, data, family):
        model, _ = load_model(self.model_file(data, family))
        assert repr(model.classifier.feature_importances().tolist()) == self.IMPORTANCES[family]


def vector_rich_tables():
    """A training table and a batch for the default pipeline whose transform
    holds vector columns with -0.0 entries and unseen-bucket values: 30
    states (more than `max_categories`, so the state dimension stays
    continuous and the unseen bucket passes through), a numeric column with
    signed zeros, and batch rows with an unseen state (kept) and an unseen
    issuer (dropped by `VectorIndexer(skip)`)."""
    from coverml.datasets import derive_label
    from coverml.table import ColumnSpec

    cards = {"IssuerId": 4, "StateCode": 30}
    table = derive_label(generate_synthetic(SynthSpec(row_count=240, seed=3, weak_cardinalities=cards)))
    amounts = [(-0.0 if i % 7 == 0 else (i % 11) * 0.25 - 1.0) for i in range(table.row_count)]
    table = table.with_column(ColumnSpec("Amount", "numeric", nullable=False), amounts)
    train, batch = table.select_rows(range(160)), table.select_rows(range(160, 240))
    states = list(batch.column("StateCode"))
    issuers = list(batch.column("IssuerId"))
    for i in range(0, 80, 9):
        states[i] = "ST99"
    for i in range(4, 80, 13):
        issuers[i] = "ISS99"
    batch = batch.replace_column("StateCode", states).replace_column("IssuerId", issuers)
    return train, batch


class TestOutputBytes:
    """sha256 of the report and predictions CSV that `evaluate` writes for an
    lr model, and of the `.tbl` bytes of a default-pipeline transform,
    recorded before vector columns were stored as matrices; vector rendering
    and `.tbl` encoding must not change them. The ROC and PR curve CSVs were
    pinned before the curves were held as arrays."""

    DIGESTS = {
        "report.json": "91da495693ff10d1995b7b5f7144eba3e2ca36374211e31635444fc553494ea0",
        "preds.csv": "ba9bcf52643e5b0e01a2fcf1e5fa0edd3edd921ccf29d3c26a5135deb2a45446",
        "roc.csv": "6c7625cb10dafd344e772775133f1685c109a718394b425d4a3207f4966c7bd3",
        "pr.csv": "929b45a421e686b2d7626f4cdac9c1260643a8075c6eee413b9f08aadb80f05a",
        "transformed.tbl": "9f0c7a052b07553d6e1d548b9f4096b15ff949207aa715bcb0785b0d34c6f283",
    }

    @pytest.fixture(scope="class")
    def evaluated(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pinned_lr")
        assert main(["synth", "--rows", "600", "--seed", "1", "--out", str(d / "raw.tbl"),
                     "--csv-out", str(d / "raw.csv"), "--schema-out", str(d / "schema.json")]) == 0
        assert main(["ingest", "--input", str(d / "raw.csv"), "--schema", str(d / "schema.json"),
                     "--derive-label", "--out", str(d / "data.tbl")]) == 0
        assert main(["train", "--data", str(d / "data.tbl"), "--model", "lr", "--seed", "1",
                     "--test-out", str(d / "test.tbl"), "--out", str(d / "lr.bin")]) == 0
        assert main(["evaluate", "--model", str(d / "lr.bin"), "--data", str(d / "test.tbl"),
                     "--out", str(d / "report.json"), "--predictions", str(d / "preds.csv"),
                     "--roc-csv", str(d / "roc.csv"), "--pr-csv", str(d / "pr.csv")]) == 0
        return d

    @pytest.mark.parametrize("name", ["report.json", "preds.csv", "roc.csv", "pr.csv"])
    def test_evaluate_output_digest(self, evaluated, name):
        assert hashlib.sha256((evaluated / name).read_bytes()).hexdigest() == self.DIGESTS[name]

    def test_transformed_table_digest(self):
        from coverml.stages import default_pipeline_spec, fit_pipeline

        train, batch = vector_rich_tables()
        spec = default_pipeline_spec(train, exclude=("IsCovered",))
        out = fit_pipeline(spec, train, classifier=("lr", None)).transform(batch)
        data = out.to_json_bytes()
        assert b"-0.0" in data
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS["transformed.tbl"]
        assert out.fingerprint() == self.DIGESTS["transformed.tbl"]
