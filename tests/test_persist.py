import hashlib
import json
import struct

import numpy as np
import pytest

from coverml import models
from coverml.cli import main
from coverml.datasets import derive_label, generate_synthetic, SynthSpec
from coverml.persist import (
    FORMAT_VERSION,
    MAGIC,
    REQUIRED_HEADER_KEYS,
    ChecksumError,
    ModelFileError,
    VersionError,
    load_model,
    read_header,
    save_model,
)
from coverml.stages import default_pipeline_spec, fit_pipeline


def fixture_models(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = ((X[:, 0] + 0.3 * rng.random(n)) > 0.6).astype(int)
    out = {}
    for family in models.FAMILY_ORDER:
        params = models.default_params(family)
        if family == "rf":
            import dataclasses

            params = dataclasses.replace(params, num_trees=8)
        out[family] = models.train(family, X, y, params)
    return X, out


class TestRoundTrip:
    def test_all_families_predict_bit_identically(self, tmp_path):
        X, trained = fixture_models()
        for family, model in trained.items():
            path = tmp_path / f"{family}.bin"
            save_model(model, path, seed=1)
            back, header = load_model(path)
            assert header["family"] == family
            assert np.array_equal(back.raw_scores(X), model.raw_scores(X))
            probs = model.probabilities(X)
            if probs is None:
                assert back.probabilities(X) is None
            else:
                assert np.array_equal(back.probabilities(X), probs)
            assert np.array_equal(back.predictions(X), model.predictions(X))

    def test_pipeline_roundtrip_transform_identical(self, tmp_path):
        table = derive_label(generate_synthetic(SynthSpec(row_count=400, seed=9)))
        fitted = fit_pipeline(
            default_pipeline_spec(table, exclude=("IsCovered",)),
            table,
            classifier=("gbt", models.GbtParams(num_iterations=3)),
        )
        path = tmp_path / "pipe.bin"
        save_model(fitted, path, seed=9, data_fingerprint=table.fingerprint())
        back, header = load_model(path)
        assert header["kind"] == "pipeline"
        assert header["data_fingerprint"] == table.fingerprint()
        assert back.transform(table).to_json_bytes() == fitted.transform(table).to_json_bytes()
        assert back.feature_names == fitted.feature_names

    def test_identical_files_for_identical_inputs(self, tmp_path):
        _, trained = fixture_models()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(trained["lr"], a, seed=1)
        save_model(trained["lr"], b, seed=1)
        assert a.read_bytes() == b.read_bytes()


#: Stands in a mutated model document for the JSON number 1e400, which
#: `json.dumps` cannot write and `json.loads` reads as inf.
HUGE = "<1e400>"
#: Numbers a model file can hold that are not finite floats.
NON_FINITE = {"nan": float("nan"), "inf": float("inf"), "1e400": HUGE}


class TestCorruption:
    def save_one(self, tmp_path):
        _, trained = fixture_models(n=50)
        path = tmp_path / "m.bin"
        save_model(trained["dt"], path, seed=1)
        return path

    def test_flipped_body_byte_fails_checksum(self, tmp_path):
        path = self.save_one(tmp_path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = self.save_one(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self.save_one(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path = self.save_one(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError, match="version"):
            load_model(path)

    def test_header_readable_without_body(self, tmp_path):
        path = self.save_one(tmp_path)
        header = read_header(path)
        assert header["family"] == "dt"
        assert header["format_version"] == FORMAT_VERSION
        assert path.read_bytes()[:4] == MAGIC

    def write_container(self, path, header, body: bytes):
        header_bytes = json.dumps(header).encode()
        path.write_bytes(
            MAGIC + struct.pack("<II", FORMAT_VERSION, len(header_bytes)) + header_bytes + body
        )

    def craft(self, source, path, mutate):
        """Write to `path` the model file `source` with `mutate` applied to
        its payload, each HUGE written as 1e400, under a matching checksum."""
        header = read_header(source)
        doc = json.loads(source.read_bytes()[-header["body_len"] :])
        mutate(doc["payload"])
        body = json.dumps(doc).replace(json.dumps(HUGE), "1e400").encode()
        header.update(body_len=len(body), body_sha256=hashlib.sha256(body).hexdigest())
        self.write_container(path, header, body)

    @pytest.mark.parametrize("header", [[1], "text", None])
    def test_header_not_an_object(self, tmp_path, header):
        path = tmp_path / "m.bin"
        self.write_container(path, header, b"{}")
        for reader in (read_header, load_model):
            with pytest.raises(ModelFileError, match="not a JSON object"):
                reader(path)

    @pytest.mark.parametrize("key", REQUIRED_HEADER_KEYS)
    def test_header_missing_required_key(self, tmp_path, key):
        path = self.save_one(tmp_path)
        header = read_header(path)
        body = path.read_bytes()[-header["body_len"] :]
        del header[key]
        self.write_container(path, header, body)
        for reader in (read_header, load_model):
            with pytest.raises(ModelFileError, match=key):
                reader(path)

    def write_body(self, path, doc):
        body = json.dumps(doc).encode()
        header = dict.fromkeys(REQUIRED_HEADER_KEYS)
        header.update(body_len=len(body), body_sha256=hashlib.sha256(body).hexdigest())
        self.write_container(path, header, body)

    @pytest.mark.parametrize("doc", [{"payload": {}}, {"kind": "pipeline"}, [1]])
    def test_body_without_kind_and_payload(self, tmp_path, doc):
        path = tmp_path / "m.bin"
        self.write_body(path, doc)
        with pytest.raises(ModelFileError, match="kind and payload"):
            load_model(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "pipeline", "payload": {"features_column": "features"}},
            {"kind": "pipeline", "payload": [1]},
            {"kind": "classifier", "payload": {"model": {}}},
            {"kind": "classifier", "payload": {"family": "lr", "model": {"weights": [1.0]}}},
        ],
    )
    def test_payload_missing_fields(self, tmp_path, doc):
        path = tmp_path / "m.bin"
        self.write_body(path, doc)
        with pytest.raises(ModelFileError, match="payload"):
            load_model(path)

    @pytest.mark.parametrize("part", ["header", "body"])
    def test_deeply_nested_json_rejected(self, tmp_path, part):
        path = tmp_path / "m.bin"
        nested = b"[" * 100_000 + b"]" * 100_000
        if part == "header":
            path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(nested)) + nested)
        else:
            header = dict.fromkeys(REQUIRED_HEADER_KEYS)
            header.update(body_len=len(nested), body_sha256=hashlib.sha256(nested).hexdigest())
            self.write_container(path, header, nested)
        with pytest.raises(ModelFileError, match=f"corrupt {part}"):
            load_model(path)

    @pytest.fixture(scope="class")
    def dt_files(self, tmp_path_factory):
        """A `coverml train --model dt` model file and a held-out table."""
        d = tmp_path_factory.mktemp("dt")
        assert main(["synth", "--rows", "300", "--seed", "2", "--out", str(d / "raw.tbl"),
                     "--csv-out", str(d / "raw.csv"), "--schema-out", str(d / "schema.json")]) == 0
        assert main(["ingest", "--input", str(d / "raw.csv"), "--schema", str(d / "schema.json"),
                     "--derive-label", "--out", str(d / "data.tbl")]) == 0
        (d / "grid.json").write_text(json.dumps({"axes": {"max_depth": [4]}}))
        assert main(["train", "--data", str(d / "data.tbl"), "--model", "dt", "--grid", str(d / "grid.json"),
                     "--folds", "2", "--test-out", str(d / "test.tbl"), "--out", str(d / "dt.bin")]) == 0
        return d

    @staticmethod
    def first_leaf(node):
        while "feature" in node:
            node = node["left"]
        return node

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda root: root.update(feature=999),
            lambda root: root.update(threshold="x"),
            lambda root: TestCorruption.first_leaf(root).pop("prob"),
            lambda root: root.pop("right"),
            *(lambda root, f=f, v=v: root.update({f: v}) for f in ("threshold", "decrease") for v in NON_FINITE.values()),
        ],
        ids=["feature-out-of-range", "threshold-not-a-number", "leaf-without-prob", "split-without-right-child",
             *(f"{f}-{v}" for f in ("threshold", "decrease") for v in NON_FINITE)],
    )
    def test_crafted_tree_rejected(self, dt_files, tmp_path, capsys, mutate):
        """A tree node the engine cannot have written, in a file whose checksum
        matches, is a ModelFileError at load and one error line in the CLI."""
        path = tmp_path / "crafted.bin"
        self.craft(dt_files / "dt.bin", path, lambda payload: mutate(payload["classifier"]["model"]["root"]))
        with pytest.raises(ModelFileError, match="corrupt pipeline payload"):
            load_model(path)
        for argv in (["evaluate", "--data", str(dt_files / "test.tbl")], ["importance"]):
            assert main([*argv, "--model", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_overflowing_importance_is_an_error_line(self, dt_files, tmp_path, capsys):
        """A finite decrease whose product with the node's row count
        overflows loads and scores, but its importance is not a finite
        number: `importance` prints one error line and no table."""
        path = tmp_path / "crafted.bin"
        self.craft(dt_files / "dt.bin", path, lambda payload: payload["classifier"]["model"]["root"].update(decrease=1e308))
        assert main(["evaluate", "--data", str(dt_files / "test.tbl"), "--model", str(path)]) == 0
        capsys.readouterr()
        assert main(["importance", "--model", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: importances must be finite\n"

    @pytest.fixture(scope="class")
    def pipeline_files(self, tmp_path_factory):
        """A pipeline model file of each family and a table to evaluate."""
        d = tmp_path_factory.mktemp("fields")
        table = derive_label(generate_synthetic(SynthSpec(row_count=200, seed=3)))
        (d / "data.tbl").write_bytes(table.to_json_bytes())
        spec = default_pipeline_spec(table, exclude=("IsCovered",))
        small = {
            "rf": models.RandomForestParams(num_trees=2),
            "gbt": models.GbtParams(num_iterations=2),
            "fm": models.FMParams(max_iter=2),
        }
        for family in models.FAMILY_ORDER:
            params = small.get(family, models.default_params(family))
            save_model(fit_pipeline(spec, table, classifier=(family, params)), d / f"{family}.bin", seed=3)
        return d

    @staticmethod
    def set_model(field, value):
        return lambda payload: payload["classifier"]["model"].update({field: value})

    @staticmethod
    def on_stage(kind, mutate):
        """Apply `mutate` to the first fitted stage of type `kind`."""
        return lambda payload: mutate(next(t for t in payload["transformers"] if t["type"] == kind))

    @pytest.mark.parametrize(
        "family, mutate",
        [
            ("dt", set_model("threshold", "x")),
            ("dt", set_model("n_features", 0)),
            ("rf", set_model("n_features", True)),
            ("rf", set_model("threshold", float("inf"))),
            ("gbt", set_model("learning_rate", "0.1")),
            ("gbt", set_model("base_score", None)),
            ("lr", set_model("intercept", float("nan"))),
            ("lr", set_model("threshold", True)),
            ("lr", set_model("weights", [])),
            ("svm", set_model("weights", ["1.0"])),
            ("fm", set_model("w0", [0.0])),
            ("fm", lambda payload: payload["classifier"]["model"]["V"].pop()),
            ("fm", lambda payload: payload["classifier"]["model"]["V"][0].append(0.0)),
            ("lr", lambda payload: payload["transformers"][0]["mapping"][0].__setitem__(1, "0")),
            ("lr", lambda payload: payload["transformers"][0]["mapping"][0].__setitem__(1, 0.0)),
            (
                "lr",
                lambda payload: payload["transformers"].insert(0, {"type": "impute_mean_model", "means": [["x", None]]}),
            ),
            ("lr", on_stage("minmax_model", lambda s: s["mins"].__setitem__(0, "a"))),
            ("lr", on_stage("minmax_model", lambda s: s.update(lo="x"))),
            ("lr", on_stage("vector_index_model", lambda s: s["category_maps"].update({"99": [[0.0, 0]]}))),
            ("lr", on_stage("minmax_model", lambda s: s["maxs"].pop())),
            ("lr", on_stage("vector_index_model", lambda s: s.update(size="x"))),
            ("lr", on_stage("vector_index_model", lambda s: s["category_maps"]["0"][0].__setitem__(1, "0"))),
            ("lr", on_stage("string_index_model", lambda s: s.update(handle_invalid="bogus"))),
            ("lr", set_model("intercept", 10**400)),
            ("rf", set_model("threshold", 2.0)),
            ("rf", set_model("trees", [])),
            ("gbt", set_model("train_losses", "abc")),
            ("lr", set_model("bias", 0.0)),
            ("gbt", lambda payload: payload["classifier"]["model"].pop("train_losses")),
            ("gbt", lambda payload: payload["classifier"]["model"]["train_losses"].pop()),
            *(("gbt", lambda payload, v=v: payload["classifier"]["model"]["trees"][0].update(value=v))
              for v in NON_FINITE.values()),
        ],
        ids=[
            "dt-threshold-text", "dt-no-features", "rf-features-bool", "rf-threshold-inf",
            "gbt-learning-rate-text", "gbt-base-score-null", "lr-intercept-nan", "lr-threshold-bool",
            "lr-no-weights", "svm-weight-text", "fm-w0-list", "fm-V-short", "fm-V-ragged",
            "index-text", "index-float", "impute-mean-null",
            "minmax-min-text", "minmax-lo-text", "vector-index-dimension-past-size", "minmax-maxs-short",
            "vector-index-size-text", "vector-index-code-text", "index-policy-unknown",
            "lr-intercept-huge", "rf-threshold-above-one", "rf-no-trees", "gbt-losses-text", "lr-unknown-key",
            "gbt-no-losses", "gbt-losses-short", *(f"gbt-tree-value-{v}" for v in NON_FINITE),
        ],
    )
    def test_crafted_model_field_rejected(self, pipeline_files, tmp_path, capsys, family, mutate):
        """A model-level field the engine cannot have written, in a file
        whose checksum matches, is a ModelFileError at load and an error
        line in the CLI."""
        path = tmp_path / "crafted.bin"
        self.craft(pipeline_files / f"{family}.bin", path, mutate)
        with pytest.raises(ModelFileError, match="corrupt pipeline payload"):
            load_model(path)
        assert main(["evaluate", "--data", str(pipeline_files / "data.tbl"), "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_unpersistable_object_rejected(self, tmp_path):
        with pytest.raises(ModelFileError):
            save_model({"not": "a model"}, tmp_path / "x.bin")
