import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml import models
from coverml.stages import (
    INVALID_POLICIES,
    FittedPipeline,
    MeanImputer,
    MinMaxScaler,
    PipelineError,
    PipelineSpec,
    StringIndexer,
    VectorAssembler,
    VectorIndexer,
    default_pipeline_spec,
    fit_pipeline,
)
from coverml.table import ColumnSpec, DataTable


def display(row):
    """A vector row as the predictions CSV renders it."""
    return "[" + ",".join(repr(v) for v in row) + "]"


def table_of(**cols):
    schema = [ColumnSpec(name, kind) for name, (kind, _) in cols.items()]
    return DataTable(schema, {name: values for name, (kind, values) in cols.items()})


class TestStringIndexer:
    def test_frequency_then_lexicographic(self):
        t = table_of(s=("categorical_text", ["CA", "CA", "TX", "AK"]))
        model = StringIndexer("s", "s_idx").fit(t)
        assert model.mapping == {"CA": 0, "AK": 1, "TX": 2}

    def test_single_distinct(self):
        t = table_of(s=("categorical_text", ["X", "X"]))
        assert StringIndexer("s", "o").fit(t).mapping == {"X": 0}

    def test_frequency_ranks(self):
        # histogram built by hand: a:5 b:4 c:3 d:2 e:1
        values = ["a"] * 5 + ["b"] * 4 + ["c"] * 3 + ["d"] * 2 + ["e"]
        t = table_of(s=("categorical_text", values))
        model = StringIndexer("s", "o").fit(t)
        assert model.mapping == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}

    def test_nulls_become_missing_token(self):
        t = table_of(s=("categorical_text", ["x", None, None]))
        model = StringIndexer("s", "o").fit(t)
        assert model.mapping == {"__MISSING__": 0, "x": 1}
        out = model.transform(t)
        assert out.column("o") == (1.0, 0.0, 0.0)

    def test_empty_column_errors(self):
        t = table_of(s=("categorical_text", []))
        with pytest.raises(PipelineError):
            StringIndexer("s", "o").fit(t)

    def test_non_categorical_rejected(self):
        t = table_of(x=("numeric", [1.0]))
        with pytest.raises(PipelineError):
            StringIndexer("x", "o").fit(t)

    def test_transform_keep_uses_extra_bucket(self):
        model = StringIndexer("s", "o", "keep").fit(
            table_of(s=("categorical_text", ["CA", "CA", "TX", "AK"]))
        )
        out = model.transform(table_of(s=("categorical_text", ["WA"])))
        assert out.column("o") == (3.0,)

    def test_transform_skip_drops_row(self):
        model = StringIndexer("s", "o", "skip").fit(
            table_of(s=("categorical_text", ["CA", "CA", "TX", "AK"]))
        )
        out = model.transform(table_of(s=("categorical_text", ["WA", "CA"])))
        assert out.row_count == 1
        assert out.column("s") == ("CA",)

    def test_transform_error_names_label_and_row(self):
        model = StringIndexer("s", "o", "error").fit(
            table_of(s=("categorical_text", ["CA", "TX"]))
        )
        with pytest.raises(PipelineError, match="'WA'.*row 1"):
            model.transform(table_of(s=("categorical_text", ["CA", "WA"])))

    def test_invalid_policy_rejected(self):
        with pytest.raises(PipelineError):
            StringIndexer("s", "o", "ignore")

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=60))
    def test_mapping_is_bijection_and_fit_table_has_no_unseen(self, values):
        t = table_of(s=("categorical_text", list(values)))
        model = StringIndexer("s", "o", "error").fit(t)
        assert sorted(model.mapping.values()) == list(range(len(model.mapping)))
        out = model.transform(t)  # error policy: would raise on any unseen label
        assert out.row_count == t.row_count


class TestVectorAssembler:
    def test_concatenation_order(self):
        t = table_of(
            a=("numeric", [1.0]),
            v=("vector", [[2.0, 3.0]]),
            b=("numeric", [4.0]),
        )
        out = VectorAssembler(("a", "v", "b"), "f").fit(t).transform(t)
        assert out.feature_matrix("f").tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_single_scalar(self):
        t = table_of(a=("numeric", [7.5]))
        out = VectorAssembler(("a",), "f").fit(t).transform(t)
        assert out.feature_matrix("f").shape == (1, 1)

    def test_seven_scalars_make_size_seven(self):
        cols = {f"c{i}": ("numeric", [float(i)]) for i in range(7)}
        t = table_of(**cols)
        out = VectorAssembler(tuple(cols), "features").fit(t).transform(t)
        assert out.feature_matrix("features").shape == (1, 7)

    def test_null_input_names_column_and_row(self):
        t = table_of(a=("numeric", [1.0, None]))
        with pytest.raises(PipelineError, match="'a' at row 1"):
            VectorAssembler(("a",), "f").fit(t).transform(t)

    def test_boolean_and_label_coerce(self):
        t = table_of(b=("boolean", [True, False]), y=("label", [1, 0]))
        out = VectorAssembler(("b", "y"), "f").fit(t).transform(t)
        assert out.feature_matrix("f").tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_categorical_input_rejected(self):
        t = table_of(s=("categorical_text", ["x"]))
        with pytest.raises(PipelineError):
            VectorAssembler(("s",), "f").fit(t)

    def test_output_size_is_sum_of_input_sizes(self):
        rng = np.random.default_rng(0)
        t = table_of(v=("vector", rng.random((5, 3))), x=("numeric", rng.random(5).tolist()))
        out = VectorAssembler(("v", "x"), "f").fit(t).transform(t)
        assert out.feature_matrix("f").shape == (5, 4)


class TestVectorIndexer:
    def fit_on(self, rows, max_categories=4, policy="skip"):
        t = table_of(v=("vector", [r for r in rows]))
        model = VectorIndexer("v", "o", max_categories, policy).fit(t)
        return model, t

    def test_low_cardinality_maps_ascending(self):
        model, t = self.fit_on([[0.0], [1.0], [5.0]])
        assert model.category_maps[0] == {0.0: 0, 1.0: 1, 5.0: 2}
        out = model.transform(t)
        assert out.feature_matrix("o")[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_high_cardinality_passthrough(self):
        rows = [[float(i)] for i in range(100)]
        model, t = self.fit_on(rows, max_categories=20)
        assert model.category_maps == {}
        out = model.transform(t)
        assert out.feature_matrix("o")[:, 0].tolist() == [float(i) for i in range(100)]

    def test_unseen_value_skip_drops_row(self):
        model, _ = self.fit_on([[0.0], [1.0], [5.0]])
        test = table_of(v=("vector", [[7.0], [1.0]]))
        out = model.transform(test)
        assert out.row_count == 1
        assert out.feature_matrix("o").tolist() == [[1.0]]

    def test_unseen_value_keep_appends_bucket(self):
        model, _ = self.fit_on([[0.0], [1.0], [5.0]], policy="keep")
        out = model.transform(table_of(v=("vector", [[7.0]])))
        assert out.feature_matrix("o").tolist() == [[3.0]]

    def test_unseen_value_error_policy(self):
        model, _ = self.fit_on([[0.0], [1.0]], policy="error")
        with pytest.raises(PipelineError, match="dimension 0"):
            model.transform(table_of(v=("vector", [[9.0]])))

    def test_varying_sizes_rejected(self):
        model, _ = self.fit_on([[0.0, 1.0], [1.0, 0.0]])
        bad = table_of(v=("vector", [[1.0]]))
        with pytest.raises(ValueError):
            model.transform(bad)


# Per-row references: the loops that VectorAssembler and VectorIndexModel
# ran before they became array operations.


def assemble_rows(table, input_cols):
    out = []
    for row in range(table.row_count):
        parts = []
        for name in input_cols:
            kind = table.spec(name).kind
            if kind == "vector":
                parts.extend(table.feature_matrix(name)[row].tolist())
                continue
            v = table.column(name)[row]
            if v is None:
                raise PipelineError(f"null value in column {name!r} at row {row}")
            if kind == "boolean":
                parts.append(1.0 if v else 0.0)
            else:
                parts.append(float(v))
        out.append(display(parts))
    return out


def index_rows(model, rows):
    out = [list(r) for r in rows]
    kept = [True] * len(rows)
    for dim, mapping in model.category_maps.items():
        for row, values in enumerate(rows):
            idx = mapping.get(float(values[dim]))
            if idx is not None:
                out[row][dim] = float(idx)
            elif model.handle_invalid == "keep":
                out[row][dim] = float(len(mapping))
            elif model.handle_invalid == "skip":
                kept[row] = False
            else:
                raise PipelineError(
                    f"unseen value {np.float64(values[dim])!r} in dimension {dim} "
                    f"of {model.input_col!r} at row {row}"
                )
    return [float(i) for i in range(len(rows)) if kept[i]], [
        display(r) for r, k in zip(out, kept) if k
    ]


def outcome(fn):
    try:
        return fn()
    except PipelineError as exc:
        return str(exc)


POOL = (-0.0, 0.0, 1.0, 2.5, -3.0, 7.0)


class TestArrayStagesMatchRowLoops:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), with_nulls=st.booleans())
    def test_assembler(self, data, n, with_nulls):
        def column(values):
            values = st.none() | values if with_nulls else values
            return data.draw(st.lists(values, min_size=n, max_size=n))

        vec = st.lists(st.sampled_from(POOL), min_size=2, max_size=2)
        t = table_of(
            x=("numeric", column(st.sampled_from(POOL))),
            b=("boolean", column(st.booleans())),
            y=("label", data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
            v=("vector", data.draw(st.lists(vec, min_size=n, max_size=n))),
        )
        order = data.draw(st.permutations(["x", "b", "y", "v"]))
        inputs = tuple(order[: data.draw(st.integers(1, 4))])

        def assembled():
            out = VectorAssembler(inputs, "f").transform(t)
            return [display(r) for r in out.feature_matrix("f").tolist()]

        assert outcome(assembled) == outcome(lambda: assemble_rows(t, inputs))

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(1, 3),
        max_categories=st.integers(1, 6),
        policy=st.sampled_from(INVALID_POLICIES),
    )
    def test_vector_indexer(self, data, size, max_categories, policy):
        def rows(pool, min_size):
            row = st.lists(st.sampled_from(pool), min_size=size, max_size=size)
            return data.draw(st.lists(row, min_size=min_size, max_size=10))

        fit_pool = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))
        fit = table_of(v=("vector", [r for r in rows(fit_pool, 1)]))
        model = VectorIndexer("v", "o", max_categories, policy).fit(fit)
        # Codes in any order, as a hand-edited model file may hold them.
        maps = {}
        for dim, mapping in model.category_maps.items():
            codes = data.draw(st.permutations(list(mapping.values())))
            maps[dim] = dict(zip(mapping, codes))
        model = type(model)(model.input_col, model.output_col, model.size, maps, policy)

        test_rows = rows(POOL, 0)
        t = table_of(
            v=("vector", [r for r in test_rows]),
            id=("numeric", [float(i) for i in range(len(test_rows))]),
        )

        def indexed():
            out = model.transform(t)
            return list(out.column("id")), [display(r) for r in out.feature_matrix("o").tolist()]

        assert outcome(indexed) == outcome(lambda: index_rows(model, test_rows))

    def test_negative_zero_matches_zero_category(self):
        t = table_of(v=("vector", [[0.0], [1.0]]))
        model = VectorIndexer("v", "o", 4, "error").fit(t)
        out = model.transform(table_of(v=("vector", [[-0.0]])))
        assert display(out.feature_matrix("o")[0].tolist()) == "[0.0]"

    def test_first_null_in_row_order_is_named(self):
        t = table_of(a=("numeric", [1.0, 2.0, None]), b=("numeric", [1.0, None, None]))
        with pytest.raises(PipelineError, match="'b' at row 1"):
            VectorAssembler(("a", "b"), "f").transform(t)
        with pytest.raises(PipelineError, match="'b' at row 1"):
            VectorAssembler(("b", "a"), "f").transform(t)

    def test_first_unseen_value_is_named(self):
        model = VectorIndexer("v", "o", 4, "error").fit(
            table_of(v=("vector", [[0.0, 0.0]]))
        )
        rows = [[0.0, 0.0], [0.0, 5.0], [4.0, 0.0], [3.0, 0.0]]
        t = table_of(v=("vector", [r for r in rows]))
        with pytest.raises(PipelineError, match=r"value (np\.float64\()?4\.0\)? in dimension 0 of 'v' at row 2"):
            model.transform(t)


class TestMinMax:
    def test_three_point_rescale(self):
        t = table_of(v=("vector", [[x] for x in (10.0, 20.0, 30.0)]))
        model = MinMaxScaler("v", "o").fit(t)
        out = model.transform(t)
        assert out.feature_matrix("o")[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_dimension_maps_to_midpoint(self):
        t = table_of(v=("vector", [[4.0] for _ in range(3)]))
        out = MinMaxScaler("v", "o", 0.0, 1.0).fit(t).transform(t)
        assert out.feature_matrix("o")[:, 0].tolist() == [0.5, 0.5, 0.5]

    def test_outputs_not_clamped(self):
        fit = table_of(v=("vector", [[10.0], [30.0]]))
        model = MinMaxScaler("v", "o").fit(fit)
        out = model.transform(table_of(v=("vector", [[5.0]])))
        assert out.feature_matrix("o")[0, 0] == -0.25

    def test_empty_fit_errors(self):
        t = table_of(v=("vector", []))
        with pytest.raises(PipelineError):
            MinMaxScaler("v", "o").fit(t)

    def test_invalid_range(self):
        with pytest.raises(PipelineError):
            MinMaxScaler("v", "o", 1.0, 1.0)

    def test_custom_range_endpoints_exact(self):
        t = table_of(v=("vector", [[3.0], [9.0]]))
        out = MinMaxScaler("v", "o", -1.0, 1.0).fit(t).transform(t)
        assert out.feature_matrix("o")[:, 0].tolist() == [-1.0, 1.0]

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    def test_fit_rows_land_in_range(self, values):
        t = table_of(v=("vector", [[v] for v in values]))
        out = MinMaxScaler("v", "o").fit(t).transform(t)
        scaled = out.feature_matrix("o")[:, 0].tolist()
        assert all(0.0 <= s <= 1.0 for s in scaled)
        if min(values) < max(values):
            assert 0.0 in scaled and 1.0 in scaled


class TestMeanImputer:
    def test_fit_mean_fills_nulls(self):
        fit = table_of(x=("numeric", [1.0, 3.0, None]))
        model = MeanImputer(("x",)).fit(fit)
        assert model.means == {"x": 2.0}
        out = model.transform(table_of(x=("numeric", [None, 10.0])))
        assert out.column("x") == (2.0, 10.0)

    def test_all_null_fit_errors(self):
        t = table_of(x=("numeric", [None, None]))
        with pytest.raises(PipelineError):
            MeanImputer(("x",)).fit(t)

    def test_mean_beyond_float_range_errors(self):
        # The sum overflows; the stage would hold a mean no model file can carry.
        t = table_of(x=("numeric", [1.7e308, 1.7e308, None]))
        with pytest.raises(PipelineError, match="beyond the float range"):
            MeanImputer(("x",)).fit(t)


def ten_row_fixture():
    return table_of(
        Exclusions=("categorical_text", ["A", "A", "A", "B", "B", "C", "C", "C", "C", "D"]),
        BusinessYear=("categorical_text", ["2017"] * 5 + ["2018"] * 5),
        IssuerId=("categorical_text", ["I1", "I2"] * 5),
        QuantLimitOnSvc=("categorical_text", ["Q"] * 10),
        SourceName=("categorical_text", ["S1", "S1", "S2", "S2", "S2", "S1", "S1", "S1", "S2", "S2"]),
        StateCode=("categorical_text", ["CA", "CA", "TX", "AK", "CA", "TX", "CA", "AK", "CA", "TX"]),
        IsEHB=("boolean", [True] * 10),
        label=("label", [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]),
    )


class TestPipeline:
    def test_empty_stage_list_is_identity(self):
        t = ten_row_fixture()
        fitted = fit_pipeline(PipelineSpec(()), t)
        assert fitted.transform(t) == t

    def test_default_spec_produces_size_seven_features(self):
        t = ten_row_fixture()
        spec = default_pipeline_spec(t)
        fitted = fit_pipeline(spec, t)
        out = fitted.transform(t)
        features = out.feature_matrix("features")
        assert features.shape == (10, 7)

        # manual stage-by-stage trace of row 0 = (A, 2017, I1, Q, S1, CA, true):
        # string indexes: A->1 (freqs C:4,A:3,B:2,D:1), 2017->0, I1->0, Q->0,
        # S1->0, CA->0; IsEHB true->1.0 so catFeatures=[1,0,0,0,0,0,1].
        # vector-indexing maps each dimension ascending (identity here) and
        # re-encodes the constant IsEHB dimension {1.0}->0.
        # min-max: dim0 range [0,3] -> 1/3; dims 1,2,4 range [0,1] unchanged;
        # dim5 range [0,2] -> 0; constant dims 3,6 -> midpoint 0.5.
        assert features[0].tolist() == [1 / 3, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5]

    def test_feature_names_track_source_columns(self):
        t = ten_row_fixture()
        fitted = fit_pipeline(default_pipeline_spec(t), t)
        assert fitted.feature_names == (
            "Exclusions",
            "BusinessYear",
            "IssuerId",
            "QuantLimitOnSvc",
            "SourceName",
            "StateCode",
            "IsEHB",
        )

    def test_fit_then_transform_self_never_errors(self):
        t = ten_row_fixture()
        for policy in ("keep", "skip"):
            spec = PipelineSpec(
                (
                    StringIndexer("Exclusions", "e", policy),
                    VectorAssembler(("e", "IsEHB"), "catFeatures"),
                    VectorIndexer("catFeatures", "idx", 20, policy if policy != "keep" else "skip"),
                    MinMaxScaler("idx", "features"),
                ),
                features_col="features",
            )
            fitted = fit_pipeline(spec, t)
            assert fitted.transform(t).row_count == t.row_count

    def test_missing_column_reports_stage_index(self):
        t = ten_row_fixture()
        spec = PipelineSpec((StringIndexer("Nope", "o"),))
        with pytest.raises(PipelineError, match="stage 0"):
            fit_pipeline(spec, t)

    def test_terminal_classifier_appends_prediction_columns(self):
        t = ten_row_fixture()
        from coverml.models import DecisionTreeParams

        fitted = fit_pipeline(default_pipeline_spec(t), t, classifier=("dt", DecisionTreeParams()))
        out = fitted.transform(t)
        for col in ("rawScore", "probability", "prediction", "trueLabel"):
            assert out.has_column(col)
        assert set(out.column("prediction")) <= {0.0, 1.0}
        assert out.column("trueLabel") == tuple(float(v) for v in t.column("label"))

    def test_svm_pipeline_has_no_probability_column(self):
        t = ten_row_fixture()
        from coverml.models import LinearSvmParams

        fitted = fit_pipeline(default_pipeline_spec(t), t, classifier=("svm", LinearSvmParams()))
        out = fitted.transform(t)
        assert not out.has_column("probability")
        assert out.has_column("rawScore")

    @pytest.mark.parametrize("family", models.FAMILY_ORDER)
    def test_transform_scores_once(self, family, monkeypatch):
        t = ten_row_fixture()
        params = models.default_params(family)
        fitted = fit_pipeline(default_pipeline_spec(t), t, classifier=(family, params))
        model = fitted.classifier
        calls = []
        original = type(model).raw_scores

        def counting(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(type(model), "raw_scores", counting)
        out = fitted.transform(t)
        assert calls == [t.row_count]
        X = out.feature_matrix("features")
        assert out.column("rawScore") == tuple(model.raw_scores(X).tolist())
        prob = model.probabilities(X)
        if prob is None:
            assert not out.has_column("probability")
        else:
            assert out.column("probability") == tuple(prob.tolist())
        assert out.column("prediction") == tuple(model.predictions(X).astype(float).tolist())

    def test_fitting_twice_gives_identical_transformers(self):
        t = ten_row_fixture()
        spec = default_pipeline_spec(t)
        a = fit_pipeline(spec, t)
        b = fit_pipeline(spec, t)
        assert a.to_dict() == b.to_dict()
        assert a.transform(t) == b.transform(t)

    @given(
        st.lists(st.sampled_from(["CA", "TX", "AK", None]), min_size=1, max_size=12),
        st.lists(st.one_of(st.none(), st.sampled_from([-2.5, -0.0, 0.0, 1.0, 7.25])), min_size=1, max_size=12),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_fitted_stages_are_what_their_checks_read(self, text, numbers, max_categories):
        # fit builds its stages unchecked; each must equal, field for field
        # and type for type, the stage the checking constructor and the model
        # file reader make of the same values.
        n = min(len(text), len(numbers))
        if all(v is None for v in numbers[:n]):
            numbers = [1.0] + numbers[1:]
        t = table_of(s=("categorical_text", text[:n]), x=("numeric", numbers[:n]))
        spec = PipelineSpec((
            MeanImputer(("x",)),
            StringIndexer("s", "s_idx"),
            VectorAssembler(("s_idx", "x"), "raw"),
            VectorIndexer("raw", "idx", max_categories=max_categories),
            MinMaxScaler("idx", "features"),
        ))
        fitted = fit_pipeline(spec, t)
        for stage in fitted.transformers:
            checked = type(stage)(**{f: getattr(stage, f) for f in stage.__dataclass_fields__})
            assert checked == stage
            assert [type(getattr(checked, f)) for f in stage.__dataclass_fields__] == [
                type(getattr(stage, f)) for f in stage.__dataclass_fields__
            ]
        back = FittedPipeline.from_dict(json.loads(json.dumps(fitted.to_dict())))
        assert back.transformers == fitted.transformers
        assert json.dumps(back.to_dict()) == json.dumps(fitted.to_dict())

    def test_serialization_roundtrip_bit_exact(self):
        t = ten_row_fixture()
        from coverml.models import GbtParams

        fitted = fit_pipeline(default_pipeline_spec(t), t, classifier=("gbt", GbtParams(num_iterations=3)))
        back = FittedPipeline.from_dict(fitted.to_dict())
        assert back.transform(t).to_json_bytes() == fitted.transform(t).to_json_bytes()

    def test_transform_of_zero_row_table(self):
        # a skip policy can legitimately drop every row; later stages and the
        # terminal classifier must pass the empty table through cleanly
        t = ten_row_fixture()
        from coverml.models import LogisticParams

        fitted = fit_pipeline(default_pipeline_spec(t), t, classifier=("lr", LogisticParams()))
        empty = t.select_rows([])
        out = fitted.transform(empty)
        assert out.row_count == 0
        for col in ("features", "rawScore", "probability", "prediction", "trueLabel"):
            assert out.has_column(col)

    def test_spec_json_roundtrip(self):
        t = ten_row_fixture()
        spec = default_pipeline_spec(t)
        back = PipelineSpec.from_json(spec.to_json())
        assert back == spec

    def test_unknown_stage_type_rejected(self):
        with pytest.raises(PipelineError, match="one_hot"):
            PipelineSpec.from_dict({"stages": [{"type": "one_hot"}]})

    @pytest.mark.parametrize(
        "stage",
        [
            {"type": "impute_mean", "columns": "Exclusions"},
            {"type": "impute_mean", "columns": ["a", 1]},
            {"type": "assemble", "inputs": "ab", "output": "features"},
            {"type": "vector_index", "input": "v", "output": "w", "max_categories": "20"},
            {"type": "vector_index", "input": "v", "output": "w", "max_categories": True},
            {"type": "minmax", "input": "v", "output": "w", "lo": "x"},
            {"type": "vector_index", "input": "v", "output": "w", "max_categorie": 5},
            {"type": "string_index", "output": "w"},
            {"type": "string_index_model", "input": "s", "output": "w", "mapping": [["a", 0]]},
        ],
    )
    def test_stage_field_of_the_wrong_type_rejected(self, stage):
        with pytest.raises(PipelineError):
            PipelineSpec.from_dict({"stages": [stage]})

    def test_unseen_test_categories_keep_then_skip_drops_rows(self):
        # the default pipeline indexes with keep (unseen -> extra bucket k) and
        # vector-indexes with skip: a test row with a category absent from the
        # fit table must be dropped, not mis-scored
        train = ten_row_fixture()
        fitted = fit_pipeline(default_pipeline_spec(train), train)
        test = table_of(
            Exclusions=("categorical_text", ["A", "UNSEEN"]),
            BusinessYear=("categorical_text", ["2017", "2018"]),
            IssuerId=("categorical_text", ["I1", "I2"]),
            QuantLimitOnSvc=("categorical_text", ["Q", "Q"]),
            SourceName=("categorical_text", ["S1", "S2"]),
            StateCode=("categorical_text", ["CA", "TX"]),
            IsEHB=("boolean", [True, True]),
            label=("label", [1, 0]),
        )
        out = fitted.transform(test)
        assert out.row_count == 1
        assert out.column("Exclusions") == ("A",)

    def test_mixed_numeric_and_categorical_pipeline(self):
        t = table_of(
            plan=("categorical_text", ["gold", "silver", "gold", "bronze"]),
            copay=("numeric", [10.0, None, 30.0, 20.0]),
            label=("label", [1, 0, 1, 0]),
        )
        spec = PipelineSpec(
            (
                MeanImputer(("copay",)),
                StringIndexer("plan", "plan_idx"),
                VectorAssembler(("plan_idx",), "catFeatures"),
                VectorIndexer("catFeatures", "idxCat", 20, "skip"),
                VectorAssembler(("copay",), "contFeatures"),
                MinMaxScaler("contFeatures", "normCont"),
                VectorAssembler(("idxCat", "normCont"), "features"),
            ),
            features_col="features",
        )
        fitted = fit_pipeline(spec, t)
        out = fitted.transform(t)
        features = out.feature_matrix("features")
        assert features.shape == (4, 2)
        # imputed copay mean is (10+30+20)/3 = 20 -> scaled to 0.5 on [10, 30]
        assert features[1, 1] == 0.5
        assert fitted.feature_names == ("plan", "copay")
        assert PipelineSpec.from_json(spec.to_json()) == spec
        assert FittedPipeline.from_dict(fitted.to_dict()) == fitted

    def test_default_spec_excludes_label_and_given_columns(self):
        t = table_of(
            a=("categorical_text", ["x", "y"]),
            IsCovered=("categorical_text", ["Covered", "NotCovered"]),
            label=("label", [1, 0]),
        )
        spec = default_pipeline_spec(t, exclude=("IsCovered",))
        indexed = [s.input_col for s in spec.stages if isinstance(s, StringIndexer)]
        assert indexed == ["a"]
