import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml.datasets import (
    SynthSpec,
    derive_label,
    generate_synthetic,
    generate_xor,
    sample_rows,
    train_test_split,
)
from coverml.table import ColumnSpec, DataTable, TableError


def text_table(values, name="IsCovered"):
    return DataTable([ColumnSpec(name, "categorical_text")], {name: values})


class TestDeriveLabel:
    def test_basic_mapping(self):
        t = derive_label(text_table(["Covered", "Not Covered", "Covered"]), positive_values={"Covered"})
        assert t.column("label") == (1, 0, 1)
        assert t.column("IsCovered") == ("Covered", "Not Covered", "Covered")

    def test_boolean_source(self):
        t = DataTable([ColumnSpec("flag", "boolean")], {"flag": [True, False]})
        out = derive_label(t, "flag", {"true"})
        assert out.column("label") == (1, 0)

    def test_unknown_column(self):
        with pytest.raises(TableError):
            derive_label(text_table(["Covered"]), "Nope")

    def test_all_null_source(self):
        with pytest.raises(TableError):
            derive_label(text_table([None, None]))

    def test_nulls_count_as_negative(self):
        t = derive_label(text_table(["Covered", None]))
        assert t.column("label") == (1, 0)

    def test_numeric_source_rejected(self):
        t = DataTable([ColumnSpec("x", "numeric")], {"x": [1.0]})
        with pytest.raises(TableError):
            derive_label(t, "x")

    def test_counts_from_large_fixture(self):
        # fixture sized from the reference confusion counts: 11699+3 positives
        # in a 14,415-row test population
        n, positives = 14415, 11702
        values = ["Covered"] * positives + ["NotCovered"] * (n - positives)
        t = derive_label(text_table(values))
        assert sum(t.column("label")) == 11702
        labels = set(t.column("label"))
        assert labels <= {0, 1}


class TestSampleRows:
    def test_identity_fraction(self):
        t = text_table(["a", "b", "c"])
        assert sample_rows(t, 1.0, seed=3) == t

    def test_exact_count(self):
        t = text_table([f"v{i}" for i in range(1000)])
        assert sample_rows(t, 0.3, seed=7).row_count == 300

    def test_deterministic(self):
        t = text_table([f"v{i}" for i in range(100)])
        assert sample_rows(t, 0.5, seed=9) == sample_rows(t, 0.5, seed=9)

    def test_subset_and_order(self):
        t = text_table([f"v{i}" for i in range(50)])
        out = sample_rows(t, 0.4, seed=1)
        picked = [int(v[1:]) for v in out.column("IsCovered")]
        assert picked == sorted(picked)
        assert set(picked) <= set(range(50))

    def test_fraction_bounds(self):
        t = text_table(["a"])
        with pytest.raises(ValueError):
            sample_rows(t, 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_rows(t, 1.5, seed=1)


class TestTrainTestSplit:
    def test_seven_three(self):
        t = text_table([f"v{i}" for i in range(10)])
        train, test = train_test_split(t, 0.3, seed=4)
        assert train.row_count == 7 and test.row_count == 3
        all_values = set(train.column("IsCovered")) | set(test.column("IsCovered"))
        assert all_values == set(t.column("IsCovered"))
        assert not set(train.column("IsCovered")) & set(test.column("IsCovered"))

    def test_deterministic(self):
        t = text_table([f"v{i}" for i in range(30)])
        assert train_test_split(t, 0.3, seed=5) == train_test_split(t, 0.3, seed=5)

    def test_floor_arithmetic_large(self):
        t = text_table([f"v{i}" for i in range(14415)])
        _, test = train_test_split(t, 0.3, seed=1)
        assert test.row_count == 4324  # floor(0.3 * 14415)

    def test_degenerate_fraction(self):
        t = text_table(["a", "b"])
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                train_test_split(t, bad, seed=1)

    def test_too_few_rows(self):
        with pytest.raises(TableError):
            train_test_split(text_table(["a"]), 0.5, seed=1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 200), frac=st.floats(0.05, 0.95), seed=st.integers(0, 999))
    def test_partition_property(self, n, frac, seed):
        t = text_table([f"v{i}" for i in range(n)])
        train, test = train_test_split(t, frac, seed)
        assert train.row_count + test.row_count == n
        assert test.row_count == int(frac * n)
        assert not set(train.column("IsCovered")) & set(test.column("IsCovered"))


class TestSynthetic:
    def test_positive_rate_concentration(self, benefits_10k):
        rate = benefits_10k.label_array().mean()
        assert abs(rate - 0.81) <= 0.01

    def test_constant_column(self, benefits_small):
        assert set(benefits_small.column("IsEHB")) == {True}

    def test_byte_identical_repeats(self):
        spec = SynthSpec(row_count=500, seed=42)
        assert generate_synthetic(spec).to_json_bytes() == generate_synthetic(spec).to_json_bytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(row_count=0)
        with pytest.raises(ValueError):
            SynthSpec(row_count=10, positive_rate=1.0)
        with pytest.raises(ValueError):
            SynthSpec(row_count=10, exclusion_categories=2)
        with pytest.raises(ValueError):
            SynthSpec(row_count=10, weak_cardinalities={"X": 0})
        with pytest.raises(ValueError):
            SynthSpec(row_count=10, signal_strength=1.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"row_count": 5.5},
            {"row_count": "5"},
            {"row_count": True},
            {"row_count": 10, "seed": 1.0},
            {"row_count": 10, "exclusion_categories": 5.0},
            {"row_count": 10, "positive_rate": "0.5"},
            {"row_count": 10, "weak_signal": None},
            {"row_count": 10, "weak_cardinalities": {"X": 2.5}},
        ],
    )
    def test_spec_field_types(self, fields):
        with pytest.raises(ValueError, match="must be"):
            SynthSpec(**fields)

    def test_spec_json_roundtrip(self):
        spec = SynthSpec(row_count=77, positive_rate=0.5, seed=3, signal_strength=0.25)
        assert SynthSpec.from_json(spec.to_json()) == spec

    def test_expected_columns(self, benefits_small):
        assert benefits_small.column_names == (
            "Exclusions",
            "BusinessYear",
            "IssuerId",
            "QuantLimitOnSvc",
            "SourceName",
            "StateCode",
            "IsEHB",
            "IsCovered",
            "label",
        )


class TestXor:
    def test_deterministic(self):
        assert generate_xor(200, seed=5).to_json_bytes() == generate_xor(200, seed=5).to_json_bytes()

    def test_flip_rate_validation(self):
        with pytest.raises(ValueError):
            generate_xor(10, seed=1, flip_rate=0.6)

    def test_marginals_balanced(self, xor_table):
        labels = xor_table.label_array()
        assert abs(labels.mean() - 0.5) < 0.05
        a = np.array([v == "A1" for v in xor_table.column("FeatureA")])
        # each informative column alone is uninformative about the label
        assert abs(labels[a].mean() - labels[~a].mean()) < 0.06
