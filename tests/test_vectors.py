import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coverml.vectors import FeatureVector


def test_dense_roundtrip():
    v = FeatureVector.dense([1.0, 0.0, 0.5])
    assert v.size == 3
    assert np.array_equal(v.to_dense(), [1.0, 0.0, 0.5])


def test_dense_size_must_match():
    with pytest.raises(ValueError):
        FeatureVector(4, [1.0, 2.0])


def test_nan_rejected():
    with pytest.raises(ValueError):
        FeatureVector.dense([1.0, float("nan")])


def test_display_formats():
    assert FeatureVector.dense([1.0, 0.5]).display() == "[1.0,0.5]"


def test_immutable():
    v = FeatureVector.dense([1.0])
    with pytest.raises(AttributeError):
        v.size = 2
    with pytest.raises(ValueError):
        v.values[0] = 5.0


def test_equality_compares_size_and_values():
    assert FeatureVector.dense([1.0, 0.0]) == FeatureVector.dense([1.0, 0.0])
    assert FeatureVector.dense([1.0, 0.0]) != FeatureVector.dense([1.0, 0.5])
    assert FeatureVector.dense([1.0]) != FeatureVector.dense([1.0, 0.0])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=20))
def test_dict_roundtrip_dense(values):
    v = FeatureVector.dense(values)
    assert FeatureVector.from_dict(v.to_dict()) == v


def test_from_dict_rejects_sparse_form():
    with pytest.raises(ValueError, match="size and values"):
        FeatureVector.from_dict({"size": 3, "indices": [0, 2], "values": [1.0, 2.0]})


def test_rows_of_matches_dense_rows():
    matrix = np.array([[1.0, -0.0], [2.5, 3.0]])
    rows = FeatureVector.rows_of(matrix)
    assert rows == [FeatureVector.dense([1.0, -0.0]), FeatureVector.dense([2.5, 3.0])]
    assert [v.display() for v in rows] == ["[1.0,-0.0]", "[2.5,3.0]"]
    assert FeatureVector.rows_of(np.zeros((0, 3))) == []


def test_rows_of_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        FeatureVector.rows_of([[1.0, 2.0], [float("nan"), 0.0]])


def test_rows_of_vectors_are_read_only_and_detached():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    rows = FeatureVector.rows_of(matrix)
    matrix[0, 0] = 9.0
    assert rows[0] == FeatureVector.dense([1.0, 2.0])
    with pytest.raises(ValueError):
        rows[1].values[0] = 5.0
    with pytest.raises(AttributeError):
        rows[0].size = 3
