"""Vector columns: each is one read-only (n, size) float64 matrix, checked
once where it enters a table and encoded in `.tbl` files row by row as
`{"size": d, "values": [...]}`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coverml.cli import _write_predictions
from coverml.table import ColumnSpec, DataTable, TableError


def vector_table(rows, name="v"):
    return DataTable([ColumnSpec(name, "vector", nullable=False)], {name: rows})


def test_dense_roundtrip():
    m = vector_table([[1.0, 0.0, 0.5]]).feature_matrix("v")
    assert m.shape == (1, 3) and m.dtype == np.float64
    assert np.array_equal(m, [[1.0, 0.0, 0.5]])


def test_dense_size_must_match():
    data = vector_table([[1.0, 2.0]]).to_json_bytes().replace(b'"size":2', b'"size":4')
    with pytest.raises(TableError, match="'v'.* at row 0"):
        DataTable.from_json_bytes(data)


def test_nan_rejected():
    with pytest.raises(TableError, match="'v' holds NaN at row 1"):
        vector_table([[1.0, 2.0], [1.0, float("nan")]])


def test_display_formats(tmp_path):
    out = vector_table([[1.0, 0.5], [-0.0, 1e-300]], "features")
    out = out.with_column(ColumnSpec("prediction", "numeric"), [1.0, 0.0])
    _write_predictions(out, tmp_path / "p.csv", "features")
    assert (tmp_path / "p.csv").read_text().splitlines() == [
        "features,prediction,trueLabel",
        '"[1.0,0.5]",1.0,',
        '"[-0.0,1e-300]",0.0,',
    ]


def per_row_predictions(out_table, path):
    """The predictions CSV written one row at a time, each value through
    `repr`: the reference for `_write_predictions`."""
    features = out_table.feature_matrix("features")
    preds = out_table.column("prediction")
    labels = out_table.column("trueLabel") if out_table.has_column("trueLabel") else None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("features,prediction,trueLabel\n")
        for i, row in enumerate(features):
            label = "" if labels is None else repr(labels[i])
            values = ",".join(repr(v) for v in row.tolist())
            fh.write(f'"[{values}]",{preds[i]!r},{label}\n')


def predictions_table(features, preds, labels=None):
    out = vector_table(features, "features")
    out = out.with_column(ColumnSpec("prediction", "numeric", nullable=False), preds)
    if labels is not None:
        out = out.with_column(ColumnSpec("trueLabel", "numeric", nullable=False), labels)
    return out


@pytest.mark.parametrize(
    "features, preds, labels",
    [
        ([[-0.0, 1.0], [0.0, 1.0], [-0.0, 0.25]], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]),
        ([[0.5, 0.5, 0.5]] * 4, [0.0] * 4, [0.0, 1.0, 0.0, 1.0]),
        ([[1e-300, 6.75e-05], [1e22, float("inf")]], [1.0, 0.0], None),
        (np.zeros((0, 3)), [], []),
        (np.zeros((0, 3)), [], None),
        (np.zeros((3, 0)), [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]),
        ([[7.0]], [-0.0], [0.0]),
    ],
)
def test_predictions_match_per_row_writer(tmp_path, features, preds, labels):
    out = predictions_table(features, preds, labels)
    _write_predictions(out, tmp_path / "bulk.csv", "features")
    per_row_predictions(out, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@given(
    st.integers(0, 4).flatmap(
        lambda d: st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300, 2.5e16]), min_size=d, max_size=d),
            min_size=1,
            max_size=6,
        )
    ),
    st.booleans(),
)
def test_predictions_match_per_row_writer_on_repeats(tmp_path_factory, rows, with_labels):
    path = tmp_path_factory.mktemp("preds")
    preds = [float(i % 2) for i in range(len(rows))]
    out = predictions_table(rows, preds, preds[::-1] if with_labels else None)
    _write_predictions(out, path / "bulk.csv", "features")
    per_row_predictions(out, path / "rows.csv")
    assert (path / "bulk.csv").read_bytes() == (path / "rows.csv").read_bytes()


def test_immutable():
    t = vector_table([[1.0], [2.0]])
    with pytest.raises(ValueError):
        t.feature_matrix("v")[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.select_rows([1, 0]).feature_matrix("v")[0, 0] = 5.0


def test_equality_compares_size_and_values():
    assert vector_table([[1.0, 0.0]]) == vector_table(np.array([[1.0, 0.0]]))
    assert vector_table([[1.0, 0.0]]) != vector_table([[1.0, 0.5]])
    assert vector_table([[1.0]]) != vector_table([[1.0, 0.0]])
    # Equality is `.tbl`-byte identity, and -0.0 and 0.0 are written apart.
    assert vector_table([[-0.0]]) != vector_table([[0.0]])
    # A .tbl file cannot record the width of a 0-row column.
    assert vector_table(np.zeros((0, 3))) == vector_table([])


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    st.integers(0, 4).flatmap(
        lambda width: st.lists(st.lists(FINITE, min_size=width, max_size=width), max_size=6)
    )
)
def test_dict_roundtrip_dense(rows):
    t = vector_table(rows)
    data = t.to_json_bytes()
    assert DataTable.from_json_bytes(data) == t
    if rows:
        assert f'{{"size":{len(rows[0])},"values":'.encode() in data


def test_from_dict_rejects_sparse_form():
    data = vector_table([[1.0, 0.0, 2.0]]).to_json_bytes().replace(
        b'{"size":3,"values":[1.0,0.0,2.0]}', b'{"size":3,"indices":[0,2],"values":[1.0,2.0]}'
    )
    with pytest.raises(TableError, match="size and values at row 0"):
        DataTable.from_json_bytes(data)


def test_rows_of_matches_dense_rows():
    # A matrix column equals the same rows given as lists and encodes each
    # row as it is, signed zeros included.
    t = vector_table(np.array([[1.0, -0.0], [2.5, 3.0]]))
    assert t == vector_table([[1.0, -0.0], [2.5, 3.0]])
    assert b'[{"size":2,"values":[1.0,-0.0]},{"size":2,"values":[2.5,3.0]}]' in t.to_json_bytes()
    assert vector_table(np.zeros((0, 3))).row_count == 0


def test_rows_of_rejects_nan():
    t = DataTable([ColumnSpec("a", "numeric")], {"a": [1.0, 2.0]})
    with pytest.raises(TableError, match="'v' holds NaN at row 1"):
        t.with_column(ColumnSpec("v", "vector"), np.array([[1.0, 2.0], [np.nan, 0.0]]))


def test_rows_of_vectors_are_read_only_and_detached():
    matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = vector_table(matrix)
    matrix[0, 0] = 9.0
    assert t.feature_matrix("v").tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ValueError):
        t.feature_matrix("v")[1, 0] = 5.0
    assert matrix.flags.writeable
