import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverml.table as table_module
from coverml.table import (
    ColumnSpec,
    CsvFormatError,
    DataTable,
    TableError,
    read_csv,
    schema_from_json,
    schema_to_json,
    validate_schema,
    write_csv,
)


def make_table(**cols):
    schema = []
    for name, (kind, values) in cols.items():
        schema.append(ColumnSpec(name, kind))
    return DataTable(schema, {name: values for name, (_, values) in cols.items()})


class TestSchema:
    def test_unknown_kind(self):
        with pytest.raises(TableError):
            ColumnSpec("x", "text")

    def test_empty_name(self):
        with pytest.raises(TableError):
            ColumnSpec("", "numeric")

    def test_duplicate_names(self):
        with pytest.raises(TableError):
            validate_schema([ColumnSpec("a", "numeric"), ColumnSpec("a", "boolean")])

    def test_two_label_columns(self):
        with pytest.raises(TableError):
            validate_schema([ColumnSpec("a", "label"), ColumnSpec("b", "label")])

    def test_json_roundtrip(self):
        schema = (ColumnSpec("a", "numeric", False), ColumnSpec("b", "categorical_text"))
        assert schema_from_json(schema_to_json(schema)) == schema


class TestDataTable:
    def test_length_mismatch(self):
        with pytest.raises(TableError):
            DataTable(
                [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")],
                {"a": [1.0], "b": [1.0, 2.0]},
            )

    def test_kind_enforcement(self):
        with pytest.raises(TableError):
            make_table(a=("numeric", ["x"]))
        with pytest.raises(TableError):
            make_table(a=("categorical_text", ["nul\x00byte"]))
        with pytest.raises(TableError):
            make_table(a=("label", [2]))
        with pytest.raises(TableError):
            make_table(a=("categorical_text", [""]))
        with pytest.raises(TableError):
            make_table(a=("boolean", [1]))
        with pytest.raises(TableError):
            make_table(a=("numeric", [math.inf]))

    def test_non_nullable(self):
        with pytest.raises(TableError):
            DataTable([ColumnSpec("a", "numeric", nullable=False)], {"a": [1.0, None]})

    def test_immutable(self):
        t = make_table(a=("numeric", [1.0]))
        with pytest.raises(AttributeError):
            t.row_count = 5

    def test_label_column_lookup(self):
        t = make_table(a=("numeric", [1.0]), y=("label", [1]))
        assert t.label_column() == "y"
        assert t.label_array().tolist() == [1]

    def test_select_rows_preserves_order(self):
        t = make_table(a=("numeric", [0.0, 1.0, 2.0, 3.0]))
        assert t.select_rows([2, 0]).column("a") == (2.0, 0.0)

    def test_with_column_rejects_duplicate(self):
        t = make_table(a=("numeric", [1.0]))
        with pytest.raises(TableError):
            t.with_column(ColumnSpec("a", "numeric"), [2.0])

    def test_vector_column_and_matrix(self):
        t = make_table(v=("vector", [[1.0, 2.0], [3.0, 4.0]]))
        assert t.feature_matrix("v").tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert t.feature_matrix("v") is t.feature_matrix("v")
        with pytest.raises(TableError, match="feature_matrix"):
            t.column("v")

    def test_feature_matrix_varying_sizes(self):
        # A ragged column is rejected where the table is built.
        with pytest.raises(TableError, match="'v'.* at row 1"):
            make_table(v=("vector", [[1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize(
        "values, row",
        [([[1.0], None], 1), ([[1.0], [float("nan")]], 1), ([[1.0], ["x"]], 1), ([[1.0], 2.0], 1)],
    )
    def test_bad_vector_rows_named(self, values, row):
        with pytest.raises(TableError, match=f"'v'.* at row {row}"):
            make_table(v=("vector", values))

    def test_vector_column_must_be_two_dimensional(self):
        with pytest.raises(TableError, match="'v' expects a row of numbers at row 0"):
            make_table(v=("vector", np.zeros(3)))
        t = make_table(a=("numeric", [1.0, 2.0]))
        with pytest.raises(TableError, match="'v' expects a row of numbers at row 0"):
            t.with_column(ColumnSpec("v", "vector"), np.zeros((2, 1, 1)))
        with pytest.raises(TableError, match="'v' has 3 values, expected 2"):
            t.with_column(ColumnSpec("v", "vector"), np.zeros((3, 1)))

    def test_select_rows_takes_matrix_rows(self):
        t = make_table(v=("vector", [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), a=("numeric", [0.0, 1.0, 2.0]))
        out = t.select_rows([2, 0, 2])
        assert out.feature_matrix("v").tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
        assert not out.feature_matrix("v").flags.writeable
        assert out.column("a") == (2.0, 0.0, 2.0)
        assert t.select_rows([]).feature_matrix("v").shape == (0, 2)
        with pytest.raises(IndexError):
            t.select_rows([3])

    def test_unknown_column(self):
        t = make_table(a=("numeric", [1.0]))
        with pytest.raises(TableError):
            t.column("b")

    def test_json_roundtrip_and_determinism(self):
        t = make_table(
            a=("numeric", [1.5, None]),
            b=("categorical_text", ["x", None]),
            c=("boolean", [True, False]),
            y=("label", [0, 1]),
        )
        data = t.to_json_bytes()
        assert DataTable.from_json_bytes(data) == t
        assert data == t.to_json_bytes()

    def test_sparse_vector_entry_rejected(self):
        t = make_table(v=("vector", [[1.0, 0.0, 2.0]]))
        assert DataTable.from_json_bytes(t.to_json_bytes()) == t
        sparse = t.to_json_bytes().replace(
            b'{"size":3,"values":[1.0,0.0,2.0]}', b'{"size":3,"indices":[0,2],"values":[1.0,2.0]}'
        )
        assert sparse != t.to_json_bytes()
        with pytest.raises(TableError, match="'v'"):
            DataTable.from_json_bytes(sparse)

    def test_null_vector_entry_rejected(self):
        data = make_table(v=("vector", [[1.0], [2.0]])).to_json_bytes()
        with pytest.raises(TableError, match="'v'.* at row 1, got None"):
            DataTable.from_json_bytes(data.replace(b'{"size":1,"values":[2.0]}', b"null"))

    @pytest.mark.parametrize("bad", [b'"1.5"', b"true"])
    def test_non_numeric_vector_value_rejected(self, bad):
        # A numeric scalar column rejects these too; they must not load as
        # 1.5 or 1.0.
        data = make_table(v=("vector", [[0.5, 1.0], [2.0, 3.0]])).to_json_bytes()
        doc = data.replace(b'{"size":2,"values":[2.0,3.0]}', b'{"size":2,"values":[2.0,' + bad + b"]}")
        assert doc != data
        with pytest.raises(TableError, match=f"'v' expects numbers, got .* at row 1"):
            DataTable.from_json_bytes(doc)
        scalar = make_table(a=("numeric", [1.0]))
        with pytest.raises(TableError, match="'a' expects a number"):
            DataTable.from_json_bytes(scalar.to_json_bytes().replace(b"1.0", bad))

    def test_fingerprint_sensitive_to_values(self):
        t1 = make_table(a=("numeric", [1.0]))
        t2 = make_table(a=("numeric", [2.0]))
        assert t1.fingerprint() != t2.fingerprint()


@pytest.fixture()
def check_calls(monkeypatch):
    """Names the column of every per-cell check a table operation makes."""
    calls = []
    original = table_module._check_value

    def counting(spec, value, row):
        calls.append(spec.name)
        return original(spec, value, row)

    monkeypatch.setattr(table_module, "_check_value", counting)
    return calls


def sample_table():
    return DataTable(
        [
            ColumnSpec("a", "numeric", nullable=False),
            ColumnSpec("s", "categorical_text"),
            ColumnSpec("y", "label", nullable=False),
        ],
        {"a": [1.0, 2, -0.0], "s": ["x", None, "y"], "y": [0, 1, 1]},
    )


class TestValidateOnce:
    def test_entry_points_check_every_cell(self, check_calls, tmp_path):
        t = sample_table()
        assert len(check_calls) == 9
        check_calls.clear()
        assert DataTable.from_json_bytes(t.to_json_bytes()) == t
        assert len(check_calls) == 9
        write_csv(t, tmp_path / "t.csv")
        check_calls.clear()
        assert read_csv(tmp_path / "t.csv", t.schema) == t
        assert len(check_calls) == 9

    def test_select_rows_checks_nothing(self, check_calls):
        t = sample_table()
        check_calls.clear()
        out = t.select_rows([2, 0, 2])
        assert check_calls == []
        assert out.row_count == 3
        assert out.column("s") == ("y", "x", "y")
        assert out == DataTable(t.schema, {n: out.column(n) for n in t.column_names})

    def test_select_rows_out_of_range(self):
        with pytest.raises(IndexError):
            sample_table().select_rows([0, 3])

    def test_with_column_checks_only_the_new_column(self, check_calls):
        t = sample_table()
        check_calls.clear()
        out = t.with_column(ColumnSpec("n", "numeric"), [1, None, 2.5])
        assert check_calls == ["n"] * t.row_count
        assert out.column("n") == (1.0, None, 2.5)
        assert isinstance(out.column("n")[0], float)
        rebuilt = DataTable(out.schema, {n: out.column(n) for n in out.column_names})
        assert out == rebuilt and out.fingerprint() == rebuilt.fingerprint()

    def test_replace_column_checks_only_that_column(self, check_calls):
        t = sample_table()
        check_calls.clear()
        out = t.replace_column("a", [4.0, 5.0, 6.0])
        assert check_calls == ["a"] * t.row_count
        assert out.column("a") == (4.0, 5.0, 6.0) and out.column("s") == t.column("s")

    @pytest.mark.parametrize(
        "name, values",
        [
            ("a", [math.nan, 1.0, 2.0]),
            ("a", ["x", 1.0, 2.0]),
            ("a", [None, 1.0, 2.0]),
            ("a", [1.0, 2.0]),
            ("y", [2, 0, 1]),
        ],
    )
    def test_derived_columns_reject_bad_values(self, name, values):
        t = sample_table()
        with pytest.raises(TableError):
            t.replace_column(name, values)
        spec = ColumnSpec(name + "2", t.spec(name).kind, nullable=False)
        with pytest.raises(TableError):
            t.with_column(spec, values)

    def test_with_column_rejects_duplicate_and_second_label(self):
        t = sample_table()
        with pytest.raises(TableError, match="already exists"):
            t.with_column(ColumnSpec("s", "categorical_text"), ["a", "b", "c"])
        with pytest.raises(TableError, match="label"):
            t.with_column(ColumnSpec("y2", "label"), [0, 1, 0])


SCHEMA = [
    ColumnSpec("StateCode", "categorical_text"),
    ColumnSpec("Amount", "numeric"),
    ColumnSpec("IsCovered", "categorical_text"),
]


class TestReadCsv:
    def test_three_row_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount,IsCovered\nCA,1.0,Covered\nTX,2.5,Not Covered\nAK,3.0,Covered\n")
        t = read_csv(p, SCHEMA)
        assert t.row_count == 3
        assert t.column("StateCode") == ("CA", "TX", "AK")
        assert t.column("Amount") == (1.0, 2.5, 3.0)

    def test_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount,IsCovered\n")
        assert read_csv(p, SCHEMA).row_count == 0

    def test_malformed_numeric_becomes_null_when_nullable(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount,IsCovered\nCA,1.0,Covered\nTX,oops,Covered\nAK,3.0,Covered\n")
        t = read_csv(p, SCHEMA)
        assert t.row_count == 3
        # hand count of the fixture: exactly one malformed cell
        assert t.null_counts()["Amount"] == 1
        assert t.column("Amount")[1] is None

    def test_malformed_numeric_errors_when_not_nullable(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Amount\noops\n")
        with pytest.raises(CsvFormatError):
            read_csv(p, [ColumnSpec("Amount", "numeric", nullable=False)])

    def test_column_count_mismatch_reports_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount,IsCovered\nCA,1.0,Covered\nTX,2.0\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            read_csv(p, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv", SCHEMA)

    def test_missing_schema_column_in_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount\nCA,1.0\n")
        with pytest.raises(CsvFormatError, match="IsCovered"):
            read_csv(p, SCHEMA)

    def test_extra_csv_columns_ignored(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Junk,StateCode,Amount,IsCovered\nz,CA,1.0,Covered\n")
        t = read_csv(p, SCHEMA)
        assert t.column("StateCode") == ("CA",)

    def test_no_header_positional(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("CA,1.0,Covered\n")
        t = read_csv(p, SCHEMA, header=False)
        assert t.column("Amount") == (1.0,)

    def test_boolean_and_label_parsing(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("flag,y\ntrue,1\nfalse,0\nmaybe,1\n")
        t = read_csv(p, [ColumnSpec("flag", "boolean"), ColumnSpec("y", "label", nullable=False)])
        assert t.column("flag") == (True, False, None)
        with pytest.raises(CsvFormatError):
            read_csv(p, [ColumnSpec("flag", "boolean", nullable=False), ColumnSpec("y", "label")])

    def test_empty_string_is_null(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("StateCode,Amount,IsCovered\n,1.0,Covered\n")
        assert read_csv(p, SCHEMA).column("StateCode") == (None,)


class TestCsvRoundTrip:
    def test_quoting_and_unicode(self, tmp_path):
        t = make_table(
            name=("categorical_text", ['with,comma', 'with"quote', "naïve\nnewline", None]),
            x=("numeric", [1.0, -2.25, None, 1e-17]),
            b=("boolean", [True, None, False, True]),
            y=("label", [1, 0, 1, 0]),
        )
        p = tmp_path / "t.csv"
        write_csv(t, p)
        assert read_csv(p, t.schema) == t

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.text(min_size=1, max_size=8).filter(
                    lambda s: s.strip() != "" and "\r" not in s and "\x00" not in s
                ),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.booleans(),
                st.integers(0, 1),
            ),
            max_size=15,
        )
    )
    def test_roundtrip_property(self, tmp_path_factory, rows):
        schema = [
            ColumnSpec("t", "categorical_text"),
            ColumnSpec("x", "numeric"),
            ColumnSpec("b", "boolean"),
            ColumnSpec("y", "label", nullable=False),
        ]
        table = DataTable(
            schema,
            {
                "t": [r[0] for r in rows],
                "x": [r[1] for r in rows],
                "b": [r[2] for r in rows],
                "y": [r[3] for r in rows],
            },
        )
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(table, p)
        assert read_csv(p, schema) == table
