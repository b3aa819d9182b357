import csv
import hashlib
import json
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
from coverml.stages import MISSING_TOKEN, StringIndexer


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

    @pytest.mark.parametrize("nullable", ["no", 0, None])
    def test_nullable_must_be_a_boolean(self, nullable):
        with pytest.raises(TableError, match="nullable"):
            schema_from_json(json.dumps({"columns": [{"name": "a", "kind": "numeric", "nullable": nullable}]}))

    def test_name_must_be_text(self):
        with pytest.raises(TableError):
            ColumnSpec(5, "numeric")


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

    def test_label_array_rejects_a_null_label(self):
        t = DataTable([ColumnSpec("y", "label")], {"y": [1, None, 0]})
        assert t.column("y") == (1, None, 0)
        with pytest.raises(TableError, match="'y' holds a null at row 1"):
            t.label_array()

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


@pytest.fixture()
def column_checks(monkeypatch):
    """Names every column a table operation checks, with the number of
    values the check saw."""
    calls = []
    original = table_module._checked_column

    def counting(spec, values, n):
        col = original(spec, values, n)
        calls.append((spec.name, len(col)))
        return col

    monkeypatch.setattr(table_module, "_checked_column", counting)
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
    def test_entry_points_check_every_cell(self, column_checks, tmp_path):
        t = sample_table()
        every_column = [(name, t.row_count) for name in t.column_names]
        assert column_checks == every_column
        column_checks.clear()
        assert DataTable.from_json_bytes(t.to_json_bytes()) == t
        assert column_checks == every_column
        write_csv(t, tmp_path / "t.csv")
        column_checks.clear()
        assert read_csv(tmp_path / "t.csv", t.schema) == t
        assert column_checks == every_column

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

    def test_replace_column_checks_only_that_column(self, column_checks):
        t = sample_table()
        column_checks.clear()
        out = t.replace_column("a", [4.0, 5.0, 6.0])
        assert column_checks == [("a", t.row_count)]
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

    def test_derived_tables_check_only_new_columns(self, column_checks):
        t = sample_table()
        column_checks.clear()
        t.select_rows([2, 0, 2])
        assert column_checks == []
        t.with_column(ColumnSpec("n", "numeric"), [1.0, None, 2.5])
        assert column_checks == [("n", t.row_count)]

    def test_columns_needing_no_conversion_skip_the_per_cell_pass(self, check_calls):
        DataTable(
            [
                ColumnSpec("a", "numeric"),
                ColumnSpec("s", "categorical_text"),
                ColumnSpec("b", "boolean"),
                ColumnSpec("y", "label", nullable=False),
            ],
            {"a": [1.5, None, -0.0], "s": ["x", None, "é"], "b": [True, None, False], "y": [0, 1, 1]},
        )
        assert check_calls == []
        t = sample_table()  # column "a" holds the int 2
        assert check_calls == ["a"] * t.row_count
        assert t.column("a") == (1.0, 2.0, -0.0)
        assert [type(v) for v in t.column("a")] == [float] * 3


# Values that a column's kind stores unchanged, and values the per-cell pass
# converts or rejects.
CLEAN_VALUES = {
    "numeric": st.floats(allow_nan=False, allow_infinity=False),
    "categorical_text": st.text(min_size=1),
    "boolean": st.booleans(),
    "label": st.sampled_from([0, 1]),
}
ODD_VALUES = st.sampled_from(
    [None, 0, 1, 2, -3, True, False, 1.0, 0.0, -0.0, math.nan, math.inf, -math.inf,
     "", "a", "x\x00y", "\x00", np.float64(0.5), np.int64(1)]
)


def check_outcome(check):
    """What a column check does: the stored values with their types, or the
    error message."""
    try:
        col = check()
    except TableError as exc:
        return "error", str(exc)
    return "stored", [(type(v), repr(v)) for v in col]


class TestColumnCheckParity:
    """The column-level check accepts exactly the columns the per-cell pass
    accepts, stores the values that pass returns (read back through the
    tuple view, with their types), and raises the same message."""

    @given(
        kind=st.sampled_from(sorted(CLEAN_VALUES)),
        nullable=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_per_cell_pass(self, kind, nullable, data):
        spec = ColumnSpec("c", kind, nullable=nullable)
        values = data.draw(st.lists(st.one_of(CLEAN_VALUES[kind], ODD_VALUES), max_size=6))
        assert check_outcome(lambda: DataTable([spec], {"c": values}).column("c")) == check_outcome(
            lambda: table_module._checked_cells(spec, tuple(values))
        )

    @pytest.mark.parametrize(
        "kind, nullable, values",
        [
            ("numeric", True, [1.0, 2, None]),
            ("numeric", True, [1.0, True]),
            ("numeric", True, [1.0, math.nan]),
            ("numeric", True, [None, -math.inf]),
            ("numeric", False, [1.0, None]),
            ("numeric", True, [np.float64(0.5), -0.0]),
            ("label", False, [0, 1.0]),
            ("label", False, [1, True]),
            ("label", False, [0, 2]),
            ("label", False, [0, None]),
            ("label", True, [0, None]),
            ("categorical_text", True, ["a", ""]),
            ("categorical_text", True, ["a", None, "b\x00"]),
            ("categorical_text", False, ["a", None]),
            ("categorical_text", True, ["a", 1]),
            ("boolean", True, [True, 1]),
            ("boolean", False, [False, None]),
            ("boolean", True, [True, None]),
        ],
    )
    def test_named_cases(self, kind, nullable, values):
        spec = ColumnSpec("c", kind, nullable=nullable)
        assert check_outcome(lambda: DataTable([spec], {"c": values}).column("c")) == check_outcome(
            lambda: table_module._checked_cells(spec, tuple(values))
        )


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

    @pytest.mark.parametrize("tail", [b"TX," + b"9" * 200 + b"\n", b"TX,\xff\n"], ids=["csv_error", "bad_utf8"])
    def test_first_bad_row_is_reported_before_a_later_unreadable_row(self, tmp_path, tail):
        # Rows are parsed as they are read, so a bad cell in row 0 is
        # reported before a later row that csv cannot split (a field over
        # the size limit) or decode (an invalid UTF-8 byte past the first
        # 8 KB read).
        schema = [ColumnSpec("StateCode", "categorical_text"), ColumnSpec("Amount", "numeric", nullable=False)]
        p = tmp_path / "t.csv"
        p.write_bytes(b"StateCode,Amount\nCA,oops\n" + b"TX,1.0\n" * 2000 + tail)
        limit = csv.field_size_limit(100)
        try:
            with pytest.raises(CsvFormatError, match="unparseable numeric 'oops' .* at data row 0"):
                read_csv(p, schema)
            with pytest.raises(csv.Error if tail.startswith(b"TX,9") else UnicodeDecodeError):
                read_csv(p, [schema[0], ColumnSpec("Amount", "numeric")])
        finally:
            csv.field_size_limit(limit)


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


def tuple_view_tbl(table) -> bytes:
    """The `.tbl` bytes as one `json.dumps` of the tuple-view document."""

    def values(spec):
        if spec.kind == "vector":
            matrix = table.feature_matrix(spec.name)
            return [{"size": matrix.shape[1], "values": row} for row in matrix.tolist()]
        return list(table.column(spec.name))

    doc = {
        "format": "coverml-table",
        "version": 1,
        "schema": [s.to_dict() for s in table.schema],
        "columns": {s.name: values(s) for s in table.schema},
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


ODD_TEXTS = ["naïve", "日本", 'say "hi"', "back\\slash", "tab\there", "bell\x07", "line\nbreak", " ", "é", "a,b"]
ODD_NUMBERS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 2.5e16, 1e-7, 0.1, 1.7976931348623157e308, -3.0]

TEXT_VALUES = st.one_of(st.none(), st.sampled_from(ODD_TEXTS), st.text(min_size=1).filter(lambda s: "\x00" not in s))
NUMBER_VALUES = st.one_of(st.none(), st.sampled_from(ODD_NUMBERS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def typed_tables(draw, kinds=("categorical_text", "numeric", "boolean", "label", "vector")):
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(kinds), max_size=5).filter(lambda ks: ks.count("label") <= 1))
    schema, columns = [], {}
    for i, kind in enumerate(kinds):
        name = draw(st.sampled_from(["c", "naïve", 'q"uote', "b\\s"])) + str(i)
        if kind == "vector":
            size = draw(st.integers(0, 3))
            values = draw(st.lists(st.lists(st.sampled_from(ODD_NUMBERS), min_size=size, max_size=size),
                                   min_size=n, max_size=n))
            values = np.zeros((0, size)) if n == 0 else values
        else:
            pool = {"categorical_text": TEXT_VALUES, "numeric": NUMBER_VALUES,
                    "boolean": st.one_of(st.none(), st.booleans()), "label": st.sampled_from([0, 1])}[kind]
            values = draw(st.lists(pool, min_size=n, max_size=n))
        schema.append(ColumnSpec(name, kind, nullable=kind != "label"))
        columns[name] = values
    table = DataTable(schema, columns)
    rows = draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    return table.select_rows(rows) if draw(st.booleans()) else table


class TestTableBytes:
    """The block encoder gives the bytes of `json.dumps` over the tuple-view
    document."""

    @given(typed_tables())
    @settings(max_examples=200, deadline=None)
    def test_block_encoder_matches_json_dumps(self, table):
        data = table.to_json_bytes()
        assert data == tuple_view_tbl(table)
        assert table.fingerprint() == hashlib.sha256(data).hexdigest()
        assert DataTable.from_json_bytes(data) == table

    @pytest.mark.parametrize(
        "kind, values",
        [
            ("categorical_text", ODD_TEXTS + [None]),
            ("categorical_text", [None, None]),
            ("numeric", ODD_NUMBERS + [None]),
            ("numeric", [None]),
            ("boolean", [True, None, False]),
            ("label", [1, 0, 0]),
            ("vector", [[-0.0, 5e-324, 1e16]]),
            ("vector", np.zeros((0, 2))),
            ("numeric", []),
            ("categorical_text", []),
        ],
    )
    def test_block_encoder_named_cases(self, kind, values):
        table = DataTable([ColumnSpec("naïve \"c\"", kind)], {"naïve \"c\"": values})
        assert table.to_json_bytes() == tuple_view_tbl(table)
        assert DataTable([], {}).to_json_bytes() == tuple_view_tbl(DataTable([], {}))


def dict_count_mapping(values) -> dict:
    """The StringIndexer mapping counted value by value with a dict."""
    counts = {}
    for v in values:
        key = MISSING_TOKEN if v is None else v
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {label: i for i, (label, _) in enumerate(ordered)}


class TestCodedColumns:
    @given(
        values=st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "c", MISSING_TOKEN, "é"])), min_size=1),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_string_indexer_on_a_subset_matches_dict_count(self, values, data):
        table = DataTable([ColumnSpec("c", "categorical_text")], {"c": values})
        rows = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1))
        subset = table.select_rows(rows)
        model = StringIndexer("c", "c_idx").fit(subset)
        assert model.mapping == dict_count_mapping(subset.column("c"))
        assert list(model.mapping.items()) == list(dict_count_mapping(subset.column("c")).items())

    def test_zero_count_categories_get_no_index(self):
        table = DataTable([ColumnSpec("c", "categorical_text")], {"c": ["a", "b", None, "c", MISSING_TOKEN]})
        subset = table.select_rows([1, 2, 4, 1])
        assert subset.codes("c")[1] == ("a", "b", "c", MISSING_TOKEN)
        assert StringIndexer("c", "c_idx").fit(subset).mapping == {MISSING_TOKEN: 0, "b": 1}

    def test_equality_compares_values_not_codes(self):
        spec = [ColumnSpec("c", "categorical_text")]
        a = DataTable(spec, {"c": ["x", "y", None, "x"]})
        b = DataTable(spec, {"c": ["y", None, "x"]}).select_rows([2, 0, 1, 2])
        assert a.codes("c")[1] == ("x", "y") and b.codes("c")[1] == ("y", "x")
        assert a == b and a.fingerprint() == b.fingerprint()
        assert a != DataTable(spec, {"c": ["x", "y", None, "y"]})
        assert a != DataTable(spec, {"c": ["x", "y", "x", "x"]})
