"""Columnar data model: column specs, immutable tables, CSV and JSON I/O."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Column kinds accepted in external schemas. "vector" additionally exists as
#: an engine-internal kind for assembled feature columns and cannot be
#: ingested from CSV.
CSV_KINDS = ("categorical_text", "numeric", "boolean", "label")
KINDS = CSV_KINDS + ("vector",)


class TableError(ValueError):
    """Schema or value violation in a table operation."""


class CsvFormatError(TableError):
    """Malformed CSV input; carries the offending row number when known."""


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    nullable: bool = True

    def __post_init__(self):
        if not self.name:
            raise TableError("column name must be nonempty")
        if self.kind not in KINDS:
            raise TableError(f"unknown column kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "nullable": self.nullable}

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSpec":
        return cls(d["name"], d["kind"], bool(d.get("nullable", True)))


def validate_schema(schema: Sequence[ColumnSpec]) -> tuple[ColumnSpec, ...]:
    schema = tuple(schema)
    names = [s.name for s in schema]
    if len(set(names)) != len(names):
        raise TableError("column names must be unique within a schema")
    labels = [s for s in schema if s.kind == "label"]
    if len(labels) > 1:
        raise TableError("at most one column may have kind=label")
    return schema


def schema_to_json(schema: Sequence[ColumnSpec]) -> str:
    return json.dumps({"columns": [s.to_dict() for s in schema]}, indent=2)


def schema_from_json(text: str) -> tuple[ColumnSpec, ...]:
    doc = json.loads(text)
    return validate_schema([ColumnSpec.from_dict(c) for c in doc["columns"]])


def _check_value(spec: ColumnSpec, value, row: int):
    if value is None:
        if not spec.nullable:
            raise TableError(f"null in non-nullable column {spec.name!r} at row {row}")
        return None
    kind = spec.kind
    if kind == "categorical_text":
        if not isinstance(value, str) or value == "":
            raise TableError(f"column {spec.name!r} expects nonempty text, got {value!r} at row {row}")
        if "\x00" in value:
            raise TableError(f"column {spec.name!r} contains a NUL character at row {row}")
        return value
    if kind == "numeric":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TableError(f"column {spec.name!r} expects a number, got {value!r} at row {row}")
        value = float(value)
        if not math.isfinite(value):
            raise TableError(f"column {spec.name!r} expects finite numbers, got {value!r} at row {row}")
        return value
    if kind == "boolean":
        if not isinstance(value, bool):
            raise TableError(f"column {spec.name!r} expects a boolean, got {value!r} at row {row}")
        return value
    if kind == "label":
        if isinstance(value, bool) or value not in (0, 1):
            raise TableError(f"label column {spec.name!r} expects 0 or 1, got {value!r} at row {row}")
        return int(value)
    raise AssertionError(kind)


def _checked_matrix(name: str, values) -> np.ndarray:
    """A vector column as a private read-only (n, size) float64 matrix, from
    a 2-D array or a sequence of equal-length rows. A null, ragged or
    non-numeric row and NaN are rejected, naming the column and the row."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    try:
        matrix = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise _bad_row(name, values) from None
    if matrix.shape == (0,):
        matrix = matrix.reshape(0, 0)
    if matrix.ndim != 2:
        raise _bad_row(name, values)
    nan_rows = np.flatnonzero(np.isnan(matrix).any(axis=1))
    if nan_rows.size:
        raise TableError(f"vector column {name!r} holds NaN at row {int(nan_rows[0])}")
    matrix.setflags(write=False)
    return matrix


def _bad_row(name: str, rows) -> TableError:
    """The error for the first of `rows` that is not a row of numbers as wide
    as the rows before it."""
    width = None
    for i, row in enumerate(rows):
        try:
            values = np.array(row, dtype=np.float64)
        except (TypeError, ValueError):
            values = None
        if values is None or values.ndim != 1:
            return TableError(f"vector column {name!r} expects a row of numbers at row {i}, got {row!r}")
        if width is not None and values.size != width:
            return TableError(f"vector column {name!r} has a row of size {values.size} at row {i}, expected {width}")
        width = values.size
    return TableError(f"vector column {name!r} must be 2-dimensional")


def _checked_column(spec: ColumnSpec, values, n: int | None):
    """`values` as a stored column: a tuple of values checked against `spec`,
    or a checked matrix for a vector column, with the length checked against
    `n` when a row count is already fixed.

    A scalar column that needs no conversion is accepted as it is, a column
    at a time (`_stored_as_is`); any other goes through the per-cell pass,
    which converts its values or raises naming the first bad row."""
    col = _checked_matrix(spec.name, values) if spec.kind == "vector" else tuple(values)
    if n is not None and len(col) != n:
        raise TableError(f"column {spec.name!r} has {len(col)} values, expected {n}")
    if spec.kind == "vector" or _stored_as_is(spec, col):
        return col
    return _checked_cells(spec, col)


def _checked_cells(spec: ColumnSpec, col: tuple) -> tuple:
    """The per-cell pass: every value checked and converted by `_check_value`."""
    return tuple(_check_value(spec, v, i) for i, v in enumerate(col))


#: The one type a value of each scalar kind has when `_check_value` would
#: store it unchanged.
_STORED_TYPES = {"numeric": float, "categorical_text": str, "boolean": bool, "label": int}


def _stored_as_is(spec: ColumnSpec, col: tuple) -> bool:
    """Whether `_checked_cells` would accept `col` and store it unchanged,
    found with a few C-level passes over the column: every value has its
    kind's exact type (or is None in a nullable column), numbers are finite,
    text is nonempty and holds no NUL, and labels are 0 or 1."""
    types = set(map(type, col))
    allowed = {_STORED_TYPES[spec.kind], type(None)} if spec.nullable else {_STORED_TYPES[spec.kind]}
    if not types <= allowed:
        return False
    if spec.kind == "numeric":
        # A null becomes NaN in the array, so it is the one non-finite value allowed.
        finite = int(np.count_nonzero(np.isfinite(np.array(col, dtype=np.float64))))
        return finite == len(col) - (col.count(None) if type(None) in types else 0)
    if spec.kind == "categorical_text":
        return "" not in col and "\x00" not in "".join(filter(None, col))
    if spec.kind == "label":
        return set(col) <= {0, 1, None}
    return True


class DataTable:
    """Immutable columnar table with a typed schema.

    Scalar columns are stored as tuples and vector columns as read-only
    (n, size) float64 matrices; every mutation-style operation returns a new
    table. Values must conform to the declared column kind; empty-string
    categories are disallowed so CSV round-trips stay value-identical. A
    vector column is given as a 2-D array or as equal-length rows, holds no
    null and no NaN, and is read through `feature_matrix`.

    Values are checked once, where they enter: the constructor, `read_csv`
    and `from_json_bytes` check every cell. Derived tables reuse the checked
    columns of their source; `with_column` and `replace_column` check only
    the column they add, and `select_rows` checks nothing. The check runs a
    column at a time: a column that needs no conversion is accepted in bulk,
    and the per-cell pass converts the values of any other column or raises
    naming its first bad row.
    """

    __slots__ = ("schema", "_columns", "row_count")

    def __init__(self, schema: Sequence[ColumnSpec], columns: Mapping[str, Sequence]):
        schema = validate_schema(schema)
        if set(columns) != {s.name for s in schema}:
            raise TableError("columns must match the schema exactly")
        n = None
        stored = {}
        for spec in schema:
            stored[spec.name] = _checked_column(spec, columns[spec.name], n)
            n = len(stored[spec.name])
        self._init(schema, stored, 0 if n is None else n)

    def _init(self, schema: tuple[ColumnSpec, ...], columns: dict, row_count: int):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "row_count", row_count)

    @classmethod
    def _trusted(
        cls, schema: tuple[ColumnSpec, ...], columns: dict, row_count: int
    ) -> "DataTable":
        """A table over columns that already hold checked values of `schema`,
        all `row_count` long; nothing is checked again."""
        table = object.__new__(cls)
        table._init(schema, columns, row_count)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("DataTable is immutable")

    # -- lookup ------------------------------------------------------------

    def column(self, name: str) -> tuple:
        """The values of a scalar column."""
        if self.spec(name).kind == "vector":
            raise TableError(f"column {name!r} is a vector column; read it with feature_matrix")
        return self._columns[name]

    def spec(self, name: str) -> ColumnSpec:
        for s in self.schema:
            if s.name == name:
                return s
        raise TableError(f"unknown column {name!r}")

    def has_column(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schema)

    def label_column(self) -> str | None:
        for s in self.schema:
            if s.kind == "label":
                return s.name
        return None

    # -- derivation --------------------------------------------------------

    def with_column(self, spec: ColumnSpec, values: Sequence) -> "DataTable":
        if self.has_column(spec.name):
            raise TableError(f"column {spec.name!r} already exists")
        schema = validate_schema(self.schema + (spec,))
        col = _checked_column(spec, values, self.row_count if self.schema else None)
        return DataTable._trusted(schema, {**self._columns, spec.name: col}, len(col))

    def replace_column(self, name: str, values: Sequence) -> "DataTable":
        col = _checked_column(self.spec(name), values, self.row_count)
        return DataTable._trusted(self.schema, {**self._columns, name: col}, self.row_count)

    def select_rows(self, indices: Iterable[int]) -> "DataTable":
        idx = list(indices)
        rows = np.asarray(idx, dtype=np.intp)
        cols = {}
        for name, col in self._columns.items():
            if isinstance(col, np.ndarray):
                cols[name] = col[rows]
                cols[name].setflags(write=False)
            else:
                cols[name] = tuple([col[i] for i in idx])
        return DataTable._trusted(self.schema, cols, len(idx) if cols else 0)

    # -- numeric views -----------------------------------------------------

    def feature_matrix(self, name: str) -> np.ndarray:
        """A vector column's read-only (n, size) float64 matrix."""
        if self.spec(name).kind != "vector":
            raise TableError(f"column {name!r} is not a vector column")
        return self._columns[name]

    def label_array(self) -> np.ndarray:
        name = self.label_column()
        if name is None:
            raise TableError("table has no label column")
        return np.asarray(self._columns[name], dtype=np.int64)

    # -- serialization -----------------------------------------------------

    def to_json_bytes(self) -> bytes:
        def encode(col) -> list:
            if isinstance(col, np.ndarray):
                size = col.shape[1]
                return [{"size": size, "values": row} for row in col.tolist()]
            return list(col)

        doc = {
            "format": "coverml-table",
            "version": 1,
            "schema": [s.to_dict() for s in self.schema],
            "columns": {s.name: encode(self._columns[s.name]) for s in self.schema},
        }
        return json.dumps(doc, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "DataTable":
        doc = json.loads(data.decode("utf-8"))
        if doc.get("format") != "coverml-table":
            raise TableError("not a coverml table document")
        if doc.get("version") != 1:
            raise TableError(f"unsupported table format version {doc.get('version')!r}")
        schema = [ColumnSpec.from_dict(d) for d in doc["schema"]]
        columns = {}
        for spec in schema:
            vals = doc["columns"][spec.name]
            if spec.kind == "vector":
                vals = [_vector_entry(spec.name, v, i) for i, v in enumerate(vals)]
            columns[spec.name] = vals
        return cls(schema, columns)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json_bytes()).hexdigest()

    def null_counts(self) -> dict[str, int]:
        return {
            name: 0 if isinstance(col, np.ndarray) else sum(1 for v in col if v is None)
            for name, col in self._columns.items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, DataTable):
            return NotImplemented
        if self.schema != other.schema or self.row_count != other.row_count:
            return False
        for name, col in self._columns.items():
            if isinstance(col, np.ndarray):
                # A .tbl file cannot record the width of a 0-row vector column.
                if col.shape[0] and not np.array_equal(col, other._columns[name]):
                    return False
            elif col != other._columns[name]:
                return False
        return True

    def __hash__(self):
        raise TypeError("DataTable is not hashable")

    def __repr__(self) -> str:
        return f"DataTable({self.row_count} rows x {len(self.schema)} columns)"


def _vector_entry(name: str, entry, row: int) -> list:
    """The values of one `.tbl` vector entry, `{"size": d, "values": [...]}`
    with d numbers."""
    if (
        not isinstance(entry, dict)
        or set(entry) != {"size", "values"}
        or not isinstance(entry["values"], list)
        or entry["size"] != len(entry["values"])
    ):
        raise TableError(f"vector column {name!r} expects an entry of size and values at row {row}, got {entry!r}")
    for value in entry["values"]:
        # As in a numeric column, a string or a boolean (an int subclass) is
        # not a number.
        if type(value) not in (int, float):
            raise TableError(f"vector column {name!r} expects numbers, got {value!r} at row {row}")
    return entry["values"]


# -- CSV ---------------------------------------------------------------------

_TRUE_TOKENS = {"true", "True", "TRUE", "1"}
_FALSE_TOKENS = {"false", "False", "FALSE", "0"}


def _parse_cell(spec: ColumnSpec, text: str, row: int):
    if text == "":
        if spec.nullable:
            return None
        raise CsvFormatError(f"empty cell in non-nullable column {spec.name!r} at data row {row}")
    if spec.kind == "categorical_text":
        return text
    if spec.kind == "numeric":
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            if spec.nullable:
                return None
            raise CsvFormatError(
                f"unparseable numeric {text!r} in non-nullable column {spec.name!r} at data row {row}"
            )
        return value
    if spec.kind == "boolean":
        if text in _TRUE_TOKENS:
            return True
        if text in _FALSE_TOKENS:
            return False
        if spec.nullable:
            return None
        raise CsvFormatError(
            f"unparseable boolean {text!r} in non-nullable column {spec.name!r} at data row {row}"
        )
    if spec.kind == "label":
        if text in ("0", "1"):
            return int(text)
        raise CsvFormatError(f"label column {spec.name!r} expects 0/1, got {text!r} at data row {row}")
    raise CsvFormatError(f"column kind {spec.kind!r} cannot be read from CSV")


def read_csv(
    path,
    schema: Sequence[ColumnSpec],
    *,
    delimiter: str = ",",
    quotechar: str = '"',
    header: bool = True,
) -> DataTable:
    """Parse a CSV file against a declared schema.

    With a header row, schema columns are located by name (extra CSV columns
    are ignored); without one, the file must have exactly the schema's
    columns in order. Unparseable numeric/boolean cells become nulls in
    nullable columns and errors otherwise.
    """
    schema = validate_schema(schema)
    for s in schema:
        if s.kind == "vector":
            raise TableError("vector columns cannot be ingested from CSV")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    columns: dict[str, list] = {s.name: [] for s in schema}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter, quotechar=quotechar)
        positions: list[tuple[ColumnSpec, int]] = []
        if header:
            try:
                head = next(reader)
            except StopIteration:
                raise CsvFormatError("file is empty but a header row was declared") from None
            index = {name: i for i, name in enumerate(head)}
            missing = [s.name for s in schema if s.name not in index]
            if missing:
                raise CsvFormatError(f"header is missing schema columns: {missing}")
            positions = [(s, index[s.name]) for s in schema]
            width = len(head)
        else:
            positions = [(s, i) for i, s in enumerate(schema)]
            width = len(schema)

        for row_no, record in enumerate(reader):
            if len(record) != width:
                raise CsvFormatError(
                    f"expected {width} fields but found {len(record)} at data row {row_no}"
                )
            for spec, pos in positions:
                columns[spec.name].append(_parse_cell(spec, record[pos], row_no))

    return DataTable(schema, columns)


def _render_cell(spec: ColumnSpec, value) -> str:
    if value is None:
        return ""
    if spec.kind == "boolean":
        return "true" if value else "false"
    if spec.kind == "numeric":
        return repr(value)
    if spec.kind == "label":
        return str(value)
    return value


def write_csv(table: DataTable, path, *, delimiter: str = ",", quotechar: str = '"') -> None:
    """Write a table to CSV; floats use repr so a re-parse is value-identical."""
    for s in table.schema:
        if s.kind == "vector":
            raise TableError("vector columns cannot be written to CSV")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, quotechar=quotechar)
        writer.writerow(table.column_names)
        cols = [table.column(name) for name in table.column_names]
        specs = list(table.schema)
        for i in range(table.row_count):
            writer.writerow([_render_cell(s, col[i]) for s, col in zip(specs, cols)])
