"""Columnar data model: column specs, immutable tables, CSV and JSON I/O."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .fields import check_types, field_checkers, finite, read_fields
from .metrics import float_reprs, read_only

#: Column kinds accepted in external schemas. "vector" additionally exists as
#: an engine-internal kind for assembled feature columns and cannot be
#: ingested from CSV.
CSV_KINDS = ("categorical_text", "numeric", "boolean", "label")
KINDS = CSV_KINDS + ("vector",)

_COMPACT = (",", ":")

#: CSV dialect. `read_csv` takes another delimiter as an option; the quote
#: character, and the delimiter `write_csv` writes, are fixed.
DELIMITER = ","
QUOTECHAR = '"'


class TableError(ValueError):
    """Schema or value violation in a table operation."""


class CsvFormatError(TableError):
    """Malformed CSV input; carries the offending row number when known."""


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: Literal[KINDS]
    nullable: bool = True

    def __post_init__(self):
        check_types(self, TableError, "schema column")
        if not self.name:
            raise TableError("schema column field 'name' must be nonempty text, got ''")

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "nullable": self.nullable}

    @classmethod
    def from_dict(cls, d: dict) -> "ColumnSpec":
        return cls(**read_fields(cls, d, "schema column", TableError))


field_checkers(ColumnSpec)


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
        if isinstance(value, int) and not finite(int(value)):
            raise TableError(
                f"column {spec.name!r} expects finite numbers, got an integer too large for a float at row {row}"
            )
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
    return read_only(matrix)


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


class _Text:
    """A stored categorical_text column: read-only int32 codes into
    `categories`, the distinct values in first-seen order, with -1 for null,
    as in an Arrow dictionary array. After `select_rows` the categories may
    hold values that no row has."""

    __slots__ = ("codes", "categories")

    def __init__(self, codes: np.ndarray, categories: tuple[str, ...]):
        self.codes = codes
        self.categories = categories

    def __len__(self) -> int:
        return len(self.codes)


#: The values that the int8 codes of a boolean or label column stand for.
_CODE_VALUES = {"boolean": (False, True), "label": (0, 1)}


def _codes(spec: ColumnSpec, col) -> tuple[np.ndarray, tuple]:
    """The codes of a stored boolean, label or categorical_text column and
    the values they stand for; code -1 is null."""
    if spec.kind == "categorical_text":
        return col.codes, col.categories
    return col, _CODE_VALUES[spec.kind]


def _stored(spec: ColumnSpec, values: Sequence):
    """The stored form of values that `_check_value` returns unchanged: a
    float64 array with NaN for null (numeric), int8 codes (boolean, label)
    or a `_Text` (categorical_text)."""
    if spec.kind == "numeric":
        return read_only(np.array(values, dtype=np.float64))
    if spec.kind == "categorical_text":
        return _text(values, tuple(v for v in dict.fromkeys(values) if v is not None))
    return _coded(values, _CODE_VALUES[spec.kind], np.int8)


def _text(values: Sequence, categories: tuple) -> _Text:
    """The text column of `values`, whose distinct values other than None
    are `categories` in first-seen order."""
    return _Text(_coded(values, categories, np.int32), categories)


def _coded(values: Sequence, categories: tuple, dtype) -> np.ndarray:
    """The read-only code of each value: its index in `categories`, -1 for None."""
    index = dict(zip(categories, range(len(categories))))
    index[None] = -1
    return read_only(np.fromiter(map(index.__getitem__, values), dtype=dtype, count=len(values)))


#: The one type a value of each scalar kind has when `_check_value` would
#: store it unchanged.
_STORED_TYPES = {"numeric": float, "categorical_text": str, "boolean": bool, "label": int}


def _typed(spec: ColumnSpec, col):
    """`col` stored, when `_checked_cells` would accept it and return it
    unchanged; None otherwise. It is found with a few C-level passes over the
    column. A list or tuple qualifies when every value has its kind's exact
    type (or is None in a nullable column), numbers are finite, labels are 0
    or 1, and each distinct text is nonempty and holds no NUL. An array
    qualifies as a numeric column of finite float64 values or as a label
    column of integers 0 and 1."""
    if isinstance(col, np.ndarray):
        if col.ndim == 1 and spec.kind == "numeric" and col.dtype == np.float64 and np.isfinite(col).all():
            return read_only(col.copy())
        if col.ndim == 1 and spec.kind == "label" and col.dtype.kind in "iu" and ((col == 0) | (col == 1)).all():
            return read_only(col.astype(np.int8))
        return None
    allowed = {_STORED_TYPES[spec.kind], type(None)} if spec.nullable else {_STORED_TYPES[spec.kind]}
    if spec.kind == "categorical_text":
        # Text is checked once per distinct value. Only a value equal to a str
        # shares a str's category, and in practice that is a str subclass,
        # which the per-cell pass accepts too.
        try:
            distinct = dict.fromkeys(col)
        except TypeError:
            return None
        categories = tuple(c for c in distinct if c is not None)
        if not set(map(type, distinct)) <= allowed or any(c == "" or "\x00" in c for c in categories):
            return None
        return _text(col, categories)
    types = set(map(type, col))
    if not types <= allowed or (spec.kind == "label" and not set(col) <= {0, 1, None}):
        return None
    stored = _stored(spec, col)
    if spec.kind == "numeric":
        # A null becomes NaN in the array, so it is the one non-finite value allowed.
        nulls = col.count(None) if type(None) in types else 0
        if int(np.count_nonzero(np.isfinite(stored))) != len(col) - nulls:
            return None
    return stored


def _checked_column(spec: ColumnSpec, values, n: int | None):
    """`values` as a stored column of `spec`: a checked matrix for a vector
    column, else the typed storage of `_stored`. The length is checked
    against `n` when a row count is already fixed.

    A scalar column that `_typed` accepts is stored a column at a time; any
    other goes through the per-cell pass, which converts its values or
    raises naming the first bad row."""
    if spec.kind == "vector":
        col = _checked_matrix(spec.name, values)
    else:
        col = values if isinstance(values, (np.ndarray, list, tuple)) else tuple(values)
    if n is not None and len(col) != n:
        raise TableError(f"column {spec.name!r} has {len(col)} values, expected {n}")
    if spec.kind == "vector":
        return col
    stored = _typed(spec, col)
    return _stored(spec, _checked_cells(spec, tuple(col))) if stored is None else stored


def _checked_cells(spec: ColumnSpec, col: tuple) -> tuple:
    """The per-cell pass: every value checked and converted by `_check_value`."""
    return tuple(_check_value(spec, v, i) for i, v in enumerate(col))


class DataTable:
    """Immutable columnar table with a typed schema.

    Columns are stored typed: a numeric column as a read-only float64 array
    in which NaN marks a null (checked values are finite, so NaN is never a
    value); a categorical_text column as int32 codes into its categories in
    first-seen order; boolean and label columns as int8 codes 0 and 1; -1 is
    the null code. A vector column is a read-only (n, size) float64 matrix.
    Engine code reads the arrays (`numbers`, `codes`, `feature_matrix`);
    `column` builds a tuple of a scalar column's values on demand. Every
    mutation-style operation returns a new table.

    Values must conform to the declared column kind; empty-string categories
    are disallowed so CSV round-trips stay value-identical. A vector column
    is given as a 2-D array or as equal-length rows and holds no null and no
    NaN.

    Values are checked once, where they enter: the constructor, `read_csv`
    and `from_json_bytes` check every cell. Derived tables reuse the checked
    columns of their source; `with_column` and `replace_column` check only
    the column they add, and `select_rows` checks nothing. The check runs a
    column at a time: a column that needs no conversion is stored in bulk,
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
        """A table over columns already stored for `schema`, all `row_count`
        long; nothing is checked again."""
        table = object.__new__(cls)
        table._init(schema, columns, row_count)
        return table

    def __setattr__(self, name, value):
        raise AttributeError("DataTable is immutable")

    # -- lookup ------------------------------------------------------------

    def column(self, name: str) -> tuple:
        """The values of a scalar column, None for a null, as a tuple built
        from the stored array."""
        spec = self.spec(name)
        if spec.kind == "vector":
            raise TableError(f"column {name!r} is a vector column; read it with feature_matrix")
        col = self._columns[name]
        if spec.kind == "numeric":
            values = col.tolist()
            if np.isnan(col).any():
                values = [None if v != v else v for v in values]
            return tuple(values)
        codes, values = _codes(spec, col)
        return tuple(map((values + (None,)).__getitem__, codes.tolist()))

    def numbers(self, name: str) -> np.ndarray:
        """A numeric column's read-only float64 array; NaN marks a null."""
        if self.spec(name).kind != "numeric":
            raise TableError(f"column {name!r} is not a numeric column")
        return self._columns[name]

    def codes(self, name: str) -> tuple[np.ndarray, tuple]:
        """A boolean, label or categorical_text column as read-only codes and
        the values they stand for: code i is values[i] and -1 is null. A text
        column's values are its categories in first-seen order; after
        `select_rows` some of them may have no row."""
        spec = self.spec(name)
        if spec.kind in ("numeric", "vector"):
            raise TableError(f"column {name!r} is a {spec.kind} column, not a coded one")
        return _codes(spec, self._columns[name])

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
        rows = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices), dtype=np.intp)
        cols = {}
        for name, col in self._columns.items():
            if isinstance(col, _Text):
                cols[name] = _Text(read_only(col.codes[rows]), col.categories)
            else:
                cols[name] = read_only(col[rows])
        return DataTable._trusted(self.schema, cols, len(rows) if cols else 0)

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
        labels = self._columns[name]
        if (labels < 0).any():
            raise TableError(f"label column {name!r} holds a null at row {int(np.argmin(labels))}")
        return labels.astype(np.int64)

    # -- serialization -----------------------------------------------------

    def to_json_bytes(self) -> bytes:
        """The `.tbl` document: the bytes that `json.dumps(doc,
        separators=(",", ":"))` gives for the format, the version, the
        schema and each column's values (`column()` of a scalar column,
        {"size", "values"} for each row of a vector column). Each scalar
        column is written as one block: every distinct value is encoded once
        and the texts are taken by code."""
        head = json.dumps(
            {"format": "coverml-table", "version": 1, "schema": [s.to_dict() for s in self.schema]},
            separators=_COMPACT,
        )
        blocks = ",".join(f"{json.dumps(s.name)}:{_json_block(s, self._columns[s.name])}" for s in self.schema)
        return f'{head[:-1]},"columns":{{{blocks}}}}}'.encode("utf-8")

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
        return {s.name: _null_count(s, self._columns[s.name]) for s in self.schema}

    def __eq__(self, other) -> bool:
        """Whether `other` is a table with the same `.tbl` bytes."""
        if not isinstance(other, DataTable):
            return NotImplemented
        return self.to_json_bytes() == other.to_json_bytes()

    def __repr__(self) -> str:
        return f"DataTable({self.row_count} rows x {len(self.schema)} columns)"


def _null_count(spec: ColumnSpec, col) -> int:
    if spec.kind == "vector":
        return 0
    if spec.kind == "numeric":
        return int(np.count_nonzero(np.isnan(col)))
    return int(np.count_nonzero(_codes(spec, col)[0] < 0))


def _json_block(spec: ColumnSpec, col) -> str:
    """The JSON array of a stored column's values, as `json.dumps` with
    compact separators writes it: each distinct number or category is
    encoded once, and null stands for NaN or code -1."""
    if spec.kind == "vector":
        size = col.shape[1]
        return json.dumps([{"size": size, "values": row} for row in col.tolist()], separators=_COMPACT)
    if spec.kind == "numeric":
        texts = float_reprs(col)
        for i in np.flatnonzero(np.isnan(col)).tolist():
            texts[i] = "null"
    else:
        codes, values = _codes(spec, col)
        texts = np.array([json.dumps(v) for v in values] + ["null"], dtype=object)[codes].tolist()
    return "[" + ",".join(texts) + "]"


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
        if type(value) is int and not finite(value):
            raise TableError(
                f"vector column {name!r} expects finite numbers, got an integer too large for a float at row {row}"
            )
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
    delimiter: str = DELIMITER,
    header: bool = True,
) -> DataTable:
    """Parse a CSV file against a declared schema.

    With a header row, schema columns are located by name (extra CSV columns
    are ignored); without one, the file must have exactly the schema's
    columns in order. Unparseable numeric/boolean cells become nulls in
    nullable columns and errors otherwise.
    """
    if len(delimiter) != 1:
        raise CsvFormatError(f"delimiter must be one character, got {delimiter!r}")
    schema = validate_schema(schema)
    for s in schema:
        if s.kind == "vector":
            raise TableError("vector columns cannot be ingested from CSV")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    columns: dict[str, list] = {s.name: [] for s in schema}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter, quotechar=QUOTECHAR)
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


def write_csv(table: DataTable, path) -> None:
    """Write a table to CSV; floats use repr so a re-parse is value-identical."""
    for s in table.schema:
        if s.kind == "vector":
            raise TableError("vector columns cannot be written to CSV")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=DELIMITER, quotechar=QUOTECHAR)
        writer.writerow(table.column_names)
        cols = [table.column(name) for name in table.column_names]
        specs = list(table.schema)
        for i in range(table.row_count):
            writer.writerow([_render_cell(s, col[i]) for s, col in zip(specs, cols)])
