"""Reading a JSON object as the fields of a frozen dataclass, and checking
each field's value against its annotation.

An annotation is a type, or `Annotated[T, bound]` with its bound next to
it: for an int or a float, an interval such as `"[1, 30]"`, `"(0, 1)"` or
`"[0, inf)"`; for `np.ndarray`, the rank of a float64 array (`Vector`,
`Matrix`). The checks are of single fields only; what must hold across
fields is for each class to check.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import sys
from collections.abc import Mapping
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import numpy as np

#: A float64 array read from nested lists of finite numbers, none of them
#: empty: one level deep, or two.
Vector = Annotated[np.ndarray, 1]
Matrix = Annotated[np.ndarray, 2]


def read_fields(cls: type, doc, what: str, error: type = ValueError, keys: dict | None = None) -> dict:
    """The keyword arguments of dataclass `cls` that the JSON object `doc`
    gives: each field is read from the key of its name, or from `keys[name]`.
    Raises `error`, naming `what`, when `doc` is not an object, holds a key
    that is no field's, or lacks a field that has no default. The values
    themselves are for the constructor of `cls` to check."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object, got {doc!r}")
    fields = {(keys or {}).get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = [key for key in doc if key not in fields]
    if unknown:
        raise error(f"unknown {what} field(s): {unknown}")
    missing = [k for k, f in fields.items() if k not in doc and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise error(f"{what} lacks the required field(s): {missing}")
    return {fields[key].name: value for key, value in doc.items()}


def check_types(obj, error: type, what: str, keys: dict | None = None) -> None:
    """Set each field of the frozen dataclass `obj` to its value as the type
    its annotation declares (see `_checker`). Raises `error`, naming `what`
    and the field's key (`keys[name]` or its name), for a value of another
    type or outside its bound."""
    for name, want, check in field_checkers(type(obj)):
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, check(value))
        except _Mistyped:
            raise error(f"{what} field {(keys or {}).get(name, name)!r} must be {want}, got {value!r}") from None


@functools.cache
def field_checkers(cls: type) -> tuple:
    """Each field of dataclass `cls`: its name, its type in words, and its
    `_checker`. Each module calls this at import for its classes that use
    `check_types`, so that the checkers, which live as long as the process,
    are not allocated among the large arrays of a run."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, _describe(hints[f.name]), _checker(hints[f.name])) for f in dataclasses.fields(cls))


class _Mistyped(Exception):
    """A value that is not of the type its field declares."""


def _checker(tp):
    """A function that returns a value of type `tp` (`str`, `int`, `float`,
    `bool`, a `Literal`, `tuple[T, ...]`, `Mapping[K, V]`, an `Annotated`
    bound of these, or an array), an array as a tuple and an object or an
    array of `[key, value]` pairs as a dict, and raises `_Mistyped` for a
    value of another type. An int is not a bool, and a float is an int or a
    float of finite size. A field of any other class takes an instance or
    the JSON object that its class reads (its owner reads it)."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        if args[0] is np.ndarray:
            return functools.partial(_array, args[1])
        return functools.partial(_bounded, _checker(args[0]), _interval(args[1]))
    if origin is tuple:
        item = _checker(args[0])
        return lambda v: tuple(map(item, v)) if isinstance(v, (list, tuple)) else _mistyped()
    if origin is Mapping:
        return functools.partial(_mapping, _checker(args[0]), _checker(args[1]))
    if origin is Literal:
        return lambda v: v if v in args else _mistyped()
    if tp in _SCALARS:
        return _SCALARS[tp]
    return lambda v: v if isinstance(v, (tp, dict)) else _mistyped()


def finite(v) -> bool:
    """Whether v is an int or a float of finite size: NaN compares false,
    and a JSON integer may be too large for a float."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_SCALARS = {
    str: lambda v: v if isinstance(v, str) else _mistyped(),
    int: lambda v: v if type(v) is int else _mistyped(),
    float: lambda v: v if finite(v) else _mistyped(),
    bool: lambda v: v if type(v) is bool else _mistyped(),
}


def _describe(tp) -> str:
    """The type `tp` in the words of an error message."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        if args[0] is np.ndarray:
            return f"nested lists of finite numbers, {args[1]} deep and none empty"
        return f"{_describe(args[0])} in {args[1]}"
    if origin is tuple:
        return f"a list of {_describe(args[0])}"
    if origin is Mapping:
        return f"a map of {_describe(args[0])} to {_describe(args[1])}"
    if origin is Literal:
        return f"one of {args}"
    return "finite float" if tp is float else tp.__name__


def _interval(text: str):
    """A test of whether a number lies in the interval `text`: `[` and `]`
    close an end, `(` and `)` open it, and `inf` leaves it unbounded."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    above = operator.le if text[0] == "[" else operator.lt
    below = operator.le if text[-1] == "]" else operator.lt
    return lambda v: above(lo, v) and below(v, hi)


def _bounded(check, inside, v):
    v = check(v)
    return v if inside(v) else _mistyped()


def _array(rank: int, v) -> np.ndarray:
    """v, nested lists of finite numbers `rank` deep, none of them empty and
    all of one length at each depth, as a float64 array."""
    leaves = [v]
    for _ in range(rank):
        if not all(isinstance(row, list) and row for row in leaves):
            raise _Mistyped
        leaves = [x for row in leaves for x in row]
    if not all(map(finite, leaves)):
        raise _Mistyped
    try:
        return np.array(v, dtype=np.float64)
    except ValueError:  # rows of different lengths
        raise _Mistyped from None


def _mistyped():
    raise _Mistyped


def _mapping(key, value, v) -> dict:
    """`v`, an object or an array of `[key, value]` pairs, as a dict whose
    entries `key` and `value` check. A dict that needs no change is kept."""
    if isinstance(v, dict):
        if all(key(k) is k and value(x) is x for k, x in v.items()):
            return v
        v = list(v.items())
    if not isinstance(v, list) or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in v):
        raise _Mistyped
    return {key(k): value(x) for k, x in v}
