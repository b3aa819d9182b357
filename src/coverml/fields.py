"""Reading a JSON object as the fields of a frozen dataclass, and checking
each field's value against its annotation."""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections.abc import Mapping
from typing import Literal, get_args, get_origin, get_type_hints


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
    type."""
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
    hints = get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        out.append((f.name, f"one of {get_args(tp)}" if get_origin(tp) is Literal else f.type, _checker(tp)))
    return tuple(out)


class _Mistyped(Exception):
    """A value that is not of the type its field declares."""


def _checker(tp):
    """A function that returns a value of type `tp` (`str`, `int`, `float`,
    a `Literal`, `tuple[T, ...]` or `Mapping[K, V]`), an array as a tuple and
    an object or an array of `[key, value]` pairs as a dict, and raises
    `_Mistyped` for a value of another type. An int is not a bool, and a
    float is an int or a float of finite size."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        item = _checker(args[0])
        return lambda v: tuple(map(item, v)) if isinstance(v, (list, tuple)) else _mistyped()
    if origin is Mapping:
        return functools.partial(_mapping, _checker(args[0]), _checker(args[1]))
    if origin is Literal:
        return lambda v: v if v in args else _mistyped()
    return {
        str: lambda v: v if isinstance(v, str) else _mistyped(),
        int: lambda v: v if type(v) is int else _mistyped(),
        # NaN compares false, and a JSON integer may be too large for a float.
        float: lambda v: v if type(v) in (int, float) and abs(v) <= sys.float_info.max else _mistyped(),
    }[tp]


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
