"""Dense feature vectors."""

from __future__ import annotations

import numpy as np


class FeatureVector:
    """Fixed-size dense real vector; NaN entries are rejected. Instances are
    immutable."""

    __slots__ = ("size", "values")

    def __init__(self, size: int, values):
        if size < 0:
            raise ValueError("vector size must be nonnegative")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if np.isnan(values).any():
            raise ValueError("feature vectors must not contain NaN")
        if values.shape[0] != size:
            raise ValueError(f"dense vector has {values.shape[0]} values, declared size {size}")
        values.setflags(write=False)
        object.__setattr__(self, "size", int(size))
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FeatureVector is immutable")

    @classmethod
    def dense(cls, values) -> "FeatureVector":
        values = np.asarray(values, dtype=np.float64)
        return cls(values.shape[0], values)

    @classmethod
    def rows_of(cls, matrix) -> list["FeatureVector"]:
        """One vector per row of a 2-D matrix. The NaN check runs once for the
        whole matrix, and each vector's values are a read-only view of its row
        in a private copy of the matrix."""
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        if np.isnan(matrix).any():
            raise ValueError("feature vectors must not contain NaN")
        matrix.setflags(write=False)
        size = matrix.shape[1]
        vectors = []
        for row in matrix:
            v = object.__new__(cls)
            object.__setattr__(v, "size", size)
            object.__setattr__(v, "values", row)
            vectors.append(v)
        return vectors

    def to_dense(self) -> np.ndarray:
        return self.values.copy()

    def display(self) -> str:
        """Render as `[v0,v1,...]`."""
        return "[" + ",".join(repr(v) for v in self.values.tolist()) + "]"

    def to_dict(self) -> dict:
        return {"size": self.size, "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureVector":
        if set(d) != {"size", "values"}:
            raise ValueError(f"a vector holds exactly size and values, got keys {sorted(d)}")
        return cls(d["size"], d["values"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.values, other.values)

    def __hash__(self):
        raise TypeError("FeatureVector is not hashable")

    def __repr__(self) -> str:
        return f"FeatureVector({self.display()})"
