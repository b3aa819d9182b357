"""Label derivation, sampling, splitting, and seeded synthetic tables."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .rng import derived_rng
from .table import ColumnSpec, DataTable, TableError

DEFAULT_LABEL_SOURCE = "IsCovered"
DEFAULT_POSITIVE_VALUES = ("Covered",)


def derive_label(
    table: DataTable,
    source_col: str = DEFAULT_LABEL_SOURCE,
    positive_values: Iterable[str] = DEFAULT_POSITIVE_VALUES,
    label_name: str = "label",
) -> DataTable:
    """Append a 0/1 label column: 1 where the source value is positive.

    Booleans compare through their "true"/"false" spelling; nulls are never
    positive, so the output column has no nulls.
    """
    spec = table.spec(source_col)
    if spec.kind not in ("categorical_text", "boolean"):
        raise TableError(
            f"label source {source_col!r} must be categorical_text or boolean, is {spec.kind}"
        )
    codes, values = table.codes(source_col)
    if (codes < 0).all():
        raise TableError(f"label source {source_col!r} is entirely null")
    positive = set(positive_values)
    texts = [("true" if v else "false") if isinstance(v, bool) else v for v in values]
    # The last entry is the null code's: a null is never positive.
    hits = np.array([text in positive for text in texts] + [False])
    return table.with_column(ColumnSpec(label_name, "label", nullable=False), hits[codes].astype(np.int8))


def sample_rows(table: DataTable, fraction: float, seed: int) -> DataTable:
    """Uniform without-replacement sample of floor(fraction * n) rows.

    Order-preserving and deterministic for a fixed seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = table.row_count
    k = math.floor(fraction * n)
    rng = derived_rng(seed, 11)
    chosen = np.sort(rng.choice(n, size=k, replace=False))
    return table.select_rows(chosen)


def train_test_split(table: DataTable, test_fraction: float, seed: int) -> tuple[DataTable, DataTable]:
    """Disjoint seeded partition; the test side gets floor(test_fraction * n) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = table.row_count
    if n < 2:
        raise TableError("need at least 2 rows to split")
    rng = derived_rng(seed, 13)
    perm = rng.permutation(n)
    n_test = math.floor(test_fraction * n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return table.select_rows(train_idx), table.select_rows(test_idx)


# -- synthetic data ------------------------------------------------------------

#: Weak-signal categorical columns and their cardinalities, mirroring the
#: plan-attribute shape of real benefits extracts.
DEFAULT_WEAK_CARDINALITIES: Mapping[str, int] = {
    "BusinessYear": 5,
    "IssuerId": 12,
    "QuantLimitOnSvc": 3,
    "SourceName": 3,
    "StateCode": 8,
}

_VALUE_PREFIXES = {
    "StateCode": "ST",
    "SourceName": "SRC",
    "IssuerId": "ISS",
    "QuantLimitOnSvc": "QL",
    "Exclusions": "EXC",
}

HIGH_SIGNAL_COLUMN = "Exclusions"
CONSTANT_COLUMN = "IsEHB"


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for the seeded benefits-like table.

    The generated table has one high-signal categorical column (two rare
    categories concentrate most negatives, one frequent category leans
    negative), several weak-signal categoricals, one constant boolean, and a
    text coverage column to derive the label from.
    """

    row_count: int
    positive_rate: float = 0.81
    seed: int = 1
    exclusion_categories: int = 10
    weak_cardinalities: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_WEAK_CARDINALITIES)
    )
    signal_strength: float = 1.0
    weak_signal: float = 0.06

    def __post_init__(self):
        for name in ("row_count", "seed", "exclusion_categories"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("positive_rate", "signal_strength", "weak_signal"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.row_count < 1:
            raise ValueError("row_count must be positive")
        if not 0.0 < self.positive_rate < 1.0:
            raise ValueError("positive_rate must lie strictly inside (0, 1)")
        if self.exclusion_categories < 4:
            raise ValueError("need at least 4 high-signal categories")
        for name, card in self.weak_cardinalities.items():
            if isinstance(card, bool) or not isinstance(card, int):
                raise ValueError(f"cardinality of {name!r} must be an integer, got {card!r}")
            if card < 1:
                raise ValueError(f"cardinality of {name!r} must be >= 1")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ValueError("signal_strength must lie in [0, 1]")
        if not 0.0 <= self.weak_signal < 1.0:
            raise ValueError("weak_signal must lie in [0, 1)")

    def to_json(self) -> str:
        d = {
            "row_count": self.row_count,
            "positive_rate": self.positive_rate,
            "seed": self.seed,
            "exclusion_categories": self.exclusion_categories,
            "weak_cardinalities": dict(self.weak_cardinalities),
            "signal_strength": self.signal_strength,
            "weak_signal": self.weak_signal,
        }
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        return cls(**json.loads(text))


def _category_values(column: str, cardinality: int) -> list[str]:
    if column == "BusinessYear":
        return [str(2017 + j) for j in range(cardinality)]
    prefix = _VALUE_PREFIXES.get(column, column + "_")
    return [f"{prefix}{j:02d}" for j in range(cardinality)]


def _exclusion_conditionals(c: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """P(category | negative), P(category | positive) for the high-signal column.

    Full strength plants two rare negative-dominated pockets (the last two
    categories) plus a frequent negative-leaning anchor (the first), leaving
    the index-versus-positive-rate relation non-monotonic; strength 0 is the
    uniform no-signal distribution.
    """
    mids = c - 3
    p_neg = np.full(c, 0.30 / mids)
    p_pos = np.full(c, 0.71 / mids)
    p_neg[0], p_pos[0] = 0.40, 0.28
    p_neg[-2:], p_pos[-2:] = 0.15, 0.005
    uniform = np.full(c, 1.0 / c)
    return (1 - s) * uniform + s * p_neg, (1 - s) * uniform + s * p_pos


def _weak_conditionals(c: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    alt = np.where(np.arange(c) % 2 == 0, 1.0, -1.0)
    p_pos = 1.0 + delta * alt
    p_neg = 1.0 - delta * alt
    return p_neg / p_neg.sum(), p_pos / p_pos.sum()


def _sample_categorical(
    rng: np.random.Generator, labels: np.ndarray, p_neg: np.ndarray, p_pos: np.ndarray, values: list[str]
) -> list[str]:
    u = rng.random(labels.shape[0])
    cum_neg = np.cumsum(p_neg)
    cum_pos = np.cumsum(p_pos)
    idx = np.where(
        labels == 1,
        np.searchsorted(cum_pos, u, side="right"),
        np.searchsorted(cum_neg, u, side="right"),
    )
    idx = np.minimum(idx, len(values) - 1)
    return [values[i] for i in idx]


def generate_synthetic(spec: SynthSpec) -> DataTable:
    """Seeded benefits-like table; same spec twice gives byte-identical output."""
    rng = derived_rng(spec.seed, 17)
    n = spec.row_count
    labels = (rng.random(n) < spec.positive_rate).astype(np.int64)

    schema = [ColumnSpec(HIGH_SIGNAL_COLUMN, "categorical_text", nullable=False)]
    e_neg, e_pos = _exclusion_conditionals(spec.exclusion_categories, spec.signal_strength)
    columns: dict[str, list] = {
        HIGH_SIGNAL_COLUMN: _sample_categorical(
            rng, labels, e_neg, e_pos, _category_values(HIGH_SIGNAL_COLUMN, spec.exclusion_categories)
        )
    }
    for name, card in spec.weak_cardinalities.items():
        w_neg, w_pos = _weak_conditionals(card, spec.weak_signal)
        schema.append(ColumnSpec(name, "categorical_text", nullable=False))
        columns[name] = _sample_categorical(rng, labels, w_neg, w_pos, _category_values(name, card))

    schema.append(ColumnSpec(CONSTANT_COLUMN, "boolean", nullable=False))
    columns[CONSTANT_COLUMN] = [True] * n
    schema.append(ColumnSpec(DEFAULT_LABEL_SOURCE, "categorical_text", nullable=False))
    columns[DEFAULT_LABEL_SOURCE] = ["Covered" if v else "NotCovered" for v in labels]
    return DataTable(schema, columns)


def generate_xor(
    row_count: int,
    seed: int,
    flip_rate: float = 0.1,
    noise_cardinality: int = 5,
) -> DataTable:
    """Interaction-driven table: the label is the XOR of two balanced columns.

    Each informative column is marginally uninformative, so linear models
    rank no better than chance while depth>=2 trees recover the signal.
    """
    if row_count < 1:
        raise ValueError("row_count must be positive")
    if not 0.0 <= flip_rate < 0.5:
        raise ValueError("flip_rate must lie in [0, 0.5)")
    rng = derived_rng(seed, 19)
    a = rng.integers(0, 2, size=row_count)
    b = rng.integers(0, 2, size=row_count)
    flips = rng.random(row_count) < flip_rate
    labels = np.where(flips, 1 - (a ^ b), a ^ b)

    schema = [
        ColumnSpec("FeatureA", "categorical_text", nullable=False),
        ColumnSpec("FeatureB", "categorical_text", nullable=False),
        ColumnSpec("NoiseA", "categorical_text", nullable=False),
        ColumnSpec("NoiseB", "categorical_text", nullable=False),
        ColumnSpec(DEFAULT_LABEL_SOURCE, "categorical_text", nullable=False),
    ]
    columns = {
        "FeatureA": [f"A{v}" for v in a],
        "FeatureB": [f"B{v}" for v in b],
        "NoiseA": [f"N{v}" for v in rng.integers(0, noise_cardinality, size=row_count)],
        "NoiseB": [f"M{v}" for v in rng.integers(0, noise_cardinality, size=row_count)],
        DEFAULT_LABEL_SOURCE: ["Covered" if v else "NotCovered" for v in labels],
    }
    return DataTable(schema, columns)
