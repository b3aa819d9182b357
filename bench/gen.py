"""Seeded benchmark inputs whose class-conditional distributions are known in
closed form.

Every row draws its label Y ~ Bernoulli(POSITIVE_RATE) and then each feature
independently given Y, so the Bayes-optimal log-odds of a row is the prior
log-odds plus one log-likelihood ratio per observed feature. Nulls are drawn
independently of Y and of the value, so a null cell adds nothing to the
log-odds. The generator shares no code with the program under test: a change
to the program cannot change its own inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

POSITIVE_RATE = 0.75
LABEL_SOURCE = "IsCovered"
#: Seed of the planted unseen-StateCode rows; fixed so that the rows that fail
#: do not depend on the run's seed.
PLANT_SEED = 20231014
#: One batch row in PLANT_EVERY carries a StateCode absent from training.
PLANT_EVERY = 50
UNSEEN_STATES = ("ZZ01", "ZZ02", "ZZ03")


@dataclass(frozen=True)
class Categorical:
    """Text column: P(value j | Y=y) is proportional to base_j * exp(+-w_j / 2)."""

    name: str
    values: tuple[str, ...]
    strength: float

    def pmf(self, y: int) -> np.ndarray:
        c = len(self.values)
        base = 0.6 ** (np.arange(c) / max(c - 1, 1))  # at most 1.67x between values
        w = self.strength * np.linspace(1.0, -1.0, c)
        p = base * np.exp((w if y else -w) / 2.0)
        return p / p.sum()

    def encode(self, cell) -> int:
        return self.values.index(cell)

    def render(self, k: int) -> str:
        return self.values[k]


@dataclass(frozen=True)
class GridNumeric:
    """Numeric column on the grid offset + step * k, k = 0..size-1, with a
    discretised normal over k whose mean depends on Y."""

    name: str
    offset: float
    step: float
    size: int
    mu_neg: float
    mu_pos: float
    sigma: float
    null_rate: float = 0.0

    def pmf(self, y: int) -> np.ndarray:
        k = np.arange(self.size)
        mu = self.mu_pos if y else self.mu_neg
        p = np.exp(-((k - mu) ** 2) / (2.0 * self.sigma**2))
        return p / p.sum()

    def encode(self, cell) -> int | None:
        if cell is None:
            return None
        return int(round((cell - self.offset) / self.step))

    def render(self, k: int) -> float:
        return self.offset + self.step * k


def _cats(name: str, prefix: str, count: int, strength: float) -> Categorical:
    return Categorical(name, tuple(f"{prefix}{j:02d}" for j in range(count)), strength)


PLAN_TYPE = Categorical("PlanType", ("HMO", "PPO", "EPO", "POS"), 0.6)
METAL_LEVEL = Categorical("MetalLevel", ("Bronze", "Silver", "Gold", "Platinum", "Catastrophic"), 0.8)


def _numeric_columns(null_rate: float) -> tuple[GridNumeric, ...]:
    return (
        GridNumeric("Deductible", 0.0, 25.0, 320, 190.0, 150.0, 60.0, null_rate),
        GridNumeric("OutOfPocketMax", 1000.0, 50.0, 200, 120.0, 95.0, 40.0, null_rate),
        GridNumeric("Copay", 0.0, 1.0, 151, 90.0, 70.0, 30.0, null_rate),
        GridNumeric("Coinsurance", 0.0, 0.005, 101, 55.0, 45.0, 20.0, null_rate),
    )


#: Feature columns of each workload. cv-linear is categorical only, like the
#: benefits extract; the other two mix plan attributes with the cost-sharing
#: amounts the paper models, cv-trees with scattered nulls.
COLUMNS = {
    "cv-linear": (
        _cats("Exclusions", "EXC", 10, 2.4),
        _cats("StateCode", "ST", 12, 0.5),
        _cats("IssuerId", "ISS", 14, 0.4),
        PLAN_TYPE,
        METAL_LEVEL,
        _cats("SourceName", "SRC", 3, 0.2),
        Categorical("BusinessYear", ("2017", "2018", "2019", "2020", "2021"), 0.1),
    ),
    "cv-trees": (PLAN_TYPE, METAL_LEVEL, _cats("StateCode", "ST", 10, 0.6)) + _numeric_columns(0.03),
    "score-batch": (PLAN_TYPE, METAL_LEVEL, _cats("StateCode", "ST", 10, 0.6)) + _numeric_columns(0.0),
}


def schema_json(workload: str) -> str:
    cols = []
    for col in COLUMNS[workload]:
        if isinstance(col, Categorical):
            cols.append({"name": col.name, "kind": "categorical_text", "nullable": False})
        else:
            cols.append({"name": col.name, "kind": "numeric", "nullable": col.null_rate > 0})
    cols.append({"name": LABEL_SOURCE, "kind": "categorical_text", "nullable": False})
    return json.dumps({"columns": cols}, indent=2)


def sample(workload: str, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, dict[str, list]]:
    """Labels and raw cell values (None for a null) of `rows` fresh rows."""
    labels = (rng.random(rows) < POSITIVE_RATE).astype(np.int64)
    cells: dict[str, list] = {}
    for col in COLUMNS[workload]:
        u = rng.random(rows)
        cdf = [np.cumsum(col.pmf(0)), np.cumsum(col.pmf(1))]
        ks = np.where(labels == 1, np.searchsorted(cdf[1], u, "right"), np.searchsorted(cdf[0], u, "right"))
        ks = np.minimum(ks, len(cdf[0]) - 1)
        values = [col.render(int(k)) for k in ks]
        null_rate = getattr(col, "null_rate", 0.0)
        if null_rate:
            nulls = rng.random(rows) < null_rate
            values = [None if z else v for v, z in zip(values, nulls)]
        cells[col.name] = values
    return labels, cells


def planted_batch(rows: int, seed: int) -> tuple[np.ndarray, dict[str, list]]:
    """Labels and cells of a score-batch: seeded rows, with every
    PLANT_EVERY-th row replaced by a row drawn from PLANT_SEED whose
    StateCode is unseen. The planted rows and their count do not depend on
    `seed`."""
    labels, cells = sample("score-batch", rows, np.random.default_rng([seed, 3]))
    planted = (np.arange(rows) % PLANT_EVERY) == PLANT_EVERY - 1
    n_plant = int(planted.sum())
    p_labels, p_cells = sample("score-batch", n_plant, np.random.default_rng(PLANT_SEED))
    p_cells["StateCode"] = [UNSEEN_STATES[i % len(UNSEEN_STATES)] for i in range(n_plant)]
    where = np.nonzero(planted)[0]
    labels = labels.copy()
    labels[where] = p_labels
    for name, values in p_cells.items():
        col = cells[name]
        for i, v in zip(where, values):
            col[i] = v
    return labels, cells


def write_csv(path, workload: str, labels: np.ndarray, cells: dict[str, list]) -> None:
    names = [c.name for c in COLUMNS[workload]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(names + [LABEL_SOURCE])
        for i, y in enumerate(labels):
            out.writerow([_cell_text(cells[n][i]) for n in names] + ["Covered" if y else "NotCovered"])


def read_csv(path, workload: str) -> tuple[np.ndarray, dict[str, list]]:
    """Labels and raw cells of a CSV written by write_csv."""
    numeric = {c.name for c in COLUMNS[workload] if isinstance(c, GridNumeric)}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        cells = {name: list(values) for name, values in zip(header, zip(*rows))}
    for name in numeric:
        cells[name] = [None if v == "" else float(v) for v in cells[name]]
    labels = np.asarray([v == "Covered" for v in cells.pop(LABEL_SOURCE)], dtype=np.int64)
    return labels, cells


def _cell_text(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else value


def bayes_log_odds(workload: str, cells: dict[str, list]) -> np.ndarray:
    """Bayes-optimal log-odds of every row from its raw cells."""
    cols = COLUMNS[workload]
    n = len(cells[cols[0].name])
    out = np.full(n, math.log(POSITIVE_RATE / (1.0 - POSITIVE_RATE)))
    for col in cols:
        llr = np.log(col.pmf(1)) - np.log(col.pmf(0))
        for i, cell in enumerate(cells[col.name]):
            k = col.encode(cell)
            if k is not None:
                out[i] += llr[k]
    return out


def rank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with mid-ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    ranks = ((upper - counts + 1 + upper) / 2.0)[inverse]
    n1 = int(labels.sum())
    n0 = labels.size - n1
    return float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))
