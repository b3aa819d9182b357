"""Confusion metrics, ROC and PR curves with areas, and fit timing."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class MetricError(ValueError):
    """Degenerate input for a metric (empty, or single-class where both are needed)."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_from_arrays(predictions: np.ndarray, labels: np.ndarray) -> ConfusionCounts:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise MetricError("cannot build a confusion matrix from no rows")
    return ConfusionCounts(
        tp=int(((predictions == 1) & (labels == 1)).sum()),
        fp=int(((predictions == 1) & (labels == 0)).sum()),
        tn=int(((predictions == 0) & (labels == 0)).sum()),
        fn=int(((predictions == 0) & (labels == 1)).sum()),
    )


def scalar_metrics(c: ConfusionCounts) -> tuple[float, float, float, float]:
    """(precision, recall, f1, accuracy) with declared zero-denominator rules:
    precision/recall are 1.0 with no predicted/actual positives, f1 is 0 when
    both vanish."""
    if c.total == 0:
        raise MetricError("confusion counts are all zero")
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 1.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    accuracy = (c.tp + c.tn) / c.total
    return precision, recall, f1, accuracy


def _sweep(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) after each distinct descending score, ties grouped."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ends = np.nonzero(np.append(s[:-1] != s[1:], True))[0]
    tp = np.cumsum(y)[ends]
    fp = np.cumsum(1 - y)[ends]
    return tp, fp


def roc_curve(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """(FPR, TPR) points from (0,0) to (1,1) and the trapezoid area.

    Ties collapse to one threshold step so the area equals the pairwise
    concordance probability with half-credit for tied pairs. Single-class
    input is an error: the area is undefined.
    """
    scores, labels = _coerce_scores(scores, labels)
    P = int(labels.sum())
    N = labels.size - P
    if P == 0 or N == 0:
        raise MetricError("ROC needs at least one positive and one negative label")
    tp, fp = _sweep(scores, labels)
    tpr = np.concatenate(([0.0], tp / P))
    fpr = np.concatenate(([0.0], fp / N))
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return list(zip(fpr.tolist(), tpr.tolist())), auc


def pr_curve(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """(recall, precision) points and the average-precision area.

    The area is the step-wise sum (R_i - R_{i-1}) * P_i over descending-score
    threshold steps; no linear interpolation.
    """
    scores, labels = _coerce_scores(scores, labels)
    P = int(labels.sum())
    if P == 0:
        raise MetricError("PR needs at least one positive label")
    tp, fp = _sweep(scores, labels)
    recall = tp / P
    precision = tp / (tp + fp)
    auc = float(np.sum((recall - np.concatenate(([0.0], recall[:-1]))) * precision))
    points = [(0.0, 1.0)] + list(zip(recall.tolist(), precision.tolist()))
    return points, auc


def _coerce_scores(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.size == 0:
        raise MetricError("no rows")
    return scores, labels


def timed_fit(fit: Callable[[], object]) -> tuple[object, float]:
    """Run a fit closure and report its wall-clock duration in minutes."""
    start = time.perf_counter()
    result = fit()
    return result, (time.perf_counter() - start) / 60.0


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    accuracy: float
    auc_roc: float
    auc_pr: float
    roc_points: tuple[tuple[float, float], ...]
    pr_points: tuple[tuple[float, float], ...]
    fit_minutes: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "counts": {"tp": self.counts.tp, "fp": self.counts.fp, "tn": self.counts.tn, "fn": self.counts.fn},
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "roc_points": [list(p) for p in self.roc_points],
            "pr_points": [list(p) for p in self.pr_points],
            "fit_minutes": self.fit_minutes,
            "metadata": dict(self.metadata),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2)`, with the two curves written
        as blocks of text rather than through the pure-Python encoder that
        `indent` selects."""
        fields = []
        for key, value in self.to_dict().items():
            text = _curve_json(value) if key in ("roc_points", "pr_points") else _nested_json(value)
            fields.append(f"  {json.dumps(key)}: {text}")
        return "{\n" + ",\n".join(fields) + "\n}"

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(
            counts=ConfusionCounts(**d["counts"]),
            precision=d["precision"],
            recall=d["recall"],
            f1=d["f1"],
            accuracy=d["accuracy"],
            auc_roc=d["auc_roc"],
            auc_pr=d["auc_pr"],
            roc_points=tuple(tuple(p) for p in d["roc_points"]),
            pr_points=tuple(tuple(p) for p in d["pr_points"]),
            fit_minutes=d.get("fit_minutes", 0.0),
            metadata=d.get("metadata", {}),
        )


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    predictions: np.ndarray,
    fit_minutes: float = 0.0,
    metadata: dict | None = None,
) -> EvalReport:
    """Full report: confusion counts, scalar metrics, and both curves."""
    counts = confusion_from_arrays(predictions, labels)
    precision, recall, f1, accuracy = scalar_metrics(counts)
    roc_points, auc_roc = roc_curve(scores, labels)
    pr_points, auc_pr = pr_curve(scores, labels)
    return EvalReport(
        counts=counts,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        auc_roc=auc_roc,
        auc_pr=auc_pr,
        roc_points=tuple(roc_points),
        pr_points=tuple(pr_points),
        fit_minutes=fit_minutes,
        metadata=metadata or {},
    )


def curve_to_csv(points: Sequence[tuple[float, float]], path, header: tuple[str, str]) -> None:
    """Two-column CSV export for plotting; each value is written as its
    `repr`."""
    xs, ys = _point_texts(points, repr)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        fh.writelines(map("{},{}\n".format, xs, ys))


def float_reprs(values) -> list[str]:
    """`repr(float(v))` for each value of a 1-D float64 array or a sequence
    of floats, with `repr` called once per distinct value. Values are told
    apart by bit pattern, not by `==`, so -0.0 and 0.0 keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _point_texts(points, text_of) -> tuple[list[str], list[str]]:
    """The texts of the first and of the second coordinates of 2-D points.
    Finite floats go through `float_reprs` when every value is an exact
    float; every other value is formatted by `text_of` itself, since JSON
    writes NaN and the infinities unlike `repr`."""
    if not points:
        return [], []
    if set(map(len, points)) != {2}:
        raise ValueError("curve points must have two coordinates")
    xs, ys = zip(*points)
    values = xs + ys
    if set(map(type, values)) == {float}:
        array = np.array(values, dtype=np.float64)
        texts = float_reprs(array)
        odd = np.flatnonzero(~np.isfinite(array)).tolist()
    else:
        texts = [None] * len(values)
        odd = range(len(values))
    for i in odd:
        texts[i] = text_of(values[i])
    return texts[: len(xs)], texts[len(xs) :]


def _nested_json(value) -> str:
    """`value` as `json.dumps` with `indent=2` writes it one level down."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _curve_json(points: list) -> str:
    """`_nested_json(points)` for a curve, a list of points, written as one
    block of text when every point is a pair."""
    if not points or set(map(len, points)) != {2}:
        return _nested_json(points)
    xs, ys = _point_texts(points, json.dumps)
    body = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(xs, ys)))
    return "[\n    [\n      " + body + "\n    ]\n  ]"
