"""Confusion metrics, ROC and PR curves with areas, and the report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class MetricError(ValueError):
    """Malformed input for a metric (mismatched lengths, non-finite scores,
    labels other than 0/1) or degenerate input (empty, or single-class where
    both classes are needed)."""


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
    if predictions.shape != labels.shape:
        raise MetricError(f"predictions of shape {predictions.shape} but labels of shape {labels.shape}")
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


def _sweep(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) after each distinct descending score, ties grouped;
    the last entries are the positive and negative totals."""
    scores, labels = _coerce_scores(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    ends = np.nonzero(np.append(s[:-1] != s[1:], True))[0]
    tp = np.cumsum(y)[ends]
    fp = np.cumsum(1 - y)[ends]
    return tp, fp


def _coerce_scores(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Finite float64 scores and 0/1 int64 labels, one of each per row."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise MetricError("scores and labels must be one-dimensional")
    if scores.size != labels.size:
        raise MetricError(f"{scores.size} scores but {labels.size} labels")
    if scores.size == 0:
        raise MetricError("no rows")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    if not ((labels == 0) | (labels == 1)).all():
        raise MetricError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def roc_curve(scores, labels) -> tuple[np.ndarray, float]:
    """(FPR, TPR) points from (0,0) to (1,1), as a read-only `(m, 2)`
    float64 array, and the trapezoid area.

    Ties collapse to one threshold step so the area equals the pairwise
    concordance probability with half-credit for tied pairs. Single-class
    input is an error: the area is undefined.
    """
    return _roc(*_sweep(scores, labels))


def pr_curve(scores, labels) -> tuple[np.ndarray, float]:
    """(recall, precision) points from (0,1), as a read-only `(m, 2)`
    float64 array, and the average-precision area.

    The area is the step-wise sum (R_i - R_{i-1}) * P_i over descending-score
    threshold steps; no linear interpolation.
    """
    return _pr(*_sweep(scores, labels))


def _roc(tp: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, float]:
    P, N = tp[-1], fp[-1]
    if P == 0 or N == 0:
        raise MetricError("ROC needs at least one positive and one negative label")
    tpr = np.concatenate(([0.0], tp / P))
    fpr = np.concatenate(([0.0], fp / N))
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return read_only(np.column_stack((fpr, tpr))), auc


def _pr(tp: np.ndarray, fp: np.ndarray) -> tuple[np.ndarray, float]:
    P = tp[-1]
    if P == 0:
        raise MetricError("PR needs at least one positive label")
    recall = tp / P
    precision = tp / (tp + fp)
    auc = float(np.sum((recall - np.concatenate(([0.0], recall[:-1]))) * precision))
    points = np.column_stack((np.concatenate(([0.0], recall)), np.concatenate(([1.0], precision))))
    return read_only(points), auc


def read_only(array: np.ndarray) -> np.ndarray:
    """`array`, made read-only in place."""
    array.flags.writeable = False
    return array


#: How `json.dumps` writes the floats whose `repr` is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_CURVES = ("roc_points", "pr_points")


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Evaluation report, written and never read back. `roc_points` and
    `pr_points` are `(m, 2)` float64 arrays."""

    counts: ConfusionCounts
    precision: float
    recall: float
    f1: float
    accuracy: float
    auc_roc: float
    auc_pr: float
    roc_points: np.ndarray
    pr_points: np.ndarray
    fit_minutes: float = 0.0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return self._dict(self.roc_points.tolist(), self.pr_points.tolist())

    def _dict(self, roc_points, pr_points) -> dict:
        return {
            "counts": {"tp": self.counts.tp, "fp": self.counts.fp, "tn": self.counts.tn, "fn": self.counts.fn},
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "auc_roc": self.auc_roc,
            "auc_pr": self.auc_pr,
            "roc_points": roc_points,
            "pr_points": pr_points,
            "fit_minutes": self.fit_minutes,
            "metadata": dict(self.metadata),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2)`, with the two curves written
        as blocks of text rather than through the pure-Python encoder that
        `indent` selects. The four coordinate columns are rendered by one
        `float_reprs` call, so a value shared by both curves (ROC tpr and PR
        recall are both tp / P) is formatted once."""
        roc, pr = self.roc_points, self.pr_points
        columns = np.concatenate((roc[:, 0], roc[:, 1], pr[:, 0], pr[:, 1]))
        texts = float_reprs(columns)
        for i in np.flatnonzero(~np.isfinite(columns)).tolist():
            texts[i] = _JSON_NONFINITE[texts[i]]
        m, k = len(roc), 2 * len(roc) + len(pr)
        doc = self._dict(_curve_pieces(texts[:m], texts[m : 2 * m]), _curve_pieces(texts[2 * m : k], texts[k:]))
        pieces = ["{\n"]
        for key, value in doc.items():
            pieces.append(f"  {json.dumps(key)}: ")
            if key in _CURVES:
                pieces.extend(value)
            else:
                pieces.append(_nested_json(value))
            pieces.append(",\n")
        pieces[-1] = "\n}"
        return "".join(pieces)


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    predictions: np.ndarray,
    fit_minutes: float = 0.0,
    metadata: dict | None = None,
) -> EvalReport:
    """Full report: confusion counts, scalar metrics, and both curves, which
    share one threshold sweep."""
    counts = confusion_from_arrays(predictions, labels)
    precision, recall, f1, accuracy = scalar_metrics(counts)
    tp, fp = _sweep(scores, labels)
    roc_points, auc_roc = _roc(tp, fp)
    pr_points, auc_pr = _pr(tp, fp)
    return EvalReport(
        counts=counts,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=accuracy,
        auc_roc=auc_roc,
        auc_pr=auc_pr,
        roc_points=roc_points,
        pr_points=pr_points,
        fit_minutes=fit_minutes,
        metadata=metadata or {},
    )


def curve_to_csv(points, path, header: tuple[str, str]) -> None:
    """Two-column CSV export of an `(m, 2)` curve for plotting; each value is
    written as its `repr`."""
    texts = float_reprs(points.ravel())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        fh.writelines(map("{},{}\n".format, texts[0::2], texts[1::2]))


def float_reprs(values) -> list[str]:
    """`repr(float(v))` for each value of a 1-D float64 array or a sequence
    of floats, with `repr` called once per distinct value. Values are told
    apart by bit pattern, not by `==`, so -0.0 and 0.0 keep their own texts."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _nested_json(value) -> str:
    """`value` as `json.dumps` with `indent=2` writes it one level down. A
    scalar, or an object of scalars under text keys, is written with the C
    encoder: the pure-Python encoder that `indent` selects leaves reference
    cycles behind, which only the cyclic garbage collector frees."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if isinstance(value, dict) and value and all(
        isinstance(k, str) and not isinstance(v, (dict, list, tuple)) for k, v in value.items()
    ):
        return "{\n    " + ",\n    ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()) + "\n  }"
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _curve_pieces(xs: list[str], ys: list[str]) -> list[str]:
    """The texts whose join is `_nested_json` of a curve, given the JSON
    texts of its coordinates; the document is joined once, with no string
    per point."""
    if not xs:
        return ["[]"]
    pieces = ["\n    ],\n    [\n      "] * (4 * len(xs) + 1)
    pieces[0] = "[\n    [\n      "
    pieces[1::4] = xs
    pieces[2::4] = [",\n      "] * len(xs)
    pieces[3::4] = ys
    pieces[-1] = "\n    ]\n  ]"
    return pieces
