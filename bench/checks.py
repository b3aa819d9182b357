"""Output checks run in every benchmark run.

Each check compares the program's output with a computation made apart from
the program, or with a property the method must have; none compares with a
stored copy of earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import math

import numpy as np

#: Standard errors allowed on either side of the AUC bounds.
Z = 3.0


class CheckError(Exception):
    pass


def read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    """(prediction, trueLabel) columns of a predictions CSV as 0/1 ints."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if header != ["features", "prediction", "trueLabel"]:
            raise CheckError(f"{path}: unexpected header {header}")
        pairs = [(float(r[1]), float(r[2])) for r in rows]
    arr = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise CheckError(f"{path}: prediction or trueLabel outside {{0, 1}}")
    return arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64)


def check_confusion(report: dict, pred: np.ndarray, label: np.ndarray) -> None:
    recount = {
        "tp": int(((pred == 1) & (label == 1)).sum()),
        "fp": int(((pred == 1) & (label == 0)).sum()),
        "tn": int(((pred == 0) & (label == 0)).sum()),
        "fn": int(((pred == 0) & (label == 1)).sum()),
    }
    if recount != report["counts"]:
        raise CheckError(f"report counts {report['counts']} differ from the predictions recount {recount}")


def check_roc(report: dict) -> None:
    pts = np.asarray(report["roc_points"], dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise CheckError("roc_points is not a list of at least two (fpr, tpr) pairs")
    first, last = tuple(pts[0].tolist()), tuple(pts[-1].tolist())
    if first != (0.0, 0.0) or last != (1.0, 1.0):
        raise CheckError(f"ROC runs from {first} to {last}, not (0,0) to (1,1)")
    if (np.diff(pts, axis=0) < 0).any():
        raise CheckError("ROC points are not monotone")
    area = float(np.sum(np.diff(pts[:, 0]) * (pts[1:, 1] + pts[:-1, 1]) / 2.0))
    if abs(area - report["auc_roc"]) > 1e-9:
        raise CheckError(f"auc_roc {report['auc_roc']!r} differs from the re-integrated area {area!r}")


def auc_standard_error(auc: float, n_pos: int, n_neg: int) -> float:
    """Hanley and McNeil (1982) standard error of an AUC estimate."""
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = auc * (1 - auc) + (n_pos - 1) * (q1 - auc * auc) + (n_neg - 1) * (q2 - auc * auc)
    return math.sqrt(max(var, 0.0) / (n_pos * n_neg))


def check_auc_bounds(report: dict, bayes_auc: float) -> None:
    """Above chance by more than Z null standard errors, and no higher than
    the Bayes-optimal AUC of the same rows plus Z of its standard errors."""
    c = report["counts"]
    n_pos, n_neg = c["tp"] + c["fn"], c["fp"] + c["tn"]
    if n_pos == 0 or n_neg == 0:
        raise CheckError("held-out rows hold a single class")
    auc = report["auc_roc"]
    se_null = math.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))
    if auc - 0.5 <= Z * se_null:
        raise CheckError(f"auc_roc {auc:.4f} is within {Z} standard errors ({se_null:.4f}) of chance")
    ceiling = bayes_auc + Z * auc_standard_error(bayes_auc, n_pos, n_neg)
    if auc > ceiling:
        raise CheckError(f"auc_roc {auc:.4f} exceeds the Bayes AUC {bayes_auc:.4f} plus {Z} standard errors")


def check_rows(report: dict, n_predictions: int, submitted: int, planted: int) -> int:
    """Rows scored plus rows dropped equals rows submitted, with no more rows
    dropped than were planted to be dropped. Returns the rows dropped."""
    scored = sum(report["counts"].values())
    if n_predictions != scored:
        raise CheckError(f"{n_predictions} prediction rows but {scored} rows in the report")
    dropped = submitted - scored
    if dropped < 0:
        raise CheckError(f"{scored} rows scored of {submitted} submitted")
    if dropped > planted:
        raise CheckError(f"{dropped} of {submitted} rows dropped, only {planted} planted")
    return dropped


def check_dropped_labels(scored_labels: np.ndarray, kept_labels: np.ndarray) -> None:
    """When every planted row was dropped, the scored rows carry the labels of
    exactly the rows that were not planted."""
    got = np.bincount(scored_labels, minlength=2).tolist()
    want = np.bincount(kept_labels, minlength=2).tolist()
    if got != want:
        raise CheckError(f"scored label counts {got} are not those of the unplanted rows {want}")


def check_identical(digests: list[dict]) -> None:
    """Every unit wrote the same bytes to each output file."""
    for i, d in enumerate(digests[1:], start=1):
        for name, digest in d.items():
            if digest != digests[0][name]:
                raise CheckError(f"{name} differs between unit 0 and unit {i}")
