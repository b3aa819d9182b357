#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; needs numpy, not coverml.

    python3 bench/selftest.py

Builds one correct evaluation output by hand (the Bayes-optimal scores of
generated rows, their report and predictions file), shows that every check
accepts it, and then that each check rejects a deliberately wrong variant.
Exits non-zero if any check accepts a wrong output or rejects the right one.
"""

from __future__ import annotations

import copy
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import gen

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok     " if ok else "FAILED ") + what)
    if not ok:
        failures.append(what)


def rejects(what: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckError as exc:
        expect(True, f"{what}: {exc}")
    else:
        expect(False, f"{what}: accepted")


def accepts(what: str, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckError as exc:
        expect(False, f"{what}: {exc}")
    else:
        expect(True, what)


def make_report(scores: np.ndarray, labels: np.ndarray, pred: np.ndarray) -> dict:
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ends = np.nonzero(np.append(s[:-1] != s[1:], True))[0]
    tpr = np.concatenate(([0.0], np.cumsum(y)[ends] / y.sum()))
    fpr = np.concatenate(([0.0], np.cumsum(1 - y)[ends] / (y.size - y.sum())))
    counts = {
        "tp": int(((pred == 1) & (labels == 1)).sum()),
        "fp": int(((pred == 1) & (labels == 0)).sum()),
        "tn": int(((pred == 0) & (labels == 0)).sum()),
        "fn": int(((pred == 0) & (labels == 1)).sum()),
    }
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return {"counts": counts, "auc_roc": auc, "roc_points": [[a, b] for a, b in zip(fpr, tpr)]}


def write_predictions(path: Path, pred, labels) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("features,prediction,trueLabel\n")
        for p, y in zip(pred, labels):
            fh.write(f'"[0.0]",{float(p)!r},{float(y)!r}\n')


def main() -> int:
    rng = np.random.default_rng(7)
    labels, cells = gen.sample("cv-trees", 600, rng)
    scores = gen.bayes_log_odds("cv-trees", cells)
    pred = (scores > 0).astype(np.int64)
    bayes = gen.rank_auc(scores, labels)

    small_s, small_y = np.round(scores[:60], 1), labels[:60]
    pairs = [(a > b) + 0.5 * (a == b) for a, b in itertools.product(small_s[small_y == 1], small_s[small_y == 0])]
    expect(abs(gen.rank_auc(small_s, small_y) - np.mean(pairs)) < 1e-12, "rank_auc equals the pairwise count")

    report = make_report(scores, labels, pred)
    expect(abs(report["auc_roc"] - bayes) < 1e-12, "trapezoid AUC equals the rank-sum AUC")
    with tempfile.TemporaryDirectory() as tmp:
        good = Path(tmp) / "good.csv"
        write_predictions(good, pred, labels)
        p, y = checks.read_predictions(good)
        accepts("confusion of the right output", checks.check_confusion, report, p, y)
        flipped = pred.copy()
        flipped[3] = 1 - flipped[3]
        bad = Path(tmp) / "bad.csv"
        write_predictions(bad, flipped, labels)
        rejects("confusion with one prediction flipped", checks.check_confusion, report, *checks.read_predictions(bad))

    accepts("ROC of the right output", checks.check_roc, report)
    off = dict(report, auc_roc=report["auc_roc"] + 1e-6)
    rejects("ROC with auc_roc off by 1e-6", checks.check_roc, off)
    swapped = copy.deepcopy(report)
    swapped["roc_points"][5], swapped["roc_points"][6] = swapped["roc_points"][6], swapped["roc_points"][5]
    rejects("ROC with two points swapped", checks.check_roc, swapped)
    short = copy.deepcopy(report)
    short["roc_points"] = short["roc_points"][:-1]
    rejects("ROC that stops before (1,1)", checks.check_roc, short)

    accepts("AUC bounds of the Bayes-optimal scores", checks.check_auc_bounds, report, bayes)
    rejects("AUC at chance", checks.check_auc_bounds, dict(report, auc_roc=0.52), bayes)
    rejects("AUC above the Bayes AUC", checks.check_auc_bounds, dict(report, auc_roc=min(1.0, bayes + 0.1)), bayes)

    n = labels.size
    accepts("rows with none dropped", checks.check_rows, report, n, n, 0)
    accepts("rows with the planted rows dropped", checks.check_rows, report, n, n + 12, 12)
    rejects("rows dropped with none planted", checks.check_rows, report, n, n + 1, 0)
    rejects("more rows scored than submitted", checks.check_rows, report, n, n - 1, 0)
    rejects("predictions file shorter than the report", checks.check_rows, report, n - 1, n, 0)
    accepts("labels of the unplanted rows", checks.check_dropped_labels, labels, labels)
    rejects("labels of other rows", checks.check_dropped_labels, labels, np.append(labels[1:], 1 - labels[0]))

    same = {"model.bin": "a", "report.json": "b"}
    accepts("identical units", checks.check_identical, [same, dict(same)])
    rejects("a report that changed between units", checks.check_identical, [same, dict(same, **{"report.json": "c"})])

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
