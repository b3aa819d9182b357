import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverml.metrics import (
    ConfusionCounts,
    EvalReport,
    MetricError,
    confusion_from_arrays,
    curve_to_csv,
    evaluate_scores,
    pr_curve,
    roc_curve,
    scalar_metrics,
    timed_fit,
)

from helpers import concordance_auc

REFERENCE_COUNTS = ConfusionCounts(tp=11699, fp=2713, tn=0, fn=3)


class TestConfusion:
    def test_reference_counts_fixture(self):
        predictions = np.array([1] * 11699 + [1] * 2713 + [0] * 3)
        labels = np.array([1] * 11699 + [0] * 2713 + [1] * 3)
        assert confusion_from_arrays(predictions, labels) == REFERENCE_COUNTS
        assert REFERENCE_COUNTS.total == 14415

    def test_all_correct_balanced(self):
        c = confusion_from_arrays(np.array([1, 1, 0, 0]), np.array([1, 1, 0, 0]))
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 2, 0)

    def test_order_invariance(self):
        predictions = np.array([1, 0, 1, 0])
        labels = np.array([1, 0, 0, 1])
        shuffled = [2, 0, 3, 1]
        assert confusion_from_arrays(predictions, labels) == confusion_from_arrays(
            predictions[shuffled], labels[shuffled]
        )

    def test_empty_errors(self):
        with pytest.raises(MetricError):
            confusion_from_arrays(np.array([]), np.array([]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestScalarMetrics:
    def test_reference_precision_recall(self):
        precision, recall, _, _ = scalar_metrics(REFERENCE_COUNTS)
        assert abs(precision - 0.8117540938107133) < 1e-12
        assert abs(recall - 0.9997436335669116) < 1e-12

    def test_reference_accuracy_and_f1(self):
        precision, recall, f1, accuracy = scalar_metrics(REFERENCE_COUNTS)
        # hand arithmetic from the counts: f1 = 2PR/(P+R) reduces to
        # 2*11699/(14412+11702) because both P and R share the numerator
        assert accuracy == 11699 / 14415
        assert f1 == 2 * precision * recall / (precision + recall)
        assert abs(accuracy - 0.811585) < 1e-6
        assert abs(f1 - 2 * 11699 / 26114) < 1e-12

    def test_perfect_classifier(self):
        assert scalar_metrics(ConfusionCounts(5, 0, 7, 0)) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominator_conventions(self):
        # no predicted positives: precision defaults to 1.0
        p, r, f1, acc = scalar_metrics(ConfusionCounts(0, 0, 4, 2))
        assert p == 1.0 and r == 0.0 and f1 == 0.0
        # no actual positives: recall defaults to 1.0
        p, r, f1, acc = scalar_metrics(ConfusionCounts(0, 3, 5, 0))
        assert r == 1.0 and p == 0.0

    def test_all_zero_counts(self):
        with pytest.raises(MetricError):
            scalar_metrics(ConfusionCounts(0, 0, 0, 0))


class TestRoc:
    def test_hand_fixture(self):
        # 3 positives x 1 negative: two concordant pairs, one discordant
        _, auc = roc_curve([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 1])
        assert abs(auc - 2 / 3) < 1e-12

    def test_perfect_ranking(self):
        _, auc = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0

    def test_all_ties(self):
        _, auc = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auc == 0.5

    def test_single_class_errors(self):
        with pytest.raises(MetricError):
            roc_curve([0.5, 0.6], [1, 1])
        with pytest.raises(MetricError):
            roc_curve([0.5, 0.6], [0, 0])

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        scores = np.round(rng.random(50), 1)
        labels = rng.integers(0, 2, size=50)
        points, _ = roc_curve(scores, labels)
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
        fpr = [p[0] for p in points]
        tpr = [p[1] for p in points]
        assert fpr == sorted(fpr) and tpr == sorted(tpr)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_pairwise_concordance(self, data):
        n = data.draw(st.integers(2, 60))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if labels.min() == labels.max():
            return
        # coarse scores inject plenty of ties
        scores = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
        _, auc = roc_curve(scores, labels)
        assert abs(auc - concordance_auc(scores, labels)) < 1e-9

    def test_negating_scores_flips_auc(self):
        rng = np.random.default_rng(1)
        scores = np.round(rng.random(80), 2)
        labels = rng.integers(0, 2, size=80)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_curve(scores, labels)
        _, flipped = roc_curve(-scores, labels)
        assert abs((1.0 - auc) - flipped) < 1e-12


class TestPr:
    def test_perfect_ranking(self):
        _, ap = pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert ap == 1.0

    def test_constant_scores_give_positive_rate(self):
        _, ap = pr_curve([0.5] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        assert ap == pytest.approx(0.3, abs=1e-12)

    def test_hand_fixture(self):
        # threshold sweep: (1/3)*1 + (1/3)*1 + 0 + (1/3)*(3/4) = 11/12
        _, ap = pr_curve([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 1])
        assert abs(ap - 11 / 12) < 1e-12

    def test_zero_positives_errors(self):
        with pytest.raises(MetricError):
            pr_curve([0.4, 0.6], [0, 0])

    def test_points_start_at_full_precision(self):
        points, _ = pr_curve([0.9, 0.1], [1, 0])
        assert points[0] == (0.0, 1.0)
        assert points[-1][0] == 1.0


class TestDuplicationInvariance:
    def test_all_metrics_stable_under_row_duplication(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.random(40), 1)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        preds = (scores > 0.5).astype(int)
        single = evaluate_scores(scores, labels, preds)
        doubled = evaluate_scores(
            np.concatenate([scores, scores]),
            np.concatenate([labels, labels]),
            np.concatenate([preds, preds]),
        )
        for fieldname in ("precision", "recall", "f1", "accuracy", "auc_roc", "auc_pr"):
            assert getattr(single, fieldname) == pytest.approx(getattr(doubled, fieldname), abs=1e-12)


class TestTimedFit:
    def test_noop_duration(self):
        value, minutes = timed_fit(lambda: "ok")
        assert value == "ok"
        assert 0.0 <= minutes < 0.01

    def test_sleep_duration_within_bounds(self):
        _, minutes = timed_fit(lambda: time.sleep(0.05))
        assert 0.0008 <= minutes <= 0.01

    def test_independent_measurements(self):
        _, first = timed_fit(lambda: time.sleep(0.05))
        _, second = timed_fit(lambda: None)
        assert second < first

    def test_errors_propagate(self):
        with pytest.raises(RuntimeError):
            timed_fit(lambda: (_ for _ in ()).throw(RuntimeError("fit failed")))


class TestEvalReport:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        report = evaluate_scores(scores, labels, (scores > 0.5).astype(int), fit_minutes=1.25)
        back = EvalReport.from_dict(json.loads(report.to_json()))
        assert back == report

    def test_metrics_recomputable_from_counts(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        report = evaluate_scores(scores, labels, (scores > 0.5).astype(int))
        assert scalar_metrics(report.counts) == (
            report.precision,
            report.recall,
            report.f1,
            report.accuracy,
        )

    def test_curve_csv_export(self, tmp_path):
        points = [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]
        path = tmp_path / "roc.csv"
        curve_to_csv(points, path, ("fpr", "tpr"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 4
