import json

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

    @pytest.mark.parametrize(
        "predictions, labels",
        [([1], [1, 0, 1]), ([1, 0, 1], [1, 0]), ([[1, 0]], [1, 0])],
    )
    def test_mismatched_shapes_rejected(self, predictions, labels):
        # [1] against three labels used to broadcast into counts for three rows
        with pytest.raises(MetricError):
            confusion_from_arrays(np.array(predictions), np.array(labels))

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
        assert points.dtype == np.float64 and points.shape[1] == 2 and not points.flags.writeable
        assert points[0].tolist() == [0.0, 0.0] and points[-1].tolist() == [1.0, 1.0]
        fpr = points[:, 0].tolist()
        tpr = points[:, 1].tolist()
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
        assert points.dtype == np.float64 and not points.flags.writeable
        assert points[0].tolist() == [0.0, 1.0]
        assert points[-1, 0] == 1.0


class TestMetricInputs:
    """Both curves reject malformed input with `MetricError`: labels are not
    cut to the scores' length, and no NaN score or non-0/1 label yields an
    area."""

    @pytest.mark.parametrize("curve", [roc_curve, pr_curve])
    @pytest.mark.parametrize(
        "scores, labels",
        [
            ([0.1, 0.2], [1, 0, 1]),
            ([0.1, 0.2, 0.3], [1, 0]),
            ([[0.1, 0.2], [0.3, 0.4]], [[1, 0], [0, 1]]),
            ([[0.1, 0.2, 0.3]], [1, 0, 1]),
            ([0.1, 0.2, 0.3], [[1, 0, 1]]),
            ([0.1, float("nan"), 0.3], [1, 0, 1]),
            ([0.1, float("inf"), 0.3], [1, 0, 1]),
            ([0.1, 0.2, -float("inf")], [1, 0, 1]),
            ([0.1, 0.2, 0.3], [2, 0, 1]),
            ([0.1, 0.2, 0.3], [-1, 0, 1]),
            ([0.1, 0.2, 0.3], [0.5, 0, 1]),
            ([], []),
        ],
    )
    def test_malformed_input_raises(self, curve, scores, labels):
        with pytest.raises(MetricError):
            curve(scores, labels)

    def test_boolean_and_float_labels_accepted(self):
        scores = [0.9, 0.8, 0.4, 0.3]
        expected = roc_curve(scores, [1, 1, 0, 1])
        for labels in ([True, True, False, True], [1.0, 1.0, 0.0, 1.0]):
            points, auc = roc_curve(scores, labels)
            assert points.tobytes() == expected[0].tobytes() and auc == expected[1]

    def test_evaluate_scores_rejects_nan_score(self):
        with pytest.raises(MetricError):
            evaluate_scores(np.array([0.1, np.nan]), np.array([0, 1]), np.array([0, 1]))


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


class TestEvalReport:
    def test_curves_are_the_curve_functions_bit_for_bit(self):
        rng = np.random.default_rng(6)
        scores = np.round(rng.random(500), 2)
        labels = rng.integers(0, 2, size=500)
        labels[:2] = [0, 1]
        report = evaluate_scores(scores, labels, (scores > 0.5).astype(int))
        roc_points, auc_roc = roc_curve(scores, labels)
        pr_points, auc_pr = pr_curve(scores, labels)
        assert report.roc_points.tobytes() == roc_points.tobytes()
        assert report.pr_points.tobytes() == pr_points.tobytes()
        assert report.roc_points.shape == roc_points.shape and report.pr_points.shape == pr_points.shape
        assert (report.auc_roc, report.auc_pr) == (auc_roc, auc_pr)
        assert not report.roc_points.flags.writeable and not report.pr_points.flags.writeable

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
        points = np.array([(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)])
        path = tmp_path / "roc.csv"
        curve_to_csv(points, path, ("fpr", "tpr"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 4


def report_with(roc_points, pr_points=((0.0, 1.0),), metadata=None):
    """A report whose curves are the float64 `(m, 2)` arrays of the given
    points, as `evaluate_scores` makes them."""
    roc_points, pr_points = (np.array(p, dtype=np.float64).reshape(-1, 2) for p in (roc_points, pr_points))
    return EvalReport(
        counts=ConfusionCounts(tp=3, fp=1, tn=2, fn=0),
        precision=0.75,
        recall=1.0,
        f1=6.75e-05,
        accuracy=float("nan"),
        auc_roc=1e-300,
        auc_pr=-0.0,
        roc_points=roc_points,
        pr_points=pr_points,
        fit_minutes=0.0,
        metadata=metadata or {},
    )


class TestReportEncoding:
    """`to_json` writes the curves as blocks of text; `json.dumps` of
    `to_dict` with indent=2 is the reference."""

    @pytest.mark.parametrize(
        "roc_points, pr_points, metadata",
        [
            ((), (), None),
            (((0.0, 0.0),), ((1.0, 1.0),), None),
            (((0, 1), (1, 1)), ((0.5, 1),), None),
            (((-0.0, 0.0), (0.0, -0.0)), ((0.0, 1.0),), None),
            (((6.75e-05, 1e-300), (1e22, 1e16), (0.1, 1 / 3)), ((0.0, 1.0),), None),
            (((float("nan"), 0.0), (float("inf"), -float("inf"))), ((1.0, float("nan")),), None),
            (((0.0, 0.0), (1.0, 1.0)), (), {"family": "rf", "nested": {"a": [1, 2.5, None], "b": {}}}),
            (((0.0, 0.0),), ((1.0, 1.0),), {"name": "Café ☂ \"q\" \n", "in_sample": True}),
            (((np.float64(0.25), 0.5), (np.int64(1), 2)), ((1.0, 1.0),), None),
            (np.array([[0.5, 0.25], [0.25, 0.5]]), np.array([[0.25, 0.25]]), None),
            (np.zeros((0, 2)), np.array([[1, 1], [0, 1]]), None),
            (((0.0, 0.0),), ((1.0, 1.0),), {1: "int key", "x": 2.5}),
            (((0.0, 0.0),), ((1.0, 1.0),), {"pair": (1, 2), "none": None, "nan": float("nan")}),
            (((0.0, 0.0),), ((1.0, 1.0),), {"none": None, "nan": float("nan"), "big": 10**30, "f": False}),
        ],
    )
    def test_matches_json_dumps(self, roc_points, pr_points, metadata):
        report = report_with(roc_points, pr_points, metadata)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    def test_encoding_leaves_no_reference_cycles(self):
        import gc

        report = report_with(((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.5),), {"family": "rf", "in_sample": False})
        gc.collect()
        gc.disable()
        try:
            report.to_json()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_evaluated_report_matches_json_dumps(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.random(400), 2)
        labels = rng.integers(0, 2, size=400)
        labels[:2] = [0, 1]
        report = evaluate_scores(scores, labels, (scores > 0.5).astype(int), metadata={"seed": 5})
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True),
                st.one_of(st.floats(), st.integers(-3, 3)),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_points_match_json_dumps(self, points):
        report = report_with(points, points[::-1])
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_array_curves_match_json_dumps(self, data):
        """Edge floats, repeated within a curve and shared by both curves,
        must get the same texts as the encoder's, whichever curve and column
        the one `repr` of a value was made for."""
        edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 0.1, 1 / 3, 1.0,
                                float("nan"), float("inf"), -float("inf")])
        value = st.one_of(edge, st.floats())
        roc = np.array(data.draw(st.lists(value, max_size=16)), dtype=np.float64)
        roc = roc[: roc.size // 2 * 2].reshape(-1, 2)
        shared = data.draw(st.lists(st.sampled_from(roc.ravel().tolist() or [0.0]), max_size=8))
        pr_values = shared + data.draw(st.lists(value, max_size=8))
        pr = np.array(data.draw(st.permutations(pr_values)), dtype=np.float64)
        pr = pr[: pr.size // 2 * 2].reshape(-1, 2)
        report = report_with(roc, pr)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)
        back = json.loads(report.to_json())
        for name in ("roc_points", "pr_points"):
            curve = np.array(back[name], dtype=np.float64).reshape(-1, 2)
            assert np.array_equal(curve, getattr(report, name), equal_nan=True)

    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)],
            [(-0.0, 0.0), (6.75e-05, 1e-300), (float("nan"), float("inf")), (0, 1), (0.1, 0.1)],
        ],
    )
    def test_curve_csv_matches_per_point_loop(self, tmp_path, points):
        points = np.array(points, dtype=np.float64).reshape(-1, 2)
        curve_to_csv(points, tmp_path / "curve.csv", ("fpr", "tpr"))
        expected = "fpr,tpr\n" + "".join(f"{a!r},{b!r}\n" for a, b in points.tolist())
        assert (tmp_path / "curve.csv").read_text(encoding="utf-8") == expected
