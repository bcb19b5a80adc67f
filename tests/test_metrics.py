import json

import numpy as np
import pytest

from opscan import metrics as M

from ref_eval import HEADLINE, HEADLINE_TOL_PP, REF_CM, auc_by_pair_counting, exact_metrics


def random_cm(rng, k=4, high=1000):
    return rng.integers(0, high, size=(k, k)).astype(np.int64)


class TestConfusion:
    def test_counts_by_actual_row(self):
        cm = M.confusion_matrix(predicted=[0, 1, 1, 3], actual=[0, 0, 1, 1])
        assert cm[0, 0] == 1 and cm[0, 1] == 1
        assert cm[1, 1] == 1 and cm[1, 3] == 1
        assert cm.sum() == 4

    def test_row_sums_are_supports(self):
        rng = np.random.default_rng(0)
        actual = rng.integers(0, 4, 500)
        predicted = rng.integers(0, 4, 500)
        cm = M.confusion_matrix(predicted, actual)
        assert np.array_equal(cm.sum(axis=1), np.bincount(actual, minlength=4))
        assert np.array_equal(cm.sum(axis=0), np.bincount(predicted, minlength=4))


class TestReferenceMatrix:
    """The frozen 4-class fixture must reproduce its headline percentages."""

    cm = np.array(REF_CM)

    def test_against_exact_arithmetic(self):
        exact = exact_metrics()
        assert M.accuracy(self.cm) == pytest.approx(float(exact["accuracy"]), abs=1e-12)
        np.testing.assert_allclose(
            M.recall_per_class(self.cm), [float(x) for x in exact["recall"]], atol=1e-12
        )
        np.testing.assert_allclose(
            M.precision_per_class(self.cm), [float(x) for x in exact["precision"]], atol=1e-12
        )
        prec = M.precision_per_class(self.cm)
        rec = M.recall_per_class(self.cm)
        np.testing.assert_allclose(
            M.f_beta_per_class(prec, rec), [float(x) for x in exact["fbeta"]], atol=1e-12
        )

    def test_headline_percentages(self):
        rep = M.report(self.cm)
        assert abs(rep.accuracy * 100 - HEADLINE["accuracy"]) <= HEADLINE_TOL_PP
        for i, c in enumerate(rep.per_class):
            assert abs(c.recall * 100 - HEADLINE["recall"][i]) <= HEADLINE_TOL_PP
            assert abs(c.precision * 100 - HEADLINE["precision"][i]) <= HEADLINE_TOL_PP
            assert abs(c.fbeta * 100 - HEADLINE["fbeta"][i]) <= HEADLINE_TOL_PP
        assert abs(rep.weighted["recall"] * 100 - HEADLINE["weighted_recall"]) <= HEADLINE_TOL_PP
        assert (
            abs(rep.weighted["precision"] * 100 - HEADLINE["weighted_precision"])
            <= HEADLINE_TOL_PP
        )
        assert abs(rep.weighted["fbeta"] * 100 - HEADLINE["weighted_fbeta"]) <= HEADLINE_TOL_PP

    def test_supports(self):
        rep = M.report(self.cm)
        assert [c.support for c in rep.per_class] == [870, 220, 181, 4860]


class TestWeighted:
    def test_single_class_passthrough(self):
        assert M.weighted([0.7], [13]) == pytest.approx(0.7)

    def test_equal_supports_is_plain_mean(self):
        vals = [0.1, 0.5, 0.9, 0.3]
        assert M.weighted(vals, [7, 7, 7, 7]) == pytest.approx(np.mean(vals))

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            cm = random_cm(rng)
            if cm.sum() == 0:
                continue
            acc = M.accuracy(cm)
            wrec = M.weighted(M.recall_per_class(cm), cm.sum(axis=1))
            assert abs(wrec - acc) <= 1e-12


class TestFBeta:
    def test_equal_p_r(self):
        np.testing.assert_allclose(M.f_beta_per_class([0.6], [0.6]), [0.6])

    def test_zero_denominator_gives_zero(self):
        np.testing.assert_array_equal(M.f_beta_per_class([0.0], [0.0]), [0.0])

    def test_hand_value(self):
        # 2 * .5 * .25 / .75
        np.testing.assert_allclose(M.f_beta_per_class([0.5], [0.25]), [1 / 3])

    def test_beta_weights_recall(self):
        f2 = M.f_beta_per_class([0.5], [1.0], beta=2.0)[0]
        f1 = M.f_beta_per_class([0.5], [1.0], beta=1.0)[0]
        assert f2 > f1

    def test_bounded_by_min_max(self):
        rng = np.random.default_rng(3)
        p = rng.random(100)
        r = rng.random(100)
        fb = M.f_beta_per_class(p, r)
        lo = np.minimum(p, r)
        hi = np.maximum(p, r)
        assert np.all(fb >= lo - 1e-12) and np.all(fb <= hi + 1e-12)


class TestZeroDivisionFlags:
    def test_empty_row_flags(self):
        cm = np.array([[5, 0], [0, 0]])
        rep = M.report(cm)
        assert rep.per_class[1].recall == 0.0
        assert "no_actual_samples" in rep.per_class[1].flags

    def test_never_predicted_flags(self):
        cm = np.array([[5, 0], [3, 0]])
        rep = M.report(cm)
        assert rep.per_class[1].precision == 0.0
        assert "never_predicted" in rep.per_class[1].flags

    def test_no_exception_on_degenerate(self):
        cm = np.zeros((4, 4), dtype=np.int64)
        cm[0, 0] = 10
        rep = M.report(cm)
        assert rep.accuracy == 1.0


class TestRoc:
    def test_perfect_separation(self):
        fpr, tpr, _ = M.roc_curve([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert M.auc(fpr, tpr) == 1.0

    def test_reversed_separation(self):
        fpr, tpr, _ = M.roc_curve([0.1, 0.2, 0.8, 0.9], [True, True, False, False])
        assert M.auc(fpr, tpr) == 0.0

    def test_anchors(self):
        fpr, tpr, thr = M.roc_curve([0.5, 0.5, 0.5], [True, False, True])
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        # all scores tied: single step straight to (1, 1)
        assert len(fpr) == 2
        assert np.isinf(thr[0])

    def test_tied_scores_match_pair_counting(self):
        scores = [0.7, 0.7, 0.3, 0.3, 0.3]
        positive = [True, False, True, False, False]
        fpr, tpr, _ = M.roc_curve(scores, positive)
        assert M.auc(fpr, tpr) == pytest.approx(
            auc_by_pair_counting(scores, positive), abs=1e-12
        )

    def test_matches_pair_counting_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            positive = rng.random(n) < rng.uniform(0.1, 0.9)
            if positive.all() or not positive.any():
                continue
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            fpr, tpr, _ = M.roc_curve(scores, positive)
            assert M.auc(fpr, tpr) == pytest.approx(
                auc_by_pair_counting(scores, positive), abs=1e-12
            )

    def test_label_independent_scores_near_half(self):
        rng = np.random.default_rng(5)
        n = 10_000
        scores = rng.random(n)
        positive = rng.random(n) < 0.5
        fpr, tpr, _ = M.roc_curve(scores, positive)
        assert abs(M.auc(fpr, tpr) - 0.5) < 0.05

    def test_single_class_raises(self):
        with pytest.raises(M.MetricsError):
            M.roc_curve([0.1, 0.2], [True, True])

    def test_monotone_points(self):
        rng = np.random.default_rng(8)
        scores = rng.random(40)
        positive = rng.random(40) < 0.4
        fpr, tpr, _ = M.roc_curve(scores, positive)
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)


class TestReport:
    def test_json_schema(self):
        rep = M.report(np.array(REF_CM))
        data = json.loads(rep.to_json())
        assert set(data) == {"accuracy", "per_class", "weighted"}
        assert len(data["per_class"]) == 4
        entry = data["per_class"][0]
        assert set(entry) == {
            "class", "name", "support", "precision", "recall", "fbeta", "auc", "flags",
        }
        assert entry["class"] == 1 and entry["name"] == "Suicidal"
        assert set(data["weighted"]) == {"precision", "recall", "fbeta"}

    def test_report_with_scores_fills_auc(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, 200)
        scores = rng.random((200, 4))
        scores[np.arange(200), labels] += 1.0  # informative
        preds = scores.argmax(axis=1)
        cm = M.confusion_matrix(preds, labels)
        rep = M.report(cm, scores=scores, labels=labels)
        for i, c in enumerate(rep.per_class):
            assert c.auc is not None and 0.5 < c.auc <= 1.0
            for got, want in zip(c.roc, M.roc_curve(scores[:, i], labels == i)):
                np.testing.assert_array_equal(got, want)
            assert c.auc == M.auc(*c.roc[:2])
        assert "roc" not in rep.to_json()

    def test_csv_writers(self, tmp_path):
        cm = np.array(REF_CM)
        M.write_confusion_csv(cm, tmp_path / "cm.csv")
        lines = (tmp_path / "cm.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        assert lines[1].split(",")[1:] == ["648", "4", "3", "215"]

        fpr, tpr, thr = M.roc_curve([0.9, 0.1], [True, False])
        M.write_roc_csv(1, (fpr, tpr, thr), tmp_path / "roc.csv")
        rows = (tmp_path / "roc.csv").read_text().strip().splitlines()
        assert rows[0] == "class,threshold,fpr,tpr"
        assert len(rows) == 4
