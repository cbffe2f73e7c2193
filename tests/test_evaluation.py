"""Classification metrics, AUC ranking, and evaluation reports."""

import json
import random
from datetime import date

import numpy as np
import pytest

from harforge.evaluation import (
    UndefinedMetricError,
    accuracy,
    binary_auc_rank,
    confusion_matrix,
    confusion_to_csv,
    evaluate_run,
    hierarchy_consistency,
    macro_f1,
    micro_f1,
    precision_recall_f1,
    report_to_json,
    roc_auc_ovr,
    trend_csv,
)
from harforge.model import init_params


class TestAccuracy:
    def test_basic(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 1, 2]) == pytest.approx(0.75)

    def test_empty_or_mismatched_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestPrecisionRecallF1:
    def test_hand_counts(self):
        preds = [0, 0, 1, 1, 1, 2]
        labels = [0, 1, 1, 1, 0, 2]
        rows = precision_recall_f1(preds, labels, 3)
        # class 0: tp=1 fp=1 fn=1
        assert rows[0]["precision"] == pytest.approx(0.5)
        assert rows[0]["recall"] == pytest.approx(0.5)
        assert rows[0]["f1"] == pytest.approx(0.5)
        assert rows[0]["support"] == 2
        # class 1: tp=2 fp=1 fn=1
        assert rows[1]["precision"] == pytest.approx(2 / 3)
        assert rows[1]["recall"] == pytest.approx(2 / 3)
        # class 2: perfect singleton
        assert rows[2]["f1"] == pytest.approx(1.0)

    def test_absent_class_scores_zero_not_nan(self):
        rows = precision_recall_f1([0, 0], [0, 0], 2)
        assert rows[1] == {
            "class": 1,
            "support": 0,
            "precision": 0.0,
            "recall": 0.0,
            "f1": 0.0,
        }


def macro_f1_oracle(preds, labels, n_classes):
    """Set-arithmetic reimplementation used to cross-check macro_f1."""
    scores = []
    for c in range(n_classes):
        if c not in preds and c not in labels:
            continue
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, labels) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


class TestMacroF1:
    def test_hand_example(self):
        # class 0: f1 2/3; classes 1 and 2: 0; class 3 absent and excluded
        got = macro_f1([0, 0, 1], [0, 1, 2], 4)
        assert got == pytest.approx((2 / 3) / 3)

    def test_absent_classes_do_not_dilute(self):
        preds = [0, 1, 0, 1]
        labels = [0, 1, 1, 0]
        assert macro_f1(preds, labels, 2) == pytest.approx(
            macro_f1(preds, labels, 13)
        )

    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_matches_independent_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 60)
            k = rng.randint(2, 8)
            preds = [rng.randrange(k) for _ in range(n)]
            labels = [rng.randrange(k) for _ in range(n)]
            got = macro_f1(preds, labels, k)
            assert got == pytest.approx(macro_f1_oracle(preds, labels, k), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            macro_f1([], [], 3)


class TestMicroF1:
    def test_equals_accuracy_for_single_label(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(1, 40)
            preds = [rng.randrange(5) for _ in range(n)]
            labels = [rng.randrange(5) for _ in range(n)]
            assert micro_f1(preds, labels, 5) == pytest.approx(
                accuracy(preds, labels), abs=1e-12
            )


def auc_pairwise_oracle(scores, positive):
    pos = [s for s, p in zip(scores, positive) if p]
    neg = [s for s, p in zip(scores, positive) if not p]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestBinaryAuc:
    def test_perfect_separation(self):
        assert binary_auc_rank([0.9, 0.8, 0.2, 0.1], [True, True, False, False]) == 1.0

    def test_inverted_separation(self):
        assert binary_auc_rank([0.1, 0.2, 0.8], [False, False, True]) == 1.0
        assert binary_auc_rank([0.8, 0.2], [False, True]) == 0.0

    def test_all_tied_scores_give_half(self):
        assert binary_auc_rank([0.5] * 6, [True, False] * 3) == pytest.approx(0.5)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = random.Random(55)
        for _ in range(300):
            n = rng.randint(2, 50)
            # coarse grid forces plenty of exact ties
            scores = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(n)]
            positive = [rng.random() < 0.5 for _ in range(n)]
            if not any(positive) or all(positive):
                positive[0] = True
                positive[-1] = False
            got = binary_auc_rank(scores, positive)
            assert got == pytest.approx(auc_pairwise_oracle(scores, positive), abs=1e-12)

    def test_matches_tie_group_loop_exactly(self):
        """The tie-group ranks equal, to the bit, a walk over the sorted scores."""

        def loop_auc(scores, positive):
            scores = np.asarray(scores, dtype=np.float64)
            positive = np.asarray(positive, dtype=bool)
            n_pos = int(positive.sum())
            n_neg = int(positive.size - n_pos)
            order = np.argsort(scores, kind="mergesort")
            ranks = np.empty(scores.size, dtype=np.float64)
            sorted_scores = scores[order]
            i = 0
            while i < scores.size:
                j = i
                while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            rank_sum = ranks[positive].sum()
            return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

        rng = np.random.default_rng(57)
        for n in (2, 3, 17, 200, 1000):
            for grid in (3, 50, None):
                scores = rng.random(n) if grid is None else rng.integers(0, grid, n) / grid
                positive = rng.random(n) < 0.3
                positive[0], positive[-1] = True, False
                assert binary_auc_rank(scores, positive) == loop_auc(scores, positive)

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(56)
        scores = [rng.uniform(-2, 2) for _ in range(40)]
        positive = [rng.random() < 0.4 for _ in range(40)]
        positive[0], positive[1] = True, False
        base = binary_auc_rank(scores, positive)
        cubed = binary_auc_rank([s**3 for s in scores], positive)
        assert cubed == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            binary_auc_rank([0.1, 0.9], [True, True])
        with pytest.raises(UndefinedMetricError):
            binary_auc_rank([0.1, 0.9], [False, False])


class TestRocAucOvr:
    def test_macro_over_present_classes(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(4), size=60)
        labels = rng.integers(0, 3, size=60)  # class 3 never appears
        want = np.mean(
            [binary_auc_rank(probs[:, c], labels == c) for c in (0, 1, 2)]
        )
        assert roc_auc_ovr(probs, labels) == pytest.approx(float(want), abs=1e-12)

    def test_perfect_probabilities(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        probs = np.zeros((6, 3))
        probs[np.arange(6), labels] = 1.0
        assert roc_auc_ovr(probs, labels) == 1.0

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc_ovr(np.ones((4, 3)) / 3, np.zeros(4, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            roc_auc_ovr(np.ones((4, 3)) / 3, np.zeros(5, dtype=int))


class TestConfusionMatrix:
    def test_counts(self):
        m = confusion_matrix([0, 1, 1, 2], [0, 0, 1, 2], 3)
        np.testing.assert_array_equal(m, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])

    def test_row_normalized_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        preds = rng.integers(0, 4, size=80)
        labels = rng.integers(0, 3, size=80)  # class 3 row stays empty
        m = confusion_matrix(preds, labels, 4, row_normalize=True)
        sums = m.sum(axis=1)
        np.testing.assert_allclose(sums[:3], 1.0, atol=1e-12)
        assert sums[3] == 0.0

    def test_matches_per_window_loop(self):
        rng = np.random.default_rng(10)
        preds = rng.integers(0, 13, size=500)
        labels = rng.integers(0, 11, size=500)
        want = np.zeros((13, 13))
        for t, p in zip(labels, preds):
            want[int(t), int(p)] += 1
        np.testing.assert_array_equal(confusion_matrix(preds, labels, 13), want)
        sums = want.sum(axis=1, keepdims=True)
        rates = np.divide(want, sums, out=np.zeros_like(want), where=sums > 0)
        got = confusion_matrix(preds, labels, 13, row_normalize=True)
        assert got.tobytes() == rates.tobytes()

    @pytest.mark.parametrize(
        "preds, labels, message",
        [
            ([0, 0], [-1, 0], r"label -1 outside \[0, 3\)"),
            ([0, 3], [0, 0], r"prediction 3 outside \[0, 3\)"),
            ([0, -2], [0, 5], r"label 5 outside \[0, 3\)"),
        ],
    )
    def test_class_index_outside_the_classes_rejected(self, preds, labels, message):
        """Not counted into the class at the other end, nor a bare IndexError,
        also through the metrics read off the matrix."""
        for metric in (confusion_matrix, macro_f1, micro_f1, precision_recall_f1):
            with pytest.raises(ValueError, match=message):
                metric(preds, labels, 3)


class TestHierarchyConsistency:
    def test_counts_rollup_agreement(self, taxonomy):
        l1 = list(taxonomy.level1_classes)
        l2 = list(taxonomy.level2_classes)
        run_l2 = l2.index("Running Exercise")
        sleep_l2 = l2.index("Sleep")
        act_l1 = l1.index("Activity")
        sleep_l1 = l1.index("Sleep")
        preds_l1 = [act_l1, sleep_l1, sleep_l1, act_l1]
        preds_l2 = [run_l2, sleep_l2, run_l2, sleep_l2]
        assert hierarchy_consistency(preds_l1, preds_l2, taxonomy) == pytest.approx(0.5)

    def test_empty_rejected(self, taxonomy):
        with pytest.raises(ValueError):
            hierarchy_consistency([], [], taxonomy)


def make_eval_windows(window_factory, n=30, seed=0, single_class=False):
    rng = np.random.default_rng(seed)
    l2_labels = ["Running Exercise", "Sleep", "Kitchen Duties"]
    return window_factory(
        user=[f"u{i % 4}" for i in range(n)],
        day=date(2024, 3, 4),
        start=[10 * i for i in range(n)],
        l2=[l2_labels[0] if single_class else l2_labels[i % 3] for i in range(n)],
        features=np.stack([rng.normal(size=(6, 5)) for _ in range(n)]),
        synthetic=[i % 5 == 0 for i in range(n)],
    )


class TestEvaluateRun:
    def test_synthetic_windows_excluded(self, taxonomy, window_factory):
        windows = make_eval_windows(window_factory)
        params = init_params(5, 4, len(taxonomy.level2_classes), seed=0)
        report = evaluate_run(params, windows, taxonomy, width=15, split="val")
        assert report.n_windows == int((~windows.synthetic).sum()) == 24
        assert report.width == 15 and report.split == "val"
        assert 0.0 <= report.accuracy_l1 <= 1.0
        assert 0.0 <= report.hierarchy_consistency <= 1.0
        assert len(report.confusion_l1) == 3
        assert len(report.confusion_l2) == 13
        assert len(report.per_class_l2) == 13

    def test_single_class_auc_reports_none(self, taxonomy, window_factory):
        windows = make_eval_windows(window_factory, single_class=True)
        params = init_params(5, 4, len(taxonomy.level2_classes), seed=0)
        report = evaluate_run(params, windows, taxonomy)
        assert report.auc_l1 is None
        assert report.auc_l2 is None
        assert report.accuracy_l2 is not None

    def test_all_synthetic_rejected(self, taxonomy, window_factory):
        windows = make_eval_windows(window_factory)
        windows = windows.select(windows.synthetic)
        params = init_params(5, 4, len(taxonomy.level2_classes), seed=0)
        with pytest.raises(ValueError, match="no real windows"):
            evaluate_run(params, windows, taxonomy)

    def test_report_json_round_trip(self, taxonomy, window_factory):
        windows = make_eval_windows(window_factory)
        params = init_params(5, 4, len(taxonomy.level2_classes), seed=0)
        report = evaluate_run(params, windows, taxonomy, width=30, split="test")
        payload = json.loads(report_to_json(report))
        assert payload["width"] == 30
        assert payload["split"] == "test"
        assert payload["n_windows"] == report.n_windows
        assert payload["accuracy_l1"] == report.accuracy_l1
        assert payload["auc_l1"] == report.auc_l1


class TestCsvHelpers:
    def test_confusion_csv_layout(self):
        text = confusion_to_csv([[0.9, 0.1], [0.25, 0.75]], ["Sleep", "Awake"])
        lines = text.splitlines()
        assert lines[0] == "true\\pred,Sleep,Awake"
        assert lines[1] == "Sleep,0.9,0.1"
        assert lines[2] == "Awake,0.25,0.75"

    def test_trend_csv_layout(self):
        text = trend_csv([(15, "temporal", "accuracy_l1", 0.9375)])
        lines = text.splitlines()
        assert lines[0] == "width,split,metric,value"
        assert lines[1] == "15,temporal,accuracy_l1,0.9375"
