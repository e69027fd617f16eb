"""Metric implementations against brute-force oracles."""

import numpy as np
import pytest

from respred.ingest import Dataset, TaskRecord
from respred.metrics import (
    ConfusionMatrix,
    micro_curves,
    per_class_prf,
    pipeline_metrics,
    pr_auc_micro,
    pr_curve_points,
    roc_auc_micro,
    roc_curve_points,
)

TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")


# --- brute-force oracles

def oracle_prf(y_true, y_pred, n_classes):
    """Per-sample counting, no matrix algebra."""
    out = {}
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = (prec, rec, f1)
    return out


def oracle_roc_auc(scores, positives):
    """O(n^2) pairwise comparison, ties worth one half."""
    pos = [s for s, y in zip(scores, positives) if y == 1]
    neg = [s for s, y in zip(scores, positives) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_pr_auc(scores, positives):
    """Explicit threshold sweep, recomputing TP/FP from scratch each time."""
    n_pos = sum(positives)
    thresholds = sorted(set(scores), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, positives) if s >= t and y == 1)
        pred_pos = sum(1 for s in scores if s >= t)
        precision = tp / pred_pos
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def flatten_ovr(probs, labels):
    scores, positives = [], []
    for i, row in enumerate(probs):
        for c, s in enumerate(row):
            scores.append(float(s))
            positives.append(1 if labels[i] == c else 0)
    return scores, positives


def oracle_pipeline(preds, trues):
    n = len(next(iter(preds.values())))
    n_correct = []
    for i in range(n):
        n_correct.append(sum(1 for t in TARGETS if preds[t][i] == trues[t][i]))
    return {
        "exact": sum(1 for c in n_correct if c == 4) / n,
        "at_least": {k: sum(1 for c in n_correct if c >= k) / n for k in (1, 2, 3, 4)},
        "per_model": {t: np.mean([preds[t][i] == trues[t][i] for i in range(n)]) for t in TARGETS},
    }


# --- per-class PRF

def test_prf_perfect_classifier():
    cm = ConfusionMatrix.from_labels([0, 1, 2, 0, 1], [0, 1, 2, 0, 1], 3)
    report = per_class_prf(cm)
    assert np.allclose(report.precision, 1.0)
    assert np.allclose(report.recall, 1.0)
    assert np.allclose(report.f1, 1.0)


def test_prf_two_class_counts():
    cm = ConfusionMatrix(counts=np.array([[8, 2], [3, 7]]))
    report = per_class_prf(cm)
    assert report.precision[0] == pytest.approx(8 / 11)
    assert report.recall[0] == pytest.approx(0.8)


def test_prf_zero_division_flagged():
    # class 2 never predicted and never true
    cm = ConfusionMatrix.from_labels([0, 1, 0], [0, 1, 1], 3)
    report = per_class_prf(cm)
    assert report.precision[2] == report.recall[2] == report.f1[2] == 0.0


@pytest.mark.parametrize("counts", [
    pytest.param([[3, 1, 0], [2, 4, 0], [1, 0, 0]], id="class-2-never-predicted"),
    pytest.param([[3, 1, 0], [2, 4, 1], [0, 0, 0]], id="class-2-never-true"),
    pytest.param([[5, 0, 0], [0, 0, 0], [0, 0, 0]], id="classes-1-2-absent"),
    pytest.param([[0, 0], [0, 0]], id="empty"),
])
def test_prf_zero_denominators_raise_no_floating_point_error(counts):
    # the divisions skip a zero denominator rather than computing 0/0 and overwriting it
    cm = ConfusionMatrix(counts=np.array(counts, dtype=np.int64))
    with np.errstate(all="raise"):
        report = per_class_prf(cm)
    predicted, actual = cm.counts.sum(axis=0), cm.counts.sum(axis=1)
    assert (report.precision[predicted == 0] == 0).all() and (report.recall[actual == 0] == 0).all()
    assert np.isfinite(report.f1).all() and np.isfinite(report.macro_f1)


def test_prf_random_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 50))
        y_true = rng.integers(0, k, n)
        y_pred = rng.integers(0, k, n)
        report = per_class_prf(ConfusionMatrix.from_labels(y_true, y_pred, k))
        expected = oracle_prf(list(y_true), list(y_pred), k)
        for c in range(k):
            assert report.precision[c] == pytest.approx(expected[c][0], abs=1e-15)
            assert report.recall[c] == pytest.approx(expected[c][1], abs=1e-15)
            assert report.f1[c] == pytest.approx(expected[c][2], abs=1e-15)
        assert report.macro_f1 == pytest.approx(np.mean([expected[c][2] for c in range(k)]))


# --- ROC AUC

def test_roc_auc_perfect_separation():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 1])
    assert roc_auc_micro(probs, labels) == 1.0


def test_roc_auc_all_ties():
    probs = np.full((6, 3), 1 / 3)
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert roc_auc_micro(probs, labels) == 0.5


def test_roc_auc_degenerate_rejected():
    with pytest.raises(ValueError):
        roc_auc_micro(np.ones((3, 1)), np.zeros(3, dtype=int))


@pytest.mark.parametrize("curve, probs, labels, message", [
    (roc_curve_points, np.ones((3, 1)), np.zeros(3, dtype=int), "one negative"),
    (roc_curve_points, np.zeros((0, 2)), np.zeros(0, dtype=int), "one negative"),
    (pr_curve_points, np.zeros((0, 2)), np.zeros(0, dtype=int), "one positive pair"),
])
def test_curve_points_degenerate_rejected(curve, probs, labels, message):
    # the curves refuse what their areas refuse, instead of dividing by zero
    with pytest.raises(ValueError, match=message):
        curve(probs, labels)


def test_roc_auc_random_against_pairwise_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3, 20))
        labels = rng.integers(0, k, n)
        probs = rng.random((n, k))
        # quantize to force ties sometimes
        probs = np.round(probs, 1)
        got = roc_auc_micro(probs, labels)
        scores, positives = flatten_ovr(probs, labels)
        assert got == pytest.approx(oracle_roc_auc(scores, positives), abs=1e-12)


def test_roc_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(33)
    labels = rng.integers(0, 3, 30)
    probs = rng.random((30, 3))
    base = roc_auc_micro(probs, labels)
    assert roc_auc_micro(np.exp(4 * probs), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc_micro(probs ** 3, labels) == pytest.approx(base, abs=1e-12)


def test_roc_auc_matches_trapezoid_integration():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, 50)
    probs = np.round(rng.random((50, 4)), 1)
    points = roc_curve_points(probs, labels)
    trapezoid = np.trapezoid(points[:, 1], points[:, 0])
    assert roc_auc_micro(probs, labels) == pytest.approx(trapezoid, abs=1e-12)


# --- PR AUC

def test_pr_auc_perfect_separation():
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    labels = np.array([0, 0, 1, 1])
    assert pr_auc_micro(probs, labels) == 1.0


def test_pr_auc_single_positive_ranked_last():
    # flattened by hand: one positive pair with the lowest score
    # area = (1 - 0) * P at the final threshold = n_pos_rank
    scores = np.array([[0.9, 0.05], [0.8, 0.02], [0.7, 0.01]])
    labels = np.array([1, 0, 0])  # positive pairs: (0, cls1) low score, (1, cls0), (2, cls0)
    got = pr_auc_micro(scores, labels)
    flat_scores, flat_pos = flatten_ovr(scores, labels)
    assert got == pytest.approx(oracle_pr_auc(flat_scores, flat_pos), abs=1e-12)


def test_pr_auc_random_against_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(3, 20))
        labels = rng.integers(0, k, n)
        probs = np.round(rng.random((n, k)), 1)
        got = pr_auc_micro(probs, labels)
        scores, positives = flatten_ovr(probs, labels)
        assert got == pytest.approx(oracle_pr_auc(scores, positives), abs=1e-12)


def test_pr_curve_points_shape():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 20)
    probs = rng.random((20, 3))
    points = pr_curve_points(probs, labels)
    assert points[0, 0] == 0.0          # starts at recall 0
    assert points[-1, 0] == 1.0         # ends at recall 1
    assert ((0 <= points) & (points <= 1)).all()


# --- one sweep for all four

def test_micro_curves_equal_the_four_functions_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(1, 5)) + 1
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, k, n)
        probs = np.round(rng.random((n, k)), int(rng.integers(1, 4)))
        roc_auc, pr_auc, roc_points, pr_points = micro_curves(probs, labels)
        assert roc_auc == roc_auc_micro(probs, labels)
        assert pr_auc == pr_auc_micro(probs, labels)
        assert np.array_equal(roc_points, roc_curve_points(probs, labels))
        assert np.array_equal(pr_points, pr_curve_points(probs, labels))


@pytest.mark.parametrize("probs, labels", [
    (np.ones((3, 1)), np.zeros(3, dtype=int)),
    (np.zeros((0, 2)), np.zeros(0, dtype=int)),
])
def test_micro_curves_refuse_what_roc_auc_refuses(probs, labels):
    with pytest.raises(ValueError) as expected:
        roc_auc_micro(probs, labels)
    with pytest.raises(ValueError) as got:
        micro_curves(probs, labels)
    assert str(got.value) == str(expected.value)


def evaluation_input(rng, n):
    records = [TaskRecord(f"t{i}", "sim", "A", 1, 1, 1, 1) for i in range(n)]
    k = {"RAMCOUNT": 4, "CPUTIME": 3, "IOINTENSITY": 2, "WALLTIME": 5}
    labels = {t: rng.integers(0, k[t], n) for t in TARGETS}
    probs = {t: np.round(rng.dirichlet(np.ones(k[t]), n), 2) for t in TARGETS}
    return probs, Dataset(records=records, labels=labels)


def test_evaluation_report_fields_equal_the_four_functions_bit_for_bit():
    from respred.pipeline import evaluate_predictions

    probs, labeled = evaluation_input(np.random.default_rng(14), 200)
    report = evaluate_predictions(probs, labeled)
    for t in TARGETS:
        ev, p, y = report.per_target[t], probs[t], labeled.labels[t]
        assert ev.roc_auc == roc_auc_micro(p, y), t
        assert ev.pr_auc == pr_auc_micro(p, y), t
        assert np.array_equal(ev.roc_points, roc_curve_points(p, y)), t
        assert np.array_equal(ev.pr_points, pr_curve_points(p, y)), t


def test_evaluation_of_a_head_without_a_negative_pair_raises_what_roc_auc_raises():
    from respred.pipeline import evaluate_predictions

    probs, labeled = evaluation_input(np.random.default_rng(15), 6)
    probs["CPUTIME"], labeled.labels["CPUTIME"] = np.ones((6, 1)), np.zeros(6, dtype=np.int64)
    with pytest.raises(ValueError) as expected:
        roc_auc_micro(probs["CPUTIME"], labeled.labels["CPUTIME"])
    with pytest.raises(ValueError) as got:
        evaluate_predictions(probs, labeled)
    assert str(got.value) == str(expected.value)


# --- pipeline metrics

def make_joint(rng, n, accuracies=None):
    trues = {t: rng.integers(0, 4, n) for t in TARGETS}
    preds = {}
    for j, t in enumerate(TARGETS):
        correct = rng.random(n) < (accuracies[j] if accuracies else rng.random())
        noise = (trues[t] + rng.integers(1, 4, n)) % 4
        preds[t] = np.where(correct, trues[t], noise)
    return preds, trues


def test_pipeline_two_sample_case():
    trues = {t: np.array([0, 0]) for t in TARGETS}
    preds = {t: np.array([0, 0]) for t in TARGETS}
    preds["WALLTIME"] = np.array([0, 1])    # second sample 3-of-4
    report = pipeline_metrics(preds, trues)
    assert report.exact_match_accuracy == 0.5
    assert report.at_least_k[3] == 1.0
    assert report.at_least_k[4] == 0.5


def test_pipeline_random_against_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        preds, trues = make_joint(rng, n)
        report = pipeline_metrics(preds, trues)
        expected = oracle_pipeline(preds, trues)
        assert report.exact_match_accuracy == pytest.approx(expected["exact"], abs=1e-15)
        for k in (1, 2, 3, 4):
            assert report.at_least_k[k] == pytest.approx(expected["at_least"][k], abs=1e-15)
        for t in TARGETS:
            assert report.per_model_accuracy[t] == pytest.approx(expected["per_model"][t], abs=1e-15)


def test_pipeline_partial_accuracy_monotone():
    rng = np.random.default_rng(19)
    for _ in range(30):
        preds, trues = make_joint(rng, int(rng.integers(2, 50)))
        report = pipeline_metrics(preds, trues)
        ks = [report.at_least_k[k] for k in (1, 2, 3, 4)]
        assert ks[0] >= ks[1] >= ks[2] >= ks[3]
        assert report.exact_match_accuracy == ks[3]
        assert report.exact_match_accuracy <= min(report.per_model_accuracy.values())
        assert report.average_pipeline_accuracy >= report.exact_match_accuracy


def test_pipeline_average_accuracy_headline():
    # per-model accuracies 80.5 / 85.8 / 93.9 / 83.9 percent over 1000 samples
    n = 1000
    counts = {"RAMCOUNT": 805, "CPUTIME": 858, "IOINTENSITY": 939, "WALLTIME": 839}
    trues = {t: np.zeros(n, dtype=int) for t in TARGETS}
    preds = {
        t: np.where(np.arange(n) < counts[t], 0, 1)
        for t in TARGETS
    }
    report = pipeline_metrics(preds, trues)
    for t in TARGETS:
        assert report.per_model_accuracy[t] == counts[t] / n
    expected = np.mean([0.805, 0.858, 0.939, 0.839])
    assert report.average_pipeline_accuracy == pytest.approx(expected, abs=1e-15)
    # published two-decimal rounding of the same mean
    assert abs(report.average_pipeline_accuracy * 100 - 86.03) <= 0.005 + 1e-12


def test_pipeline_perfect_predictions_all_ones():
    rng = np.random.default_rng(23)
    trues = {t: rng.integers(0, 4, 25) for t in TARGETS}
    report = pipeline_metrics(trues, trues)
    assert report.exact_match_accuracy == 1.0
    assert all(v == 1.0 for v in report.at_least_k.values())
    assert all(v == 1.0 for v in report.per_model_accuracy.values())
    assert report.average_pipeline_accuracy == 1.0


def test_pipeline_length_mismatch_rejected():
    trues = {t: np.zeros(5, dtype=int) for t in TARGETS}
    preds = {t: np.zeros(4, dtype=int) for t in TARGETS}
    with pytest.raises(ValueError):
        pipeline_metrics(preds, trues)
