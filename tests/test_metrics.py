import numpy as np
import pytest

from inceptive.errors import DegenerateSampleError, InputError, NumericError, UndefinedMetricError
from inceptive.metrics import (
    PredictionSet,
    accuracy,
    average_precision,
    precision_recall_f1,
    roc_auc,
    wilcoxon_signed_rank,
)
from inceptive.tensor import Rng


def make_single(scores, truths):
    return PredictionSet.from_scores(np.asarray(scores, float), np.asarray(truths), multilabel=False)


def make_multi(scores, truths, threshold=0.5):
    return PredictionSet.from_scores(
        np.asarray(scores, float), np.asarray(truths), multilabel=True, threshold=threshold
    )


class TestAccuracy:
    def test_all_correct(self):
        pred = make_single([[0.9, 0.1], [0.2, 0.8]], [0, 1])
        assert accuracy(pred) == 1.0

    def test_binary_half(self):
        pred = make_single([[0.1, 0.9], [0.1, 0.9]], [1, 0])
        assert accuracy(pred) == 0.5

    def test_non_finite_scores_rejected(self):
        # NaN fails every range comparison, so an all-NaN matrix would
        # otherwise argmax to class 0 and score as correct.
        with pytest.raises(NumericError):
            make_single(np.full((3, 4), np.nan), [0, 0, 0])
        for bad in (np.nan, np.inf):
            scores = np.full((2, 2), 0.5)
            scores[1, 0] = bad
            with pytest.raises(NumericError):
                make_single(scores, [0, 1])
            with pytest.raises(NumericError):
                make_multi(scores, [[0, 1], [1, 0]])

    def test_multilabel_cell_counting(self):
        scores = [[0.9, 0.9, 0.1], [0.9, 0.1, 0.1]]
        truths = [[1, 1, 0], [0, 1, 0]]
        pred = make_multi(scores, truths)
        assert accuracy(pred) == pytest.approx(4 / 6)


class TestPrecisionRecallF1:
    def test_hand_counts(self):
        # single label with TP=1, FP=1, FN=1
        pred = make_multi([[0.9], [0.9], [0.1]], [[1], [0], [1]])
        assert precision_recall_f1(pred, "micro") == (0.5, 0.5, 0.5)

    def test_perfect_predictions_both_averagings(self):
        pred = make_single([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        assert precision_recall_f1(pred, "micro") == (1.0, 1.0, 1.0)
        assert precision_recall_f1(pred, "macro") == (1.0, 1.0, 1.0)

    def test_absent_class_contributes_zero_to_macro(self):
        # class 2 never true and never predicted
        pred = make_single([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]], [0, 1])
        _, _, f1_macro = precision_recall_f1(pred, "macro")
        assert f1_macro == pytest.approx((1.0 + 1.0 + 0.0) / 3)

    def test_micro_f1_equals_accuracy_for_single_label(self):
        rng = Rng(3)
        for _ in range(25):
            n, c = int(rng.integers(2, 40, None)), int(rng.integers(2, 6, None))
            scores = rng.random((n, c))
            scores = scores / scores.sum(axis=1, keepdims=True)
            truths = rng.integers(0, c, n)
            pred = PredictionSet.from_scores(scores, truths, multilabel=False)
            _, _, f1 = precision_recall_f1(pred, "micro")
            assert f1 == pytest.approx(accuracy(pred))


def auc_pairwise_oracle(scores, truths):
    pos = [s for s, t in zip(scores, truths) if t]
    neg = [s for s, t in zip(scores, truths) if not t]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_pairwise_enumeration_case(self):
        assert roc_auc(np.array([0.9, 0.8, 0.1]), np.array([1, 0, 1])) == 0.5

    def test_identical_scores_give_half(self):
        assert roc_auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.array([0.4, 0.6]), np.array([1, 1]))

    def test_binary_matrix_uses_positive_column(self):
        scores = np.array([[0.1, 0.9], [0.7, 0.3], [0.4, 0.6]])
        truths = np.array([1, 0, 1])
        assert roc_auc(scores, truths) == auc_pairwise_oracle(scores[:, 1], truths == 1)

    def test_matches_pairwise_oracle_exactly(self):
        rng = Rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51, None))
            scores = np.round(rng.random(n), 2)  # coarse grid forces ties
            truths = rng.integers(0, 2, n)
            if truths.min() == truths.max():
                truths[0] = 1 - truths[0]
            assert roc_auc(scores, truths) == auc_pairwise_oracle(scores, truths.astype(bool))

    def test_multiclass_macro_over_one_vs_rest(self):
        rng = Rng(8)
        scores = rng.random((30, 3))
        truths = np.array([0, 1, 2] * 10)
        expect = np.mean([auc_pairwise_oracle(scores[:, c], truths == c) for c in range(3)])
        assert roc_auc(scores, truths) == pytest.approx(expect, abs=1e-15)


def ap_threshold_oracle(scores, truths):
    """Walk every prefix of the (score desc, index asc) ordering."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    n_pos = int(sum(truths))
    ap = 0.0
    tp = 0
    r_prev = 0.0
    for rank, idx in enumerate(order, start=1):
        if truths[idx]:
            tp += 1
        r_k = tp / n_pos
        ap += (r_k - r_prev) * (tp / rank)
        r_prev = r_k
    return ap


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_inverted_pair(self):
        assert average_precision(np.array([0.9, 0.1]), np.array([0, 1])) == 0.5

    def test_all_positive_degenerate(self):
        assert average_precision(Rng(0).random(5), np.ones(5)) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.2, 0.4]), np.array([0, 0]))

    def test_matches_threshold_oracle_exactly(self):
        rng = Rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 51, None))
            scores = np.round(rng.random(n), 2)
            truths = rng.integers(0, 2, n)
            if truths.sum() == 0:
                truths[int(rng.integers(0, n, None))] = 1
            assert average_precision(scores, truths) == ap_threshold_oracle(scores, truths)

    def test_multilabel_macro(self):
        rng = Rng(10)
        scores = rng.random((20, 3))
        truths = (rng.random((20, 3)) < 0.4).astype(int)
        truths[0] = 1  # make every label have a positive
        expect = np.mean([ap_threshold_oracle(scores[:, c], truths[:, c]) for c in range(3)])
        assert average_precision(scores, truths) == pytest.approx(expect, abs=1e-15)


def wilcoxon_recursive_oracle(ranks, w_obs):
    """Count sign assignments whose smaller one-sided rank sum is <= w_obs."""
    total = sum(ranks)

    def count(i, t):
        if i == len(ranks):
            return 1 if min(t, total - t) <= w_obs + 1e-12 else 0
        return count(i + 1, t + ranks[i]) + count(i + 1, t)

    return count(0, 0.0)


class TestWilcoxon:
    def test_ten_all_positive(self):
        a = np.arange(1.0, 11.0) + 10.0
        b = np.arange(1.0, 11.0)
        w, p = wilcoxon_signed_rank(a, b)
        assert w == 0.0
        assert p == pytest.approx(0.001953125, abs=1e-12)

    def test_three_all_positive(self):
        w, p = wilcoxon_signed_rank(np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0]))
        assert p == pytest.approx(0.25)

    def test_identical_samples_rejected(self):
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_two_sided_symmetry(self):
        rng = Rng(11)
        a = rng.random(8)
        b = rng.random(8)
        _, p1 = wilcoxon_signed_rank(a, b)
        _, p2 = wilcoxon_signed_rank(b, a)
        assert p1 == p2

    def test_p_in_unit_interval(self):
        rng = Rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 15, None))
            a = rng.random(n)
            b = rng.random(n)
            _, p = wilcoxon_signed_rank(a, b)
            assert 0.0 < p <= 1.0

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 5.0, 7.0, 9.0])
        b = np.array([1.0, 4.0, 6.0, 8.0])  # first pair ties and drops
        w, p = wilcoxon_signed_rank(a, b)
        w3, p3 = wilcoxon_signed_rank(a[1:], b[1:])
        assert (w, p) == (w3, p3)

    def test_matches_recursive_oracle_up_to_n12(self):
        rng = Rng(13)
        for trial in range(60):
            n = int(rng.integers(1, 13, None))
            a = np.round(rng.random(n), 1)  # coarse grid produces rank ties
            b = np.round(rng.random(n), 1)
            diffs = a - b
            diffs = diffs[diffs != 0]
            if len(diffs) == 0:
                continue
            w, p = wilcoxon_signed_rank(a, b)
            from inceptive.metrics import _average_ranks

            ranks = list(_average_ranks(np.abs(diffs)))
            count = wilcoxon_recursive_oracle(ranks, w)
            assert p == pytest.approx(count / 2 ** len(diffs), abs=1e-15)

    def test_exact_limit_enforced(self):
        a = Rng(14).random(30)
        b = Rng(15).random(30)
        with pytest.raises(InputError):
            wilcoxon_signed_rank(a, b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            wilcoxon_signed_rank(np.ones(3), np.ones(4))
