"""Classification metrics and the exact paired signed-rank test.

Ranking metrics use exact tie handling (ties count half for AUC; average
precision breaks ties by score descending, then original index ascending),
so results are reproducible and checkable against brute-force oracles.
Metrics that are undefined on an input raise
:class:`~inceptive.errors.UndefinedMetricError` instead of returning a
sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError, NumericError, UndefinedMetricError

__all__ = [
    "PredictionSet",
    "accuracy",
    "precision_recall_f1",
    "roc_auc",
    "average_precision",
    "wilcoxon_signed_rank",
]


@dataclass
class PredictionSet:
    """Scores with hard predictions and ground truth.

    Single-label tasks use integer class indices for ``predictions`` and
    ``truths``; multi-label tasks use 0/1 matrices shaped like ``scores``.
    """

    scores: np.ndarray
    predictions: np.ndarray
    truths: np.ndarray
    multilabel: bool = False

    @classmethod
    def from_scores(
        cls, scores: np.ndarray, truths: np.ndarray, multilabel: bool = False, threshold: float = 0.5
    ) -> "PredictionSet":
        scores = np.asarray(scores, dtype=np.float64)
        truths = np.asarray(truths)
        if scores.ndim != 2 or scores.shape[0] == 0:
            raise InputError(f"scores must be a non-empty B x C array, got {scores.shape}")
        if not np.isfinite(scores).all():
            raise NumericError("scores contain non-finite values")
        if scores.min() < -1e-9 or scores.max() > 1 + 1e-9:
            raise InputError("scores must lie in [0, 1]")
        if multilabel:
            if truths.shape != scores.shape:
                raise InputError(f"truth shape {truths.shape} vs scores {scores.shape}")
            preds = (scores >= threshold).astype(np.int64)
        else:
            if truths.shape != (scores.shape[0],):
                raise InputError(f"truth shape {truths.shape} vs batch {scores.shape[0]}")
            preds = scores.argmax(axis=1)
        return cls(scores, preds, truths.astype(np.int64), multilabel)


def accuracy(pred: PredictionSet) -> float:
    """Exact-match fraction; for multi-label, the label-wise match fraction."""
    if pred.predictions.size == 0:
        raise InputError("empty prediction set")
    return float((pred.predictions == pred.truths).mean())


def _class_counts(pred: PredictionSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_classes = pred.scores.shape[1]
    if pred.multilabel:
        p, t = pred.predictions, pred.truths
        tp = ((p == 1) & (t == 1)).sum(axis=0)
        fp = ((p == 1) & (t == 0)).sum(axis=0)
        fn = ((p == 0) & (t == 1)).sum(axis=0)
        return tp, fp, fn
    tp = np.zeros(n_classes, dtype=np.int64)
    fp = np.zeros(n_classes, dtype=np.int64)
    fn = np.zeros(n_classes, dtype=np.int64)
    for c in range(n_classes):
        tp[c] = ((pred.predictions == c) & (pred.truths == c)).sum()
        fp[c] = ((pred.predictions == c) & (pred.truths != c)).sum()
        fn[c] = ((pred.predictions != c) & (pred.truths == c)).sum()
    return tp, fp, fn


def _prf(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def precision_recall_f1(pred: PredictionSet, averaging: str = "micro") -> tuple[float, float, float]:
    """Micro pools true/false positives over classes; macro averages the
    per-class scores, counting a class that is never predicted and never
    true as zero."""
    if averaging not in ("micro", "macro"):
        raise InputError(f"averaging must be micro or macro, got {averaging!r}")
    tp, fp, fn = _class_counts(pred)
    if averaging == "micro":
        return _prf(float(tp.sum()), float(fp.sum()), float(fn.sum()))
    per_class = [_prf(float(a), float(b), float(c)) for a, b, c in zip(tp, fp, fn)]
    arr = np.array(per_class)
    return tuple(float(x) for x in arr.mean(axis=0))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    i = 0
    n = len(x)
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _auc_binary(scores: np.ndarray, positives: np.ndarray) -> float:
    n_pos = int(positives.sum())
    n_neg = int(len(positives) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    # Mann-Whitney: pair wins plus half-credit for ties, via the rank sum.
    wins = ranks[positives].sum() - n_pos * (n_pos + 1) / 2
    return float(wins / (n_pos * n_neg))


def roc_auc(scores: np.ndarray, truths: np.ndarray) -> float:
    """Probability a random positive outranks a random negative (ties count
    one half). 1-D inputs score a single binary problem; with a B x C score
    matrix and integer truths, a two-column matrix scores its positive
    column and wider matrices average one-vs-rest AUC over classes."""
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    if scores.ndim == 1:
        if truths.shape != scores.shape:
            raise InputError(f"shape mismatch: {scores.shape} vs {truths.shape}")
        return _auc_binary(scores, truths.astype(bool))
    if truths.shape != (scores.shape[0],):
        raise InputError(f"truth shape {truths.shape} vs batch {scores.shape[0]}")
    if scores.shape[1] == 2:
        return _auc_binary(scores[:, 1], truths == 1)
    per_class = [_auc_binary(scores[:, c], truths == c) for c in range(scores.shape[1])]
    return float(np.mean(per_class))


def _ap_binary(scores: np.ndarray, truths: np.ndarray) -> float:
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    n = len(scores)
    order = np.lexsort((np.arange(n), -scores))
    ap = 0.0
    tp = 0
    recall_prev = 0.0
    for rank, idx in enumerate(order, start=1):
        if truths[idx]:
            tp += 1
            recall = tp / n_pos
            ap += (recall - recall_prev) * (tp / rank)
            recall_prev = recall
    return ap


def average_precision(scores: np.ndarray, truths: np.ndarray) -> float:
    """Area under the precision-recall curve over descending-score steps.

    2-D inputs are treated as multi-label and averaged over label columns;
    every evaluated label needs at least one positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truths = np.asarray(truths)
    if scores.shape != truths.shape:
        raise InputError(f"shape mismatch: {scores.shape} vs {truths.shape}")
    if scores.ndim == 1:
        return float(_ap_binary(scores, truths.astype(bool)))
    per_label = [_ap_binary(scores[:, c], truths[:, c].astype(bool)) for c in range(scores.shape[1])]
    return float(np.mean(per_label))


_EXACT_LIMIT = 25


def wilcoxon_signed_rank(a, b) -> tuple[float, float]:
    """Two-sided exact signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences share average
    ranks. Returns ``(W, p)`` where ``W = min(W+, W-)`` and ``p`` counts,
    over all 2^n equally likely sign assignments, those whose smaller
    one-sided rank sum is at most the observed ``W``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"paired samples must be equal-length vectors, got {a.shape} and {b.shape}")
    diffs = a - b
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    if n > _EXACT_LIMIT:
        raise InputError(f"exact test supports up to {_EXACT_LIMIT} non-zero differences, got {n}")
    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    # Ranks are multiples of 1/2, so doubling makes every sum an exact integer.
    r2 = [int(round(2 * r)) for r in ranks]
    total = sum(r2)
    w2 = int(round(2 * w))
    ways = [0] * (total + 1)
    ways[0] = 1
    for r in r2:
        for t in range(total, r - 1, -1):
            ways[t] += ways[t - r]
    count = sum(c for t, c in enumerate(ways) if min(t, total - t) <= w2)
    return w, count / 2**n
