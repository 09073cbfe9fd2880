"""Evaluation metrics: ranking AUC and log-loss.

AUC is the Mann-Whitney statistic computed from average ranks, which handles
tied scores without enumerating pairs and depends only on the score ordering.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, MetricError, ShapeError

PROB_FLOOR = 1e-12


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ShapeError("scores and labels must be 1-D")
    if scores.shape != labels.shape:
        raise ShapeError(f"length mismatch: {scores.shape[0]} scores, {labels.shape[0]} labels")
    if scores.size == 0:
        raise DomainError("empty score list")
    if not np.all(np.isfinite(scores)):
        raise DomainError("non-finite score")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DomainError("labels must be 0 or 1")
    return scores, labels


def auc(scores, labels):
    """Probability that a random positive outranks a random negative.

    Tied scores contribute half credit, via average ranks. Raises
    MetricError when only one class is present (the statistic is undefined).
    """
    scores, labels = _validate(scores, labels)
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise MetricError("AUC undefined: need at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    # boundaries of runs of equal score; each run shares the average rank
    bounds = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    for a, b in zip(bounds[:-1], bounds[1:]):
        ranks[order[a:b]] = 0.5 * (a + 1 + b)
    rank_sum = float(ranks[labels == 1.0].sum())
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def logloss(probs, labels):
    """Mean binary cross-entropy with probabilities clamped away from 0 and 1."""
    probs, labels = _validate(probs, labels)
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


@dataclass
class MetricsReport:
    auc: float
    logloss: float
    positives: int
    negatives: int

    def to_dict(self):
        return asdict(self)


def evaluate(probs, labels):
    probs_arr, labels_arr = _validate(probs, labels)
    pos = int(labels_arr.sum())
    return MetricsReport(
        auc=auc(probs_arr, labels_arr),
        logloss=logloss(probs_arr, labels_arr),
        positives=pos,
        negatives=labels_arr.size - pos,
    )
