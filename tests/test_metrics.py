"""Ranking and calibration metric tests, anchored to brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrzoo.errors import DomainError, MetricError, ShapeError
from ctrzoo.metrics import auc, evaluate, logloss
from ctrzoo.tape import sigmoid


def pairwise_auc(scores, labels):
    """O(P*N) definition: wins plus half-ties over all positive-negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# auc


def test_auc_four_record_hand_value():
    # positives hold ranks 1 and 3 of 4: one clean win pair, three of four
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    assert auc(scores, labels) == 0.75


def test_auc_perfect_separation_is_one():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert auc(scores, labels) == 1.0


def test_auc_reversed_separation_is_zero():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    assert auc(scores, labels) == 0.0


def test_auc_all_tied_is_half():
    scores = np.full(6, 0.42)
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert auc(scores, labels) == 0.5


def test_auc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(10, 200))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.4).astype(np.float64)
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        assert auc(scores, labels) == pairwise_auc(scores, labels)


def loop_auc(scores, labels):
    """Average ranks assigned one run of tied scores at a time."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size)
    bounds = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1], True])
    for a, b in zip(bounds[:-1], bounds[1:]):
        ranks[order[a:b]] = 0.5 * (a + 1 + b)
    pos = int(labels.sum())
    neg = labels.size - pos
    return (float(ranks[labels == 1.0].sum()) - pos * (pos + 1) / 2.0) / (pos * neg)


@settings(max_examples=60, deadline=None, database=None)
@given(
    levels=st.integers(1, 6),
    n=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_auc_on_heavy_ties_is_bitwise_the_run_loop(levels, n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=n) / 7.0
    labels = (rng.random(n) < 0.5).astype(np.float64)
    labels[:2] = [1.0, 0.0]
    assert np.float64(auc(scores, labels)).tobytes() == np.float64(loop_auc(scores, labels)).tobytes()


def test_auc_invariant_under_sigmoid_exactly():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=50) * 3.0
    labels = (rng.random(50) < 0.5).astype(np.float64)
    if labels.sum() in (0, 50):
        labels[0] = 1.0 - labels[0]
    assert auc(logits, labels) == auc(sigmoid(logits), labels)


def test_auc_negated_scores_complement():
    rng = np.random.default_rng(13)
    scores = rng.normal(size=40)  # continuous draws, ties almost surely absent
    labels = (rng.random(40) < 0.5).astype(np.float64)
    labels[0], labels[1] = 1.0, 0.0
    assert abs(auc(-scores, labels) - (1.0 - auc(scores, labels))) < 1e-12


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        auc(np.array([0.1, 0.9]), np.array([1.0, 1.0]))
    with pytest.raises(MetricError):
        auc(np.array([0.1, 0.9]), np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# logloss


def test_logloss_half_is_ln_two():
    probs = np.full(8, 0.5)
    labels = np.array([1.0, 0.0] * 4)
    assert abs(logloss(probs, labels) - math.log(2.0)) < 1e-12


def test_logloss_hand_value():
    # single positive at p = 0.75: -ln(0.75)
    assert abs(logloss(np.array([0.75]), np.array([1.0])) - (-math.log(0.75))) < 1e-15


def test_logloss_mixed_hand_value():
    probs = np.array([0.75, 0.25])
    labels = np.array([1.0, 0.0])
    assert abs(logloss(probs, labels) - (-math.log(0.75))) < 1e-15


def test_logloss_clamps_certain_predictions_finite():
    probs = np.array([0.0, 1.0])
    labels = np.array([1.0, 0.0])  # maximally wrong on both
    val = logloss(probs, labels)
    assert math.isfinite(val)
    # the upper clamp rounds through 1 - (1 - 1e-12), so only ask for
    # agreement at the 1e-4 level
    assert abs(val - (-math.log(1e-12))) < 1e-3


def test_logloss_perfect_predictions_near_zero():
    probs = np.array([1.0, 0.0])
    labels = np.array([1.0, 0.0])
    assert logloss(probs, labels) < 1e-11


# ---------------------------------------------------------------------------
# validation and the combined report


def test_metrics_reject_bad_shapes():
    with pytest.raises(ShapeError):
        auc(np.ones((2, 2)).ravel()[:3], np.ones(4))
    with pytest.raises(ShapeError):
        logloss(np.ones((2, 2)), np.ones((2, 2)))


def test_metrics_reject_empty_and_nonfinite():
    with pytest.raises(DomainError):
        auc(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        logloss(np.array([np.nan]), np.array([1.0]))


def test_metrics_reject_nonbinary_labels():
    with pytest.raises(DomainError):
        auc(np.array([0.1, 0.9]), np.array([0.0, 2.0]))
    with pytest.raises(DomainError):
        logloss(np.array([0.1, 0.9]), np.array([0.5, 1.0]))


def test_evaluate_counts_and_consistency():
    probs = np.array([0.9, 0.8, 0.7, 0.6])
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    report = evaluate(probs, labels)
    assert report.positives == 2
    assert report.negatives == 2
    assert report.auc == auc(probs, labels)
    assert report.logloss == logloss(probs, labels)
    d = report.to_dict()
    assert set(d) == {"auc", "logloss", "positives", "negatives"}
