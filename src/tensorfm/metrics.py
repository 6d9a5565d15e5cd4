"""Ranking and calibration metrics over raw model scores."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class EvalReport:
    auc: float
    logloss: float
    n_pos: int
    n_neg: int


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, with
    ties counted as one half.

    Computed from tie-averaged ranks in O(N log N): the rank-sum of the
    positives determines the number of correctly ordered pairs.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC is undefined without both a positive and a negative instance")

    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    # tie-averaged 1-based ranks
    group = np.concatenate(([0], np.cumsum(np.diff(sorted_s) != 0)))
    mean_rank = np.bincount(group, weights=np.arange(1, len(s) + 1)) / np.bincount(group)
    ranks = np.empty(len(s))
    ranks[order] = mean_rank[group]
    rank_sum_pos = ranks[y == 1].sum()
    return float((rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def softplus(x) -> np.ndarray:
    """log(1 + exp(x)), computed without overflow for any finite x."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_from_score(score, label) -> np.ndarray:
    """Binary cross-entropy evaluated from the raw score (the logit), which
    stays finite for any score magnitude."""
    s = np.asarray(score, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    return softplus(s) - s * y


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy of raw scores (logits) against labels."""
    loss = bce_from_score(scores, labels)
    if loss.size == 0:
        raise MetricError("log-loss is undefined on an empty input")
    return float(loss.mean())


def evaluate(scores, labels) -> EvalReport:
    y = np.asarray(labels)
    return EvalReport(
        auc=auc(scores, labels),
        logloss=logloss(scores, labels),
        n_pos=int((y == 1).sum()),
        n_neg=int((y == 0).sum()),
    )
