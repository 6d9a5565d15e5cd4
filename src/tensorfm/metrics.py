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


def auc_pair_oracle(scores, labels) -> float:
    """Quadratic-time pair-counting reference for :func:`auc`."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC is undefined without both a positive and a negative instance")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def softplus(x) -> np.ndarray:
    """log(1 + exp(x)), computed without overflow for any finite x."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy of raw scores (logits) against labels."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.size == 0:
        raise MetricError("log-loss is undefined on an empty input")
    return float((softplus(s) - s * y).mean())


def evaluate(scores, labels) -> EvalReport:
    y = np.asarray(labels)
    return EvalReport(
        auc=auc(scores, labels),
        logloss=logloss(scores, labels),
        n_pos=int((y == 1).sum()),
        n_neg=int((y == 0).sum()),
    )
