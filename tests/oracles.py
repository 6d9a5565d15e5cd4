"""Slow reference implementations that the tests compare the package against."""

import numpy as np

from tensorfm import MetricError


def auc_pair_oracle(scores, labels) -> float:
    """Quadratic-time pair-counting reference for :func:`tensorfm.auc`."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC is undefined without both a positive and a negative instance")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))
