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


def hofm_dp_oracle(A, degree):
    """hofm's ANOVA-kernel dynamic program over the gathered embeddings ``A``
    (B, n, k), one array step per field: the (B,) sum of its terms of
    degrees 2..``degree`` and their gradient d/dA, (B, n, k).

    ``dp[j, t]`` sums, per embedding coordinate, the products over the
    t-subsets of the first j fields: dp[j, t] = dp[j-1, t] + A[:, j-1] *
    dp[j-1, t-1]. The backward pass walks the fields back from j = n,
    carrying d terms / d dp[j]."""
    A = np.asarray(A, dtype=np.float64)
    b, n, k = A.shape
    dp = np.zeros((n + 1, degree + 1, b, k))
    dp[:, 0] = 1.0
    for j in range(1, n + 1):
        dp[j, 1:] = dp[j - 1, 1:] + A[:, j - 1] * dp[j - 1, :-1]
    d_a = np.empty_like(A)
    adj = np.zeros_like(dp[0])
    adj[2:] = 1.0
    for j in range(n, 0, -1):
        d_a[:, j - 1] = (adj[1:] * dp[j - 1, :-1]).sum(axis=0)
        adj[:-1] += adj[1:] * A[:, j - 1]
    return dp[-1, 2:].sum(axis=(0, 2)), d_a


def dataset_text_oracle(dataset) -> str:
    """The dataset text format written a row at a time: the reference for
    :func:`tensorfm.write_dataset`, which builds the same bytes a field at a
    time."""
    lines = ["#schema " + ",".join(str(c) for c in dataset.schema.cardinalities)]
    for label, active, values in zip(dataset.labels.tolist(), dataset.active.tolist(), dataset.values.tolist()):
        pairs = enumerate(zip(active, values))
        lines.append(f"{label} " + " ".join(f"{j}:{a}" if v == 1.0 else f"{j}:{a}:{v!r}" for j, (a, v) in pairs))
    return "\n".join(lines) + "\n"
