"""Slow reference implementations that the tests compare the package against."""

import itertools
import math

import numpy as np

from tensorfm import MetricError, NumericError, floatfmt
from tensorfm.scoring import KERNELS, interaction_tensors
from tensorfm.training import ADAGRAD_EPSILON


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
    :func:`tensorfm.write_dataset`, which builds the same bytes as arrays a
    chunk of rows at a time."""
    lines = ["#schema " + ",".join(str(c) for c in dataset.schema.cardinalities)]
    for label, active, values in zip(dataset.labels.tolist(), dataset.active.tolist(), dataset.values.tolist()):
        pairs = enumerate(zip(active, values))
        lines.append(f"{label} " + " ".join(f"{j}:{a}" if v == 1.0 else f"{j}:{a}:{v!r}" for j, (a, v) in pairs))
    return "\n".join(lines) + "\n"


def model_block_text_oracle(name: str, arr) -> str:
    """A model-file block written a row at a time with ``repr``: the
    reference for ``tensorfm.params._write_block``, which spells whole
    chunks of values at once."""
    rows = arr.reshape(math.prod(arr.shape[:-1]), -1)  # a vector is one row
    lines = (" ".join(map(repr, row.tolist())) + "\n" for row in rows)
    return f"block {name} {'x'.join(map(str, arr.shape))}\n" + "".join(lines)


def _rounding_oracle(m_low, m_high, e, e10, p):
    """For p significant digits: the floor q of m * 2**e * 10**k, whether it
    rounds up, whether the rounding reads back and whether it is an exact
    tie, from the 128-bit product m * 5**k of this length."""
    U = np.uint64
    k = p - 1 - e10
    f = floatfmt._POW5[k]
    shift = (-(k + e)).astype(np.uint64)
    f_low, f_high = f & floatfmt._M32, f >> U(32)
    low = m_low * f_low
    mid = m_low * f_high + m_high * f_low + (low >> U(32))
    lo = (mid << U(32)) | (low & floatfmt._M32)
    hi = m_high * f_high + (mid >> U(32))
    q = (hi << (U(64) - shift)) | (lo >> shift)
    unit = U(1) << shift
    rem, half = lo & (unit - U(1)), unit >> U(1)
    up = rem > half
    return q, up, np.where(up, unit - rem, rem) <= floatfmt._HALF5[k], rem == half


def shortest_three_products_oracle(bits):
    """The reference for ``tensorfm.floatfmt._shortest``, which forms one
    128-bit product per value: the 17-, 16- and 15-digit roundings each
    from its own product, the shortest that reads back taken, as 17 digits
    r with trailing zeros, with its decimal exponent e10 and whether any of
    the three was an exact tie."""
    U = np.uint64
    m = (bits & floatfmt._FRAC) | (U(1) << U(52))
    m_low, m_high = m & floatfmt._M32, m >> U(32)
    e = (bits >> U(52)).astype(np.int64) - 1075
    e10 = np.floor(np.log10(bits.view(np.float64))).astype(np.int64)
    q17, up17, _, tie17 = _rounding_oracle(m_low, m_high, e, e10, 17)
    off = (q17 >= U(10**17)).astype(np.int64) - (q17 < U(10**16))
    if off.any():
        e10 += off
        q17, up17, _, tie17 = _rounding_oracle(m_low, m_high, e, e10, 17)
    q16, up16, ok16, tie16 = _rounding_oracle(m_low, m_high, e, e10, 16)
    q15, up15, ok15, tie15 = _rounding_oracle(m_low, m_high, e, e10, 15)
    r = np.where(ok15, (q15 + up15) * U(100), np.where(ok16, (q16 + up16) * U(10), q17 + up17))
    carry = r == U(10**17)
    r[carry] = U(10**16)
    e10 += carry
    return r, e10, tie17 | tie16 | tie15


def learned_strength_grouped_oracle(bundle, train_set, order):
    """Learned strength with the rows grouped by feature tuple and
    multipliers: each distinct tuple's magnitude, its embeddings scaled by
    its multipliers, weighted by its count, from every order's dense
    tensor. The reference for :func:`tensorfm.learned_strength`, which
    averages over the rows and builds one order's tensor."""
    tensor = interaction_tensors(bundle)[order]
    emb = bundle.blocks["embeddings"]
    offsets = train_set.schema.offsets
    out = {}
    for combo in itertools.combinations(range(train_set.schema.n), order):
        weight = sum(abs(float(tensor[perm])) for perm in itertools.permutations(combo)) / math.factorial(order)
        # float64 holds every local index exactly
        keys = np.concatenate([train_set.active[:, combo], train_set.values[:, combo]], axis=1)
        tuples, counts = np.unique(keys, axis=0, return_counts=True)
        prod = np.ones((len(tuples), emb.shape[1]))
        for pos, f in enumerate(combo):
            prod *= emb[offsets[f] + tuples[:, pos].astype(np.int64)] * tuples[:, order + pos, None]
        inner = prod.sum(axis=1)
        out[combo] = float((np.abs(inner) * weight * counts).sum() / counts.sum())
    return out


def mutual_information_grouped_oracle(train_set, fields):
    """Mutual information with the tuple ids from ``np.unique(axis=0)`` and
    the joint table from ``np.add.at``: the reference for
    :func:`tensorfm.mutual_information`, which builds the ids a field at a
    time."""
    _, key_ids = np.unique(train_set.active[:, list(fields)], axis=0, return_inverse=True)
    key_ids = key_ids.ravel()
    y = train_set.labels.astype(np.int64)
    joint = np.zeros((key_ids.max() + 1, 2))
    np.add.at(joint, (key_ids, y), 1.0)
    p_joint = joint / float(len(train_set))
    p_x = p_joint.sum(axis=1, keepdims=True)
    p_y = p_joint.sum(axis=0, keepdims=True)
    mask = p_joint > 0
    ratio = p_joint[mask] / (p_x @ p_y)[mask]
    return float((p_joint[mask] * np.log(ratio)).sum())


def symmetrize(tensor: np.ndarray) -> np.ndarray:
    """Average a tensor over all permutations of its axes."""
    order = tensor.ndim
    acc = np.zeros_like(tensor)
    for perm in itertools.permutations(range(order)):
        acc += np.transpose(tensor, perm)
    return acc / math.factorial(order)


def backward_dense_oracle(bundle, cache, upstream):
    """The batch gradient with every block a whole array: ``linear.w`` and
    each embedding coordinate are one ``bincount`` over the global indices
    with ``minlength`` m. The reference for
    :func:`tensorfm.backward_from_cache`, which scatters into the touched
    rows only."""
    upstream = np.asarray(upstream, dtype=np.float64)
    gidx, vals = cache.gidx, cache.vals
    m = bundle.schema.m
    flat_gidx = gidx.ravel()
    w = np.repeat(upstream[:, None], gidx.shape[1], axis=1) if vals is None else upstream[:, None] * vals
    grads = {
        "linear.b": np.array([upstream.sum()]),
        "linear.w": np.bincount(flat_gidx, weights=w.ravel(), minlength=m),
    }
    d_a = KERNELS[bundle.kind].d_a(bundle, cache.A, cache.state, upstream, grads)
    if d_a is not None:
        d_emb = np.empty((m, d_a.shape[2]))
        for h in range(d_emb.shape[1]):
            weights = d_a[:, :, h] if vals is None else d_a[:, :, h] * vals  # d_a holds the upstream
            d_emb[:, h] = np.bincount(flat_gidx, weights=weights.ravel(), minlength=m)
        grads["embeddings"] = d_emb
    return {name: grads[name] for name in bundle.blocks}


def adagrad_dense_oracle(bundle, grads, state, config):
    """One AdaGrad step over every row of every block, from whole-array
    gradients: the reference for :func:`tensorfm.adagrad_step`, which
    updates only the touched rows when there is no L2 term."""
    lr = config.learning_rate
    for name, theta in bundle.blocks.items():
        grad = grads[name]
        if not np.all(np.isfinite(grad)):
            raise NumericError(f"non-finite gradient in block {name!r}")
        l2 = 0.0 if name == "linear.b" else config.l2
        g = grad + l2 * theta if l2 else grad
        acc = state[name]
        acc += g * g
        theta -= lr * g / (np.sqrt(acc) + ADAGRAD_EPSILON)
