"""Forward evaluation of every model kind.

Two routes exist for each model: a fast factorized scorer whose cost is
linear in the number of fields for the low-rank kinds, and a brute-force
reference (:func:`score_naive_oracle`) that materializes the interaction
tensors and sums over every ordered field index tuple. The fast scorers are
the production path; the oracle exists so tests can check them against an
independent computation.

Batch scorers operate on ``(B, n)`` index/value arrays and return ``(B,)``
scores. Per-instance functions wrap a batch of one.

All scorers are pure functions of a frozen bundle and the instance data;
they are safe to call concurrently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .data import Dataset, Instance
from .errors import ConfigError
from .params import ModelBundle, materialize_distinct, materialize_tensor, materialize_tucker


# ---------------------------------------------------------------------------
# gathering
# ---------------------------------------------------------------------------


def gather_embeddings(bundle: ModelBundle, gidx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """(B, n, k) array whose row [b, j] is the embedding of the active feature
    of field j, scaled by the instance multiplier."""
    A = bundle.blocks["embeddings"][gidx]
    A *= vals[..., None]  # in place: no second (B, n, k) array
    return A


def embed_view(bundle: ModelBundle, instance: Instance) -> np.ndarray:
    """The per-instance (k, n) embedding matrix: column j is the scaled
    embedding of the feature active in field j."""
    gidx = instance.active.astype(np.int64) + bundle.schema.offsets
    return (bundle.blocks["embeddings"][gidx] * instance.values[:, None]).T


def _as_batch(bundle: ModelBundle, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    gidx = instance.active.astype(np.int64) + bundle.schema.offsets
    return gidx[None, :], np.asarray(instance.values, dtype=np.float64)[None, :]


# ---------------------------------------------------------------------------
# batch interaction terms
# ---------------------------------------------------------------------------


def linear_batch(bundle: ModelBundle, gidx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    blocks = bundle.blocks
    return blocks["linear.b"] + (blocks["linear.w"][gidx] * vals).sum(axis=1)


def fwfm_pair_batch(A: np.ndarray, pair_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Field-weighted pair sum (half the bilinear form of ``pair_matrix``)
    plus the intermediate product reused by the backward pass."""
    b, n, k = A.shape
    abar = A.transpose(0, 2, 1)  # (B, k, n)
    sa = (abar.reshape(-1, n) @ pair_matrix).reshape(b, k, n)
    return 0.5 * (abar * sa).sum(axis=(1, 2)), sa


def order_tables(G: np.ndarray, span: tuple[int, int, int]) -> np.ndarray:
    """The (B, k, order, rank) view of the factor-stack products ``G`` that
    holds one order's tables; ``[:, :, b]`` is mode b's."""
    order, first, rank = span
    return G[:, :, first : first + order * rank].reshape(G.shape[0], G.shape[1], order, rank)


def cp_mode_products(A: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Dot-product tables of every factor at once: G[., i, c] = <column c of
    the factor stack, coordinate row i of the instance embedding matrix>;
    (B, k, stack columns)."""
    return A.transpose(0, 2, 1) @ stack


def cp_order_batch(g: np.ndarray) -> np.ndarray:
    """One CP order's term from its :func:`order_tables` view."""
    return g.prod(axis=2).sum(axis=(1, 2))


def tucker_mode_products(A: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The Tucker factor-stack tables, as :func:`cp_mode_products`."""
    return A.transpose(0, 2, 1) @ stack


def tucker_order_batch(g: np.ndarray, core: np.ndarray) -> np.ndarray:
    """One Tucker order's term: its core contracted with the mode tables of
    its :func:`order_tables` view, as a chain of matrix products.

    The last mode's tables meet the core unfolded along its last axis in one
    GEMM over the B·k coordinate rows, giving a (B·k, r^(order-1)) array.
    Modes order-2 down to 1 each contract that array's trailing axis with
    one batched (r^m, r) @ (r, 1) product. Mode 0 and the sum over the k
    coordinates are one (1, k·r) @ (k·r, 1) product per batch row.
    """
    batch, k, order, rank = g.shape
    rows = g.reshape(batch * k, order, rank)
    x = rows[:, order - 1] @ core.reshape(-1, rank).T
    for m in range(order - 2, 0, -1):
        x = x.reshape(batch * k, -1, rank) @ rows[:, m, :, None]
    return (x.reshape(batch, 1, k * rank) @ g[:, :, 0].reshape(batch, k * rank, 1)).reshape(batch)


def hofm_table_batch(A: np.ndarray, degree: int) -> np.ndarray:
    """Dynamic-program table for sums of distinct-field products.

    Returns ``dp`` of shape (n + 1, degree + 1, B, k) where ``dp[j, t]``
    accumulates, per embedding coordinate, the sum over all strictly
    increasing t-subsets of the first j fields of the product of their
    entries. The degree-t interaction term is ``dp[n, t]`` summed over
    coordinates.
    """
    b, n, k = A.shape
    dp = np.zeros((n + 1, degree + 1, b, k))
    dp[:, 0] = 1.0
    for j in range(1, n + 1):
        aj = A[:, j - 1, :]
        for t in range(1, degree + 1):
            dp[j, t] = dp[j - 1, t] + aj * dp[j - 1, t - 1]
    return dp


# ---------------------------------------------------------------------------
# full forward pass with gradient cache
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    """Everything the backward pass needs from a batch forward pass."""

    gidx: np.ndarray
    vals: np.ndarray
    scores: np.ndarray | None = None
    A: np.ndarray | None = None
    fm_sum: np.ndarray | None = None  # (B, k) sum of field embeddings
    fwfm_sa: np.ndarray | None = None  # (B, k, n) pair_matrix applied to coordinate rows
    mode_products: np.ndarray | None = None  # (B, k, stack columns) CP or Tucker factor-stack tables
    hofm_dp: np.ndarray | None = None


def _interaction_terms(bundle: ModelBundle, cache: ForwardCache) -> Iterator[np.ndarray]:
    """Yield the kind's interaction terms, one (B,) array per order (one in
    all for fm, fwfm and hofm), keeping backward intermediates in ``cache``."""
    kind, blocks = bundle.kind, bundle.blocks
    if kind == "lr":
        return
    A = cache.A = gather_embeddings(bundle, cache.gidx, cache.vals)
    if kind == "fm":
        cache.fm_sum = A.sum(axis=1)
        yield 0.5 * ((cache.fm_sum**2).sum(axis=1) - (A * A).sum(axis=(1, 2)))
    elif kind == "fwfm":
        term, cache.fwfm_sa = fwfm_pair_batch(A, bundle.dense_s)
        yield term
    elif kind == "hofm":
        cache.hofm_dp = hofm_table_batch(A, bundle.d)
        yield cache.hofm_dp[-1, 2:].sum(axis=(0, 2))
    elif kind == "tensorfm":
        G = cache.mode_products = cp_mode_products(A, bundle.factor_stack)
        for span in bundle.factor_spans:
            yield cp_order_batch(order_tables(G, span))
    else:  # tensorfm-tucker
        G = cache.mode_products = tucker_mode_products(A, bundle.factor_stack)
        for span, (_, names) in zip(bundle.factor_spans, bundle.factor_sets):
            yield tucker_order_batch(order_tables(G, span), blocks[names[0]])


def forward_batch(bundle: ModelBundle, gidx: np.ndarray, vals: np.ndarray) -> ForwardCache:
    """Score a batch under the bundle's kind, keeping backward intermediates.

    The returned scores are the full predictor: the linear term, then each
    interaction term added in turn.
    """
    cache = ForwardCache(gidx=gidx, vals=vals)
    scores = linear_batch(bundle, gidx, vals)
    for term in _interaction_terms(bundle, cache):
        scores += term
    cache.scores = scores
    return cache


def score_dataset(bundle: ModelBundle, dataset: Dataset, batch_size: int = 4096) -> np.ndarray:
    if dataset.schema.cardinalities != bundle.schema.cardinalities:
        raise ConfigError("dataset schema does not match the model schema")
    out = np.empty(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        hi = min(lo + batch_size, len(dataset))
        out[lo:hi] = forward_batch(bundle, dataset.global_indices[lo:hi], dataset.values[lo:hi]).scores
    return out


# ---------------------------------------------------------------------------
# per-instance scorers
# ---------------------------------------------------------------------------


def score_linear(bundle: ModelBundle, instance: Instance) -> float:
    gidx, vals = _as_batch(bundle, instance)
    return float(linear_batch(bundle, gidx, vals)[0])


def interaction_term(bundle: ModelBundle, instance: Instance) -> float:
    """Sum of the kind's interaction terms for one instance (no linear block)."""
    gidx, vals = _as_batch(bundle, instance)
    return float(sum(_interaction_terms(bundle, ForwardCache(gidx=gidx, vals=vals)), np.zeros(1))[0])


def score(bundle: ModelBundle, instance: Instance) -> float:
    """Full predictor for any kind: linear block plus interaction terms."""
    gidx, vals = _as_batch(bundle, instance)
    return float(forward_batch(bundle, gidx, vals).scores[0])


def predict_proba(bundle: ModelBundle, instance: Instance) -> float:
    return float(sigmoid(np.asarray(score(bundle, instance))))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (never exponentiates a large
    positive argument)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def interaction_tensors(bundle: ModelBundle) -> dict[int, np.ndarray]:
    """Dense per-order field interaction tensors implied by the bundle.

    The literal ordered-tuple sum over the returned tensors reproduces the
    model's interaction term. fm and hofm weight each tuple of distinct
    fields 1/t! at order t, so each field subset counts once; fwfm's
    order-2 tensor is half its symmetric pair matrix.
    """
    kind, blocks = bundle.kind, bundle.blocks
    if kind in ("fm", "hofm"):
        return {order: materialize_distinct(bundle.schema.n, order) for order in range(2, max(bundle.d, 2) + 1)}
    if kind == "fwfm":
        return {2: bundle.dense_s / 2.0}
    if kind == "tensorfm":
        return {order: materialize_tensor([blocks[name] for name in names]) for order, names in bundle.factor_sets}
    if kind == "tensorfm-tucker":
        return {
            order: materialize_tucker(blocks[core], [blocks[name] for name in names])
            for order, (core, *names) in bundle.factor_sets
        }
    return {}


def oracle_interaction_sum(a_matrix: np.ndarray, tensors: dict[int, np.ndarray]) -> float:
    """Literal sum over every ordered field index tuple.

    ``a_matrix`` is the per-instance (k, n) embedding matrix; each tensor
    entry weights the multi-way inner product of the addressed columns. This
    is the exponential-time reference the fast scorers are tested against.
    """
    n = a_matrix.shape[1]
    total = 0.0
    for order, tensor in sorted(tensors.items()):
        for tup in itertools.product(range(n), repeat=order):
            weight = float(tensor[tup])
            if weight == 0.0:
                continue
            total += weight * float(np.prod(a_matrix[:, list(tup)], axis=1).sum())
    return total


def score_naive_oracle(bundle: ModelBundle, instance: Instance, max_tuples: int = 1_000_000) -> float:
    """Reference score: linear block plus interaction terms computed by
    materializing every interaction tensor and summing over all index tuples.

    Raises :class:`ConfigError` when that sum would exceed ``max_tuples``
    ordered tuples (orders 2..max(d, 2) for every kind with interactions).
    """
    if bundle.kind == "lr":
        return score_linear(bundle, instance)
    n = bundle.schema.n
    total_tuples = sum(n**o for o in range(2, max(bundle.d, 2) + 1))
    if total_tuples > max_tuples:
        raise ConfigError(f"oracle would sum {total_tuples} tuples, above the cap of {max_tuples}")
    interactions = oracle_interaction_sum(embed_view(bundle, instance), interaction_tensors(bundle))
    return score_linear(bundle, instance) + interactions
