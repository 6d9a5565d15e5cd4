"""Forward evaluation of every model kind.

:func:`params.canonical_args` states a kind's arguments,
:func:`params.block_layout` its blocks and its :class:`Kernel` in
:data:`KERNELS` its math. Every kind shares the linear term and the
embedding gather.

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

import numpy as np

from .data import Dataset, Instance
from .errors import ConfigError
from .params import FactorSpan, ModelBundle, materialize_distinct, materialize_tensor, materialize_tucker


# ---------------------------------------------------------------------------
# gathering
# ---------------------------------------------------------------------------


def gather_embeddings(bundle: ModelBundle, gidx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """(B, n, k) array whose row [b, j] is the embedding of the active feature
    of field j, scaled by the instance multiplier."""
    A = bundle.blocks["embeddings"].take(gidx, axis=0)
    A *= vals[..., None]  # in place: no second (B, n, k) array
    return A


def embed_view(bundle: ModelBundle, instance: Instance) -> np.ndarray:
    """The per-instance (k, n) embedding matrix: column j is the scaled
    embedding of the feature active in field j."""
    return gather_embeddings(bundle, *_as_batch(bundle, instance))[0].T


def _as_batch(bundle: ModelBundle, instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    gidx = instance.active.astype(np.int64) + bundle.schema.offsets
    return gidx[None, :], np.asarray(instance.values, dtype=np.float64)[None, :]


def linear_batch(bundle: ModelBundle, gidx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    blocks = bundle.blocks
    return blocks["linear.b"] + (blocks["linear.w"][gidx] * vals).sum(axis=1)


# ---------------------------------------------------------------------------
# per-kind interaction math: the batch layers, then one kernel per kind
# ---------------------------------------------------------------------------


def order_tables(G: np.ndarray, span: FactorSpan) -> np.ndarray:
    """The (B, k, order, rank) view of the factor-stack products ``G`` that
    holds one order's tables; ``[:, :, b]`` is mode b's. A CP span is
    rank-major, so its view is a transposed one."""
    batch, k = G.shape[:2]
    g = G[:, :, span.first : span.first + span.order * span.rank]
    if span.core is None:
        return g.reshape(batch, k, span.rank, span.order).swapaxes(2, 3)
    return g.reshape(batch, k, span.order, span.rank)


def cp_mode_products(A: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Dot-product tables of every factor at once: G[., i, c] = <column c of
    the factor stack, coordinate row i of the instance embedding matrix>;
    (B, k, stack columns)."""
    return A.transpose(0, 2, 1) @ stack


def cp_order_batch(G: np.ndarray, segments: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Every CP order's term, (B, orders), from the factor-stack products
    ``G`` of a rank-major stack: the product over each rank column's modes
    (its columns start at ``segments``), summed over the k coordinates, then
    over each order's rank columns (they start at ``firsts``)."""
    return np.add.reduceat(np.multiply.reduceat(G, segments, axis=2).sum(axis=1), firsts, axis=1)


def _leave_one_out(g: np.ndarray, out: np.ndarray) -> None:
    """For the tables g[:, :, 0..l-1] of one CP order, write into
    out[:, :, b] the elementwise product of all tables but g[:, :, b]."""
    count = g.shape[2]
    prefix = [np.ones_like(g[:, :, 0])]
    for i in range(count - 1):
        prefix.append(prefix[i] * g[:, :, i])
    suffix = np.ones_like(g[:, :, 0])
    for i in range(count - 1, -1, -1):
        np.multiply(prefix[i], suffix, out=out[:, :, i])
        suffix = suffix * g[:, :, i]


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


def _tucker_rest(g: np.ndarray, core: np.ndarray, upstream: np.ndarray, out: np.ndarray) -> np.ndarray:
    """For the mode tables g[:, :, 0..l-1] of one Tucker order, write into
    out[:, :, b] the core contracted with every mode table but b's, and
    return the gradient of the core.

    Both are chains of matrix products over the B·k coordinate rows. For
    mode b the core's axis b is moved last; the first other mode's tables
    meet the core unfolded along its first axis in one GEMM, and each later
    other mode contracts the leading axis of the result with one batched
    (1, r) @ (r, r^m) product, leaving the (B·k, r) rest. The core gradient
    is one GEMM: mode 0's tables, weighted by each row's upstream value,
    against the Khatri-Rao product of modes 1..l-1 built by broadcasting.
    """
    batch, k, order, rank = g.shape
    rows = g.reshape(batch * k, order, rank)
    for b in range(order):
        others = [m for m in range(order) if m != b]
        x = rows[:, others[0]] @ np.moveaxis(core, b, -1).reshape(rank, -1)
        for m in others[1:]:
            x = rows[:, m, None, :] @ x.reshape(batch * k, rank, -1)
        out[:, :, b] = x.reshape(batch, k, rank)
    khatri_rao = rows[:, 1]
    for m in range(2, order):
        khatri_rao = (khatri_rao[:, :, None] * rows[:, m, None, :]).reshape(batch * k, -1)
    weighted = (g[:, :, 0] * upstream[:, None, None]).reshape(batch * k, rank)
    return (weighted.T @ khatri_rao).reshape(core.shape)


def _factor_gradients(bundle: ModelBundle, A: np.ndarray, rest: np.ndarray, upstream: np.ndarray, grads) -> np.ndarray:
    """Two GEMMs from ``rest``, d score / d G of the factor-stack tables (CP:
    the product of the order's other tables; Tucker: the core contracted with
    them): return d_a, and put every factor block's gradient in ``grads``."""
    batch, n, k = A.shape
    rest = rest.reshape(batch * k, -1)
    d_a = (rest @ bundle.factor_stack.T).reshape(batch, k, n).transpose(0, 2, 1)
    weighted = np.multiply(A.transpose(0, 2, 1), upstream[:, None, None], order="C").reshape(batch * k, n)
    stack_grad = weighted.T @ rest
    grads.update((name, stack_grad[:, cols]) for name, cols in bundle.factor_columns.items())
    return d_a


def hofm_table_batch(A: np.ndarray, degree: int) -> list[np.ndarray]:
    """The levels of hofm's polynomial product tree, leaves first.

    Per embedding coordinate, the degree-t term is the coefficient of x^t in
    the product over the fields j of (1 + a_j x). A level is a contiguous
    (D, nodes, B·k) array whose node i is the polynomial
    1 + Σ_t level[t-1, i] x^t. The leaves are the a_j, (1, n, B·k); each
    further level is the product of pairs of nodes of the one below
    (:func:`_pair_products`), truncated at x^degree, until the root is left
    after ceil(log2 n) levels. Its row t-1 holds the degree-t term of every
    coordinate. Every coefficient is a sum of products, with no
    subtraction."""
    batch, n, k = A.shape
    levels = [np.ascontiguousarray(A.transpose(1, 0, 2)).reshape(1, n, batch * k)]
    while levels[-1].shape[1] > 1:
        levels.append(_pair_products(levels[-1], degree))
    return levels


def _pair_products(nodes: np.ndarray, top: int) -> np.ndarray:
    """The next tree level: node i of ``nodes`` times node half + i,
    truncated at x^top, is node i; an odd last node is carried up unchanged.

    The two halves of the pairs are contiguous blocks of every coefficient
    row, so each degree pair i + j <= top is one product of two (half, B·k)
    arrays; no other pair is formed."""
    degree, count, cols = nodes.shape
    half = count // 2
    size = min(2 * degree, top)
    out = np.empty((size, count - half, cols))
    left, right = nodes[:, :half], nodes[:, half : 2 * half]
    np.add(left, right, out=out[:degree, :half])
    for t in range(2, size + 1):
        for i in range(max(1, t - degree), min(degree, t - 1) + 1):
            if i == t - degree:  # x^t is above the inputs' degree: its first term
                np.multiply(left[i - 1], right[t - i - 1], out=out[t - 1, :half])
            else:
                out[t - 1, :half] += left[i - 1] * right[t - i - 1]
    if count % 2:
        out[:degree, -1] = nodes[:, -1]
        out[degree:, -1] = 0.0
    return out


def _outside_products(nodes: np.ndarray, outside: np.ndarray, top: int) -> np.ndarray:
    """One step down the tree: from ``outside``, each parent node's product
    over every leaf outside it truncated at x^top (laid out as a level), the
    same for each node of ``nodes``. A paired node's is its parent's times
    its sibling; a carried node's is its parent's."""
    degree, count, cols = nodes.shape
    half = count // 2
    out = np.empty((top, count, cols))
    sibling = nodes[:, : 2 * half].reshape(degree, 2, half, cols)[:, ::-1]
    parent = outside[:, None, :half]
    prod = out[:, : 2 * half].reshape(top, 2, half, cols)
    low = min(degree, top)
    np.add(parent[:low], sibling[:low], out=prod[:low])
    prod[low:] = parent[low:]
    scratch = np.empty((2, half, cols))
    for t in range(2, top + 1):
        for i in range(max(1, t - degree), t):
            np.multiply(parent[i - 1], sibling[t - i - 1], out=scratch)
            prod[t - 1] += scratch
    if count % 2:
        out[:, -1] = outside[:, -1]
    return out


class Kernel:
    """One kind's interaction math; this base is lr's, which has none.

    Kernels call the layers above by this module's names, so rebinding a
    module attribute (as a tracer does) reaches them.
    """

    def terms(self, bundle, A):
        """The per-order (B,) terms of the gathered embeddings ``A`` (an
        iterable of them: a CP kernel gives the rows of one array), and the
        state that :meth:`d_a` reuses."""
        return (), None

    def d_a(self, bundle, A, state, upstream, grads):
        """d score / d A per row before ``upstream`` (None without embeddings);
        the kind's own blocks' upstream-weighted gradients go in ``grads``."""
        return None

    def tensors(self, bundle):
        """The dense per-order interaction tensors."""
        return {}

    def flops(self, n, k, d, r_vec):
        """The forward count beyond the linear term and the gather."""
        return 0


class _FM(Kernel):
    """fm: the state is the (B, k) field sum; the order-t tensor holds 1/t!
    on every tuple of distinct fields, so each field subset counts once."""

    def terms(self, bundle, A):
        field_sum = A.sum(axis=1)
        return (0.5 * ((field_sum**2).sum(axis=1) - (A * A).sum(axis=(1, 2))),), field_sum

    def d_a(self, bundle, A, field_sum, upstream, grads):
        return field_sum[:, None, :] - A

    def tensors(self, bundle):
        return {order: materialize_distinct(bundle.schema.n, order) for order in range(2, max(bundle.d, 2) + 1)}

    def flops(self, n, k, d, r_vec):
        # field sum (n-1)k, its squared norm 2k-1, the summed squared field
        # norms 2nk-1, difference and halving 2
        return (n - 1) * k + (2 * k - 1) + (2 * n * k - 1) + 2


class _HOFM(_FM):
    """hofm: fm's tensors up to order d; the state is the levels of the
    product tree, walked back down from the root for the gradient."""

    def terms(self, bundle, A):
        levels = hofm_table_batch(A, bundle.d)
        batch, _, k = A.shape
        return (levels[-1][1:, 0].reshape(-1, batch, k).sum(axis=(0, 2)),), levels

    def d_a(self, bundle, A, levels, upstream, grads):
        # d/d a_j of the coefficients 2..d of prod_i (1 + a_i x) is the sum of
        # the coefficients 1..d-1 of the product over every i but j
        batch, n, k = A.shape
        top = bundle.d - 1
        outside = np.zeros((top, 1, batch * k))  # the root's: 1
        for nodes in levels[-2:0:-1]:
            outside = _outside_products(nodes, outside, top)
        # a paired leaf's is its node's outside product o times (1 + partner x),
        # summed over 1..top: sum(o) + partner (1 + sum of o below x^top)
        partial = outside[: top - 1].sum(axis=0)
        total = partial + outside[top - 1]
        lower = np.add(partial, 1.0, out=partial)
        half = n // 2
        d_a = np.empty((n, batch * k))
        pairs = d_a[: 2 * half].reshape(2, half, -1)
        np.multiply(levels[0][0, : 2 * half].reshape(2, half, -1)[::-1], lower[:half], out=pairs)
        pairs += total[:half]
        if n % 2:
            d_a[-1] = total[-1]
        return np.ascontiguousarray(d_a.reshape(n, batch, k).transpose(1, 0, 2))

    def flops(self, n, k, d, r_vec):
        # n - 1 internal nodes: n//2 leaf pairs (a + b, ab) at 2k each, and
        # n - 1 - n//2 products of two polynomials truncated at x^d, counted
        # at full degree: sum over t <= d of 2t - 1, d^2 per coordinate;
        # then the (d-1)k final accumulation
        return 2 * k * (n // 2) + d * d * k * (n - 1 - n // 2) + (d - 1) * k


class _FwFM(Kernel):
    """fwfm: half the bilinear form of the field-pair matrix S, so the order-2
    tensor is S/2; the state is S applied to the (B, k, n) coordinate rows."""

    def terms(self, bundle, A):
        batch, n, k = A.shape
        abar = A.transpose(0, 2, 1)
        sa = (abar.reshape(-1, n) @ bundle.dense_s).reshape(batch, k, n)
        return (0.5 * (abar * sa).sum(axis=(1, 2)),), sa

    def d_a(self, bundle, A, sa, upstream, grads):
        n = A.shape[1]
        abar = A.transpose(0, 2, 1)
        ds_full = 0.5 * ((abar * upstream[:, None, None]).reshape(-1, n).T @ abar.reshape(-1, n))
        grads["pair.upper"] = (ds_full + ds_full.T)[bundle.schema.pair_index]
        return sa.transpose(0, 2, 1).copy()

    def tensors(self, bundle):
        return {2: bundle.dense_s / 2.0}

    def flops(self, n, k, d, r_vec):
        # n(n-1)/2 field pairs, each a length-k dot product plus weighting
        # and accumulation: 2k + 2 each
        return n * (n - 1) // 2 * (2 * k + 2)


class _CP(Kernel):
    """tensorfm: the state is the factor-stack tables G."""

    def terms(self, bundle, A):
        G = cp_mode_products(A, bundle.factor_stack)
        return cp_order_batch(G, bundle.cp_segments, bundle.cp_firsts).T, G

    def d_a(self, bundle, A, G, upstream, grads):
        rest = np.empty_like(G)
        for span in bundle.factor_spans:
            _leave_one_out(order_tables(G, span), order_tables(rest, span))
        return _factor_gradients(bundle, A, rest, upstream, grads)

    def tensors(self, bundle):
        return {s.order: materialize_tensor([bundle.blocks[name] for name in s.factors]) for s in bundle.factor_spans}

    def flops(self, n, k, d, r_vec):
        # per order l of rank r, l*k*r length-n dot products plus the
        # across-mode product-and-sum: 2nkrl + krl (fwfm-lowrank is d=2)
        return sum(order * k * r * 2 * n + k * r * order for order, r in zip(range(2, d + 1), r_vec))


class _Tucker(Kernel):
    """tensorfm-tucker: the state is the factor-stack tables G."""

    def terms(self, bundle, A):
        G = tucker_mode_products(A, bundle.factor_stack)
        return [tucker_order_batch(order_tables(G, s), bundle.blocks[s.core]) for s in bundle.factor_spans], G

    def d_a(self, bundle, A, G, upstream, grads):
        rest = np.empty_like(G)
        for s in bundle.factor_spans:
            grads[s.core] = _tucker_rest(order_tables(G, s), bundle.blocks[s.core], upstream, order_tables(rest, s))
        return _factor_gradients(bundle, A, rest, upstream, grads)

    def tensors(self, bundle):
        blocks = bundle.blocks
        return {
            s.order: materialize_tucker(blocks[s.core], [blocks[f] for f in s.factors]) for s in bundle.factor_spans
        }

    def flops(self, n, k, d, r_vec):
        # per order l of rank r, the mode products 2nkrl plus the core
        # contraction r^l (lk + 2)
        return sum(2 * n * k * r * order + (r**order) * (order * k + 2) for order, r in zip(range(2, d + 1), r_vec))


KERNELS = {
    "lr": Kernel(),
    "fm": _FM(),
    "fwfm": _FwFM(),
    "hofm": _HOFM(),
    "tensorfm": _CP(),
    "tensorfm-tucker": _Tucker(),
}


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
    state: object = None  # the kernel's backward state


def _interaction_terms(bundle: ModelBundle, cache: ForwardCache):
    """The kind's interaction terms, one (B,) array per order (one in all
    for fm, fwfm and hofm, none for lr), keeping backward intermediates in
    ``cache``."""
    if "embeddings" in bundle.blocks:
        cache.A = gather_embeddings(bundle, cache.gidx, cache.vals)
    terms, cache.state = KERNELS[bundle.kind].terms(bundle, cache.A)
    return terms


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
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    out = np.empty(len(dataset))
    for lo in range(0, len(dataset), batch_size):
        hi = min(lo + batch_size, len(dataset))
        out[lo:hi] = forward_batch(bundle, dataset.global_indices[lo:hi], dataset.values[lo:hi]).scores
    return out


# ---------------------------------------------------------------------------
# per-instance scorers
# ---------------------------------------------------------------------------


def score_linear(bundle: ModelBundle, instance: Instance) -> float:
    return float(linear_batch(bundle, *_as_batch(bundle, instance))[0])


def interaction_term(bundle: ModelBundle, instance: Instance) -> float:
    """Sum of the kind's interaction terms for one instance (no linear block)."""
    return float(sum(_interaction_terms(bundle, ForwardCache(*_as_batch(bundle, instance))), np.zeros(1))[0])


def score(bundle: ModelBundle, instance: Instance) -> float:
    """Full predictor for any kind: linear block plus interaction terms."""
    return float(forward_batch(bundle, *_as_batch(bundle, instance)).scores[0])


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
    """Dense per-order field interaction tensors implied by the bundle: the
    literal ordered-tuple sum over them reproduces the model's interaction
    term."""
    return KERNELS[bundle.kind].tensors(bundle)


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
    if "embeddings" not in bundle.blocks:
        return score_linear(bundle, instance)
    n = bundle.schema.n
    total_tuples = sum(n**o for o in range(2, max(bundle.d, 2) + 1))
    if total_tuples > max_tuples:
        raise ConfigError(f"oracle would sum {total_tuples} tuples, above the cap of {max_tuples}")
    interactions = oracle_interaction_sum(embed_view(bundle, instance), interaction_tensors(bundle))
    return score_linear(bundle, instance) + interactions
