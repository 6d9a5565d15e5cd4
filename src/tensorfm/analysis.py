"""Inference-cost accounting and interpretability reports.

FLOPs counts are exact closed forms over the mathematical formulation of each
scorer (one count per scalar multiply or add), so cost comparisons do not
depend on vectorization details. ``params.canonical_args`` states a kind's
arguments, ``params.block_layout`` its blocks and ``scoring.KERNELS`` its
math, whose ``flops`` gives the kind's own count; so the FLOPs count takes
exactly the models :func:`params.init` can build. Latency measurement, by
contrast, times the real batch scorers and is only meaningful for ordinal
comparisons on one machine.

The interpretability pipeline compares two per-field-combination rankings,
neither of which groups the rows by feature tuple: the mean magnitude of
the model's learned interaction terms, and the label mutual information.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, MetricError
from .params import ModelBundle, canonical_args
from .scoring import KERNELS, SCORE_BATCH, interaction_orders, score_dataset


# ---------------------------------------------------------------------------
# FLOPs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlopsModel:
    kind: str
    n: int
    k: int
    d: int
    r_vec: tuple[int, ...]
    flops: int


def flops_estimate(
    kind: str,
    n: int,
    k: int = 8,
    d: int = 2,
    r_vec: tuple[int, ...] | int | None = None,
) -> FlopsModel:
    """Closed-form scalar operation count for one forward pass: the linear
    term's ``2n + 1`` (n multiply-adds plus the bias add), the ``nk``
    scaling of the gathered embeddings by their multipliers, and the count
    of the kind's kernel, whose ``flops`` states its formula."""
    kind, k, d, r_vec = canonical_args(kind, n, k, d, r_vec)
    return FlopsModel(kind, n, k, d, r_vec, 2 * n + 1 + n * k + KERNELS[kind].flops(n, k, d, r_vec))


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatencyReport:
    seconds_per_instance: float  # median over repeats
    std_seconds: float
    repeats: int
    n_instances: int


def time_inference(
    bundle: ModelBundle,
    dataset: Dataset,
    repeats: int = 5,
    batch_size: int = SCORE_BATCH,
) -> LatencyReport:
    """Wall-clock scoring latency per instance, median of ``repeats`` passes.

    One untimed warm-up pass runs first. Results are machine-dependent and
    intended only for ordinal comparisons between models.
    """
    if repeats < 3:
        raise ConfigError("need at least 3 repeats for a stable median")
    dataset.require_rows()
    score_dataset(bundle, dataset, batch_size=batch_size)  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        score_dataset(bundle, dataset, batch_size=batch_size)
        times.append((time.perf_counter() - t0) / len(dataset))
    return LatencyReport(
        seconds_per_instance=float(np.median(times)),
        std_seconds=float(np.std(times)),
        repeats=repeats,
        n_instances=len(dataset),
    )


# ---------------------------------------------------------------------------
# interpretability
# ---------------------------------------------------------------------------


def learned_strength(
    bundle: ModelBundle,
    train_set: Dataset,
    order: int,
) -> dict[tuple[int, ...], float]:
    """Mean interaction magnitude over the rows per field combination.

    For each combination of ``order`` distinct fields, every row contributes
    the magnitude of its interaction term at those fields: the tensor weight
    times the multi-way inner product of the row's feature embeddings. Tensor
    weights of all orderings of the field combination are averaged, which
    makes the score comparable to the (order-free) mutual information. Each
    embedding counts scaled by its field's multiplier, as the scorers scale
    it, so the inner product is times the product of the row's multipliers
    at those fields. Only the order-``order`` tensor is built.
    """
    train_set.require_rows()
    train_set.require_schema(bundle.schema)
    if order not in interaction_orders(bundle):
        raise ConfigError(f"bundle has no order-{order} interaction parameters")
    tensor = KERNELS[bundle.kind].tensor(bundle, order)
    emb = bundle.blocks["embeddings"]
    gidx = train_set.global_indices
    vals = None if train_set.unit_values else train_set.values

    out: dict[tuple[int, ...], float] = {}
    for combo in itertools.combinations(range(train_set.schema.n), order):
        # mean |tensor entry| over orderings of this field combination
        weight = sum(abs(float(tensor[perm])) for perm in itertools.permutations(combo)) / math.factorial(order)
        prod = emb[gidx[:, combo[0]]]
        for f in combo[1:]:
            prod *= emb[gidx[:, f]]
        if vals is not None:
            prod *= vals[:, combo].prod(axis=1)[:, None]
        out[combo] = weight * float(np.abs(prod.sum(axis=1)).mean())
    return out


def mutual_information(train_set: Dataset, fields: tuple[int, ...]) -> float:
    """Plug-in mutual information (natural log) between the feature tuple at
    ``fields`` and the label, from empirical frequencies. A row's tuple id,
    its rank among the distinct tuples in lexicographic order, is built a
    field at a time as the rank of ``id * cardinality + value``: the id is
    below the row count, so the key fits in int64."""
    train_set.require_rows()
    ids = np.zeros(len(train_set), dtype=np.int64)
    for f in fields:
        _, ids = np.unique(ids * train_set.schema.cardinalities[f] + train_set.active[:, f], return_inverse=True)
    joint = np.bincount(2 * ids + train_set.labels, minlength=2 * (ids.max() + 1)).reshape(-1, 2)
    p_joint = joint / len(train_set)
    p_x = p_joint.sum(axis=1, keepdims=True)
    p_y = p_joint.sum(axis=0, keepdims=True)
    mask = p_joint > 0
    ratio = p_joint[mask] / (p_x @ p_y)[mask]
    return float((p_joint[mask] * np.log(ratio)).sum())


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise MetricError("Pearson correlation needs two aligned vectors of length >= 2")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return float("nan")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


@dataclass(frozen=True)
class OverlapPoint:
    k: int
    overlap: float
    baseline_squared: float  # (k / n_tuples) ** 2
    baseline_uniform: float  # k / n_tuples, the expected overlap of random rankings


@dataclass(frozen=True)
class InteractionReport:
    tuples: list[tuple[int, ...]]
    learned: list[float]
    mutual_info: list[float]
    pearson: float
    topk_overlap: list[OverlapPoint]


def topk_overlap(a, b, k: int) -> float:
    """Fraction of the top-k items (by score) shared between two rankings."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    top_a = set(np.argsort(-a, kind="stable")[:k].tolist())
    top_b = set(np.argsort(-b, kind="stable")[:k].tolist())
    return len(top_a & top_b) / k


def interaction_report(
    bundle: ModelBundle,
    train_set: Dataset,
    order: int,
    k_list: list[int],
) -> InteractionReport:
    """Learned strength vs. mutual information across all field combinations
    of the given order, with their correlation and top-k ranking overlap."""
    strengths = learned_strength(bundle, train_set, order)  # keyed in sorted order
    tuples, learned = list(strengths), list(strengths.values())
    mi = [mutual_information(train_set, t) for t in tuples]
    n_tuples = len(tuples)
    points = [
        OverlapPoint(k, topk_overlap(learned, mi, k), (k / n_tuples) ** 2, k / n_tuples)
        for k in k_list
        if 1 <= k <= n_tuples
    ]
    return InteractionReport(tuples, learned, mi, pearson(learned, mi), points)
