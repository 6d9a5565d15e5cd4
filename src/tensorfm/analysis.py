"""Inference-cost accounting and interpretability reports.

FLOPs counts are exact closed forms over the mathematical formulation of each
scorer (one count per scalar multiply or add), so cost comparisons do not
depend on vectorization details. ``params.canonical_args`` states a kind's
arguments, ``params.block_layout`` its blocks and ``scoring.KERNELS`` its
math, whose ``flops`` gives the kind's own count; so the FLOPs count takes
exactly the models :func:`params.init` can build. Latency measurement, by
contrast, times the real batch scorers and is only meaningful for ordinal
comparisons on one machine.

The interpretability pipeline compares two per-field-combination rankings:
the occurrence-weighted magnitude of the model's learned interaction terms,
and the mutual information between the fields and the label.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DataError, MetricError
from .params import ModelBundle, canonical_args
from .scoring import KERNELS, interaction_tensors, score_dataset


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


def _require_rows(dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise DataError(f"{dataset.provenance or 'dataset'}: no data rows")


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
    batch_size: int = 4096,
) -> LatencyReport:
    """Wall-clock scoring latency per instance, median of ``repeats`` passes.

    One untimed warm-up pass runs first. Results are machine-dependent and
    intended only for ordinal comparisons between models.
    """
    if repeats < 3:
        raise ConfigError("need at least 3 repeats for a stable median")
    _require_rows(dataset)
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
    """Occurrence-weighted mean interaction magnitude per field combination.

    For each combination of ``order`` distinct fields, every feature tuple
    observed in the training set contributes the magnitude of its interaction
    term — the tensor weight times the multi-way inner product of the
    features' embeddings — weighted by its occurrence count. Tensor weights
    of all orderings of the field combination are averaged, which makes the
    score comparable to the (order-free) mutual information.
    """
    _require_rows(train_set)
    tensors = interaction_tensors(bundle)
    if order not in tensors:
        raise ConfigError(f"bundle has no order-{order} interaction parameters")
    tensor = tensors[order]
    emb = bundle.blocks["embeddings"]
    offsets = train_set.schema.offsets
    n = train_set.schema.n

    out: dict[tuple[int, ...], float] = {}
    for combo in itertools.combinations(range(n), order):
        # mean |tensor entry| over orderings of this field combination
        weight = sum(abs(float(tensor[perm])) for perm in itertools.permutations(combo)) / math.factorial(order)

        # the distinct feature tuples at these fields, in lexicographic order
        tuples, counts = np.unique(train_set.active[:, combo], axis=0, return_counts=True)
        prod = np.ones((len(tuples), emb.shape[1]))
        for pos, f in enumerate(combo):
            prod *= emb[offsets[f] + tuples[:, pos]]
        inner = prod.sum(axis=1)
        out[combo] = float((np.abs(inner) * weight * counts).sum() / counts.sum())
    return out


def mutual_information(train_set: Dataset, fields: tuple[int, ...]) -> float:
    """Plug-in mutual information (natural log) between the feature tuple at
    ``fields`` and the label, from empirical frequencies."""
    _require_rows(train_set)
    _, key_ids = np.unique(train_set.active[:, list(fields)], axis=0, return_inverse=True)
    y = train_set.labels.astype(np.int64)
    n = float(len(train_set))

    joint = np.zeros((key_ids.max() + 1, 2))
    np.add.at(joint, (key_ids, y), 1.0)
    p_joint = joint / n
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
    strengths = learned_strength(bundle, train_set, order)
    tuples = sorted(strengths)
    learned = [strengths[t] for t in tuples]
    mi = [mutual_information(train_set, t) for t in tuples]
    n_tuples = len(tuples)
    points = [
        OverlapPoint(
            k=k,
            overlap=topk_overlap(learned, mi, k),
            baseline_squared=(k / n_tuples) ** 2,
            baseline_uniform=k / n_tuples,
        )
        for k in k_list
        if 1 <= k <= n_tuples
    ]
    return InteractionReport(
        tuples=tuples,
        learned=learned,
        mutual_info=mi,
        pearson=pearson(learned, mi),
        topk_overlap=points,
    )
