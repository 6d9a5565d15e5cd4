"""Binary cross-entropy training with closed-form gradients and AdaGrad.

This module owns the linear and embedding gradients, AdaGrad and the
training loop; ``metrics.bce_from_score`` is the loss it minimizes.
``params.canonical_args`` states a kind's arguments, ``params.block_layout``
its blocks and ``scoring.KERNELS`` its math, whose ``d_a`` gives the rest of
the gradients, so no autodiff framework is involved. The loop uses the per-batch *mean* gradient, a fixed
accumulation order, and a seed-driven shuffle, which makes training
bit-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, Instance
from .errors import ConfigError, DataError, MetricError, NumericError
from .metrics import auc, bce_from_score, logloss
from .params import ModelBundle, init
from .scoring import KERNELS, ForwardCache, _as_batch, forward_batch, score_dataset, sigmoid


# Added to the root of each AdaGrad accumulator so an untouched coordinate
# (accumulator 0) takes a zero step rather than dividing by zero.
ADAGRAD_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch AdaGrad settings. ``l2`` is the L2 coefficient of every
    parameter block except the bias ``linear.b``, which is unregularized."""

    learning_rate: float = 0.05
    l2: float = 0.0
    epochs: int = 5
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be a finite number >= 0, got {self.learning_rate}")
        if not 0 <= self.l2 < math.inf:
            raise ConfigError(f"regularization coefficient must be a finite number >= 0, got {self.l2}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be >= 1")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def bce_loss(probability, label) -> np.ndarray:
    """Binary cross-entropy from a probability in (0, 1)."""
    p = np.asarray(probability, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward_from_cache(bundle: ModelBundle, cache: ForwardCache, upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Accumulate sum_b upstream[b] * d score_b / d theta for every block.

    ``upstream`` holds one multiplier per batch row (for mean-BCE training,
    (sigmoid(score) - label) / batch_size). The result has one gradient per
    block of the bundle, under the same names and in the same order.
    """
    if cache.gidx is None:
        raise ConfigError("backward pass needs the forward cache")
    upstream = np.asarray(upstream, dtype=np.float64)
    gidx, vals = cache.gidx, cache.vals
    m = bundle.schema.m

    grads = {
        "linear.b": np.array([upstream.sum()]),
        "linear.w": np.bincount(gidx.ravel(), weights=(upstream[:, None] * vals).ravel(), minlength=m),
    }
    d_a = KERNELS[bundle.kind].d_a(bundle, cache.A, cache.state, upstream, grads)
    if d_a is None:  # no embeddings
        return grads

    # Scatter d_a, scaled in place, into the embedding rows one coordinate
    # at a time: no (B, n, k) index array, and each bin sums in row order.
    d_a *= upstream[:, None, None] * vals[:, :, None]
    flat_gidx = gidx.ravel()
    d_emb = np.empty((m, d_a.shape[2]))
    for h in range(d_emb.shape[1]):
        d_emb[:, h] = np.bincount(flat_gidx, weights=d_a[:, :, h].ravel(), minlength=m)
    grads["embeddings"] = d_emb
    return {name: grads[name] for name in bundle.blocks}


def backward(bundle: ModelBundle, instance: Instance, upstream: float = 1.0) -> dict[str, np.ndarray]:
    """Gradient of the full score of one instance, scaled by ``upstream``."""
    cache = forward_batch(bundle, *_as_batch(bundle, instance))
    return backward_from_cache(bundle, cache, np.asarray([upstream]))


# ---------------------------------------------------------------------------
# AdaGrad
# ---------------------------------------------------------------------------


def adagrad_state(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """Per-coordinate squared-gradient accumulators, one zeroed array per
    block of ``bundle``, under the block's name."""
    return {name: np.zeros_like(arr) for name, arr in bundle.blocks.items()}


def adagrad_step(
    bundle: ModelBundle, grads: dict[str, np.ndarray], state: dict[str, np.ndarray], config: TrainConfig
) -> None:
    """One in-place AdaGrad update: accumulate squared gradients, then scale
    each coordinate's step by the inverse root of its accumulator (plus
    :data:`ADAGRAD_EPSILON`). The L2 term ``config.l2 * theta`` is added to
    the gradient of every block but the bias ``linear.b`` before
    accumulation.
    """
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


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    valid_logloss: float
    valid_auc: float
    wall_seconds: float


def train(
    bundle: ModelBundle,
    train_set: Dataset,
    valid_set: Dataset | None,
    config: TrainConfig,
) -> tuple[ModelBundle, list[EpochLog]]:
    """Mini-batch AdaGrad training for a fixed number of epochs.

    The bundle is updated in place and returned together with one log row per
    epoch (mean train BCE, validation log-loss and AUC, wall time). There is
    no early stopping; the final-epoch parameters are the result.
    """
    if len(train_set) == 0:
        raise DataError("cannot train on an empty dataset")
    if train_set.schema.cardinalities != bundle.schema.cardinalities:
        raise ConfigError("training data schema does not match the model schema")
    if valid_set is not None and valid_set.schema.cardinalities != bundle.schema.cardinalities:
        raise ConfigError("validation data schema does not match the model schema")

    state = adagrad_state(bundle)
    rng = np.random.default_rng(config.seed)
    gidx_all = train_set.global_indices
    vals_all = train_set.values
    y_all = train_set.labels.astype(np.float64)
    n_rows = len(train_set)

    log: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(n_rows)
        loss_sum, loss_count = 0.0, 0
        for lo in range(0, n_rows, config.batch_size):
            rows = perm[lo : lo + config.batch_size]
            gidx, vals, y = gidx_all[rows], vals_all[rows], y_all[rows]
            cache = forward_batch(bundle, gidx, vals)
            batch_loss = float(bce_from_score(cache.scores, y).mean())
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"training loss became non-finite in epoch {epoch}; "
                    f"last completed epoch: {epoch - 1}"
                )
            loss_sum += batch_loss * len(rows)
            loss_count += len(rows)
            upstream = (sigmoid(cache.scores) - y) / len(rows)
            grads = backward_from_cache(bundle, cache, upstream)
            adagrad_step(bundle, grads, state, config)

        valid_ll, valid_auc = float("nan"), float("nan")
        if valid_set is not None and len(valid_set):
            scores = score_dataset(bundle, valid_set)
            valid_ll = logloss(scores, valid_set.labels)
            try:
                valid_auc = auc(scores, valid_set.labels)
            except MetricError:
                pass
        log.append(
            EpochLog(
                epoch=epoch,
                train_loss=loss_sum / loss_count,
                valid_logloss=valid_ll,
                valid_auc=valid_auc,
                wall_seconds=time.perf_counter() - t0,
            )
        )
    return bundle, log


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    learning_rate: float
    l2: float
    valid_auc: float
    valid_logloss: float
    status: str  # "ok" or "failed"


def grid_search(
    kind: str,
    grid: list[tuple[float, float]],
    train_set: Dataset,
    valid_set: Dataset,
    config: TrainConfig,
    k: int = 8,
    d: int = 2,
    r_vec: tuple[int, ...] | int | None = None,
    init_scale: float = 0.01,
) -> tuple[ModelBundle, list[GridResult]]:
    """Train one model per (learning rate, l2) grid point and keep the best.

    Selection is by validation AUC, ties broken by lower validation log-loss
    and then by grid order. Runs that diverge are recorded as failed and
    never selected.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    results: list[GridResult] = []
    best: tuple[float, float, int] | None = None
    best_bundle: ModelBundle | None = None
    for order_idx, (lr, l2) in enumerate(grid):
        cfg = replace(config, learning_rate=lr, l2=l2)
        bundle = init(kind, train_set.schema, k=k, d=d, r_vec=r_vec, init_scale=init_scale, seed=config.seed)
        try:
            bundle, _ = train(bundle, train_set, valid_set, cfg)
            scores = score_dataset(bundle, valid_set)
            valid_auc = auc(scores, valid_set.labels)
            valid_ll = logloss(scores, valid_set.labels)
        except NumericError:
            results.append(GridResult(lr, l2, float("nan"), float("nan"), "failed"))
            continue
        results.append(GridResult(lr, l2, valid_auc, valid_ll, "ok"))
        key = (-valid_auc, valid_ll, order_idx)
        if best is None or key < best:
            best = key
            best_bundle = bundle
    if best_bundle is None:
        raise NumericError("every grid point diverged")
    results.sort(key=lambda r: (-(r.valid_auc if np.isfinite(r.valid_auc) else -np.inf), r.valid_logloss))
    return best_bundle, results
