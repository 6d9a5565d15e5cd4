"""Binary cross-entropy training with closed-form gradients and AdaGrad.

This module owns the linear and embedding gradients, AdaGrad, the training
loop and model selection over a (learning rate, L2) grid. It has one loss,
``metrics.bce_from_score``, and builds no model: the caller passes a bundle
made by ``params.init`` or ``params.load_bundle``. ``params.block_layout``
states a kind's blocks and ``scoring.KERNELS`` its math, whose ``d_a`` gives
the rest of the gradients, so no autodiff framework is involved. The loop
uses the per-batch *mean* gradient, a fixed accumulation order, and a
seed-driven shuffle, which makes training bit-reproducible.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset, Instance
from .errors import ConfigError, MetricError, NumericError
from .metrics import auc, bce_from_score, logloss
from .params import ModelBundle
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
# backward pass
# ---------------------------------------------------------------------------


class RowGradient(NamedTuple):
    """The gradient of a block indexed by vocabulary row (``linear.w``,
    ``embeddings``) over the rows a batch touches: ``values[i]`` is the
    gradient at row ``rows[i]``, ``rows`` increases, and every other row's
    gradient is zero."""

    rows: np.ndarray
    values: np.ndarray

    def dense(self, m: int) -> np.ndarray:
        out = np.zeros((m,) + self.values.shape[1:])
        out[self.rows] = self.values
        return out


def backward_from_cache(
    bundle: ModelBundle, cache: ForwardCache, upstream: np.ndarray
) -> dict[str, np.ndarray | RowGradient]:
    """Accumulate sum_b upstream[b] * d score_b / d theta for every block.

    ``upstream`` holds one multiplier per batch row (for mean-BCE training,
    (sigmoid(score) - label) / batch_size). The result has one gradient per
    block of the bundle, under the same names and in the same order. The
    ``linear.w`` and ``embeddings`` gradients are :class:`RowGradient`
    over the rows the batch touches, each row's value summed in batch order.
    The kind's ``Kernel.d_a`` has the upstream weight inside, so the
    embedding scatter multiplies it by the instance multipliers only, and
    not at all when they are all 1.
    """
    if cache.gidx is None:
        raise ConfigError("backward pass needs the forward cache")
    upstream = np.asarray(upstream, dtype=np.float64)
    gidx, vals = cache.gidx, cache.vals
    m = bundle.schema.m
    # the touched rows, by a mask rather than np.unique's sort, and each
    # active feature's position among them
    mask = np.zeros(m, dtype=bool)
    mask[gidx] = True
    rows = np.flatnonzero(mask)
    n_rows, index = len(rows), gidx.ravel()
    if n_rows < m:
        remap = np.empty(m, dtype=np.intp)
        remap[rows] = np.arange(n_rows)
        index = remap.take(index)
    # (B, n) linear weight of each active feature: its row's upstream times
    # its multiplier (None: every multiplier is 1, so the upstream itself)
    w = np.repeat(upstream[:, None], gidx.shape[1], axis=1) if vals is None else upstream[:, None] * vals

    grads = {
        "linear.b": np.array([upstream.sum()]),
        "linear.w": RowGradient(rows, np.bincount(index, weights=w.ravel(), minlength=n_rows)),
    }
    d_a = KERNELS[bundle.kind].d_a(bundle, cache.A, cache.state, upstream, grads)
    if d_a is not None:
        # Scatter d_a times the multipliers into the embedding rows one
        # coordinate at a time: d_a is read, never written, no (B, n, k)
        # index array is built, and each bin sums in row order.
        d_emb = np.empty((n_rows, d_a.shape[2]))
        for h in range(d_emb.shape[1]):
            weights = d_a[:, :, h] if vals is None else d_a[:, :, h] * vals
            d_emb[:, h] = np.bincount(index, weights=weights.ravel(), minlength=n_rows)
        grads["embeddings"] = RowGradient(rows, d_emb)
    return {name: grads[name] for name in bundle.blocks}


def backward(bundle: ModelBundle, instance: Instance, upstream: float = 1.0) -> dict[str, np.ndarray]:
    """Gradient of the full score of one instance, scaled by ``upstream``:
    one whole array per block."""
    cache = forward_batch(bundle, *_as_batch(bundle, instance))
    grads = backward_from_cache(bundle, cache, np.asarray([upstream]))
    return {name: g.dense(bundle.schema.m) if isinstance(g, RowGradient) else g for name, g in grads.items()}


# ---------------------------------------------------------------------------
# AdaGrad
# ---------------------------------------------------------------------------


def adagrad_state(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """Per-coordinate squared-gradient accumulators, one zeroed array per
    block of ``bundle``, under the block's name."""
    return {name: np.zeros_like(arr) for name, arr in bundle.blocks.items()}


def adagrad_step(
    bundle: ModelBundle,
    grads: dict[str, np.ndarray | RowGradient],
    state: dict[str, np.ndarray],
    config: TrainConfig,
) -> None:
    """One in-place AdaGrad update: accumulate squared gradients, then scale
    each coordinate's step by the inverse root of its accumulator (plus
    :data:`ADAGRAD_EPSILON`). The L2 term ``config.l2 * theta`` is added to
    the gradient of every block but the bias ``linear.b`` before
    accumulation.

    A :class:`RowGradient` updates only its rows when there is no L2 term:
    an untouched row's step would be ``theta - 0.0``. With L2 every row
    moves, so it is made whole first. The rows are gathered with ``take``
    and written back through :func:`_set_rows`, not by 2-D fancy indexing,
    which numpy runs on a slower path.
    """
    lr = config.learning_rate
    for name, theta in bundle.blocks.items():
        grad = grads[name]
        l2 = 0.0 if name == "linear.b" else config.l2
        if isinstance(grad, RowGradient) and l2:
            grad = grad.dense(len(theta))
        rows, g = grad if isinstance(grad, RowGradient) else (None, grad)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block {name!r}")
        g = g + l2 * theta if l2 else g
        if rows is None:
            acc = state[name]
            acc += g * g
            theta -= lr * g / (np.sqrt(acc) + ADAGRAD_EPSILON)
        else:
            acc = state[name].take(rows, axis=0)
            acc += g * g
            moved = theta.take(rows, axis=0)
            moved -= lr * g / (np.sqrt(acc) + ADAGRAD_EPSILON)
            _set_rows(state[name], rows, acc)
            _set_rows(theta, rows, moved)


def _set_rows(arr: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``arr[rows] = values``; a C-contiguous ``arr`` of rank 2 or more is
    written through a 1-D view holding each row as one void item."""
    if arr.ndim > 1 and arr.flags.c_contiguous:
        row = np.dtype((np.void, arr.strides[0]))
        arr, values = arr.view(row).reshape(len(arr)), np.ascontiguousarray(values).view(row).reshape(len(values))
    arr[rows] = values


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


def _diverged(what: str, epoch: int) -> NumericError:
    return NumericError(f"{what} became non-finite in epoch {epoch}; last completed epoch: {epoch - 1}")


# A diverging run overflows quietly; the loss, block and validation checks raise.
@np.errstate(over="ignore", invalid="ignore")
def train(
    bundle: ModelBundle,
    train_set: Dataset,
    valid_set: Dataset | None,
    config: TrainConfig,
) -> tuple[ModelBundle, list[EpochLog]]:
    """Mini-batch AdaGrad training for a fixed number of epochs.

    The bundle is updated in place and returned together with one log row per
    epoch (mean train BCE, validation log-loss and AUC, wall time). There is
    no early stopping; the final-epoch parameters are the result. A run
    that diverges raises :class:`NumericError` naming the epoch, and the
    block if a parameter block is no longer finite at the end of an epoch.
    """
    train_set.require_rows()
    train_set.require_schema(bundle.schema)
    if valid_set is not None:
        valid_set.require_rows()
        valid_set.require_schema(bundle.schema)

    state = adagrad_state(bundle)
    rng = np.random.default_rng(config.seed)
    gidx_all = train_set.global_indices
    vals_all = None if train_set.unit_values else train_set.values
    y_all = train_set.labels.astype(np.float64)
    n_rows = len(train_set)

    log: list[EpochLog] = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        perm = rng.permutation(n_rows)
        loss_sum = 0.0
        for lo in range(0, n_rows, config.batch_size):
            rows = perm[lo : lo + config.batch_size]
            gidx, y = gidx_all[rows], y_all[rows]
            vals = None if vals_all is None else vals_all[rows]
            cache = forward_batch(bundle, gidx, vals)
            batch_loss = float(bce_from_score(cache.scores, y).mean())
            if not np.isfinite(batch_loss):
                raise _diverged("training loss", epoch)
            loss_sum += batch_loss * len(rows)
            upstream = (sigmoid(cache.scores) - y) / len(rows)
            grads = backward_from_cache(bundle, cache, upstream)
            adagrad_step(bundle, grads, state, config)
        for name, theta in bundle.blocks.items():
            if not np.isfinite(theta).all():
                raise _diverged(f"parameter block {name!r}", epoch)

        valid_ll, valid_auc = float("nan"), float("nan")
        if valid_set is not None:
            scores = score_dataset(bundle, valid_set)
            if not np.isfinite(scores).all():
                raise _diverged("validation score", epoch)
            valid_ll = logloss(scores, valid_set.labels)
            try:
                valid_auc = auc(scores, valid_set.labels)
            except MetricError:
                pass
        log.append(
            EpochLog(
                epoch=epoch,
                train_loss=loss_sum / n_rows,
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


def _rank(result: GridResult) -> tuple[int, float, float]:
    """Sort key of a grid point: higher validation AUC, then lower
    validation log-loss, failed points last; a stable sort or a strict
    ``<`` keeps grid order among ties."""
    if result.status != "ok":
        return (1, 0.0, 0.0)
    return (0, -result.valid_auc, result.valid_logloss)


def grid_search(
    bundle: ModelBundle,
    grid: list[tuple[float, float]],
    train_set: Dataset,
    valid_set: Dataset,
    config: TrainConfig,
) -> tuple[ModelBundle, list[GridResult]]:
    """Train a copy of ``bundle`` per (learning rate, l2) grid point and keep
    the best.

    Each point is ranked by the last epoch's validation AUC and log-loss
    (see :func:`_rank`); the report lists the points best first. Runs that
    diverge are recorded as failed and never selected. ``bundle`` itself is
    left unchanged.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    valid_set.require_rows()
    # the ranking needs a validation AUC: raise its MetricError before any point trains
    auc(np.zeros(len(valid_set)), valid_set.labels)
    results: list[GridResult] = []
    best: tuple[ModelBundle, GridResult] | None = None
    for lr, l2 in grid:
        try:
            trained, log = train(copy.deepcopy(bundle), train_set, valid_set, replace(config, learning_rate=lr, l2=l2))
        except NumericError:
            results.append(GridResult(lr, l2, float("nan"), float("nan"), "failed"))
            continue
        results.append(GridResult(lr, l2, log[-1].valid_auc, log[-1].valid_logloss, "ok"))
        if best is None or _rank(results[-1]) < _rank(best[1]):
            best = (trained, results[-1])
    if best is None:
        raise NumericError("every grid point diverged")
    results.sort(key=_rank)
    return best[0], results
