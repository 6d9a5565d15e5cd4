"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns datasets built through the
package's public ``Dataset`` constructor; the package never sees the seed.
The same seed always yields the same inputs. Field cardinalities depend only
on the requested size, never on the seed, so every seed of a workload has the
same ``n`` and ``m``.
"""

from __future__ import annotations

import numpy as np

import tensorfm as tfm

# Criterion-07 shape: 4 signal fields of cardinality 6, 96 noise fields.
WIDE_SIGNAL, WIDE_NOISE, WIDE_CARD = 4, 96, 6

# Click-log shape: 39 fields like Criterion 12.
CTR_COUNT_FIELDS = 13
CTR_MULTIPLIER_FIELDS = 5  # the first five count fields carry real multipliers
CTR_COUNT_CARD = 10
CTR_SIGNAL_CARDS = (40, 12, 12, 8, 8, 8)
CTR_HASHED_FIELDS = 20
CTR_HASHED_MIN_CARD = 30
ZIPF_EXPONENT = 1.1


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # not the package's sigmoid: a change to the package must not change the inputs
    return 1.0 / (1.0 + np.exp(-x))


def wide_synthetic(seed: int, n_rows: int) -> tuple[tfm.Dataset, np.ndarray]:
    """Criterion-07-shaped data (n=100, m=600) and its planted logits.

    The label is Bernoulli of a logit that holds a random order-4 table over
    the four signal fields plus one random per-value effect per signal field,
    so that one epoch learns part of the signal. The 96 noise fields are
    uniform and independent of the label.
    """
    rng = np.random.default_rng([seed, 7])
    n_fields = WIDE_SIGNAL + WIDE_NOISE
    active = rng.integers(0, WIDE_CARD, size=(n_rows, n_fields), dtype=np.int32)
    table = rng.normal(0.0, 1.5, size=(WIDE_CARD,) * WIDE_SIGNAL)
    mains = rng.normal(0.0, 1.0, size=(WIDE_SIGNAL, WIDE_CARD))
    sig = active[:, :WIDE_SIGNAL]
    logit = table[tuple(sig.T)] + mains[np.arange(WIDE_SIGNAL), sig].sum(axis=1)
    labels = (rng.random(n_rows) < _sigmoid(logit)).astype(np.int8)
    schema = tfm.build_schema([WIDE_CARD] * n_fields)
    return tfm.Dataset(schema, active, labels=labels, provenance=f"bench-wide(seed={seed})"), logit


def ctr_cardinalities(top_card: int) -> list[int]:
    """Per-field cardinalities of the click-log schema for a given largest
    hashed-ID vocabulary; the hashed fields are spread geometrically."""
    hashed = np.rint(np.geomspace(CTR_HASHED_MIN_CARD, top_card, CTR_HASHED_FIELDS)).astype(int)
    return [CTR_COUNT_CARD] * CTR_COUNT_FIELDS + list(CTR_SIGNAL_CARDS) + [int(c) for c in hashed]


def click_log(seed: int, n_rows: int, top_card: int) -> tuple[tfm.Dataset, np.ndarray]:
    """Click-log-shaped data over 39 fields and its planted logits.

    - 13 count fields of cardinality 10; the first five carry a real
      multiplier in [0.5, 1.5) on three rows in four, so the text form holds
      ``field:index:value`` tokens.
    - 6 signal fields: the logit is a per-value effect on the first, a pair
      effect on the next two and a triple effect on the last three.
    - 20 hashed-ID fields, label-independent, with cardinalities spread
      geometrically up to ``top_card`` and values drawn Zipf-like, so one
      batch touches a small share of the embedding rows.
    """
    rng = np.random.default_rng([seed, 12])
    cards = ctr_cardinalities(top_card)
    cols = [rng.integers(0, CTR_COUNT_CARD, n_rows) for _ in range(CTR_COUNT_FIELDS)]

    sig = [rng.integers(0, c, n_rows) for c in CTR_SIGNAL_CARDS]
    w_user = rng.normal(0.0, 1.0, CTR_SIGNAL_CARDS[0])
    w_pair = rng.normal(0.0, 0.8, CTR_SIGNAL_CARDS[1:3])
    w_tri = rng.normal(0.0, 0.8, CTR_SIGNAL_CARDS[3:6])
    logit = -0.5 + w_user[sig[0]] + w_pair[sig[1], sig[2]] + w_tri[sig[3], sig[4], sig[5]]
    cols += sig

    for card in cards[CTR_COUNT_FIELDS + len(CTR_SIGNAL_CARDS) :]:
        weights = 1.0 / np.arange(1, card + 1) ** ZIPF_EXPONENT
        ids = rng.permutation(card)  # which values are the heavy hitters
        cols.append(ids[rng.choice(card, size=n_rows, p=weights / weights.sum())])

    active = np.stack(cols, axis=1).astype(np.int32)
    values = np.ones(active.shape)
    mult = rng.uniform(0.5, 1.5, size=(n_rows, CTR_MULTIPLIER_FIELDS)).round(3)
    keep_unit = rng.random((n_rows, CTR_MULTIPLIER_FIELDS)) < 0.25
    values[:, :CTR_MULTIPLIER_FIELDS] = np.where(keep_unit, 1.0, mult)

    labels = (rng.random(n_rows) < _sigmoid(logit)).astype(np.int8)
    schema = tfm.build_schema(cards)
    return tfm.Dataset(schema, active, values, labels, provenance=f"bench-ctr(seed={seed})"), logit


def rows_touched_frac(dataset: tfm.Dataset, batch_size: int = 1024) -> float:
    """Median share of the m embedding rows that one batch of consecutive rows
    touches. Rows are drawn i.i.d., so this equals the share under a shuffle."""
    gidx = dataset.global_indices
    starts = range(0, max(len(dataset) - batch_size, 0) + 1, batch_size)
    shares = [len(np.unique(gidx[lo : lo + batch_size])) / dataset.schema.m for lo in starts]
    return float(np.median(shares))
