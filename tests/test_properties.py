"""Property tests: random schemas (n = 2..6), orders d = 2..4 and unequal
ranks per order, on both tensor kinds."""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorfm as tfm
from tensorfm.params import TENSOR_KINDS

# Reproducible examples, and no example database written into the checkout.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw):
    """A tensor-kind bundle with non-trivial parameters, plus an RNG for
    drawing instances."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, min(4, n)))
    # d - 1 <= n - 1 distinct ranks in [1, n]: every order has its own rank
    ranks = draw(st.lists(st.integers(1, n), min_size=d - 1, max_size=d - 1, unique=True))
    schema = tfm.build_schema(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(TENSOR_KINDS))
    seed = draw(st.integers(0, 2**31))
    bundle = tfm.init(kind, schema, k=draw(st.integers(1, 4)), d=d, r_vec=tuple(ranks), init_scale=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    bundle.blocks["linear.w"][:] = rng.normal(size=schema.m) * 0.5
    bundle.blocks["linear.b"][:] = rng.normal()
    return bundle, rng


def random_instance(schema, rng):
    active = np.array([rng.integers(0, c) for c in schema.cardinalities])
    return tfm.Instance(active, rng.uniform(0.5, 1.5, size=schema.n), int(rng.integers(0, 2)))


@PROPERTY
@given(models())
def test_score_equals_oracle(model):
    bundle, rng = model
    for _ in range(3):
        inst = random_instance(bundle.schema, rng)
        oracle = tfm.score_naive_oracle(bundle, inst)
        assert abs(tfm.score(bundle, inst) - oracle) <= 1e-9 * max(1.0, abs(oracle))


@PROPERTY
@given(models())
def test_backward_equals_central_differences(model):
    bundle, rng = model
    inst = random_instance(bundle.schema, rng)
    grads = tfm.backward(bundle, inst, upstream=1.0)
    assert list(grads) == list(bundle.blocks)
    h = 1e-5
    for name, arr in bundle.blocks.items():
        # at most 12 coordinates per block keep an example under a second
        for flat in rng.permutation(arr.size)[:12]:
            ix = np.unravel_index(flat, arr.shape)
            orig = arr[ix]
            arr[ix] = orig + h
            up = tfm.score(bundle, inst)
            arr[ix] = orig - h
            down = tfm.score(bundle, inst)
            arr[ix] = orig
            numeric, analytic = (up - down) / (2 * h), grads[name][ix]
            assert abs(numeric - analytic) <= 1e-5 * max(abs(numeric), abs(analytic), 1.0), (name, ix)


@PROPERTY
@given(models())
def test_copies_score_identically_and_own_their_factors(model):
    bundle, rng = model
    insts = [random_instance(bundle.schema, rng) for _ in range(3)]
    before = [tfm.score(bundle, inst) for inst in insts]
    for other in (copy.deepcopy(bundle), pickle.loads(pickle.dumps(bundle))):
        assert [tfm.score(other, inst) for inst in insts] == before
        name = next(name for name in other.blocks if ".factor." in name)
        other.blocks[name][...] += 0.25
        assert [tfm.score(other, inst) for inst in insts] != before
        assert [tfm.score(bundle, inst) for inst in insts] == before


@PROPERTY
@given(models())
def test_seeded_training_is_bit_reproducible(model):
    bundle, rng = model
    n_rows = 48
    active = np.stack([rng.integers(0, c, size=n_rows) for c in bundle.schema.cardinalities], axis=1)
    values = rng.uniform(0.5, 1.5, size=active.shape)
    dataset = tfm.Dataset(bundle.schema, active, values, rng.integers(0, 2, size=n_rows))
    config = tfm.TrainConfig(learning_rate=0.1, l2=1e-3, epochs=2, batch_size=16, seed=7)
    runs = [tfm.train(copy.deepcopy(bundle), dataset, None, config)[0] for _ in range(2)]
    for name in bundle.blocks:
        assert np.array_equal(runs[0].blocks[name], runs[1].blocks[name]), name
