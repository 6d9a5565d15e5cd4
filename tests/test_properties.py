"""Property tests: random schemas (n = 2..6), orders d = 2..4 and unequal
ranks per order. Each example builds one bundle of every kind it covers
over the same schema. Oracle agreement, finite differences, batch
gradients and seeded determinism cover every kind; copies cover the two
tensor kinds, whose factor blocks view one stack; CP orders up to d=5,
scored in one segmented product for one, a few and more than one batch of
rows, match each order computed alone; a d=5 Tucker check covers a longer
contraction chain; a hofm check with d up to n and one
dominant field guards the exactness of its product tree, and the tree's
terms and gradient match the per-field dynamic program for n up to 9 and
one, a few and more than a thousand rows. Model files of every
kind and alias spelling, and dataset files with awkward values, round-trip
exactly; a dataset file with one character changed reads as the
line-by-line parser reads it."""

import copy
import pickle
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensorfm as tfm
from tensorfm.params import ALIASES, KINDS, TENSOR_KINDS
from tensorfm.scoring import KERNELS, cp_mode_products, cp_order_batch, forward_batch, gather_embeddings, order_tables

from oracles import hofm_dp_oracle

# Reproducible examples, and no example database written into the checkout.
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def models(draw, kinds=KINDS, n_range=(2, 6), d_range=(2, 4)):
    """One bundle of each of ``kinds`` over one random schema, order and
    rank list, each with non-trivial parameters, plus an RNG for drawing
    instances. The pair kinds ignore d and all but the tensor kinds the
    ranks."""
    n = draw(st.integers(*n_range))
    d = draw(st.integers(d_range[0], min(d_range[1], n)))
    # d - 1 <= n - 1 distinct ranks in [1, n]: every order has its own rank
    ranks = draw(st.lists(st.integers(1, n), min_size=d - 1, max_size=d - 1, unique=True))
    schema = tfm.build_schema(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    bundles = []
    for kind in kinds:
        bundle = tfm.init(kind, schema, k=k, d=d, r_vec=tuple(ranks), init_scale=0.5, seed=seed)
        bundle.blocks["linear.w"][:] = rng.normal(size=schema.m) * 0.5
        bundle.blocks["linear.b"][:] = rng.normal()
        bundles.append(bundle)
    return bundles, rng


# Finite floats whose text form is easy to get wrong: signed zero, the
# smallest subnormal, integers beyond 2**53, extremes and a plain 1.0 (which a
# dataset file omits).
AWKWARD = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1.7976931348623157e308, 1.0, 0.1])
FINITE = st.one_of(AWKWARD, st.floats(allow_nan=False, allow_infinity=False))


def random_instance(schema, rng):
    active = np.array([rng.integers(0, c) for c in schema.cardinalities])
    return tfm.Instance(active, rng.uniform(0.5, 1.5, size=schema.n), int(rng.integers(0, 2)))


@PROPERTY
@given(models())
def test_score_equals_oracle(model):
    check_oracle(*model)


def check_oracle(bundles, rng):
    for _ in range(3):
        inst = random_instance(bundles[0].schema, rng)
        for bundle in bundles:
            oracle = tfm.score_naive_oracle(bundle, inst)
            assert abs(tfm.score(bundle, inst) - oracle) <= 1e-9 * max(1.0, abs(oracle)), bundle.kind


@PROPERTY
@given(models())
def test_backward_equals_central_differences(model):
    check_central_differences(*model)


def check_central_differences(bundles, rng):
    inst = random_instance(bundles[0].schema, rng)
    upstream = rng.uniform(-2.0, 2.0)
    h = 1e-5
    for bundle in bundles:
        grads = tfm.backward(bundle, inst, upstream=upstream)
        assert list(grads) == list(bundle.blocks)
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
                numeric, analytic = upstream * (up - down) / (2 * h), grads[name][ix]
                assert abs(numeric - analytic) <= 1e-5 * max(abs(numeric), abs(analytic), 1.0), (bundle.kind, name, ix)


@settings(PROPERTY, max_examples=20)
@given(models(("hofm",), n_range=(5, 6), d_range=(2, 6)), st.floats(30.0, 100.0))
def test_hofm_is_exact_when_one_field_dominates(model, scale):
    # hofm's recurrence only adds products, so it keeps every digit when one
    # field's embeddings dwarf the others' and d reaches n; a sum of powers
    # of the embeddings (Newton-Girard) would cancel and miss the oracle
    (bundle,), rng = model
    schema = bundle.schema
    field = int(rng.integers(schema.n))
    first = schema.offsets[field]
    bundle.blocks["embeddings"][first : first + schema.cardinalities[field]] *= scale
    check_oracle([bundle], rng)
    check_central_differences([bundle], rng)


# (n, d): n from 2 to 9 gives odd and even levels and powers of two, so a
# node is carried up at every level for some n
HOFM_SHAPES = st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n)))


@settings(PROPERTY, max_examples=60)
@given(HOFM_SHAPES, st.integers(1, 3), st.sampled_from([1, 3, 1030]), st.sampled_from([1.0, 60.0]), st.integers(0, 2**31))
@example(shape=(2, 2), k=2, n_rows=3, scale=60.0, seed=0)  # the root is the only level above the leaves
@example(shape=(3, 3), k=2, n_rows=1030, scale=1.0, seed=1)  # one node carried up
@example(shape=(3, 2), k=1, n_rows=1, scale=60.0, seed=2)
def test_hofm_tree_equals_the_per_field_dynamic_program(shape, k, n_rows, scale, seed):
    # errors are relative to the same sums of products over |A|, where
    # nothing can cancel
    (n, d), rng = shape, np.random.default_rng(seed)
    A = rng.normal(size=(n_rows, n, k))
    A[:, rng.integers(n)] *= scale
    bundle = tfm.init("hofm", tfm.build_schema([1] * n), k=k, d=d, seed=0)
    kernel = KERNELS["hofm"]
    (terms,), levels = kernel.terms(bundle, A)
    d_a = kernel.d_a(bundle, A, levels, None, {})
    want_terms, want_d_a = hofm_dp_oracle(A, d)
    abs_terms, abs_d_a = hofm_dp_oracle(np.abs(A), d)
    assert (np.abs(terms - want_terms) <= 1e-13 * abs_terms).all()
    assert d_a.shape == A.shape
    assert (np.abs(d_a - want_d_a) <= 1e-13 * abs_d_a).all()
    # the backward state is no larger than the dynamic program's table
    assert sum(level.size for level in levels) <= (n + 1) * (d + 1) * A.size // n


@PROPERTY
@given(models())
def test_batch_gradient_is_the_upstream_weighted_sum_of_instance_gradients(model):
    bundles, rng = model
    insts = [random_instance(bundles[0].schema, rng) for _ in range(5)]
    upstream = rng.normal(size=len(insts))
    gidx = np.stack([inst.active + bundles[0].schema.offsets for inst in insts])
    vals = np.stack([inst.values for inst in insts])
    for bundle in bundles:
        batch = tfm.backward_from_cache(bundle, forward_batch(bundle, gidx, vals), upstream)
        singles = [tfm.backward(bundle, inst, upstream=u) for inst, u in zip(insts, upstream)]
        for name in bundle.blocks:
            want = sum(grads[name] for grads in singles)
            np.testing.assert_allclose(batch[name], want, rtol=1e-10, atol=1e-12, err_msg=f"{bundle.kind} {name}")


@PROPERTY
@given(models(TENSOR_KINDS))
def test_copies_score_identically_and_own_their_factors(model):
    bundles, rng = model
    insts = [random_instance(bundles[0].schema, rng) for _ in range(3)]
    for bundle in bundles:
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
    bundles, rng = model
    schema, n_rows = bundles[0].schema, 48
    active = np.stack([rng.integers(0, c, size=n_rows) for c in schema.cardinalities], axis=1)
    values = rng.uniform(0.5, 1.5, size=active.shape)
    dataset = tfm.Dataset(schema, active, values, rng.integers(0, 2, size=n_rows))
    config = tfm.TrainConfig(learning_rate=0.1, l2=1e-3, epochs=2, batch_size=16, seed=7)
    for bundle in bundles:
        runs = [tfm.train(copy.deepcopy(bundle), dataset, None, config)[0] for _ in range(2)]
        for name in bundle.blocks:
            assert np.array_equal(runs[0].blocks[name], runs[1].blocks[name]), (bundle.kind, name)


@settings(PROPERTY, max_examples=20)
@given(models(("tensorfm-tucker",), n_range=(5, 6), d_range=(5, 5)))
def test_order_five_tucker_batch_scores_equal_single_scores(model):
    (bundle,), rng = model
    n_rows = 24
    active = np.stack([rng.integers(0, c, size=n_rows) for c in bundle.schema.cardinalities], axis=1)
    dataset = tfm.Dataset(bundle.schema, active, rng.uniform(0.5, 1.5, size=active.shape))
    batch = tfm.score_dataset(bundle, dataset, batch_size=10)
    for i in range(n_rows):
        one = tfm.score(bundle, dataset.instance(i))
        assert abs(batch[i] - one) <= 1e-12 * max(1.0, abs(one)), i
    oracle = tfm.score_naive_oracle(bundle, dataset.instance(0))
    assert abs(batch[0] - oracle) <= 1e-9 * max(1.0, abs(oracle))


@settings(PROPERTY, max_examples=30)
@given(models(("tensorfm",), n_range=(2, 5), d_range=(2, 5)), st.sampled_from([1, 7, 4099]))
def test_cp_orders_in_one_segmented_product_equal_each_order_alone(model, n_rows):
    (bundle,), rng = model
    active = np.stack([rng.integers(0, c, size=n_rows) for c in bundle.schema.cardinalities], axis=1)
    dataset = tfm.Dataset(bundle.schema, active, rng.uniform(0.5, 1.5, size=active.shape))
    A = gather_embeddings(bundle, dataset.global_indices, dataset.values)
    G = cp_mode_products(A, bundle.factor_stack)
    terms = cp_order_batch(G, bundle.cp_segments, bundle.cp_firsts)
    for o, span in enumerate(bundle.factor_spans):
        alone = order_tables(G, span).prod(axis=2).sum(axis=(1, 2))
        assert (abs(terms[:, o] - alone) <= 1e-12 * np.maximum(1.0, abs(alone))).all(), span
    batch = tfm.score_dataset(bundle, dataset)
    assert all(batch[i] == tfm.score(bundle, dataset.instance(i)) for i in range(n_rows))
    for i in range(min(n_rows, 3)):
        oracle = tfm.score_naive_oracle(bundle, dataset.instance(i))
        assert abs(batch[i] - oracle) <= 1e-9 * max(1.0, abs(oracle)), i


@PROPERTY
@given(models(KINDS + ALIASES), st.lists(FINITE, min_size=1, max_size=2))
def test_model_files_round_trip_exactly(model, edge):
    bundles, _ = model
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        for bundle in bundles:
            bundle.blocks["linear.w"][: len(edge)] = edge
            tfm.save_bundle(bundle, first)
            back = tfm.load_bundle(first)
            assert (back.kind, back.k, back.d, back.r_vec) == (bundle.kind, bundle.k, bundle.d, bundle.r_vec)
            assert list(back.blocks) == list(bundle.blocks)
            for name, arr in bundle.blocks.items():
                assert np.array_equal(back.blocks[name], arr), (bundle.kind, name)
            tfm.save_bundle(back, second)
            assert second.read_bytes() == first.read_bytes(), bundle.kind


@PROPERTY
@given(st.data())
def test_dataset_files_round_trip_exactly(data):
    cards = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n_rows = data.draw(st.integers(0, 6))
    schema = tfm.build_schema(cards)
    active = np.array([[data.draw(st.integers(0, c - 1)) for c in cards] for _ in range(n_rows)])
    values = np.array([[data.draw(FINITE) for _ in cards] for _ in range(n_rows)])
    labels = [data.draw(st.integers(0, 1)) for _ in range(n_rows)]
    shape = (n_rows, schema.n)
    dataset = tfm.Dataset(schema, active.reshape(shape), values.reshape(shape), labels)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        tfm.write_dataset(dataset, first)
        back = tfm.read_dataset(first)
        assert back.schema == schema
        assert np.array_equal(back.active, dataset.active) and np.array_equal(back.labels, dataset.labels)
        # bit for bit, so -0.0 stays apart from 0.0
        assert back.values.tobytes() == dataset.values.tobytes()
        tfm.write_dataset(back, second)
        assert second.read_bytes() == first.read_bytes()


# Characters a one-character mutation of a dataset file draws from: digits,
# the delimiters, other whitespace and line ends, the characters of a float,
# and non-ASCII text, including a digit int() reads.
MUTATION_CHARS = "0123456789: \n\r\t-+._exé١"


def read_outcome(path):
    """What ``read_dataset`` does with ``path``: its arrays as bytes with
    their dtypes, or its error message."""
    try:
        ds = tfm.read_dataset(path)
    except tfm.DataError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (ds.active, ds.values, ds.labels)]


@settings(PROPERTY, max_examples=500)
@given(st.data())
def test_one_mutation_reads_as_line_by_line(data):
    cards = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n_rows = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    schema = tfm.build_schema(cards)
    active = np.stack([rng.integers(0, c, size=n_rows) for c in cards], axis=1)
    values = rng.choice([1.0, 1.0, -0.0, 5e-324, 1e16, 1.0000000000000002, 0.5], size=active.shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.txt"
        tfm.write_dataset(tfm.Dataset(schema, active, values, rng.integers(0, 2, size=n_rows)), path)
        text = path.read_bytes().decode()
        body = len(text.split("\n", 1)[0]) + 1
        at = data.draw(st.integers(body, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        char = data.draw(st.sampled_from(MUTATION_CHARS))
        if op == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if op == "replace" else "") + text[at + 1 :]
        path.write_bytes(text.encode("utf-8"))
        with patch.object(tfm.data, "CHUNK_LINES", data.draw(st.integers(1, 4))):
            got = read_outcome(path)
            with patch.object(tfm.data, "_parse_canonical", lambda text, n: None):
                want = read_outcome(path)
    assert got == want
