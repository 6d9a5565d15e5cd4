"""Loss, analytic gradients, AdaGrad semantics, and the training loop."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorfm
from tensorfm import (
    ConfigError,
    DataError,
    Dataset,
    Instance,
    MetricError,
    NumericError,
    SyntheticSpec,
    TrainConfig,
    adagrad_state,
    adagrad_step,
    auc,
    backward,
    bce_from_score,
    build_schema,
    generate_synthetic,
    grid_search,
    init,
    score,
    score_dataset,
    split,
    train,
)
from tensorfm.training import RowGradient

from oracles import adagrad_dense_oracle, backward_dense_oracle


class TestBceLoss:
    def test_half_probability_is_ln_two(self):
        # score 0 is probability 0.5 for either label
        assert abs(bce_from_score(0.0, 1) - math.log(2)) < 1e-15
        assert abs(bce_from_score(0.0, 0) - math.log(2)) < 1e-15

    def test_logit_form_matches_probability_form_at_zero(self):
        # the closed form -[y log p + (1 - y) log(1 - p)] with p = sigmoid(s)
        for s in (0.0, 1.5, -3.0):
            p = 1.0 / (1.0 + math.exp(-s))
            for y in (0, 1):
                closed = -(y * math.log(p) + (1 - y) * math.log1p(-p))
                assert abs(bce_from_score(s, y) - closed) < 1e-15

    def test_softplus_value(self):
        assert abs(bce_from_score(2.0, 1) - math.log(1 + math.exp(-2))) < 1e-15
        assert abs(bce_from_score(2.0, 1) - 0.126928) < 1e-6

    def test_stable_at_extreme_scores(self):
        assert bce_from_score(1000.0, 1) == 0.0
        assert bce_from_score(-1000.0, 1) == 1000.0
        assert np.isfinite(bce_from_score(np.array([-500.0, 500.0]), np.array([1, 0]))).all()


def finite_difference_check(bundle, inst, h=1e-5, tol=1e-5):
    grads = backward(bundle, inst, upstream=1.0)
    assert list(grads) == list(bundle.blocks)
    for name, arr in bundle.blocks.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            up = score(bundle, inst)
            arr[ix] = orig - h
            down = score(bundle, inst)
            arr[ix] = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[name][ix]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1.0)
            assert err < tol, f"{name}[{ix}]: numeric {numeric} vs analytic {analytic}"


ALL_KINDS = [
    ("lr", {}),
    ("fm", {}),
    ("fwfm", {}),
    ("fwfm-lowrank", dict(r_vec=2)),
    ("hofm", dict(d=3)),
    ("tensorfm", dict(d=3, r_vec=2)),
    ("tensorfm-tucker", dict(d=3, r_vec=2)),
]


class TestBackward:
    def test_zero_factors_give_one_hot_linear_gradient(self):
        schema = build_schema([3, 4, 2])
        bundle = init("tensorfm", schema, k=3, d=2, r_vec=2, init_scale=0.3, seed=0)
        bundle.blocks["cp.2.factor.0"][:] = 0.0
        bundle.blocks["cp.2.factor.1"][:] = 0.0
        inst = Instance(np.array([1, 3, 0]), np.array([1.0, 2.0, 1.0]), 1)
        grads = backward(bundle, inst, upstream=1.0)
        assert (grads["embeddings"] == 0).all()
        expected_w = np.zeros(schema.m)
        expected_w[[1, 3 + 3, 7 + 0]] = [1.0, 2.0, 1.0]
        np.testing.assert_array_equal(grads["linear.w"], expected_w)
        assert grads["linear.b"].tolist() == [1.0]

    @pytest.mark.parametrize("kind,kw", ALL_KINDS)
    def test_finite_difference_small(self, kind, kw):
        rng = np.random.default_rng(hash(kind) % (1 << 31))
        for trial in range(3):
            schema = build_schema([int(rng.integers(2, 5)) for _ in range(4)])
            bundle = init(kind, schema, k=3, init_scale=0.5, seed=trial, **kw)
            bundle.blocks["linear.w"][:] = rng.normal(size=schema.m) * 0.5
            bundle.blocks["linear.b"][:] = rng.normal()
            inst = Instance(
                np.array([rng.integers(0, c) for c in schema.cardinalities]),
                rng.uniform(0.5, 2.0, size=4),
                1,
            )
            finite_difference_check(bundle, inst)

    def test_upstream_scales_gradient(self):
        schema = build_schema([3, 3])
        bundle = init("fm", schema, k=2, init_scale=0.5, seed=1)
        inst = Instance(np.array([0, 2]), np.ones(2), 0)
        g1 = backward(bundle, inst, upstream=1.0)
        g3 = backward(bundle, inst, upstream=-3.0)
        for name in bundle.blocks:
            np.testing.assert_allclose(g3[name], -3.0 * g1[name], rtol=1e-12)

    def test_pair_model_gradients_match_across_parameterizations(self):
        # a low-rank pair model and a depth-2 tensor model with identical
        # factors are the same function, so every gradient block must agree
        schema = build_schema([3, 4, 2])
        rng = np.random.default_rng(5)
        low = init("fwfm-lowrank", schema, k=3, r_vec=2, init_scale=0.4, seed=2)
        ten = init("tensorfm", schema, k=3, d=2, r_vec=2, init_scale=0.4, seed=3)
        for name, arr in low.blocks.items():
            ten.blocks[name][:] = arr
        inst = Instance(np.array([2, 1, 0]), rng.uniform(0.5, 2, size=3), 1)
        g_low = backward(low, inst, upstream=0.7)
        g_ten = backward(ten, inst, upstream=0.7)
        assert list(g_low) == list(g_ten)
        for name in g_low:
            np.testing.assert_allclose(g_low[name], g_ten[name], rtol=1e-12)


class TestAdagrad:
    def _lr_bundle(self):
        schema = build_schema([2])
        return init("lr", schema, seed=0)

    def _grads(self, w_grad):
        return {"linear.b": np.zeros(1), "linear.w": np.asarray(w_grad, dtype=np.float64)}

    def test_first_step_size(self):
        bundle = self._lr_bundle()
        state = adagrad_state(bundle)
        cfg = TrainConfig(learning_rate=0.1)
        adagrad_step(bundle, self._grads([1.0, 0.0]), state, cfg)
        assert abs(bundle.blocks["linear.w"][0] + 0.1) < 1e-7  # one step of -lr * g / sqrt(g^2)
        assert bundle.blocks["linear.w"][1] == 0.0

    def test_zero_gradient_no_change(self):
        bundle = self._lr_bundle()
        bundle.blocks["linear.w"][:] = [0.4, -0.2]
        state = adagrad_state(bundle)
        adagrad_step(bundle, self._grads([0.0, 0.0]), state, TrainConfig(learning_rate=0.1))
        assert bundle.blocks["linear.w"].tolist() == [0.4, -0.2]

    def test_second_step_shrinks_by_sqrt_two(self):
        bundle = self._lr_bundle()
        state = adagrad_state(bundle)
        cfg = TrainConfig(learning_rate=0.1)
        adagrad_step(bundle, self._grads([1.0, 0.0]), state, cfg)
        first = bundle.blocks["linear.w"][0]
        adagrad_step(bundle, self._grads([1.0, 0.0]), state, cfg)
        second = bundle.blocks["linear.w"][0] - first
        assert abs(second + 0.1 / math.sqrt(2)) < 1e-7

    def test_non_finite_gradient_names_block(self):
        bundle = init("fm", build_schema([2, 2]), k=2, seed=0)
        state = adagrad_state(bundle)
        grads = {"linear.b": np.zeros(1), "linear.w": np.zeros(4), "embeddings": np.full((4, 2), np.nan)}
        with pytest.raises(NumericError, match="embeddings"):
            adagrad_step(bundle, grads, state, TrainConfig())

    @pytest.mark.parametrize("name", ["linear.w", "embeddings"])
    def test_non_finite_touched_row_gradient_names_block(self, name):
        bundle = init("fm", build_schema([3, 3]), k=2, seed=0)
        rows = np.array([1, 4])
        grads = {
            "linear.b": np.zeros(1),
            "linear.w": RowGradient(rows, np.zeros(2)),
            "embeddings": RowGradient(rows, np.zeros((2, 2))),
        }
        grads[name].values[1] = np.nan
        with pytest.raises(NumericError, match=name):
            adagrad_step(bundle, grads, adagrad_state(bundle), TrainConfig())

    def test_l2_shrinks_parameters_with_zero_data_gradient(self):
        # zero factor matrices make the embedding data-gradient vanish, so
        # only the L2 term drives the update and norms must strictly shrink
        schema = build_schema([3, 3])
        bundle = init("tensorfm", schema, k=2, d=2, r_vec=1, init_scale=0.1, seed=4)
        bundle.blocks["cp.2.factor.0"][:] = 0.0
        bundle.blocks["cp.2.factor.1"][:] = 0.0
        state = adagrad_state(bundle)
        cfg = TrainConfig(learning_rate=0.01, l2=0.1)
        inst = Instance(np.array([0, 1]), np.ones(2), 1)
        norms = [np.abs(bundle.blocks["embeddings"]).sum()]
        for _ in range(5):
            grads = backward(bundle, inst, upstream=float(np.random.default_rng(0).normal()))
            assert (grads["embeddings"] == 0).all()
            adagrad_step(bundle, grads, state, cfg)
            norms.append(np.abs(bundle.blocks["embeddings"]).sum())
        assert all(b < a for a, b in zip(norms, norms[1:]))


    def test_touched_rows_update_as_the_fancy_indexed_expression(self):
        # the row update of a RowGradient, pinned bit for bit over 16 steps
        # to the 2-D fancy-indexed expression it replaced
        bundle = init("tensorfm", build_schema([40, 25, 60]), k=5, d=3, r_vec=2, init_scale=0.3, seed=2)
        want_bundle, state = copy.deepcopy(bundle), adagrad_state(bundle)
        want_state = {name: acc.copy() for name, acc in state.items()}
        rng = np.random.default_rng(9)
        cfg = TrainConfig(learning_rate=0.05)
        for _ in range(16):
            rows = np.flatnonzero(rng.random(bundle.schema.m) < 0.2)
            grads = {name: rng.normal(size=arr.shape) for name, arr in bundle.blocks.items()}
            for name in ("linear.w", "embeddings"):
                grads[name] = RowGradient(rows, rng.normal(size=(len(rows),) + bundle.blocks[name].shape[1:]))
            adagrad_step(bundle, grads, state, cfg)
            for name, theta in want_bundle.blocks.items():
                where, g = grads[name] if isinstance(grads[name], RowGradient) else (..., grads[name])
                acc = want_state[name][where] + g * g
                want_state[name][where] = acc
                theta[where] -= cfg.learning_rate * g / (np.sqrt(acc) + tensorfm.training.ADAGRAD_EPSILON)
        for name, theta in bundle.blocks.items():
            assert theta.tobytes() == want_bundle.blocks[name].tobytes(), name
            assert state[name].tobytes() == want_state[name].tobytes(), name

    @pytest.mark.parametrize("kind,kw", [("fwfm", {}), ("tensorfm-tucker", dict(d=3, r_vec=2))])
    def test_block_name_picks_l2_coefficient(self, kind, kw):
        # with a zero data gradient only the L2 term moves a block, so one
        # coefficient must move every block except linear.b
        bundle = init(kind, build_schema([2, 3, 2]), k=2, init_scale=0.5, seed=1, **kw)
        bundle.blocks["linear.w"][:] = 0.5
        bundle.blocks["linear.b"][:] = 0.5
        before = {name: arr.copy() for name, arr in bundle.blocks.items()}
        zero = {name: np.zeros_like(arr) for name, arr in bundle.blocks.items()}
        adagrad_step(bundle, zero, adagrad_state(bundle), TrainConfig(l2=0.1))
        for name, arr in bundle.blocks.items():
            assert (arr != before[name]).all() == (name != "linear.b"), name


def two_instance_dataset():
    schema = build_schema([2, 2])
    active = np.array([[0, 0], [1, 1]], dtype=np.int32)
    labels = np.array([0, 1], dtype=np.int8)
    return Dataset(schema, active, labels=labels)


class TestTrain:
    def test_zero_learning_rate_is_identity(self):
        ds = two_instance_dataset()
        bundle = init("fm", ds.schema, k=2, init_scale=0.3, seed=1)
        before = copy.deepcopy(bundle)
        train(bundle, ds, None, TrainConfig(learning_rate=0.0, epochs=3, batch_size=2))
        for name in bundle.blocks:
            assert (bundle.blocks[name] == before.blocks[name]).all(), name

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_signal=2, cardinality=5, order=2, n_samples=800, seed=3)
        ds = generate_synthetic(spec)
        results = []
        for _ in range(2):
            bundle = init("tensorfm", ds.schema, k=3, d=2, r_vec=2, seed=9)
            bundle, log = train(bundle, ds, None, TrainConfig(learning_rate=0.1, epochs=2, seed=5))
            results.append((bundle.blocks["embeddings"].copy(), log[-1].train_loss))
        assert (results[0][0] == results[1][0]).all()
        assert results[0][1] == results[1][1]

    def test_loss_strictly_decreases_on_separable_pair(self):
        ds = two_instance_dataset()
        bundle = init("lr", ds.schema, seed=0)
        _, log = train(bundle, ds, None, TrainConfig(learning_rate=0.1, epochs=50, batch_size=2))
        losses = [e.train_loss for e in log]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_linear_model_solves_first_order_signal(self):
        spec = SyntheticSpec(n_signal=1, cardinality=8, order=1, n_noise=1, n_samples=6000, seed=2)
        ds = generate_synthetic(spec)
        tr, va, te = split(ds, (0.70, 0.15, 0.15), seed=2)
        bundle = init("lr", ds.schema, seed=0)
        bundle, log = train(bundle, tr, va, TrainConfig(learning_rate=0.5, epochs=5))
        assert log[-1].valid_auc > 0.95
        assert auc(score_dataset(bundle, te), te.labels) > 0.95

    def test_empty_training_set_rejected(self):
        schema = build_schema([2, 2])
        empty = Dataset(schema, np.zeros((0, 2), dtype=np.int32))
        bundle = init("lr", schema, seed=0)
        with pytest.raises(DataError):
            train(bundle, empty, None, TrainConfig())

    def test_empty_validation_set_rejected(self):
        schema = build_schema([2, 2])
        ds = Dataset(schema, np.array([[0, 1], [1, 0]]), labels=np.array([0, 1]))
        empty = Dataset(schema, np.zeros((0, 2), dtype=np.int32), provenance="v.txt")
        with pytest.raises(DataError, match="v.txt: no data rows"):
            train(init("lr", schema, seed=0), ds, empty, TrainConfig())

    @pytest.mark.parametrize("setting", [dict(learning_rate=math.nan), dict(learning_rate=math.inf),
                                         dict(l2=math.nan), dict(l2=-1e-3)])
    def test_non_finite_or_negative_setting_rejected(self, setting):
        with pytest.raises(ConfigError):
            TrainConfig(**setting)

    def test_schema_mismatch_rejected(self):
        ds = two_instance_dataset()
        bundle = init("lr", build_schema([3, 3]), seed=0)
        with pytest.raises(ConfigError):
            train(bundle, ds, None, TrainConfig())

    def test_divergence_reports_last_good_epoch(self):
        spec = SyntheticSpec(n_signal=2, cardinality=4, order=2, n_samples=400, seed=1)
        ds = generate_synthetic(spec)
        bundle = init("fm", ds.schema, k=3, init_scale=0.5, seed=0)
        with pytest.raises(NumericError, match="epoch"):
            train(bundle, ds, None, TrainConfig(learning_rate=1e160, epochs=3))

    def test_non_finite_block_at_epoch_end_is_named(self, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(n_signal=2, cardinality=4, order=2, n_samples=400, seed=1))
        bundle = init("fm", ds.schema, k=3, seed=0)

        def step_leaving_nan(bundle, *args):
            adagrad_step(bundle, *args)
            bundle.blocks["embeddings"][0, 0] = np.nan

        monkeypatch.setattr("tensorfm.training.adagrad_step", step_leaving_nan)
        # one batch per epoch: no later loss sees the NaN before the epoch ends
        with pytest.raises(NumericError, match="block 'embeddings' became non-finite in epoch 1"):
            train(bundle, ds, None, TrainConfig(batch_size=len(ds)))

    def test_non_finite_validation_score_is_named(self):
        ds = generate_synthetic(SyntheticSpec(n_signal=2, cardinality=4, order=2, n_samples=400, seed=1))
        bundle = init("fm", ds.schema, k=3, init_scale=0.5, seed=0)
        # one step of about 1e160 per parameter: finite, but the scores overflow
        with pytest.raises(NumericError, match="validation score became non-finite in epoch 1"):
            train(bundle, ds, ds, TrainConfig(learning_rate=1e160, batch_size=len(ds)))

    def test_epoch_log_shape(self):
        spec = SyntheticSpec(n_signal=2, cardinality=4, order=2, n_samples=600, seed=4)
        ds = generate_synthetic(spec)
        tr, va, _ = split(ds, (0.6, 0.2, 0.2), seed=0)
        bundle = init("fm", ds.schema, k=2, seed=0)
        _, log = train(bundle, tr, va, TrainConfig(learning_rate=0.1, epochs=4))
        assert [e.epoch for e in log] == [1, 2, 3, 4]
        assert all(np.isfinite(e.valid_auc) and np.isfinite(e.valid_logloss) for e in log)
        assert all(e.wall_seconds >= 0 for e in log)


def few_rows_per_batch():
    """Each 8-row batch touches at most 32 of 188 vocabulary rows, and the
    multipliers are not 1."""
    rng = np.random.default_rng(11)
    schema = build_schema([40, 60, 8, 80])
    active = np.stack([rng.integers(0, c, 96) for c in schema.cardinalities], axis=1).astype(np.int32)
    ds = Dataset(schema, active, rng.uniform(0.5, 2.0, active.shape), rng.integers(0, 2, 96).astype(np.int8))
    return ds, 8


def every_row_per_batch():
    """One batch per epoch whose rows take every value of every field."""
    schema = build_schema([2, 3, 4])
    rows = np.arange(24)
    active = np.stack([rows % c for c in schema.cardinalities], axis=1).astype(np.int32)
    return Dataset(schema, active, labels=(rows % 5 < 2).astype(np.int8)), 24


class TestTouchedRows:
    """Training scatters gradients into, and steps, only the vocabulary rows
    a batch touches; the whole-vocabulary step in ``oracles`` is the
    reference, and the trained blocks and accumulators must be its bits."""

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("data", [few_rows_per_batch, every_row_per_batch])
    @pytest.mark.parametrize("kind,kw", ALL_KINDS)
    def test_training_equals_the_whole_vocabulary_step(self, monkeypatch, kind, kw, data, l2):
        ds, batch_size = data()
        config = TrainConfig(learning_rate=0.2, l2=l2, epochs=2, batch_size=batch_size, seed=4)
        runs = []
        for dense in (True, False):
            state, row_grads = {}, []
            step = adagrad_dense_oracle if dense else adagrad_step

            def recording_step(bundle, grads, acc, config, step=step):
                state.update(acc)  # the loop's accumulators, updated in place
                row_grads.append(isinstance(grads["linear.w"], RowGradient))
                step(bundle, grads, acc, config)

            with monkeypatch.context() as patch:
                patch.setattr("tensorfm.training.adagrad_step", recording_step)
                if dense:
                    patch.setattr("tensorfm.training.backward_from_cache", backward_dense_oracle)
                bundle, _ = train(init(kind, ds.schema, k=3, init_scale=0.3, seed=1, **kw), ds, None, config)
            runs.append((bundle, state, row_grads))
        (want, want_acc, _), (got, got_acc, row_grads) = runs
        assert row_grads == [True] * (2 * len(ds) // batch_size)
        for name in want.blocks:
            assert np.array_equal(got.blocks[name], want.blocks[name]), name
            assert np.array_equal(got_acc[name], want_acc[name]), name


# Trains each kind of THREAD_KINDS in a fresh interpreter and prints the
# SHA-256 of its trained blocks, as JSON.
_TRAIN_AND_DIGEST = """
import hashlib, json, sys
import tensorfm as tfm
spec = tfm.SyntheticSpec(n_signal=4, cardinality=6, order=4, n_noise=96, n_samples=8000, seed=11)
ds = tfm.generate_synthetic(spec)
config = tfm.TrainConfig(learning_rate=0.05, epochs=2, batch_size=1024, seed=11)
digests = {}
for kind, d, rank in json.loads(sys.argv[1]):
    bundle, _ = tfm.train(tfm.init(kind, ds.schema, k=8, d=d, r_vec=rank, seed=11), ds, None, config)
    h = hashlib.sha256()
    for arr in bundle.blocks.values():
        h.update(arr.tobytes())
    digests[f"{kind} d={d} r={rank}"] = h.hexdigest()
print(json.dumps(digests))
"""

# (kind, d, rank)
THREAD_KINDS = [("fm", 2, None), ("hofm", 3, None), ("tensorfm", 4, 4), ("tensorfm-tucker", 3, 3)]


def test_training_is_the_same_at_one_and_two_blas_threads():
    """At n=100 and batch 1024, two epochs train to the same bits whether
    OpenBLAS runs one thread or two.

    fwfm and tensorfm d=2 r=50 are left out: their trained blocks already
    change with the thread count. A GEMM that reduces over the batch's B·k
    coordinate rows into a wide output (fwfm's (100, 8192) @ (8192, 100)
    pair gradient, the 100-column factor-stack gradient) sums in an order
    that depends on how OpenBLAS splits it."""
    env = {**os.environ, "PYTHONPATH": str(Path(tensorfm.__file__).parents[1])}
    runs = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_DIGEST, json.dumps(THREAD_KINDS)],
            capture_output=True, text=True, env=env, check=True,
        )  # fmt: skip
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) == len(THREAD_KINDS)
    assert runs[0] == runs[1]


class TestGridSearch:
    def _data(self, n_noise=0):
        spec = SyntheticSpec(n_signal=2, cardinality=5, order=2, n_noise=n_noise, n_samples=3000, seed=6)
        ds = generate_synthetic(spec)
        return split(ds, (0.7, 0.15, 0.15), seed=6)[:2]

    @pytest.mark.parametrize("kind,kw", ALL_KINDS)
    def test_single_point_matches_plain_train(self, kind, kw):
        tr, va = self._data(n_noise=1)  # three fields, for d=3
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=3)
        best, results = grid_search(init(kind, tr.schema, k=3, seed=3, **kw), [(0.1, 0.0)], tr, va, cfg)
        direct, log = train(init(kind, tr.schema, k=3, seed=3, **kw), tr, va, cfg)
        assert list(best.blocks) == list(direct.blocks)
        for name in direct.blocks:
            np.testing.assert_array_equal(best.blocks[name], direct.blocks[name], err_msg=name)
        assert len(results) == 1 and results[0].status == "ok"
        assert (results[0].valid_auc, results[0].valid_logloss) == (log[-1].valid_auc, log[-1].valid_logloss)

    def test_given_bundle_is_left_unchanged(self):
        tr, va = self._data()
        bundle = init("tensorfm", tr.schema, k=3, d=2, r_vec=2, seed=3)
        before = copy.deepcopy(bundle)
        best, _ = grid_search(bundle, [(1e160, 0.0), (0.1, 0.0)], tr, va, TrainConfig(epochs=1, seed=3))
        assert best is not bundle
        for name, arr in bundle.blocks.items():
            np.testing.assert_array_equal(arr, before.blocks[name], err_msg=name)

    @pytest.mark.parametrize("labels, error", [([1], MetricError), ([], DataError)], ids=["one-class", "empty"])
    def test_undefined_validation_auc_raises_before_training(self, monkeypatch, labels, error):
        tr, va = self._data()
        va = va.subset(np.flatnonzero(np.isin(va.labels, labels)))
        calls = []
        monkeypatch.setattr("tensorfm.training.train", lambda *args: calls.append(args))
        with pytest.raises(error):
            grid_search(init("fm", tr.schema, k=3), [(0.1, 0.0)], tr, va, TrainConfig())
        assert calls == []

    def test_divergent_point_excluded(self):
        tr, va = self._data()
        cfg = TrainConfig(epochs=2, seed=3)
        best, results = grid_search(init("fm", tr.schema, k=3, seed=3), [(1e160, 0.0), (0.1, 0.0)], tr, va, cfg)
        by_status = {r.status for r in results}
        assert by_status == {"ok", "failed"}
        ok = [r for r in results if r.status == "ok"]
        assert len(ok) == 1 and ok[0].learning_rate == 0.1
        assert results[-1].status == "failed"

    def test_report_sorted_by_validation_auc(self):
        tr, va = self._data()
        cfg = TrainConfig(epochs=2, seed=3)
        grid = [(lr, l2) for lr in (0.01, 0.05, 0.1) for l2 in (0.0, 1e-5, 1e-4)]
        best, results = grid_search(init("fm", tr.schema, k=3, seed=3), grid, tr, va, cfg)
        assert len(results) == 9
        aucs = [r.valid_auc for r in results]
        assert aucs == sorted(aucs, reverse=True)
        assert max(aucs) == results[0].valid_auc

    def test_empty_grid_rejected(self):
        tr, va = self._data()
        with pytest.raises(ConfigError):
            grid_search(init("fm", tr.schema, k=3), [], tr, va, TrainConfig())
