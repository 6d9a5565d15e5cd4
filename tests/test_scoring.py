"""Fast scorers against hand computations and the brute-force oracle."""

import copy
import itertools
import math
import threading
import time

import numpy as np
import pytest

from tensorfm import (
    ConfigError,
    Dataset,
    Instance,
    build_schema,
    embed_view,
    fwfm_lowrank_from_dense,
    init,
    interaction_term,
    materialize_tensor,
    materialize_tucker,
    score,
    score_dataset,
    score_naive_oracle,
    sigmoid,
)
from tensorfm import scoring
from tensorfm.params import KINDS
from tensorfm.scoring import interaction_tensors, oracle_interaction_sum

from oracles import symmetrize


def random_instance(schema, rng, values=None):
    active = np.array([rng.integers(0, c) for c in schema.cardinalities])
    vals = np.ones(schema.n) if values is None else values
    return Instance(active, vals, int(rng.integers(0, 2)))


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def score_linear(bundle, instance):
    """The linear block's score alone: an lr model with the same linear
    weights scores exactly that."""
    lr = init("lr", bundle.schema)
    for name in ("linear.w", "linear.b"):
        lr.blocks[name][:] = bundle.blocks[name]
    return score(lr, instance)


def predict_proba(bundle, instance):
    return float(sigmoid(score(bundle, instance)))


class TestEmbedView:
    def test_columns_are_scaled_embeddings(self):
        schema = build_schema([3, 2])
        bundle = init("fm", schema, k=4, init_scale=0.5, seed=0)
        inst = Instance(np.array([2, 1]), np.array([1.0, 2.5]), 0)
        a = embed_view(bundle, inst)
        assert a.shape == (4, 2)
        np.testing.assert_allclose(a[:, 0], bundle.blocks["embeddings"][2])
        np.testing.assert_allclose(a[:, 1], 2.5 * bundle.blocks["embeddings"][3 + 1])


class TestScoreLinear:
    def test_bias_only(self):
        schema = build_schema([2, 2])
        bundle = init("lr", schema, seed=0)
        bundle.blocks["linear.b"][:] = 0.5
        assert score_linear(bundle, Instance(np.array([0, 1]), np.ones(2), 0)) == 0.5

    def test_two_term_sum(self):
        schema = build_schema([2, 2])
        bundle = init("lr", schema, seed=0)
        inst = Instance(np.array([1, 0]), np.ones(2), 0)
        bundle.blocks["linear.w"][1] = 0.3
        bundle.blocks["linear.w"][2] = -0.1
        assert abs(score_linear(bundle, inst) - 0.2) < 1e-15

    def test_numeric_multiplier(self):
        schema = build_schema([3, 4])
        rng = np.random.default_rng(0)
        bundle = init("lr", schema, seed=0)
        bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
        bundle.blocks["linear.b"][:] = -0.7
        inst = Instance(np.array([2, 1]), np.array([2.0, 1.0]), 1)
        by_hand = -0.7 + 2.0 * bundle.blocks["linear.w"][2] + bundle.blocks["linear.w"][3 + 1]
        assert rel_err(score_linear(bundle, inst), by_hand) < 1e-14


class TestScoreFm:
    def test_zero_embeddings(self):
        schema = build_schema([2, 3, 2])
        bundle = init("fm", schema, k=3, init_scale=0.0, seed=0)
        assert interaction_term(bundle, random_instance(schema, np.random.default_rng(0))) == 0.0

    def test_two_fields_reduce_to_dot(self):
        schema = build_schema([3, 3])
        bundle = init("fm", schema, k=5, init_scale=1.0, seed=2)
        inst = Instance(np.array([1, 2]), np.ones(2), 0)
        a = embed_view(bundle, inst)
        assert rel_err(interaction_term(bundle, inst), float(a[:, 0] @ a[:, 1])) < 1e-12

    def test_matches_pair_loop(self):
        schema = build_schema([2, 3, 4, 2])
        bundle = init("fm", schema, k=3, init_scale=0.8, seed=3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            inst = random_instance(schema, rng, values=rng.uniform(-2, 2, size=4))
            a = embed_view(bundle, inst)
            direct = sum(
                float(a[:, i] @ a[:, j]) for i in range(4) for j in range(i + 1, 4)
            )
            assert rel_err(interaction_term(bundle, inst), direct) < 1e-11


class TestScoreFwfm:
    def test_all_ones_pair_matrix_equals_fm(self):
        schema = build_schema([2, 3, 4])
        bundle = init("fwfm", schema, k=3, init_scale=0.6, seed=4)
        bundle.blocks["pair.upper"][:] = 1.0
        fm = init("fm", schema, k=3, seed=0)
        fm.blocks["embeddings"][:] = bundle.blocks["embeddings"]
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instance(schema, rng)
            assert rel_err(interaction_term(bundle, inst), interaction_term(fm, inst)) < 1e-12

    def test_zero_pair_matrix(self):
        schema = build_schema([2, 3])
        bundle = init("fwfm", schema, k=3, init_scale=0.6, seed=4)
        bundle.blocks["pair.upper"][:] = 0.0
        assert interaction_term(bundle, random_instance(schema, np.random.default_rng(0))) == 0.0

    def test_matches_weighted_double_loop(self):
        schema = build_schema([3, 2, 4])
        bundle = init("fwfm", schema, k=4, init_scale=0.9, seed=7)
        rng = np.random.default_rng(8)
        s = bundle.dense_s
        for _ in range(10):
            inst = random_instance(schema, rng, values=rng.uniform(0.5, 2.0, size=3))
            a = embed_view(bundle, inst)
            direct = 0.5 * sum(
                s[i, j] * float(a[:, i] @ a[:, j]) for i in range(3) for j in range(3)
            )
            assert rel_err(interaction_term(bundle, inst), direct) < 1e-11


class TestScoreFwfmLowrank:
    def test_full_rank_factorization_matches_dense(self):
        rng = np.random.default_rng(9)
        schema = build_schema([3] * 6)
        for trial in range(10):
            bundle = init("fwfm", schema, k=3, init_scale=1.0, seed=trial)
            low = fwfm_lowrank_from_dense(bundle)
            for _ in range(5):
                inst = random_instance(schema, rng)
                assert rel_err(interaction_term(low, inst), interaction_term(bundle, inst)) < 1e-9

    def test_zero_factors(self):
        schema = build_schema([2, 2, 2])
        bundle = init("fwfm-lowrank", schema, k=3, r_vec=2, init_scale=0.0, seed=0)
        assert interaction_term(bundle, random_instance(schema, np.random.default_rng(1))) == 0.0

    def test_rank_one_all_ones_is_squared_field_sum(self):
        schema = build_schema([3, 2, 4])
        bundle = init("fwfm-lowrank", schema, k=4, r_vec=1, init_scale=0.5, seed=5)
        bundle.blocks["cp.2.factor.0"][:] = 1.0
        bundle.blocks["cp.2.factor.1"][:] = 1.0
        rng = np.random.default_rng(2)
        inst = random_instance(schema, rng)
        a = embed_view(bundle, inst)
        expected = float((a.sum(axis=1) ** 2).sum())
        assert rel_err(interaction_term(bundle, inst), expected) < 1e-12


class TestScoreHofm:
    def test_degree_two_equals_fm(self):
        schema = build_schema([2, 3, 2, 4])
        bundle = init("hofm", schema, k=3, d=2, init_scale=0.7, seed=1)
        fm = init("fm", schema, k=3, seed=0)
        fm.blocks["embeddings"][:] = bundle.blocks["embeddings"]
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(schema, rng)
            assert rel_err(interaction_term(bundle, inst), interaction_term(fm, inst)) < 1e-12

    def test_degree_three_matches_subset_enumeration(self):
        schema = build_schema([2, 2, 3, 2])
        bundle = init("hofm", schema, k=2, d=3, init_scale=0.9, seed=2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            inst = random_instance(schema, rng)
            a = embed_view(bundle, inst)
            direct = 0.0
            for t in (2, 3):
                for combo in itertools.combinations(range(4), t):
                    direct += float(np.prod(a[:, list(combo)], axis=1).sum())
            assert rel_err(interaction_term(bundle, inst), direct) < 1e-11

    def test_zero_embeddings(self):
        schema = build_schema([2, 2, 2])
        bundle = init("hofm", schema, k=3, d=3, init_scale=0.0, seed=0)
        assert interaction_term(bundle, random_instance(schema, np.random.default_rng(0))) == 0.0

    def test_degree_above_field_count_rejected(self):
        schema = build_schema([2, 2, 2])
        with pytest.raises(ConfigError):
            init("hofm", schema, k=2, d=4, seed=0)


class TestScoreTensorFmCp:
    def test_zero_factors_reduce_to_linear(self):
        schema = build_schema([3, 4, 2])
        bundle = init("tensorfm", schema, k=3, d=3, r_vec=2, init_scale=0.4, seed=6)
        for span in bundle.factor_spans:
            for name in span.factors:
                bundle.blocks[name][:] = 0.0
        bundle.blocks["linear.w"][:] = np.random.default_rng(7).normal(size=schema.m)
        bundle.blocks["linear.b"][:] = 1.25
        inst = random_instance(schema, np.random.default_rng(8))
        assert score(bundle, inst) == score_linear(bundle, inst)

    def test_rank_one_all_ones_second_order(self):
        schema = build_schema([3, 2, 2])
        bundle = init("tensorfm", schema, k=4, d=2, r_vec=1, init_scale=0.5, seed=9)
        bundle.blocks["cp.2.factor.0"][:] = 1.0
        bundle.blocks["cp.2.factor.1"][:] = 1.0
        inst = random_instance(schema, np.random.default_rng(10))
        a = embed_view(bundle, inst)
        expected = score_linear(bundle, inst) + float((a.sum(axis=1) ** 2).sum())
        assert rel_err(score(bundle, inst), expected) < 1e-12

    def test_matches_oracle(self):
        schema = build_schema([2, 3, 2])
        bundle = init("tensorfm", schema, k=2, d=3, r_vec=2, init_scale=0.8, seed=11)
        bundle.blocks["linear.w"][:] = np.random.default_rng(12).normal(size=schema.m)
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(schema, rng)
            assert rel_err(score(bundle, inst), score_naive_oracle(bundle, inst)) < 1e-9


class TestCpForwardPaths:
    """From ``scoring.CP_ROWS`` rows on, the CP kernel scores a batch on
    coordinate-major rows, and below it on the (B, k, stack columns) tables;
    both give every score the same bits, at every batch size. k=8: a sum
    over the 8 coordinates along a contiguous axis (numpy's pairwise sum)
    would differ from the tables' sequential one."""

    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("n", [39, 100])
    @pytest.mark.parametrize("d,rank", [(2, 1), (2, 3), (3, 3), (4, 4)])
    def test_every_batch_size_and_score_give_the_same_bits(self, d, rank, n, unit):
        rng = np.random.default_rng(n + d)
        schema = build_schema(rng.integers(2, 60, size=n).tolist())
        bundle = init("tensorfm", schema, k=8, d=d, r_vec=rank, init_scale=0.3, seed=d)
        active = np.stack([rng.integers(0, c, size=2100) for c in schema.cardinalities], axis=1)
        ds = Dataset(schema, active, None if unit else rng.uniform(0.5, 1.5, size=active.shape))
        want = np.array([score(bundle, ds.instance(i)) for i in range(len(ds))])
        for batch_size in (1, scoring.CP_ROWS - 1, scoring.CP_ROWS, 1024, 2048):
            assert np.array_equal(score_dataset(bundle, ds, batch_size), want), batch_size


class TestScoreTensorFmTucker:
    def test_zero_core_reduces_to_linear(self):
        schema = build_schema([3, 2, 4])
        bundle = init("tensorfm-tucker", schema, k=3, d=3, r_vec=2, init_scale=0.5, seed=1)
        bundle.blocks["tucker.2.core"][:] = 0.0
        bundle.blocks["tucker.3.core"][:] = 0.0
        bundle.blocks["linear.w"][:] = np.random.default_rng(2).normal(size=schema.m)
        inst = random_instance(schema, np.random.default_rng(3))
        assert score(bundle, inst) == score_linear(bundle, inst)

    def test_diagonal_core_matches_lowrank_pair_model(self):
        schema = build_schema([3, 3, 3])
        rng = np.random.default_rng(4)
        tucker = init("tensorfm-tucker", schema, k=3, d=2, r_vec=2, init_scale=0.6, seed=5)
        core = tucker.blocks["tucker.2.core"]
        f0, f1 = tucker.blocks["tucker.2.factor.0"], tucker.blocks["tucker.2.factor.1"]
        lam = rng.normal(size=2)
        core[:] = np.diag(lam)

        low = init("fwfm-lowrank", schema, k=3, r_vec=2, init_scale=0.0, seed=5)
        low.blocks["embeddings"][:] = tucker.blocks["embeddings"]
        low.blocks["cp.2.factor.0"][:] = f0 * lam
        low.blocks["cp.2.factor.1"][:] = f1

        np.testing.assert_allclose(
            materialize_tucker(core, [f0, f1]),
            materialize_tensor([low.blocks["cp.2.factor.0"], low.blocks["cp.2.factor.1"]]),
            atol=1e-12,
        )
        for _ in range(10):
            inst = random_instance(schema, rng)
            assert rel_err(interaction_term(tucker, inst), interaction_term(low, inst)) < 1e-10

    def test_matches_oracle(self):
        schema = build_schema([3, 3, 3])
        bundle = init("tensorfm-tucker", schema, k=2, d=3, r_vec=2, init_scale=0.7, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(10):
            inst = random_instance(schema, rng)
            assert rel_err(score(bundle, inst), score_naive_oracle(bundle, inst)) < 1e-9


class TestPredictProba:
    def test_zero_score(self):
        schema = build_schema([2])
        bundle = init("lr", schema, seed=0)
        assert predict_proba(bundle, Instance(np.array([0]), np.ones(1), 0)) == 0.5

    def test_saturation(self):
        schema = build_schema([2])
        bundle = init("lr", schema, seed=0)
        bundle.blocks["linear.b"][:] = 40.0
        assert predict_proba(bundle, Instance(np.array([0]), np.ones(1), 0)) >= 1 - 1e-17
        # stability at |score| = 500: finite, saturated, never overflows
        bundle.blocks["linear.b"][:] = 500.0
        assert predict_proba(bundle, Instance(np.array([0]), np.ones(1), 0)) == 1.0
        bundle.blocks["linear.b"][:] = -500.0
        p = predict_proba(bundle, Instance(np.array([0]), np.ones(1), 0))
        assert 0.0 <= p < 1e-100

    def test_quarter_probability(self):
        schema = build_schema([2])
        bundle = init("lr", schema, seed=0)
        bundle.blocks["linear.b"][:] = -math.log(3.0)
        assert abs(predict_proba(bundle, Instance(np.array([0]), np.ones(1), 0)) - 0.25) < 1e-15


class TestOracleCap:
    def test_tuple_budget_enforced(self):
        schema = build_schema([2] * 6)
        bundle = init("tensorfm", schema, k=2, d=4, r_vec=2, init_scale=0.5, seed=0)
        inst = random_instance(schema, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            score_naive_oracle(bundle, inst, max_tuples=100)

    @pytest.mark.parametrize("kind", ["fm", "fwfm"])
    def test_pair_kinds_count_their_order_two_tuples(self, kind):
        # the pair kinds have d=1, yet the oracle sums their n**2 pair tuples
        schema = build_schema([2, 3])
        bundle = init(kind, schema, k=2, seed=0)
        inst = random_instance(schema, np.random.default_rng(0))
        with pytest.raises(ConfigError, match="4 tuples"):
            score_naive_oracle(bundle, inst, max_tuples=1)
        assert score_naive_oracle(bundle, inst, max_tuples=4) == pytest.approx(score(bundle, inst), rel=1e-12)


class TestScoreDataset:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        schema = build_schema([2, 3])
        dataset = Dataset(schema, np.zeros((4, 2), dtype=np.int64), np.ones((4, 2)))
        with pytest.raises(ConfigError, match="batch size"):
            score_dataset(init("fm", schema, k=2, seed=0), dataset, batch_size=batch_size)

    @pytest.mark.parametrize("multipliers", [True, False], ids=["multipliers", "unit"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_are_the_same_bits_for_any_worker_count(self, monkeypatch, kind, multipliers):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        rng = np.random.default_rng(3)
        schema = build_schema([3, 4, 2, 5])
        bundle = init(kind, schema, k=3, d=3, r_vec=2, init_scale=0.8, seed=2)
        bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
        # rows: three 4-row batches, the last one short; exactly one batch; none
        for n_rows, batches in [(10, 3), (4, 1), (0, 0)]:
            active = np.stack([rng.integers(0, c, size=n_rows) for c in schema.cardinalities], axis=1)
            values = rng.uniform(0.5, 1.5, size=active.shape) if multipliers else None
            dataset = Dataset(schema, active, values)
            monkeypatch.setattr(scoring, "WORKERS", 1)
            serial = score_dataset(bundle, dataset, batch_size=4)
            assert serial.shape == (n_rows,) and started == []
            for workers in (2, 8):  # 8: more workers than batches
                monkeypatch.setattr(scoring, "WORKERS", workers)
                assert np.array_equal(score_dataset(bundle, dataset, batch_size=4), serial), (n_rows, workers)
                assert len(started) == max(min(workers, batches) - 1, 0), (n_rows, workers)
                started.clear()

    def test_a_helper_failure_is_raised_in_the_caller(self, monkeypatch):
        schema = build_schema([3, 4])
        active = np.zeros((12, 2), dtype=np.int64)
        active[4, 0] = 2  # marks the second 4-row batch, a helper's
        forward = scoring.forward_batch

        def failing(bundle, gidx, vals):
            if gidx[0, 0] == 2:
                raise RuntimeError("second batch")
            return forward(bundle, gidx, vals)

        monkeypatch.setattr(scoring, "forward_batch", failing)
        monkeypatch.setattr(scoring, "WORKERS", 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="second batch"):
            score_dataset(init("fm", schema, k=2, seed=0), Dataset(schema, active), batch_size=4)
        assert threading.active_count() == threads

    def test_helpers_stop_once_the_callers_share_fails(self, monkeypatch):
        schema = build_schema([3, 4])
        active = np.zeros((60, 2), dtype=np.int64)
        active[0, 0] = 2  # marks the first one-row batch, the caller's
        forward = scoring.forward_batch
        helper_batches = []

        def failing(bundle, gidx, vals):
            if gidx[0, 0] == 2:
                raise RuntimeError("first batch")
            helper_batches.append(len(gidx))
            time.sleep(0.02)  # a helper that does not stop takes 0.6 s over its 30 batches
            return forward(bundle, gidx, vals)

        monkeypatch.setattr(scoring, "forward_batch", failing)
        monkeypatch.setattr(scoring, "WORKERS", 2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="first batch"):
            score_dataset(init("fm", schema, k=2, seed=0), Dataset(schema, active), batch_size=1)
        assert threading.active_count() == threads
        assert len(helper_batches) < 30


def random_bundle(rng):
    """A random small bundle of a random kind, exercising every code path."""
    n = int(rng.integers(2, 7))
    cards = [int(rng.integers(2, 5)) for _ in range(n)]
    schema = build_schema(cards)
    k = int(rng.integers(1, 5))
    kind = rng.choice(["fm", "fwfm", "fwfm-lowrank", "hofm", "tensorfm", "tensorfm-tucker"])
    d = int(rng.integers(2, min(4, n) + 1))
    r = int(rng.integers(1, min(4, n) + 1))
    bundle = init(kind, schema, k=k, d=d, r_vec=r, init_scale=0.8, seed=int(rng.integers(1 << 30)))
    bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
    bundle.blocks["linear.b"][:] = rng.normal()
    return bundle


class TestOracleEquivalence:
    def test_every_kind_matches_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(120):
            bundle = random_bundle(rng)
            values = rng.uniform(-1.5, 1.5, size=bundle.schema.n)
            inst = random_instance(bundle.schema, rng, values=values)
            fast = score(bundle, inst)
            slow = score_naive_oracle(bundle, inst)
            assert rel_err(fast, slow) < 1e-9, bundle.kind

    def test_interaction_term_is_score_without_linear_block(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            bundle = random_bundle(rng)
            inst = random_instance(bundle.schema, rng, values=rng.uniform(-1.5, 1.5, size=bundle.schema.n))
            total = score_linear(bundle, inst) + interaction_term(bundle, inst)
            assert abs(total - score(bundle, inst)) <= 1e-12 * max(abs(total), 1.0), bundle.kind
        lr = init("lr", build_schema([2, 3]), seed=0)
        lr.blocks["linear.b"][:] = 0.5
        assert interaction_term(lr, Instance(np.array([1, 2]), np.ones(2), 0)) == 0.0


class TestSymmetrizationInvariance:
    def test_oracle_unchanged_by_symmetrization(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            schema = build_schema([3] * int(rng.integers(2, 6)))
            d = int(rng.integers(2, min(4, schema.n) + 1))
            bundle = init(
                "tensorfm", schema, k=2, d=d, r_vec=2, init_scale=0.9, seed=int(rng.integers(1 << 30))
            )
            inst = random_instance(schema, rng)
            a = embed_view(bundle, inst)
            tensors = interaction_tensors(bundle)
            sym = {order: symmetrize(t) for order, t in tensors.items()}
            raw = oracle_interaction_sum(a, tensors)
            symmetric = oracle_interaction_sum(a, sym)
            assert abs(raw - symmetric) <= 1e-9 * max(abs(raw), 1.0)


class TestMultilinearity:
    def test_order_contribution_scales_with_one_factor(self):
        schema = build_schema([3, 4, 2, 3])
        bundle = init("tensorfm", schema, k=3, d=3, r_vec=2, init_scale=0.7, seed=30)
        inst = random_instance(schema, np.random.default_rng(31))

        def order3_term(b):
            other = copy.deepcopy(b)
            for name in ("cp.3.factor.0", "cp.3.factor.1", "cp.3.factor.2"):
                other.blocks[name][:] = 0.0
            return score(b, inst) - score(other, inst)

        base = order3_term(bundle)
        scaled = copy.deepcopy(bundle)
        scaled.blocks["cp.3.factor.0"][:] *= -2.5
        assert rel_err(order3_term(scaled), -2.5 * base) < 1e-10


class TestFieldPermutationEquivariance:
    def test_score_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(40)
        n, card, k = 5, 3, 3
        schema = build_schema([card] * n)
        bundle = init("tensorfm", schema, k=k, d=3, r_vec=2, init_scale=0.8, seed=41)
        bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
        inst = random_instance(schema, rng, values=rng.uniform(0.5, 1.5, size=n))

        perm = rng.permutation(n)
        permuted = copy.deepcopy(bundle)
        emb_fields = bundle.blocks["embeddings"].reshape(n, card, k)
        permuted.blocks["embeddings"][:] = emb_fields[perm].reshape(n * card, k)
        w_fields = bundle.blocks["linear.w"].reshape(n, card)
        permuted.blocks["linear.w"][:] = w_fields[perm].reshape(-1)
        for name, arr in bundle.blocks.items():
            if name.startswith("cp."):
                permuted.blocks[name][:] = arr[perm]
        p_inst = Instance(inst.active[perm], inst.values[perm], inst.label)
        assert rel_err(score(permuted, p_inst), score(bundle, inst)) < 1e-12


@pytest.mark.parametrize("shape, axes", [((130, 4, 4), (1, 2, 0)), ((130, 4, 4), (2, 1, 0)),  # blocked
                                         ((130, 3, 3), (1, 2, 0)), ((130, 5, 3), (2, 1, 0))])  # whole
def test_batch_last_copies_the_transpose(shape, axes):
    a = np.random.default_rng(0).normal(size=shape)
    got = scoring._batch_last(a, axes)
    assert got.flags.c_contiguous and np.array_equal(got, a.transpose(axes))
