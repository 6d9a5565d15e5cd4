"""FLOPs formulas, latency plumbing, and the interpretability pipeline."""

import itertools
import math

import numpy as np
import pytest

from tensorfm import (
    ConfigError,
    DataError,
    Dataset,
    SyntheticSpec,
    build_schema,
    flops_estimate,
    generate_synthetic,
    init,
    interaction_report,
    learned_strength,
    mutual_information,
    time_inference,
)
from tensorfm.analysis import pearson, topk_overlap
from tensorfm.scoring import interaction_tensors


class TestFlopsEstimate:
    def test_linear_model_exact(self):
        for n in (1, 10, 137):
            assert flops_estimate("lr", n).flops == 2 * n + 1

    def test_pair_model_quadrupling(self):
        f100 = flops_estimate("fwfm", 100, k=8).flops
        f200 = flops_estimate("fwfm", 200, k=8).flops
        assert 3.8 < f200 / f100 < 4.05

    def test_tensor_model_doubling(self):
        f = lambda n: flops_estimate("tensorfm", n, k=8, d=3, r_vec=3).flops
        assert 1.9 < f(200) / f(100) < 2.0

    def test_tensor_model_exactly_affine_in_n(self):
        # count(2n) - 2 count(n) must be the n-independent constant term
        f = lambda n: flops_estimate("tensorfm", n, k=8, d=4, r_vec=2).flops
        assert f(40) - 2 * f(20) == f(160) - 2 * f(80)

    def test_all_kinds_positive_and_monotone_in_n(self):
        for kind in ("lr", "fm", "fwfm", "fwfm-lowrank", "fwfm-lr", "hofm", "tensorfm", "tensorfm-tucker"):
            prev = 0
            for n in (5, 10, 20, 50):
                cur = flops_estimate(kind, n, k=4, d=3, r_vec=2).flops
                assert cur > prev
                prev = cur

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            flops_estimate("mlp", 10)

    @pytest.mark.parametrize("kind, n, kw", [
        ("hofm", 1, dict(d=1)),  # order below 2
        ("tensorfm", 2, dict(d=2, r_vec=3)),  # rank above n
        ("fm", 5, dict(k=0)),  # no embedding coordinates
    ])
    def test_counts_only_models_init_can_build(self, kind, n, kw):
        schema = build_schema([2] * n)
        for build in (lambda: flops_estimate(kind, n, **kw), lambda: init(kind, schema, **kw)):
            with pytest.raises(ConfigError):
                build()


class TestTimeInference:
    def test_positive_and_finite(self):
        spec = SyntheticSpec(n_signal=3, cardinality=5, order=2, n_samples=2000, seed=0)
        ds = generate_synthetic(spec)
        bundle = init("tensorfm", ds.schema, k=4, d=2, r_vec=2, seed=0)
        rep = time_inference(bundle, ds, repeats=3)
        assert rep.seconds_per_instance > 0
        assert np.isfinite(rep.seconds_per_instance)
        assert rep.n_instances == 2000

    def test_too_few_repeats_rejected(self):
        spec = SyntheticSpec(n_signal=2, cardinality=3, order=2, n_samples=100, seed=0)
        ds = generate_synthetic(spec)
        bundle = init("lr", ds.schema, seed=0)
        with pytest.raises(ConfigError):
            time_inference(bundle, ds, repeats=2)


class TestMutualInformation:
    def test_shuffled_labels_near_zero(self):
        spec = SyntheticSpec(n_signal=3, cardinality=5, order=3, n_samples=100_000, seed=3)
        ds = generate_synthetic(spec)
        rng = np.random.default_rng(4)
        shuffled = Dataset(ds.schema, ds.active, ds.values, rng.permutation(ds.labels))
        assert mutual_information(shuffled, (0, 1, 2)) <= 1e-2

    def test_deterministic_indicator_equals_label_entropy(self):
        # binary field, label identical to the feature: MI = H(Y) from the
        # empirical 2x2 table
        schema = build_schema([2])
        rng = np.random.default_rng(5)
        active = rng.integers(0, 2, size=(5000, 1)).astype(np.int32)
        ds = Dataset(schema, active, labels=active[:, 0].astype(np.int8))
        p = active.mean()
        entropy = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        assert abs(mutual_information(ds, (0,)) - entropy) < 1e-12

    def test_signal_tuple_dominates_noise_tuples(self):
        spec = SyntheticSpec(n_signal=3, cardinality=6, order=3, n_noise=2, n_samples=60_000, seed=6)
        ds = generate_synthetic(spec)
        signal = mutual_information(ds, (0, 1, 2))
        for combo in [(0, 1, 3), (1, 2, 4), (2, 3, 4)]:
            assert signal > 5.0 * mutual_information(ds, combo)

    def test_invariant_to_value_relabeling(self):
        spec = SyntheticSpec(n_signal=2, cardinality=5, order=2, n_samples=20_000, seed=7)
        ds = generate_synthetic(spec)
        base = mutual_information(ds, (0, 1))
        relabel = np.random.default_rng(8).permutation(5)
        relabeled = Dataset(
            ds.schema,
            np.stack([relabel[ds.active[:, 0]], ds.active[:, 1]], axis=1).astype(np.int32),
            labels=ds.labels,
        )
        assert abs(mutual_information(relabeled, (0, 1)) - base) < 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        schema = build_schema([4, 3])
        for _ in range(20):
            ds = Dataset(
                schema,
                np.stack([rng.integers(0, 4, 200), rng.integers(0, 3, 200)], axis=1).astype(np.int32),
                labels=rng.integers(0, 2, 200).astype(np.int8),
            )
            assert mutual_information(ds, (0, 1)) >= -1e-12


class TestLearnedStrength:
    def _toy(self):
        schema = build_schema([2, 2, 2])
        bundle = init("tensorfm", schema, k=2, d=3, r_vec=2, init_scale=0.6, seed=10)
        active = np.array([[0, 1, 0], [1, 1, 0], [0, 1, 0], [1, 0, 1]], dtype=np.int32)
        ds = Dataset(schema, active, labels=np.array([1, 0, 1, 0], dtype=np.int8))
        return bundle, ds

    def test_zero_factors_zero_strength(self):
        bundle, ds = self._toy()
        for name, arr in bundle.blocks.items():
            if name.startswith("cp."):
                arr[:] = 0.0
        strengths = learned_strength(bundle, ds, order=3)
        assert set(strengths) == {(0, 1, 2)}
        assert strengths[(0, 1, 2)] == 0.0

    def test_single_instance_equals_its_magnitude(self):
        bundle, _ = self._toy()
        schema = bundle.schema
        ds = Dataset(schema, np.array([[1, 0, 1]], dtype=np.int32), labels=np.array([1], dtype=np.int8))
        strengths = learned_strength(bundle, ds, order=3)
        tensor = interaction_tensors(bundle)[3]
        emb = bundle.blocks["embeddings"]
        inner = float((emb[0 + 1] * emb[2 + 0] * emb[4 + 1]).sum())
        weight = sum(abs(float(tensor[p])) for p in itertools.permutations((0, 1, 2))) / 6.0
        assert abs(strengths[(0, 1, 2)] - weight * abs(inner)) < 1e-12

    def test_hand_computed_weighted_average(self):
        bundle, ds = self._toy()
        strengths = learned_strength(bundle, ds, order=2)
        tensor = interaction_tensors(bundle)[2]
        emb = bundle.blocks["embeddings"]
        offsets = ds.schema.offsets
        # independent recomputation for field pair (0, 1)
        expected = 0.0
        weight = (abs(float(tensor[0, 1])) + abs(float(tensor[1, 0]))) / 2.0
        for row in ds.active:
            inner = float((emb[offsets[0] + row[0]] * emb[offsets[1] + row[1]]).sum())
            expected += weight * abs(inner)
        expected /= len(ds)
        assert abs(strengths[(0, 1)] - expected) < 1e-12

    def test_multipliers_scale_each_embedding(self):
        # every multiplier 3.0: each order-2 term is 3.0 * 3.0 times the unit one
        bundle, ds = self._toy()
        unit = learned_strength(bundle, ds, order=2)
        tripled = Dataset(ds.schema, ds.active, np.full(ds.active.shape, 3.0), ds.labels)
        for combo, value in learned_strength(bundle, tripled, order=2).items():
            assert abs(value - 9.0 * unit[combo]) <= 1e-12 * 9.0 * unit[combo], combo

    def test_hofm_weights_each_field_subset_once(self):
        # hofm's order-3 tensor is 1/3! on every tuple of distinct fields
        schema = build_schema([2, 2, 2])
        bundle = init("hofm", schema, k=2, d=3, init_scale=0.6, seed=10)
        ds = Dataset(schema, np.array([[1, 0, 1]], dtype=np.int32), labels=np.array([1], dtype=np.int8))
        emb = bundle.blocks["embeddings"]
        inner = float((emb[0 + 1] * emb[2 + 0] * emb[4 + 1]).sum())
        assert abs(learned_strength(bundle, ds, order=3)[(0, 1, 2)] - abs(inner) / 6.0) < 1e-12

    def test_builds_only_the_reported_orders_tensor(self):
        # the order-4 tensor at n=100 holds 1e8 entries, above the dense cap
        schema = build_schema([3] * 100)
        bundle = init("tensorfm", schema, k=4, d=4, r_vec=4, init_scale=0.3, seed=0)
        rng = np.random.default_rng(14)
        ds = Dataset(schema, rng.integers(0, 3, size=(20, 100)), labels=rng.integers(0, 2, 20))
        strengths = learned_strength(bundle, ds, order=2)
        assert list(strengths) == list(itertools.combinations(range(100), 2))
        factor_0, factor_1 = bundle.blocks["cp.2.factor.0"], bundle.blocks["cp.2.factor.1"]
        weight = (abs(factor_0[3] @ factor_1[97]) + abs(factor_0[97] @ factor_1[3])) / 2.0
        emb, gidx = bundle.blocks["embeddings"], ds.global_indices
        inner = (emb[gidx[:, 3]] * emb[gidx[:, 97]]).sum(axis=1)
        assert abs(strengths[(3, 97)] - weight * np.abs(inner).mean()) < 1e-12

    @pytest.mark.parametrize("cards", [[1, 2, 2], [3, 2, 2]], ids=["smaller", "larger"])
    def test_dataset_of_another_schema_rejected(self, cards):
        bundle, _ = self._toy()
        ds = Dataset(build_schema(cards), np.zeros((1, 3)), labels=np.ones(1), provenance="o.txt")
        with pytest.raises(ConfigError, match="o.txt: schema of 3 fields"):
            learned_strength(bundle, ds, order=2)

    def test_order_without_parameters_rejected(self):
        bundle, ds = self._toy()
        with pytest.raises(ConfigError):
            learned_strength(bundle, ds, order=4)


class TestPearsonAndOverlap:
    def test_identical_rankings(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert abs(pearson(x, x) - 1.0) < 1e-12
        assert topk_overlap(x, x, 2) == 1.0

    def test_negated_rankings(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert abs(pearson(x, -x) + 1.0) < 1e-12

    def test_matches_two_pass_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x, y = rng.normal(size=(2, 50))
            mx, my = x.mean(), y.mean()
            cov = ((x - mx) * (y - my)).sum() / len(x)
            direct = cov / (np.sqrt(((x - mx) ** 2).mean()) * np.sqrt(((y - my) ** 2).mean()))
            assert abs(pearson(x, y) - direct) < 1e-12

    def test_overlap_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=(2, 40))
        for k in (1, 5, 20):
            base = topk_overlap(a, b, k)
            assert topk_overlap(3 * a + 2, b, k) == base
            assert topk_overlap(a, np.tanh(b), k) == base


class TestInteractionReport:
    def test_structure_and_baselines(self):
        spec = SyntheticSpec(n_signal=3, cardinality=4, order=3, n_noise=1, n_samples=5000, seed=13)
        ds = generate_synthetic(spec)
        bundle = init("tensorfm", ds.schema, k=3, d=3, r_vec=2, init_scale=0.3, seed=0)
        report = interaction_report(bundle, ds, order=3, k_list=[1, 2, 4])
        n_tuples = math.comb(4, 3)
        assert len(report.tuples) == n_tuples
        assert len(report.learned) == len(report.mutual_info) == n_tuples
        for point in report.topk_overlap:
            assert 0.0 <= point.overlap <= 1.0
            assert abs(point.baseline_squared - (point.k / n_tuples) ** 2) < 1e-15
            assert abs(point.baseline_uniform - point.k / n_tuples) < 1e-15

    def test_hofm_bundle(self):
        spec = SyntheticSpec(n_signal=3, cardinality=4, order=3, n_noise=1, n_samples=500, seed=13)
        ds = generate_synthetic(spec)
        report = interaction_report(init("hofm", ds.schema, d=3), ds, 3, [3])
        assert report.tuples == list(itertools.combinations(range(4), 3))
        assert all(s > 0 for s in report.learned)
        assert [p.k for p in report.topk_overlap] == [3]


@pytest.mark.parametrize("measure", [
    lambda bundle, ds: time_inference(bundle, ds, repeats=3),
    lambda bundle, ds: learned_strength(bundle, ds, 2),
    lambda bundle, ds: mutual_information(ds, (0, 1)),
    lambda bundle, ds: interaction_report(bundle, ds, 2, [1]),
], ids=["time_inference", "learned_strength", "mutual_information", "interaction_report"])
def test_empty_dataset_is_data_error_naming_it(measure):
    schema = build_schema([2, 3])
    empty = Dataset(schema, np.zeros((0, 2), dtype=np.int32), labels=np.zeros(0, dtype=np.int8), provenance="e.txt")
    with pytest.raises(DataError, match="e.txt: no data rows"):
        measure(init("tensorfm", schema, k=2, d=2, r_vec=1), empty)
