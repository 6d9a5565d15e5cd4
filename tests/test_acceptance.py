"""End-to-end acceptance suite.

Each test exercises one verifiable claim about the engine at its stated
tolerance and prints a PASS line on success (run with ``pytest -s`` to see
them). The training-based checks reuse the published protocol: embedding
size 8, five epochs, batch size 1024, AdaGrad, learning rate chosen on the
validation split.
"""

import time

import numpy as np

import tensorfm as tfm
from tensorfm.scoring import interaction_tensors, oracle_interaction_sum

from oracles import auc_pair_oracle, symmetrize


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {num}: {detail}"


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def random_instance(schema, rng):
    active = np.array([rng.integers(0, c) for c in schema.cardinalities])
    return tfm.Instance(active, rng.uniform(0.5, 1.5, size=schema.n), int(rng.integers(0, 2)))


class TestCriterion01CpOracle:
    def test_factored_scorer_matches_brute_force(self):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            schema = tfm.build_schema([int(rng.integers(2, 5)) for _ in range(n)])
            k = int(rng.integers(1, 5))
            d = int(rng.integers(2, min(4, n) + 1))
            r_vec = tuple(int(rng.integers(1, min(4, n) + 1)) for _ in range(d - 1))
            bundle = tfm.init(
                "tensorfm", schema, k=k, d=d, r_vec=r_vec, init_scale=0.8, seed=int(rng.integers(1 << 30))
            )
            bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
            bundle.blocks["linear.b"][:] = rng.normal()
            inst = random_instance(schema, rng)
            worst = max(worst, rel_err(tfm.score(bundle, inst), tfm.score_naive_oracle(bundle, inst)))
        elapsed = time.perf_counter() - t0
        report(
            1,
            worst < 1e-9 and elapsed < 60.0,
            f"1000 random configs, worst relative error {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion02PairFactorizationRoundTrip:
    def test_svd_factored_scoring_matches_dense(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 9))
            schema = tfm.build_schema([int(rng.integers(2, 5)) for _ in range(n)])
            bundle = tfm.init("fwfm", schema, k=int(rng.integers(1, 5)), init_scale=1.0, seed=trial)
            low = tfm.fwfm_lowrank_from_dense(bundle)
            for _ in range(5):
                inst = random_instance(schema, rng)
                worst = max(worst, rel_err(tfm.interaction_term(low, inst), tfm.interaction_term(bundle, inst)))
        report(2, worst < 1e-9, f"100 random pair matrices, worst relative error {worst:.2e}")


class TestCriterion03TuckerOracle:
    def test_core_factor_scorer_matches_reconstructed_tensor(self):
        rng = np.random.default_rng(103)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            schema = tfm.build_schema([int(rng.integers(2, 4)) for _ in range(n)])
            d = int(rng.integers(2, min(4, n) + 1))
            r = int(rng.integers(1, min(3, n) + 1))
            bundle = tfm.init(
                "tensorfm-tucker", schema, k=int(rng.integers(1, 4)), d=d, r_vec=r,
                init_scale=0.8, seed=int(rng.integers(1 << 30)),
            )
            bundle.blocks["linear.w"][:] = rng.normal(size=schema.m)
            inst = random_instance(schema, rng)
            worst = max(worst, rel_err(tfm.score(bundle, inst), tfm.score_naive_oracle(bundle, inst)))
        report(3, worst < 1e-9, f"200 random core/factor models, worst relative error {worst:.2e}")


class TestCriterion04GradientCheck:
    KINDS = [
        ("lr", {}),
        ("fm", {}),
        ("fwfm", {}),
        ("fwfm-lowrank", dict(r_vec=2)),
        ("hofm", dict(d=3)),
        ("tensorfm", dict(d=4, r_vec=3)),
        ("tensorfm-tucker", dict(d=3, r_vec=2)),
    ]

    def test_every_block_of_every_kind(self):
        h, tol = 1e-5, 1e-5
        rng = np.random.default_rng(104)
        checked_instances = 0
        worst = 0.0

        for kind, kw in self.KINDS:
            for trial in range(15):
                n = int(rng.integers(max(3, kw.get("d", 2)), 6))
                schema = tfm.build_schema([int(rng.integers(2, 5)) for _ in range(n)])
                bundle = tfm.init(
                    kind, schema, k=int(rng.integers(1, 5)), init_scale=0.5,
                    seed=int(rng.integers(1 << 30)), **kw,
                )
                bundle.blocks["linear.w"][:] = rng.normal(size=schema.m) * 0.5
                bundle.blocks["linear.b"][:] = rng.normal()
                inst = random_instance(schema, rng)
                checked_instances += 1

                grads = tfm.backward(bundle, inst, upstream=1.0)
                assert list(grads) == list(bundle.blocks)
                for name, arr in bundle.blocks.items():
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        ix = it.multi_index
                        orig = arr[ix]
                        arr[ix] = orig + h
                        up = tfm.score(bundle, inst)
                        arr[ix] = orig - h
                        down = tfm.score(bundle, inst)
                        arr[ix] = orig
                        numeric = (up - down) / (2 * h)
                        analytic = grads[name][ix]
                        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1.0))

        report(
            4,
            worst < tol and checked_instances >= 100,
            f"{checked_instances} random instances across {len(self.KINDS)} kinds, worst relative error {worst:.2e}",
        )


class TestCriterion05SymmetrizationInvariance:
    def test_symmetrized_tensors_leave_oracle_unchanged(self):
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 6))
            schema = tfm.build_schema([int(rng.integers(2, 4)) for _ in range(n)])
            d = int(rng.integers(2, min(4, n) + 1))
            bundle = tfm.init(
                "tensorfm", schema, k=2, d=d, r_vec=2, init_scale=0.9, seed=int(rng.integers(1 << 30))
            )
            inst = random_instance(schema, rng)
            a = tfm.embed_view(bundle, inst)
            tensors = interaction_tensors(bundle)
            sym = {order: symmetrize(t) for order, t in tensors.items()}
            raw = oracle_interaction_sum(a, tensors)
            symmetric = oracle_interaction_sum(a, sym)
            worst = max(worst, abs(raw - symmetric) / max(abs(raw), 1.0))
        report(5, worst < 1e-9, f"100 random cases, worst relative change {worst:.2e}")


def run_protocol(kind, lrs, train_set, valid_set, test_set, seed=0, **kw):
    """Published training protocol: k=8, 5 epochs, batch 1024, AdaGrad, with
    the learning rate picked on the validation split."""
    best_auc, best_bundle = -1.0, None
    for lr in lrs:
        bundle = tfm.init(kind, train_set.schema, k=8, seed=seed, **kw)
        bundle, log = tfm.train(bundle, train_set, valid_set, tfm.TrainConfig(learning_rate=lr, seed=seed))
        if log[-1].valid_auc > best_auc:
            best_auc, best_bundle = log[-1].valid_auc, bundle
    scores = tfm.score_dataset(best_bundle, test_set)
    return best_bundle, 100.0 * tfm.auc(scores, test_set.labels)


class TestCriterion06ThreeWiseSynthetic:
    def test_third_order_model_beats_pair_models(self):
        t0 = time.perf_counter()
        spec = tfm.SyntheticSpec(n_signal=3, cardinality=20, order=3, n_samples=100_000, seed=7)
        ds = tfm.generate_synthetic(spec)
        tr, va, te = tfm.split(ds, (0.70, 0.15, 0.15), seed=7)

        _, auc_lr = run_protocol("lr", [0.05, 0.1], tr, va, te)
        _, auc_fm = run_protocol("fm", [0.05, 0.1, 0.2], tr, va, te)
        _, auc_t33 = run_protocol("tensorfm", [0.1, 0.2, 0.3], tr, va, te, d=3, r_vec=3)
        elapsed = time.perf_counter() - t0

        ok = (
            50.0 <= auc_lr <= 58.0
            and 60.0 <= auc_fm <= 69.0
            and auc_t33 >= 67.0
            and auc_t33 - auc_fm >= 3.0
            and elapsed < 900.0
        )
        report(
            6,
            ok,
            f"LR {auc_lr:.2f}, FM {auc_fm:.2f}, tensorFM(3,3) {auc_t33:.2f} "
            f"(margin {auc_t33 - auc_fm:.2f}), {elapsed:.0f}s",
        )


class TestCriterion07FourWiseNoisySynthetic:
    def test_fourth_order_model_beats_pair_models_under_noise(self):
        # 100 fields, 100k samples. The cardinality is scaled down with the
        # sample count so the samples-per-tuple density stays in the regime
        # the published million-sample run operated in.
        t0 = time.perf_counter()
        spec = tfm.SyntheticSpec(
            n_signal=4, cardinality=6, order=4, n_noise=96, n_samples=100_000, seed=11
        )
        ds = tfm.generate_synthetic(spec)
        tr, va, te = tfm.split(ds, (0.70, 0.15, 0.15), seed=11)

        _, auc_fm = run_protocol("fm", [0.05, 0.1], tr, va, te)
        _, auc_fwfm = run_protocol("fwfm", [0.05, 0.1], tr, va, te)
        _, auc_t44 = run_protocol("tensorfm", [0.03, 0.05], tr, va, te, d=4, r_vec=4)
        elapsed = time.perf_counter() - t0

        ok = (
            auc_t44 - auc_fm >= 2.0
            and auc_t44 - auc_fwfm >= 2.0
            and elapsed < 1800.0
        )
        report(
            7,
            ok,
            f"FM {auc_fm:.2f}, FwFM {auc_fwfm:.2f}, tensorFM(4,4) {auc_t44:.2f}, {elapsed:.0f}s",
        )


class TestCriterion08FlopsScaling:
    def test_log_log_slopes(self):
        ns = np.arange(20, 201, 20)
        slope = {}
        for kind, kw in (("tensorfm", dict(d=3, r_vec=3)), ("fwfm", {})):
            flops = [tfm.flops_estimate(kind, int(n), k=8, **kw).flops for n in ns]
            slope[kind], _ = np.polyfit(np.log(ns), np.log(flops), 1)
        ok = abs(slope["tensorfm"] - 1.0) <= 0.05 and abs(slope["fwfm"] - 2.0) <= 0.05
        report(
            8,
            ok,
            f"fitted slopes: tensorfm {slope['tensorfm']:.3f} (target 1.0), "
            f"fwfm {slope['fwfm']:.3f} (target 2.0)",
        )


class TestCriterion09LatencyOrdering:
    def test_per_instance_latency_ordering(self):
        spec = tfm.SyntheticSpec(n_signal=4, cardinality=10, order=2, n_noise=96, n_samples=20_000, seed=3)
        ds = tfm.generate_synthetic(spec)
        assert ds.schema.n == 100
        lat = {}
        for name, kind, kw in (
            ("tensorfm(1,2)", "tensorfm", dict(d=2, r_vec=1)),
            ("tensorfm(4,3)", "tensorfm", dict(d=3, r_vec=4)),
            ("fwfm", "fwfm", {}),
        ):
            bundle = tfm.init(kind, ds.schema, k=8, seed=0, **kw)
            lat[name] = tfm.time_inference(bundle, ds, repeats=5).seconds_per_instance
        ok = lat["tensorfm(1,2)"] < lat["tensorfm(4,3)"] < lat["fwfm"]
        report(
            9,
            ok,
            "per-instance latency "
            + " < ".join(f"{k}={v * 1e6:.2f}us" for k, v in lat.items()),
        )


class TestCriterion10AucOracle:
    def test_sorting_auc_equals_pair_counting(self):
        rng = np.random.default_rng(110)
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial % 2:
                scores = rng.choice(np.linspace(-1, 1, 7), size=n)  # heavy ties
            else:
                scores = rng.normal(size=n)
            assert tfm.auc(scores, labels) == auc_pair_oracle(scores, labels)
        report(10, True, "sort-based ranking metric equals pair counting on 1000 random inputs")


class TestCriterion11Interpretability:
    def test_signal_triple_ranks_high_and_correlates(self):
        spec = tfm.SyntheticSpec(n_signal=3, cardinality=20, order=3, n_noise=5, n_samples=100_000, seed=21)
        ds = tfm.generate_synthetic(spec)
        tr, va, te = tfm.split(ds, (0.70, 0.15, 0.15), seed=21)
        bundle, test_auc = run_protocol("tensorfm", [0.2, 0.3], tr, va, te, d=3, r_vec=3)

        rep = tfm.interaction_report(bundle, tr, order=3, k_list=[3])
        ranked = sorted(zip(rep.learned, rep.tuples), reverse=True)
        top3 = [t for _, t in ranked[:3]]
        ok = (0, 1, 2) in top3 and rep.pearson > 0.0
        report(
            11,
            ok,
            f"signal triple in top-3 by learned strength: {(0, 1, 2) in top3}; "
            f"pearson {rep.pearson:.3f}; model test AUC {test_auc:.1f}",
        )


class TestCriterion12TabularPipeline:
    @staticmethod
    def _write_ctr_style_csv(path, n_rows, seed):
        """A click-log-shaped file: integer count columns I1..I13, hashed
        categorical columns C1..C26, binary label.

        The label logit mixes effects of three orders, the way real click
        logs do: a per-value offset on one field, a pair interaction, and a
        third-order interaction; the remaining 33 columns are noise.
        """
        rng = np.random.default_rng(seed)
        card_u, card_p, card_t = 40, 12, 8
        w_user = rng.normal(0, 1.0, size=card_u)
        w_pair = rng.normal(0, 0.8, size=(card_p, card_p))
        w_tri = rng.normal(0, 0.8, size=(card_t, card_t, card_t))
        c_user = rng.integers(0, card_u, n_rows)
        c_p1, c_p2 = rng.integers(0, card_p, (2, n_rows))
        c_t1, c_t2, c_t3 = rng.integers(0, card_t, (3, n_rows))
        logit = -0.5 + w_user[c_user] + w_pair[c_p1, c_p2] + w_tri[c_t1, c_t2, c_t3]
        labels = (rng.uniform(size=n_rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)

        num_cols = [rng.integers(0, hi, size=n_rows) for hi in rng.integers(5, 1000, size=13)]
        noise_cols = [rng.integers(0, hi, size=n_rows) for hi in rng.integers(5, 60, size=20)]
        sig_cols = [c_user, c_p1, c_p2, c_t1, c_t2, c_t3]

        header = ["label"] + [f"I{i}" for i in range(1, 14)] + [f"C{i}" for i in range(1, 27)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for r in range(n_rows):
                row = [str(int(labels[r]))]
                row += [str(int(c[r])) for c in num_cols]
                row += [f"{int(c[r]):08x}" for c in sig_cols]
                row += [f"{int(c[r]):08x}" for c in noise_cols]
                fh.write(",".join(row) + "\n")

    def test_end_to_end_on_ctr_style_subsample(self, tmp_path):
        t0 = time.perf_counter()
        csv_path = tmp_path / "ctr_sample.csv"
        self._write_ctr_style_csv(csv_path, n_rows=150_000, seed=31)

        fields = [f"I{i}" for i in range(1, 14)] + [f"C{i}" for i in range(1, 27)]
        ds = tfm.load_tabular(csv_path, field_columns=fields, label_column="label", numeric_bins=5)
        assert ds.schema.n == 39
        tr, va, te = tfm.split(ds, (0.70, 0.15, 0.15), seed=31)
        _, test_auc = run_protocol("tensorfm", [0.1, 0.2], tr, va, te, d=3, r_vec=3)
        elapsed = time.perf_counter() - t0
        report(
            12,
            test_auc > 70.0,
            f"39-field click-log pipeline, tensorFM(3,3) test AUC {test_auc:.2f}, {elapsed:.0f}s",
        )
