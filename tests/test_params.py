"""Parameter blocks, initialization, materialization, and serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tensorfm import (
    ConfigError,
    Instance,
    ModelBundle,
    ModelIOError,
    NumericError,
    block_layout,
    build_schema,
    fwfm_lowrank_from_dense,
    init,
    load_bundle,
    materialize_tensor,
    materialize_tucker,
    param_count,
    save_bundle,
    score,
    score_naive_oracle,
    symmetrize,
)
import tensorfm.params as params_module
from tensorfm.params import MAX_DENSE_ENTRIES
from tensorfm.scoring import interaction_tensors

SCHEMA = build_schema([3, 4, 2, 5])
FIXTURES = Path(__file__).parent / "fixtures"


class TestLayout:
    def test_init_blocks_follow_the_layout(self):
        for kind, kw in [
            ("lr", {}),
            ("fm", {}),
            ("fwfm", {}),
            ("hofm", dict(d=3)),
            ("tensorfm", dict(d=3, r_vec=(2, 3))),
            ("tensorfm-tucker", dict(d=3, r_vec=2)),
        ]:
            bundle = init(kind, SCHEMA, k=3, seed=0, **kw)
            layout = block_layout(bundle.kind, SCHEMA, bundle.k, bundle.d, bundle.r_vec)
            assert [(name, arr.shape) for name, arr in bundle.blocks.items()] == layout
            assert param_count(bundle) == sum(int(np.prod(shape)) for _, shape in layout)

    def test_linear_blocks_start_at_zero(self):
        bundle = init("fwfm", SCHEMA, k=3, init_scale=0.5, seed=0)
        assert (bundle.blocks["linear.b"] == 0).all() and (bundle.blocks["linear.w"] == 0).all()
        assert (bundle.blocks["pair.upper"] != 0).all()

    def test_fwfm_lowrank_is_tensorfm_of_order_two(self):
        ten = init("tensorfm", SCHEMA, k=3, d=2, r_vec=2, seed=5)
        for alias in ("fwfm-lowrank", "fwfm-lr"):
            low = init(alias, SCHEMA, k=3, d=4, r_vec=2, seed=5)
            assert (low.kind, low.d, low.r_vec) == ("tensorfm", 2, (2,))
            for name in ten.blocks:
                assert (low.blocks[name] == ten.blocks[name]).all(), name

    def test_direct_construction_keeps_only_the_arguments_a_kind_uses(self, tmp_path):
        fm = init("fm", SCHEMA, k=2, init_scale=0.5, seed=1)
        bundle = ModelBundle("fm", SCHEMA, fm.blocks, k=2, d=3, r_vec=(2,))
        assert (bundle.kind, bundle.k, bundle.d, bundle.r_vec) == ("fm", 2, 1, ())
        # the oracle sums pairs only, as the scorer does, and the file keeps d=1
        inst = Instance(np.array([0, 1, 1, 4]), np.ones(4), 1)
        assert score_naive_oracle(bundle, inst) == pytest.approx(score(bundle, inst), rel=1e-12)
        save_bundle(bundle, tmp_path / "m.txt")
        assert "d 1\n" in (tmp_path / "m.txt").read_text()
        assert load_bundle(tmp_path / "m.txt").d == 1
        lr = init("lr", SCHEMA, seed=1)
        assert ModelBundle("lr", SCHEMA, lr.blocks, k=5, d=3).k == 0

    def test_validation_names_the_offending_block(self):
        bundle = init("tensorfm", SCHEMA, k=2, d=3, r_vec=2, seed=0)
        bad = dict(bundle.blocks, **{"cp.3.factor.1": np.zeros((SCHEMA.n, 3))})
        with pytest.raises(ConfigError, match="cp.3.factor.1"):
            ModelBundle("tensorfm", SCHEMA, bad, k=2, d=3, r_vec=(2, 2))
        missing = {name: arr for name, arr in bundle.blocks.items() if name != "cp.2.factor.0"}
        with pytest.raises(ConfigError, match="cp.2.factor.0"):
            ModelBundle("tensorfm", SCHEMA, missing, k=2, d=3, r_vec=(2, 2))
        with pytest.raises(ConfigError, match="pair.upper"):
            ModelBundle("tensorfm", SCHEMA, dict(bundle.blocks, **{"pair.upper": np.zeros(6)}), k=2, d=3, r_vec=(2, 2))

    def test_tucker_of_order_nine_scores_like_cp(self):
        # rank 1: each order's core is one scalar, which the CP model carries
        # in its mode-0 factor; only the dense tensors are capped
        schema = build_schema([2] * 9)
        tucker = init("tensorfm-tucker", schema, k=2, d=9, r_vec=1, init_scale=0.7, seed=3)
        blocks = {name.replace("tucker.", "cp."): arr for name, arr in tucker.blocks.items() if ".core" not in name}
        for order in range(2, 10):
            core = tucker.blocks[f"tucker.{order}.core"].item()
            blocks[f"cp.{order}.factor.0"] = blocks[f"cp.{order}.factor.0"] * core
        cp = ModelBundle("tensorfm", schema, blocks, k=2, d=9, r_vec=1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            inst = Instance(rng.integers(0, 2, size=9), rng.uniform(0.5, 1.5, size=9), 1)
            assert score(tucker, inst) == pytest.approx(score(cp, inst), rel=1e-12, abs=1e-12)
        with pytest.raises(ConfigError, match="dense tensor"):
            interaction_tensors(tucker)

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_init_scale_must_be_finite_and_non_negative(self, scale):
        with pytest.raises(ConfigError, match="init scale"):
            init("fm", SCHEMA, k=2, init_scale=scale)


class TestInit:
    def test_parameter_count_formula(self):
        # m*k embeddings + m + 1 linear + n * sum(order * rank) factor entries
        schema = build_schema([20, 20, 20])
        bundle = init("tensorfm", schema, k=8, d=3, r_vec=(3, 3), seed=0)
        expected = 60 * 8 + 60 + 1 + 3 * (2 * 3 + 3 * 3)
        assert param_count(bundle) == expected

    def test_zero_scale_scores_zero(self):
        inst = Instance(np.array([1, 3, 0, 4]), np.ones(4), 1)
        for kind, kw in [
            ("fm", {}),
            ("fwfm", {}),
            ("fwfm-lowrank", dict(r_vec=2)),
            ("hofm", dict(d=3)),
            ("tensorfm", dict(d=3, r_vec=2)),
            ("tensorfm-tucker", dict(d=2, r_vec=2)),
        ]:
            bundle = init(kind, SCHEMA, k=3, init_scale=0.0, seed=1, **kw)
            assert score(bundle, inst) == 0.0

    def test_same_seed_bit_identical(self):
        a = init("tensorfm", SCHEMA, k=4, d=3, r_vec=(2, 3), seed=9)
        b = init("tensorfm", SCHEMA, k=4, d=3, r_vec=(2, 3), seed=9)
        assert list(a.blocks) == list(b.blocks)
        for name in a.blocks:
            assert (a.blocks[name] == b.blocks[name]).all(), name

    def test_rank_above_field_count_rejected(self):
        with pytest.raises(ConfigError):
            init("tensorfm", SCHEMA, k=2, d=2, r_vec=5, seed=0)

    def test_order_above_field_count_rejected(self):
        with pytest.raises(ConfigError):
            init("tensorfm", SCHEMA, k=2, d=5, r_vec=2, seed=0)
        with pytest.raises(ConfigError):
            init("hofm", SCHEMA, k=2, d=5, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            init("deepfm", SCHEMA, k=2)

    def test_scalar_rank_replicated(self):
        bundle = init("tensorfm", SCHEMA, k=2, d=4, r_vec=2, seed=0)
        assert bundle.r_vec == (2, 2, 2)
        assert [span.order for span in bundle.factor_spans] == [2, 3, 4]

    @pytest.mark.parametrize("kind", ["tensorfm", "tensorfm-tucker"])
    def test_factor_blocks_are_columns_of_one_stack(self, kind):
        bundle = init(kind, SCHEMA, k=2, d=4, r_vec=(3, 1, 2), seed=5)
        assert bundle.factor_stack.shape == (SCHEMA.n, 2 * 3 + 3 * 1 + 4 * 2)
        assert [span[:3] for span in bundle.factor_spans] == [(2, 0, 3), (3, 6, 1), (4, 9, 2)]
        prefix = "cp" if kind == "tensorfm" else "tucker"
        for span in bundle.factor_spans:
            assert span.factors == tuple(f"{prefix}.{span.order}.factor.{b}" for b in range(span.order))
            assert span.core == (None if kind == "tensorfm" else f"tucker.{span.order}.core")
        names = [name for name in bundle.blocks if ".factor." in name]
        assert list(bundle.factor_columns) == names
        np.testing.assert_array_equal(np.hstack([bundle.blocks[name] for name in names]), bundle.factor_stack)
        bundle.blocks[names[4]][1, 0] = 7.0  # in-place edits write the stack
        assert bundle.factor_stack[1, bundle.factor_columns[names[4]].start] == 7.0

    def test_stack_does_not_alias_the_callers_arrays(self):
        blocks = {name: np.full(shape, 0.5) for name, shape in block_layout("tensorfm", SCHEMA, 2, 2, (2,))}
        bundle = ModelBundle("tensorfm", SCHEMA, blocks, k=2, d=2, r_vec=(2,))
        blocks["cp.2.factor.0"][:] = 9.0
        assert (bundle.blocks["cp.2.factor.0"] == 0.5).all()


class TestMaterializeTensor:
    def test_rank_one_all_ones(self):
        ones = np.ones((2, 1))
        np.testing.assert_array_equal(materialize_tensor([ones, ones]), np.ones((2, 2)))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(4)
        n, r = 2, 2
        factors = [rng.normal(size=(n, r)) for _ in range(3)]
        dense = materialize_tensor(factors)
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    direct = sum(
                        factors[0][i, t] * factors[1][j, t] * factors[2][l, t] for t in range(r)
                    )
                    assert abs(dense[i, j, l] - direct) < 1e-12

    def test_svd_factors_reconstruct_matrix(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(4, 4))
        uu, sv, vt = np.linalg.svd(s)
        assert np.abs(materialize_tensor([uu * sv, vt.T]) - s).max() < 1e-10

    def test_linear_in_each_factor(self):
        rng = np.random.default_rng(2)
        factors = [rng.normal(size=(3, 2)) for _ in range(3)]
        base = materialize_tensor(factors)
        scaled = [3.0 * factors[0], factors[1], factors[2]]
        np.testing.assert_allclose(materialize_tensor(scaled), 3.0 * base, rtol=1e-12)

    def test_memory_cap(self):
        # 50**5 float64 entries would take 2.5 GB: the size check refuses first
        assert 50**5 > MAX_DENSE_ENTRIES
        with pytest.raises(ConfigError, match=f"above {MAX_DENSE_ENTRIES}"):
            materialize_tensor([np.ones((50, 1))] * 5)

    def test_tucker_matches_explicit_sum(self):
        rng = np.random.default_rng(5)
        bundle = init("tensorfm-tucker", SCHEMA, k=2, d=3, r_vec=2, init_scale=0.5, seed=3)
        core = bundle.blocks["tucker.3.core"]
        f0, f1, f2 = (bundle.blocks[f"tucker.3.factor.{b}"] for b in range(3))
        dense = materialize_tucker(core, [f0, f1, f2])
        n = SCHEMA.n
        i, j, l = 1, 3, 2
        direct = 0.0
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    direct += core[a, b, c] * f0[i, a] * f1[j, b] * f2[l, c]
        assert abs(dense[i, j, l] - direct) < 1e-12
        assert dense.shape == (n, n, n)


class TestSymmetrize:
    def test_order_two(self):
        t = np.array([[1.0, 2.0], [4.0, 3.0]])
        np.testing.assert_allclose(symmetrize(t), (t + t.T) / 2)

    def test_symmetric_fixed_point(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(3, 3, 3))
        s = symmetrize(t)
        np.testing.assert_allclose(symmetrize(s), s, rtol=1e-12, atol=1e-12)


class TestFwfmFactorization:
    def test_full_rank_preserves_pair_matrix(self):
        bundle = init("fwfm", SCHEMA, k=3, init_scale=0.3, seed=6)
        low = fwfm_lowrank_from_dense(bundle)
        assert (low.kind, low.d, low.r_vec) == ("tensorfm", 2, (SCHEMA.n,))
        u, v = low.blocks["cp.2.factor.0"], low.blocks["cp.2.factor.1"]
        np.testing.assert_allclose(u @ v.T, bundle.dense_s / 2.0, atol=1e-12)


@pytest.mark.filterwarnings("error")  # no numpy warning may escape the reader
class TestSaveLoad:
    def _bundles(self):
        yield init("lr", SCHEMA, seed=0)
        yield init("fm", SCHEMA, k=3, init_scale=0.2, seed=1)
        yield init("fwfm", SCHEMA, k=2, init_scale=0.2, seed=2)
        yield init("fwfm-lowrank", SCHEMA, k=2, r_vec=2, init_scale=0.2, seed=3)
        yield init("hofm", SCHEMA, k=2, d=3, init_scale=0.2, seed=4)
        yield init("tensorfm", SCHEMA, k=2, d=4, r_vec=(4, 4, 4), init_scale=0.2, seed=5)
        yield init("tensorfm-tucker", SCHEMA, k=2, d=3, r_vec=2, init_scale=0.2, seed=6)

    def test_save_load_save_identical_bytes(self, tmp_path):
        for i, bundle in enumerate(self._bundles()):
            p1, p2 = tmp_path / f"m{i}a.txt", tmp_path / f"m{i}b.txt"
            bundle.blocks["linear.w"][:] = np.random.default_rng(i).normal(size=SCHEMA.m)
            bundle.blocks["linear.b"][:] = 0.125 + i
            save_bundle(bundle, p1)
            save_bundle(load_bundle(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact_values(self, tmp_path):
        bundle = init("tensorfm", SCHEMA, k=3, d=4, r_vec=(4, 4, 4), init_scale=0.7, seed=11)
        path = tmp_path / "m.txt"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.kind == bundle.kind
        assert back.schema.cardinalities == bundle.schema.cardinalities
        assert list(back.blocks) == list(bundle.blocks)
        for name in bundle.blocks:
            assert (back.blocks[name] == bundle.blocks[name]).all(), name

    def test_wrong_shape_names_block(self, tmp_path):
        bundle = init("fm", SCHEMA, k=3, seed=0)
        path = tmp_path / "m.txt"
        save_bundle(bundle, path)
        text = path.read_text().replace(f"block embeddings {SCHEMA.m}x3", f"block embeddings {SCHEMA.m}x4")
        path.write_text(text)
        with pytest.raises(ModelIOError, match="embeddings"):
            load_bundle(path)

    def test_version_mismatch_rejected(self, tmp_path):
        bundle = init("lr", SCHEMA, seed=0)
        path = tmp_path / "m.txt"
        save_bundle(bundle, path)
        path.write_text(path.read_text().replace("tensorfm-model v1", "tensorfm-model v9"))
        with pytest.raises(ModelIOError, match="version"):
            load_bundle(path)

    def test_truncated_file_rejected(self, tmp_path):
        bundle = init("fm", SCHEMA, k=3, seed=0)
        path = tmp_path / "m.txt"
        save_bundle(bundle, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(ModelIOError):
            load_bundle(path)


class TestDenseS:
    def test_symmetric_zero_diagonal_by_construction(self):
        bundle = init("fwfm", SCHEMA, k=2, init_scale=0.5, seed=3)
        s = bundle.dense_s
        np.testing.assert_array_equal(s, s.T)
        assert (np.diag(s) == 0).all()


class TestV1Fixtures:
    """Model files written by the code before the block registry existed."""

    def _record(self):
        return json.loads((FIXTURES / "v1_scores.json").read_text())

    def _instances(self, record):
        return [Instance(np.array(i["active"]), np.array(i["values"]), 0) for i in record["instances"]]

    def test_every_fixture_scores_as_recorded(self):
        record = self._record()
        assert len(record["scores"]) == 7
        for kind, recorded in record["scores"].items():
            bundle = load_bundle(FIXTURES / f"v1_{kind}.model.txt")
            assert bundle.schema.cardinalities == tuple(record["schema"])
            for inst, want in zip(self._instances(record), recorded):
                got = score(bundle, inst)
                assert abs(got - float(want)) <= 1e-12 * abs(float(want)), kind

    def test_fwfm_lowrank_file_scores_exactly_like_tensorfm_order_two(self):
        low = load_bundle(FIXTURES / "v1_fwfm-lowrank.model.txt")
        assert (low.kind, low.d, low.r_vec) == ("tensorfm", 2, (2,))
        blocks = {name: arr.copy() for name, arr in low.blocks.items()}
        ten = ModelBundle("tensorfm", low.schema, blocks, k=low.k, d=2, r_vec=(2,))
        for inst in self._instances(self._record()):
            assert score(low, inst) == score(ten, inst)

    def test_fwfm_lowrank_file_resaves_as_tensorfm(self, tmp_path):
        original = (FIXTURES / "v1_fwfm-lowrank.model.txt").read_text()
        save_bundle(load_bundle(FIXTURES / "v1_fwfm-lowrank.model.txt"), tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text() == original.replace("kind fwfm-lowrank", "kind tensorfm")


@pytest.mark.filterwarnings("error")  # no numpy warning may escape the reader
class TestCorruptModelFile:
    def _saved(self, tmp_path):
        path = tmp_path / "m.txt"
        save_bundle(init("fm", SCHEMA, k=3, init_scale=0.5, seed=0), path)
        return path

    def _replace_first_embedding_value(self, path, token):
        lines = path.read_text().splitlines()
        row = lines.index(f"block embeddings {SCHEMA.m}x3") + 1
        lines[row] = " ".join([token] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("token", ["abc", "0x1p3", "nan", "inf", "-inf"])
    def test_bad_token_names_the_block(self, tmp_path, token):
        path = self._saved(tmp_path)
        self._replace_first_embedding_value(path, token)
        with pytest.raises(ModelIOError, match="embeddings"):
            load_bundle(path)

    @pytest.mark.parametrize("edit", [
        "short_row", "long_row", "every_row_long", "blank_line", "truncated",
        "bad_token_in_last_row", "truncated_before_last_row",
    ])  # fmt: skip
    def test_bad_row_names_the_block(self, tmp_path, edit):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines()
        row = lines.index(f"block embeddings {SCHEMA.m}x3") + 2
        last = row + SCHEMA.m - 2
        if edit == "short_row":
            lines[row] = " ".join(lines[row].split()[:-1])
        elif edit == "long_row":
            lines[row] += " 1.0"
        elif edit == "every_row_long":  # a block of 4 columns where the layout has 3
            lines[row - 1 : last + 1] = [line + " 1.0" for line in lines[row - 1 : last + 1]]
        elif edit == "blank_line":
            lines.insert(row, "")
        elif edit == "truncated":
            lines = lines[: row + 1]
        elif edit == "bad_token_in_last_row":
            lines[last] = "0x1p3 " + lines[last].split(maxsplit=1)[1]
        else:
            lines = lines[:last]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelIOError, match="embeddings"):
            load_bundle(path)

    # each edit and what the error must name
    LAYOUT_EDITS = {
        "missing_block": "block cp.2.factor.1 ",
        "unknown_block": "block extra 1",
        "swapped_blocks": "block cp.2.factor.0 ",
        "missing_end": "'end'",
    }

    @pytest.mark.parametrize("edit", list(LAYOUT_EDITS))
    def test_blocks_must_follow_the_layout(self, tmp_path, edit):
        path = tmp_path / "m.txt"
        save_bundle(init("tensorfm", SCHEMA, k=3, d=3, r_vec=2, init_scale=0.5, seed=4), path)
        lines = path.read_text().splitlines()
        a = lines.index(f"block cp.2.factor.0 {SCHEMA.n}x2")
        b, c = a + SCHEMA.n + 1, a + 2 * (SCHEMA.n + 1)  # the headers of the next two blocks
        if edit == "missing_block":
            lines = lines[:b] + lines[c:]
        elif edit == "unknown_block":
            lines[-1:] = ["block extra 1", "0.5", "end"]
        elif edit == "swapped_blocks":  # equal shapes, so only the names tell
            lines = lines[:a] + lines[b:c] + lines[a:b] + lines[c:]
        else:
            lines = lines[:-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelIOError, match=self.LAYOUT_EDITS[edit]):
            load_bundle(path)

    # each header edit and the header key the error must name
    HEADER_EDITS = {
        "d_kind_and_foo_after_d": "r_vec",  # this hofm file once loaded as fm
        "missing_k": "k",
        "repeated_kind": "cardinalities",
        "unknown_key": "k",
        "d_before_k": "k",
    }

    @pytest.mark.parametrize("edit", list(HEADER_EDITS))
    def test_header_lines_must_follow_the_writer(self, tmp_path, edit):
        path = tmp_path / "m.txt"
        save_bundle(init("hofm", SCHEMA, k=3, d=2, init_scale=0.5, seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[1:6] == ["kind hofm", "cardinalities 3,4,2,5", "k 3", "d 2", "r_vec -"]
        if edit == "d_kind_and_foo_after_d":
            lines[5:5] = ["d 2", "kind fm", "foo bar"]
        elif edit == "missing_k":
            del lines[3]
        elif edit == "repeated_kind":
            lines.insert(2, "kind hofm")
        elif edit == "unknown_key":
            lines.insert(3, "foo bar")
        else:
            lines[3], lines[4] = lines[4], lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelIOError, match=f"expected the header line '{self.HEADER_EDITS[edit]}'"):
            load_bundle(path)

    @pytest.mark.parametrize("where", ["header", "block"])
    def test_non_utf8_file_names_the_path(self, tmp_path, where):
        path = tmp_path / "m.txt"
        # a block of 120 kB, so its bad byte is decoded inside np.loadtxt
        save_bundle(init("fm", build_schema([2000]), k=3, init_scale=0.5, seed=0), path)
        text = path.read_bytes()
        cut = text.index(b"kind") if where == "header" else len(text) // 2
        path.write_bytes(text[:cut] + b"\xe9" + text[cut:])
        with pytest.raises(ModelIOError, match="m.txt: not UTF-8 text"):
            load_bundle(path)

    def test_zero_width_block_round_trips(self, tmp_path):
        path = tmp_path / "m.txt"
        bundle = init("fwfm", build_schema([3]), k=2, init_scale=0.5, seed=0)
        save_bundle(bundle, path)
        assert load_bundle(path).blocks["pair.upper"].shape == (0,)
        path.write_text(path.read_text().replace("block pair.upper 0\n\n", "block pair.upper 0\n0.5\n"))
        with pytest.raises(ModelIOError, match="pair.upper"):
            load_bundle(path)

    def test_unknown_kind_is_a_model_file_error(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text(path.read_text().replace("kind fm", "kind deepfm"))
        with pytest.raises(ModelIOError, match="deepfm"):
            load_bundle(path)


class TestAtomicSave:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.txt"
        save_bundle(init("fm", SCHEMA, k=3, seed=0), path)
        before = path.read_bytes()
        real_write_block = params_module._write_block

        def failing_write_block(fh, name, arr):
            if name == "embeddings":
                raise OSError("disk full")
            real_write_block(fh, name, arr)

        monkeypatch.setattr(params_module, "_write_block", failing_write_block)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(init("fm", SCHEMA, k=3, seed=1), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]

    def test_non_finite_block_is_not_written(self, tmp_path):
        # the reader rejects such a file, so the writer must not produce it
        path = tmp_path / "m.txt"
        save_bundle(init("fm", SCHEMA, k=3, seed=0), path)
        before = path.read_bytes()
        bundle = init("fm", SCHEMA, k=3, seed=1)
        bundle.blocks["linear.b"][0] = np.nan
        with pytest.raises(NumericError, match="linear.b"):
            save_bundle(bundle, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]
