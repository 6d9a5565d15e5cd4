"""Schema construction, dataset IO, splitting, and synthetic generation."""

import numpy as np
import pytest

from tensorfm import (
    DataError,
    Dataset,
    SchemaError,
    SyntheticSpec,
    build_schema,
    generate_synthetic,
    load_tabular,
    read_dataset,
    split,
    write_dataset,
)


class TestBuildSchema:
    def test_three_equal_fields(self):
        schema = build_schema([20, 20, 20])
        assert schema.n == 3
        assert schema.m == 60
        assert schema.offsets.tolist() == [0, 20, 40]

    def test_minimal_schema(self):
        schema = build_schema([1])
        assert schema.n == 1
        assert schema.m == 1
        assert schema.offsets.tolist() == [0]

    def test_cumulative_offsets(self):
        schema = build_schema([3, 5, 2])
        assert schema.m == 10
        assert schema.offsets.tolist() == [0, 3, 8]

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([])

    def test_zero_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            build_schema([3, 0, 2])

    def test_offsets_strictly_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cards = rng.integers(1, 50, size=rng.integers(1, 12)).tolist()
            schema = build_schema(cards)
            assert (np.diff(schema.offsets) > 0).all() or schema.n == 1
            assert schema.m == sum(cards)


class TestDatasetValidation:
    def test_out_of_range_index_rejected(self):
        schema = build_schema([2, 2])
        with pytest.raises(SchemaError):
            Dataset(schema, np.array([[0, 2]]), labels=np.array([0]))

    def test_bad_label_rejected(self):
        schema = build_schema([2, 2])
        with pytest.raises(DataError):
            Dataset(schema, np.array([[0, 1]]), labels=np.array([2]))

    def test_arrays_frozen(self):
        schema = build_schema([2, 2])
        ds = Dataset(schema, np.array([[0, 1]]), labels=np.array([1]))
        with pytest.raises(ValueError):
            ds.active[0, 0] = 1


class TestTextFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        schema = build_schema([4, 7, 2])
        n = 50
        active = np.stack([rng.integers(0, c, size=n) for c in schema.cardinalities], axis=1)
        values = np.ones((n, 3))
        values[:, 1] = rng.uniform(-2, 2, size=n)  # a numeric field
        ds = Dataset(schema, active, values, rng.integers(0, 2, size=n).astype(np.int8))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.schema.cardinalities == ds.schema.cardinalities
        np.testing.assert_array_equal(back.active, ds.active)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert (back.values == ds.values).all()  # bit-exact, no tolerance

    def test_value_token_omitted_for_one(self, tmp_path):
        schema = build_schema([2, 2])
        ds = Dataset(schema, np.array([[1, 0]]), labels=np.array([1]))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        assert path.read_text().splitlines()[1] == "1 0:1 1:0"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0:0\n")
        with pytest.raises(DataError):
            read_dataset(path)

    @pytest.mark.parametrize("line, reason", [
        ("x 0:1 1:2", "bad token"),
        ("1 0:a 1:2", "bad token"),
        ("1 0:1 1:2:x", "bad token"),
        ("1 0:1 0:2", "exactly once"),
        ("1 0:1 1:2:nan", "non-finite"),
        ("1 0:1 1:2:-inf", "non-finite"),
        ("300 0:1 1:2", "label"),
        ("1 0:99999999999 1:2", "bad token"),
        ("1 0:1 1:-1", "feature index -1 out of range for field 1"),
        ("1 0:3 1:0", "feature index 3 out of range for field 0"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, reason):
        path = tmp_path / "bad.txt"
        path.write_text("#schema 3,3\n1 0:1 1:2\n\n" + line + "\n")
        with pytest.raises(DataError, match=f"bad.txt:4: .*{reason}"):
            read_dataset(path)

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"#schema 3,3\n1 0:1 1:2\n1 0:1 1:\xe92\n")
        with pytest.raises(DataError, match="bad.txt: not UTF-8 text"):
            read_dataset(path)

    def test_fields_in_any_order_with_blank_lines(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("#schema 3,3\n\n0 1:2 0:1:2.5\n  \n1 0:0 1:1\n")
        back = read_dataset(path)
        np.testing.assert_array_equal(back.active, [[1, 2], [0, 1]])
        np.testing.assert_array_equal(back.values, [[2.5, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(back.labels, [0, 1])

    def test_failed_write_keeps_previous_file(self, tmp_path):
        schema = build_schema([3, 3])
        ds = Dataset(schema, np.array([[0, 1], [2, 0], [1, 1]]), labels=np.array([1, 0, 1]))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        before = path.read_bytes()

        def labels_failing_at_row_2():
            yield from ds.labels[:2]
            raise OSError("disk full")

        class PartlyWritable:
            schema = ds.schema
            active = ds.active
            values = ds.values
            labels = labels_failing_at_row_2()

        with pytest.raises(OSError, match="disk full"):
            write_dataset(PartlyWritable(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]


class TestLoadTabular:
    def _write_csv(self, path, header, rows):
        path.write_text("\n".join([",".join(header)] + [",".join(str(v) for v in r) for r in rows]) + "\n")

    def test_fourteen_field_file(self, tmp_path):
        rng = np.random.default_rng(0)
        cols = [f"c{i}" for i in range(14)]
        rows = []
        for i in range(60):
            row = [rng.choice(["a", "b", "c"]) for _ in range(10)]
            row += [f"{rng.uniform():.3f}" for _ in range(4)]  # 4 numeric columns
            row.append(rng.integers(0, 2))
            rows.append(row)
        path = tmp_path / "t.csv"
        self._write_csv(path, cols + ["y"], rows)
        ds = load_tabular(path, field_columns=cols, label_column="y", numeric_bins=5)
        assert ds.schema.n == 14
        assert len(ds) == 60

    def test_degenerate_single_row_per_class(self, tmp_path):
        path = tmp_path / "one.csv"
        self._write_csv(path, ["f", "y"], [["only", 1], ["other", 0]])
        ds = load_tabular(path, field_columns=["f"], label_column="y")
        # two values plus the unknown slot
        assert ds.schema.cardinalities == (3,)
        assert len(ds) == 2

    def test_one_value_field_reserves_unknown_slot(self, tmp_path):
        path = tmp_path / "one.csv"
        self._write_csv(path, ["f", "y"], [["v", 1], ["v", 0]])
        ds = load_tabular(path, field_columns=["f"], label_column="y")
        assert ds.schema.cardinalities == (2,)  # value + unknown slot

    def test_equal_width_binning(self, tmp_path):
        path = tmp_path / "num.csv"
        self._write_csv(path, ["x", "y"], [[0.0, 0], [0.5, 1], [1.0, 0]])
        ds = load_tabular(path, field_columns=["x"], label_column="y", numeric_bins=5)
        # edges at 0.2, 0.4, 0.6, 0.8: values fall in bins 0, 2, 4
        assert ds.active[:, 0].tolist() == [0, 2, 4]

    def test_minus_one_label_maps_to_zero(self, tmp_path):
        path = tmp_path / "lab.csv"
        self._write_csv(path, ["f", "y"], [["a", -1], ["b", 1]])
        ds = load_tabular(path, field_columns=["f"], label_column="y")
        assert ds.labels.tolist() == [0, 1]

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "lab.csv"
        self._write_csv(path, ["f", "y"], [["a", 1], ["b", 1]])
        with pytest.raises(DataError):
            load_tabular(path, field_columns=["f"], label_column="y")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write_csv(path, ["f", "y"], [["a", 1], ["b", 0]])
        with pytest.raises(DataError):
            load_tabular(path, field_columns=["f", "nope"], label_column="y")

    def test_unparsable_rows_skipped_with_counter(self, tmp_path):
        path = tmp_path / "skip.csv"
        self._write_csv(path, ["x", "y"], [[0.1, 0], ["", 1], [0.9, 1]])
        ds = load_tabular(path, field_columns=["x"], label_column="y")
        assert len(ds) == 2
        assert ds.skipped_rows == 1

    def test_non_utf8_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("f,y\ncaf\u00e9,1\nthe,0\n".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.csv: not UTF-8 text"):
            load_tabular(path, field_columns=["f"], label_column="y")

    def test_min_count_folds_rare_values(self, tmp_path):
        path = tmp_path / "rare.csv"
        rows = [["common", i % 2] for i in range(10)] + [["rare", 1]]
        self._write_csv(path, ["f", "y"], rows)
        ds = load_tabular(path, field_columns=["f"], label_column="y", min_count=2)
        assert ds.schema.cardinalities == (2,)  # "common" + unknown
        assert ds.active[-1, 0] == 1  # rare value landed in the unknown slot


class TestSplit:
    def _dataset(self, n):
        schema = build_schema([5, 5])
        rng = np.random.default_rng(1)
        return Dataset(
            schema,
            rng.integers(0, 5, size=(n, 2)).astype(np.int32),
            labels=rng.integers(0, 2, size=n).astype(np.int8),
        )

    def test_floor_floor_remainder_rule(self):
        tr, va, te = split(self._dataset(10), (0.7, 0.15, 0.15), seed=0)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_recidivism_table_sizes(self):
        # floor/floor/remainder on 5856 rows; each part within one instance
        # of the published 4098/879/879 partition
        tr, va, te = split(self._dataset(5856), (0.70, 0.15, 0.15), seed=0)
        assert (len(tr), len(va), len(te)) == (4099, 878, 879)
        for got, published in zip((len(tr), len(va), len(te)), (4098, 879, 879)):
            assert abs(got - published) <= 1

    def test_same_seed_identical(self):
        ds = self._dataset(100)
        a = split(ds, (0.7, 0.15, 0.15), seed=42)
        b = split(ds, (0.7, 0.15, 0.15), seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.active, y.active)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_union_equals_input(self):
        ds = self._dataset(101)
        parts = split(ds, (0.5, 0.25, 0.25), seed=3)
        rows = np.vstack([p.active for p in parts])
        assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, ds.active.tolist()))

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split(self._dataset(2), (0.7, 0.15, 0.15), seed=0)

    def test_bad_fractions_rejected(self):
        ds = self._dataset(10)
        with pytest.raises(DataError):
            split(ds, (0.7, 0.2, 0.2), seed=0)
        with pytest.raises(DataError):
            split(ds, (0.7, -0.1, 0.4), seed=0)


class TestGenerateSynthetic:
    def test_three_field_shape(self):
        spec = SyntheticSpec(n_signal=3, cardinality=20, order=3, n_samples=5000, seed=7)
        ds = generate_synthetic(spec)
        assert ds.schema.n == 3
        assert ds.schema.m == 60
        assert len(ds) == 5000

    def test_hundred_field_shape(self):
        spec = SyntheticSpec(n_signal=4, cardinality=20, order=4, n_noise=96, n_samples=100, seed=0)
        ds = generate_synthetic(spec)
        assert ds.schema.n == 100

    def test_label_constant_per_signal_tuple(self):
        spec = SyntheticSpec(n_signal=3, cardinality=4, order=3, n_noise=2, n_samples=20_000, seed=5)
        ds = generate_synthetic(spec)
        keys = (ds.active[:, 0] * 16 + ds.active[:, 1] * 4 + ds.active[:, 2]).astype(np.int64)
        for key in np.unique(keys):
            assert len(np.unique(ds.labels[keys == key])) == 1

    def test_noise_field_independent_of_label(self):
        # chi-square of the (noise value x label) table stays below the
        # 99.9% critical value for 19 degrees of freedom (43.8202)
        spec = SyntheticSpec(n_signal=3, cardinality=20, order=3, n_noise=1, n_samples=100_000, seed=9)
        ds = generate_synthetic(spec)
        noise = ds.active[:, 3]
        table = np.zeros((20, 2))
        np.add.at(table, (noise, ds.labels.astype(np.int64)), 1.0)
        expected = table.sum(1, keepdims=True) * table.sum(0, keepdims=True) / table.sum()
        chi2 = ((table - expected) ** 2 / expected).sum()
        assert chi2 < 43.8202

    def test_table_overflow_rejected(self):
        spec = SyntheticSpec(n_signal=8, cardinality=100, order=8, n_samples=10, seed=0)
        with pytest.raises(DataError):
            generate_synthetic(spec)

    def test_order_above_signal_count_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(n_signal=2, cardinality=5, order=3, n_samples=10, seed=0)

    def test_determinism(self):
        spec = SyntheticSpec(n_signal=2, cardinality=6, order=2, n_noise=1, n_samples=500, seed=3)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        np.testing.assert_array_equal(a.active, b.active)
        np.testing.assert_array_equal(a.labels, b.labels)
