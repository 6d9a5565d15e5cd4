"""Schema construction, dataset IO, splitting, and synthetic generation."""

import io
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorfm import (
    ConfigError,
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
from tensorfm import data, floatfmt

from oracles import dataset_text_oracle
from racing import race


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

    def test_range_check_holds_no_array_of_the_indices_size(self):
        # 20k rows of 39 fields: an (N, n) bool comparison, 780 kB, took the
        # construction's peak to 913 kB
        cards = [10] * 13 + [50] * 26
        active = np.random.default_rng(5).integers(0, 10, size=(20_000, 39), dtype=np.int32)
        labels = np.zeros(20_000, dtype=np.int8)
        tracemalloc.start()
        try:
            Dataset(build_schema(cards), active, labels=labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < active.size, f"peak {peak / 1e3:.0f} kB"
        active = active.copy()  # the dataset froze the first
        active[123, 20] = 50
        with pytest.raises(SchemaError, match="out of range"):
            Dataset(build_schema(cards), active, labels=labels)

    def test_bad_label_rejected(self):
        schema = build_schema([2, 2])
        with pytest.raises(DataError):
            Dataset(schema, np.array([[0, 1]]), labels=np.array([2]))

    def test_arrays_frozen(self):
        schema = build_schema([2, 2])
        ds = Dataset(schema, np.array([[0, 1]]), labels=np.array([1]))
        with pytest.raises(ValueError):
            ds.active[0, 0] = 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_multiplier_rejected(self, bad):
        # a non-finite multiplier would turn every score of its row into NaN
        schema = build_schema([2, 2])
        with pytest.raises(DataError, match="row 1, field 0"):
            Dataset(schema, np.array([[0, 1], [1, 0]]), values=[[1.0, 2.0], [bad, 1.0]])

    def test_unit_values_false_with_one_multiplier_not_one(self):
        schema = build_schema([2, 3])
        active = np.array([[0, 1], [1, 2], [0, 0]])
        assert Dataset(schema, active).unit_values
        assert Dataset(schema, active, values=np.ones((3, 2))).unit_values
        values = np.ones((3, 2))
        values[2, 1] = 1.0 + 2**-52
        assert not Dataset(schema, active, values=values).unit_values


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

    def test_multipliers_are_read_with_their_bits_by_the_array_parse(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = 600
        values = rng.integers(0, 2**64 - 1, (rows, 3), dtype=np.uint64, endpoint=True).view(np.float64)
        values[~np.isfinite(values)] = 5e-324
        values[:, 0] = rng.normal(0.0, 0.1, rows)  # 17-digit decimal spellings
        values[::7, 1] = -0.0
        schema = build_schema([4, 7, 2])
        active = np.stack([rng.integers(0, c, size=rows) for c in schema.cardinalities], axis=1)
        ds = Dataset(schema, active, values, rng.integers(0, 2, size=rows))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        body = np.frombuffer(path.read_bytes().split(b"\n", 1)[1], dtype=np.uint8)
        parsed = data._parse_canonical(body, schema.n)
        assert parsed is not None and np.array_equal(parsed[1].view(np.uint64), values.view(np.uint64))
        assert np.array_equal(read_dataset(path).values.view(np.uint64), values.view(np.uint64))

    def test_writer_matches_row_by_row_text_across_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        schema = build_schema([3, 40, 1])
        rows = 2 * data.CHUNK_LINES + 3
        active = np.stack([rng.integers(0, c, size=rows) for c in schema.cardinalities], axis=1)
        values = np.ones((rows, 3))
        values[rng.random(rows) < 0.1, 1] = -0.0
        values[:, 2] = rng.choice([1.0, 0.1, 1e16, 5e-324], size=rows)
        ds = Dataset(schema, active, values, rng.integers(0, 2, size=rows))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        assert path.read_text(encoding="utf-8") == dataset_text_oracle(ds)

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

    @pytest.mark.parametrize("line", [
        "1 0:\u0661 1:1",  # an Arabic-Indic digit one
        "1 0:1 1:1_0",
        "\u0661 0:1 1:2",
        "1 0:1 1:\uff12",  # a fullwidth digit two
        "1 0:1 1:2:1_5",
        "1 0:1 1:2:\u0661.5",
        "1 0:1 1:2:.5",
        "1 0:1 1:2:1E5",
        "1 0:1 1:2:infinity",
    ])
    def test_only_ascii_digits_and_the_writers_float_spelling_are_read(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("#schema 3,20\n1 0:1 1:2\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.txt:3: bad token"):
            read_dataset(path)

    def test_signs_and_leading_zeros_are_read(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("#schema 3,20\n+1 0:+2 1:0007:-1.5e-05\n0 0:00 1:19:+2.0\n")
        back = read_dataset(path)
        np.testing.assert_array_equal(back.active, [[2, 7], [0, 19]])
        np.testing.assert_array_equal(back.values, [[1.0, -1.5e-05], [1.0, 2.0]])
        np.testing.assert_array_equal(back.labels, [1, 0])

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

    def test_writes_to_one_path_from_four_threads_leave_one_file_whole(self, tmp_path):
        schema = build_schema([50] * 10)
        rng = np.random.default_rng(0)
        datasets = [Dataset(schema, rng.integers(0, 50, size=(2000, 10)), labels=rng.integers(0, 2, size=2000),
                            values=rng.normal(size=(2000, 10))) for _ in range(4)]
        wants = set()
        for i, ds in enumerate(datasets):
            write_dataset(ds, tmp_path / f"want{i}.txt")
            wants.add((tmp_path / f"want{i}.txt").read_bytes())
        path = tmp_path / "ds.txt"
        race([lambda ds=ds: write_dataset(ds, path) for ds in datasets], rounds=5)
        assert path.read_bytes() in wants
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.txt"] + [f"want{i}.txt" for i in range(4)]


def _writer_case(case: str) -> Dataset:
    """A dataset for one :class:`TestWriter` case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    rows, cards = 40, [3, 40, 1, 7]
    if case.endswith(" fields"):
        cards = rng.integers(1, 300, size=int(case.split()[0])).tolist()
        rows = 5 if len(cards) > 1000 else 40
    elif case == "int32 indices":
        cards, rows = [2**31, 10**8 + 1, 10**7 + 1, 3], data.CHUNK_LINES + 20
    elif case in ("several chunks", "all unit"):
        rows = 3 * data.CHUNK_LINES + 7
    elif case == "no rows":
        rows = 0
    active = np.stack([rng.integers(0, c, size=rows) for c in cards], axis=1).reshape(rows, len(cards))
    values = np.where(rng.random(active.shape) < 0.3, rng.uniform(-2, 2, size=active.shape), 1.0)
    if case == "int32 indices":
        # every digit count from 1 to 10 in the first chunk; the second has no index of 8 digits or more
        edges = [0, 9, 10, 99, 10**7 - 1, 10**7, 10**8 - 1, 10**8, 10**9, 1_234_567_890, 2**31 - 1]
        active[: len(edges), 0] = edges
        active[data.CHUNK_LINES :, :2] %= 10**7
    elif case == "several chunks":
        # multipliers in the second chunk only, in the first and last fields, and in the last row
        values[:] = 1.0
        values[data.CHUNK_LINES : 2 * data.CHUNK_LINES, [0, 3]] = rng.uniform(0, 3, size=(data.CHUNK_LINES, 2))
        values[-1, 1] = 0.5
    elif case == "repr fallback":
        special = [-0.0, 5e-324, 2.0**50, 1e300, 1.0000000000000002, 0.1, 0.0, -2.2250738585072014e-308]
        values.flat[rng.choice(values.size, size=3 * len(special), replace=False)] = special * 3
    if case == "all unit":
        values = None
    return Dataset(build_schema(cards), active, values, rng.integers(0, 2, size=rows))


class TestWriter:
    """write_dataset where the property tests (cardinalities of at most 5,
    at most 6 rows) do not reach: the bytes equal the row-at-a-time
    reference, and the file reads back to the same arrays."""

    @pytest.mark.parametrize("case", ["10 fields", "120 fields", "1001 fields", "int32 indices", "several chunks",
                                      "repr fallback", "all unit", "no rows"])
    def test_bytes_equal_the_reference_and_read_back(self, tmp_path, case):
        ds = _writer_case(case)
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        assert path.read_bytes() == dataset_text_oracle(ds).encode()
        back = read_dataset(path)
        assert back.schema.cardinalities == ds.schema.cardinalities
        for got, want in ((back.active, ds.active), (back.values, ds.values), (back.labels, ds.labels)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()  # -0.0 included

    def test_values_spelled_in_several_steps(self, tmp_path, monkeypatch):
        # a chunk's values spelled three at a time: steps whose spellings
        # fill three words (24 bytes) and four (25 bytes) are merged
        monkeypatch.setattr(floatfmt, "CHUNK_VALUES", 3)
        ds = _writer_case("repr fallback")
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        assert path.read_bytes() == dataset_text_oracle(ds).encode()

    def test_click_log_write_peaks_below_the_token_string_writer(self, tmp_path):
        # 20k rows of a 39-field click-log shape (m = 98,784), with a
        # multiplier on three of four cells of five count fields
        rng = np.random.default_rng(21)
        cards = [10] * 13 + [50] * 6 + np.rint(np.geomspace(30, 30_000, 20)).astype(int).tolist()
        active = np.stack([rng.integers(0, c, size=20_000) for c in cards], axis=1)
        values = np.ones(active.shape)
        values[:, :5] = np.where(rng.random((20_000, 5)) < 0.75, rng.uniform(0.5, 1.5, (20_000, 5)).round(3), 1.0)
        ds = Dataset(build_schema(cards), active, values, rng.integers(0, 2, size=20_000))
        write_dataset(ds, tmp_path / "warm.txt")  # floatfmt builds its layout table once per process
        tracemalloc.start()
        try:
            write_dataset(ds, tmp_path / "ds.txt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The writer that built a Python string per token peaked at 1.05 MB
        # here. The (N, n) global indices (6.2 MB), the whole text (5.1 MB)
        # or a token table sized by the vocabulary (1.6 MB at 16 bytes a
        # feature) would each take the peak past it.
        assert peak < 1.05e6, f"peak {peak / 1e6:.2f} MB"
        assert "global_indices" not in ds.__dict__

    def test_click_log_read_holds_the_indices_once(self, tmp_path):
        # 20k rows of a 39-field click-log shape with unit multipliers: 3.1 MB
        # of int32 indices. A reader that kept every chunk until one
        # concatenation peaked at 8.3 MB here.
        rng = np.random.default_rng(22)
        cards = [10] * 13 + [50] * 6 + np.rint(np.geomspace(30, 30_000, 20)).astype(int).tolist()
        active = np.stack([rng.integers(0, c, size=20_000) for c in cards], axis=1)
        ds = Dataset(build_schema(cards), active, None, rng.integers(0, 2, size=20_000))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:  # one chunk's lines and its parse: the scratch
                fh.readline()
                chunk = b"".join(fh.readline() for _ in range(data.CHUNK_LINES))
                data._parse_chunk(path, len(cards), np.frombuffer(chunk, dtype=np.uint8), 2)
                del chunk
            scratch = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            got = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.active, ds.active) and np.array_equal(got.labels, ds.labels)
        assert got.unit_values and got.values.strides == (0, 0)
        assert peak <= got.active.nbytes + scratch, f"peak {peak / 1e6:.2f} MB, scratch {scratch / 1e6:.2f} MB"

    def test_click_log_chunk_parse_holds_no_index_per_byte(self):
        # One 512-line chunk of a 39-field click log with multipliers (130 kB
        # of text). Classifying its bytes through an intp index array (8
        # bytes a byte), with a fresh intp index per digit place, peaked at
        # 2.83 MB; the parse now peaks at 2.21 MB.
        rng = np.random.default_rng(23)
        cards = [10] * 13 + [50] * 6 + np.rint(np.geomspace(30, 30_000, 20)).astype(int).tolist()
        rows = data.CHUNK_LINES
        active = np.stack([rng.integers(0, c, size=rows) for c in cards], axis=1)
        values = np.ones(active.shape)
        values[:, :5] = np.where(rng.random((rows, 5)) < 0.75, rng.uniform(0.5, 1.5, (rows, 5)).round(3), 1.0)
        ds = Dataset(build_schema(cards), active, values, rng.integers(0, 2, size=rows))
        chunk = np.frombuffer(dataset_text_oracle(ds).split("\n", 1)[1].encode(), dtype=np.uint8)
        data._parse_chunk(Path("ds.txt"), len(cards), chunk, 2)  # warm up
        tracemalloc.start()
        try:
            got, _ = data._parse_chunk(Path("ds.txt"), len(cards), chunk, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got[0], active) and np.array_equal(got[1], values)
        assert peak < 2.5e6, f"peak {peak / 1e6:.2f} MB"


class TestChunkedRead:
    """Files longer than one chunk of ``CHUNK_LINES`` lines, with indices of
    one to three digits and some explicit values."""

    # Index into the file's lines of a line in the second chunk: file line AT + 1.
    AT = data.CHUNK_LINES + 5

    def _write(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = data.CHUNK_LINES + 100
        schema = build_schema([3, 150])
        active = np.stack([rng.integers(0, c, size=rows) for c in schema.cardinalities], axis=1)
        values = np.where(rng.random((rows, 2)) < 0.5, 1.0, rng.uniform(-2, 2, size=(rows, 2)))
        ds = Dataset(schema, active, values, rng.integers(0, 2, size=rows))
        path = tmp_path / "ds.txt"
        write_dataset(ds, path)
        return ds, path, path.read_text().splitlines(keepends=True)

    def test_canonical_text_is_read_as_arrays(self, tmp_path, monkeypatch):
        ds, path, _ = self._write(tmp_path)
        monkeypatch.setattr(data, "_parse_lines", lambda *args: pytest.fail("canonical text parsed line by line"))
        back = read_dataset(path)
        for got, want in ((back.active, ds.active), (back.values, ds.values), (back.labels, ds.labels)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("line, reason", [
        ("1 0:x 1:2", "bad token"),
        ("1:1 0:1 1:2", "bad token"),
        ("1 0:1 1:4294967297", "bad token"),  # beyond int32, ten digits
        ("1 0:1 1:2:1e999", "non-finite"),
        ("1 0:1 1:2:.5", "bad token"),  # bytes of the array path, a spelling the writer never writes
        ("2 0:1 1:2", "label"),
        ("1 1:2 0:1 0:1", "expected 2 field tokens"),
        ("1 0:1\n1:2", "expected 2 field tokens"),  # the words of one line, over two
        ("1 0:3 1:2", "feature index 3 out of range for field 0"),
    ])
    def test_fault_in_a_later_chunk_names_its_line(self, tmp_path, line, reason):
        _, path, lines = self._write(tmp_path)
        lines[self.AT] = line + "\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"ds.txt:{self.AT + 1}: .*{reason}"):
            read_dataset(path)

    def test_range_fault_is_reported_after_every_other_fault(self, tmp_path):
        _, path, lines = self._write(tmp_path)
        lines[5] = "1 0:3 1:2\n"
        lines[self.AT] = "1 0:x 1:2\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError, match=f"ds.txt:{self.AT + 1}: bad token"):
            read_dataset(path)

    def test_fault_before_undecodable_bytes_is_reported_first(self, tmp_path):
        _, path, lines = self._write(tmp_path)
        lines[2] = "1 0:x 1:2\n"
        # the last line of the first chunk, past the first 8 KiB the text layer decodes
        head = "".join(lines[: data.CHUNK_LINES]).encode()
        assert len(head) > 8192
        path.write_bytes(head + b"1 0:1 1:\xe92\n" + "".join(lines[data.CHUNK_LINES + 1 :]).encode())
        with pytest.raises(DataError, match="ds.txt:3: bad token"):
            read_dataset(path)

    def test_fields_out_of_order_in_a_later_chunk(self, tmp_path):
        ds, path, lines = self._write(tmp_path)
        label, *tokens = lines[self.AT].split()
        lines[self.AT] = " ".join([label, *reversed(tokens)]) + "\n"
        path.write_text("".join(lines))
        back = read_dataset(path)
        line_by_line = data._parse_lines(path, 2, lines[1:], 2)[:3]
        for got, want in zip((back.active, back.values, back.labels), line_by_line):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(back.active, ds.active)


def line_parser_outcome(path, n):
    """What the line parser makes of the body of the dataset file ``path``
    of ``n`` fields (its first line is a valid header): its arrays as bytes with their
    dtypes, or its ``DataError`` message. In a file that is not UTF-8, the
    lines before the one holding the first undecodable byte are parsed
    first."""
    raw, undecodable = path.read_bytes(), None
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        before = raw[: exc.start]
        text = before[: max(before.rfind(b"\n"), before.rfind(b"\r")) + 1].decode()
        undecodable = f"{path}: not UTF-8 text ({exc.reason})"
    lines = list(io.StringIO(text, newline=""))
    try:
        active, values, labels, _ = data._parse_lines(path, n, lines[1:], 2)
    except DataError as exc:
        return str(exc)
    if undecodable:
        return undecodable
    values = np.ones(active.shape) if values is None else values
    return [(a.dtype, a.shape, a.tobytes()) for a in (active, values, labels)]


def reader_outcome(path):
    try:
        ds = read_dataset(path)
    except DataError as exc:
        return str(exc)
    return [(a.dtype, a.shape, np.ascontiguousarray(a).tobytes()) for a in (ds.active, ds.values, ds.labels)]


class TestByteReader:
    """``read_dataset`` reads files as bytes, chunk by chunk, and decodes
    only the chunks it parses line by line; what it returns or raises is
    what the line parser makes of the whole file."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.sampled_from(["non_utf8", "crlf", "blank", "bad_token", "no_final_newline"]),
           st.integers(1, 5), st.sampled_from([8, 64, 1024]), st.data())
    def test_one_fault_reads_as_the_line_parser_reads_it(self, tmp_path_factory, rows, fault, chunk, size, draw):
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**31)))
        schema = build_schema([3, 20, 5])
        active = np.stack([rng.integers(0, c, size=rows) for c in schema.cardinalities], axis=1)
        values = np.where(rng.random((rows, 3)) < 0.3, rng.normal(size=(rows, 3)), 1.0)
        path = tmp_path_factory.mktemp("ds") / "ds.txt"
        write_dataset(Dataset(schema, active, values, rng.integers(0, 2, size=rows)), path)
        lines = path.read_bytes().split(b"\n")[:-1]  # the header, then one line per row
        at = draw.draw(st.integers(1, rows))
        if fault == "non_utf8":
            cut = draw.draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + b"\xff" + lines[at][cut:]
        elif fault == "crlf":
            lines[at] += b"\r"
        elif fault == "blank":
            lines.insert(at, b"")
        elif fault == "bad_token":
            lines[at] = lines[at].replace(b" 1:", b" 1:x", 1)
        text = b"\n".join(lines) + b"\n"
        path.write_bytes(text[:-1] if fault == "no_final_newline" else text)
        with patch.object(data, "CHUNK_LINES", chunk), patch.object(data, "READ_BUFFER_BYTES", size):
            assert reader_outcome(path) == line_parser_outcome(path, schema.n)


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

    def test_span_wider_than_the_float_range_bins_by_equal_width(self, tmp_path):
        path = tmp_path / "wide.csv"
        self._write_csv(path, ["x", "y"], [[-1e308, 0], [0.0, 1], [1e308, 0]])
        ds = load_tabular(path, field_columns=["x"], label_column="y", numeric_bins=5)
        assert ds.active[:, 0].tolist() == [0, 2, 4]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_numeric_value_names_column_and_line(self, tmp_path, value):
        # the row with an empty value is skipped but still counts as a line
        path = tmp_path / "num.csv"
        self._write_csv(path, ["f", "x", "y"], [["a", "", 0], ["b", 0.1, 1], ["a", value, 1], ["b", 0.9, 0]])
        with pytest.raises(DataError, match=f"num.csv:4: numeric column 'x' holds a non-finite value '{value}'"):
            load_tabular(path, field_columns=["f", "x"], label_column="y")

    @pytest.mark.parametrize("bins", [0, -1])
    def test_fewer_than_one_bin_is_config_error(self, tmp_path, bins):
        path = tmp_path / "num.csv"
        self._write_csv(path, ["x", "y"], [[0.0, 0], [1.0, 1]])
        with pytest.raises(ConfigError, match="numeric_bins"):
            load_tabular(path, field_columns=["x"], label_column="y", numeric_bins=bins)

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

    def test_reading_and_splitting_categorical_text_builds_no_multiplier_array(self, tmp_path):
        # 20k rows of a 39-field click-log shape, no ':value' token
        rng = np.random.default_rng(2)
        schema = build_schema(np.geomspace(3, 3000, 39).astype(int))
        active = np.stack([rng.integers(0, c, size=20_000) for c in schema.cardinalities], axis=1)
        path = tmp_path / "ds.txt"
        write_dataset(Dataset(schema, active, labels=rng.integers(0, 2, size=20_000)), path)
        tracemalloc.start()
        try:
            parts = split(read_dataset(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The int32 indices are held twice at most (the chunks and their
        # concatenation). An (N, n) float64 array of 1.0 anywhere in the
        # reader, the dataset or the split parts would take the peak past
        # that by a whole such array.
        cells = active.size
        assert peak < 2 * 4 * cells + 8 * cells, f"peak {peak / 1e6:.1f} MB"
        assert all(part.values.strides == (0, 0) for part in parts)


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
