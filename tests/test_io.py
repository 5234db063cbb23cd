"""Format round trips and validation errors for every on-disk artifact."""

import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccax import cca, cli, hkse, io
from oracles import (matrix_to_bytes, read_table_lines,
                     save_embedding_table, table_values_float)


def write(path, data: bytes):
    path.write_bytes(data)
    return path


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` truncated, or with one byte replaced, inserted or deleted."""
    kind = draw(st.sampled_from(("truncate", "replace", "insert", "delete")))
    pos = draw(st.integers(0, len(data)))
    byte = bytes([draw(st.integers(0, 255))])
    if kind == "truncate":
        return data[:pos]
    if kind == "replace":
        return data[:pos] + byte + data[pos + 1:]
    if kind == "insert":
        return data[:pos] + byte + data[pos:]
    return data[:pos] + data[pos + 1:]


class TestFeatureMatrix:
    def test_rejects_empty(self):
        with pytest.raises(io.DataFormatError):
            io.FeatureMatrix(np.zeros((0, 3)))
        with pytest.raises(io.DataFormatError):
            io.FeatureMatrix(np.zeros((3, 0)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(io.DataFormatError, match="non-finite"):
            io.FeatureMatrix([[1.0, np.nan]])
        with pytest.raises(io.DataFormatError, match="non-finite"):
            io.FeatureMatrix([[np.inf, 1.0]])

    def test_values_frozen(self):
        m = io.FeatureMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 3.0


class TestFmat1:
    def test_decode_header_and_payload(self, tmp_path):
        payload = struct.pack("<6d", 1, 2, 3, 4, 5, 6)
        path = write(tmp_path / "m.fmat",
                     b"FMATRX01" + struct.pack("<QQ", 2, 3) + payload)
        m = io.load_matrix(path)
        np.testing.assert_array_equal(m.values, [[1, 2, 3], [4, 5, 6]])

    def test_one_by_one_is_32_bytes(self, tmp_path):
        # 8 magic + 16 header + 8 payload
        path = tmp_path / "m.fmat"
        io.save_matrix(io.FeatureMatrix([[0.0]]), path)
        assert path.stat().st_size == 32

    def test_bad_magic(self, tmp_path):
        path = write(tmp_path / "m.fmat", b"NOTMAGIC" + b"\0" * 24)
        with pytest.raises(io.DataFormatError, match="magic"):
            io.load_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = write(tmp_path / "m.fmat",
                     b"FMATRX01" + struct.pack("<QQ", 2, 2) + b"\0" * 24)
        with pytest.raises(io.DataFormatError, match="truncated"):
            io.load_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        good = (b"FMATRX01" + struct.pack("<QQ", 1, 1)
                + struct.pack("<d", 1.0))
        path = write(tmp_path / "m.fmat", good + b"x")
        with pytest.raises(io.DataFormatError, match="trailing"):
            io.load_matrix(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = write(tmp_path / "m.fmat",
                     b"FMATRX01" + struct.pack("<QQ", 1, 1)
                     + struct.pack("<d", float("nan")))
        with pytest.raises(io.DataFormatError, match="non-finite"):
            io.load_matrix(path)

    def test_values_checked_once(self, tmp_path, monkeypatch):
        # the reader checks every value; the FeatureMatrix it builds and
        # an archive's blobs do not check them again
        checked = []
        require = io._require_finite
        monkeypatch.setattr(io, "_require_finite", lambda arr, *rest: (
            checked.append(arr.shape), require(arr, *rest))[1])
        m = io.FeatureMatrix(np.arange(6.0).reshape(2, 3))
        io.save_matrix(m, tmp_path / "m.fmat")
        io.save_archive(io.ModelArchive({}, {"A": m, "B": m}),
                        tmp_path / "m.arc")
        checked.clear()
        loaded = io.load_matrix(tmp_path / "m.fmat")
        assert checked == [(2, 3)]
        assert loaded.values.base is None and not loaded.values.flags.writeable
        checked.clear()
        io.load_archive(tmp_path / "m.arc")
        assert checked == [(2, 3), (2, 3)]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "m.fmat", b"")
        with pytest.raises(io.DataFormatError, match="empty"):
            io.load_matrix(path)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact(self, rows, cols, seed, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fmat")
        rng = np.random.default_rng(seed)
        m = io.FeatureMatrix(rng.standard_normal((rows, cols)) * 10.0**rng.integers(-8, 9))
        path = tmp_path / "m.fmat"
        io.save_matrix(m, path)
        first = path.read_bytes()
        loaded = io.load_matrix(path)
        np.testing.assert_array_equal(loaded.values, m.values)
        io.save_matrix(loaded, path)
        assert path.read_bytes() == first


def _fmat1(rows, cols, payload: bytes) -> bytes:
    return b"FMATRX01" + struct.pack("<QQ", rows, cols) + payload


def _fifo(path, data: bytes):
    """A named pipe at ``path`` that a daemon thread fills with ``data``."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,),
                              daemon=True)
    writer.start()
    return writer


class TestOpenMatrix:
    """``open_matrix`` checks a file as ``load_matrix`` does, word for word,
    and reads its rows a block at a time."""

    @pytest.mark.parametrize("data,message", [
        (b"", "empty file"),
        (b"FMATRX01" + b"\0" * 8, "truncated FMAT1 header"),
        (b"NOTMAGIC" + b"\0" * 24, "bad FMAT1 magic"),
        (_fmat1(0, 3, b""), "FMAT1 header declares 0x3 matrix"),
        (_fmat1(2, 2, b"\0" * 24),
         "FMAT1 payload truncated: header says 2x2 (32 bytes), 24 available"),
        (_fmat1(1, 1, b"\0" * 11), "3 trailing bytes after payload"),
    ], ids=["empty", "header", "magic", "dims", "truncated", "trailing"])
    def test_messages_name_the_file(self, data, message, tmp_path):
        path = write(tmp_path / "m.fmat", data)
        for opener in (io.open_matrix, io.load_matrix):
            with pytest.raises(io.DataFormatError) as exc:
                opener(path)
            assert str(exc.value) == f"{path}: {message}"

    def test_blocks_in_any_order(self, tmp_path):
        values = np.arange(35.0).reshape(7, 5)
        path = tmp_path / "m.fmat"
        io.save_matrix(io.FeatureMatrix(values), path)
        with io.open_matrix(path) as src:
            assert (src.rows, src.cols) == (7, 5)
            for lo, hi in [(4, 7), (0, 3), (2, 6), (0, 7), (6, 7)]:
                block = src.block(lo, hi)
                np.testing.assert_array_equal(block, values[lo:hi])
                assert block.base is None and not block.flags.writeable
        assert np.shares_memory(io.FeatureMatrix(block).values, block)

    def test_non_finite_counted_over_the_file(self, tmp_path):
        values = np.zeros((6, 4))
        values[4, 2] = np.nan
        path = write(tmp_path / "m.fmat", _fmat1(6, 4, values.tobytes()))
        with io.open_matrix(path) as src:
            src.block(0, 4)
            with pytest.raises(io.DataFormatError) as exc:
                src.block(3, 6)
        assert str(exc.value) == (f"{path}: non-finite value at flat index "
                                  "18 (row 4, col 2)")

    def test_short_read_names_the_file(self, tmp_path):
        # the file shrinks after it was opened and checked; 1 MB, so that
        # the rows read are past what the header read buffered
        path = tmp_path / "m.fmat"
        io.save_matrix(io.FeatureMatrix(np.ones((2**15, 4))), path)
        with io.open_matrix(path) as src:
            os.truncate(path, 24 + 2**19 + 4)
            with pytest.raises(io.DataFormatError) as exc:
                src.block(2**14 - 1, 2**15)
        assert str(exc.value) == (f"{path}: FMAT1 payload truncated: header "
                                  f"says 32768x4 ({2**20} bytes), "
                                  f"{2**19 + 4} available")

    def test_pipe_loads_once(self, tmp_path):
        values = np.arange(6.0).reshape(3, 2)
        path = tmp_path / "m.fifo"
        writer = _fifo(path, _fmat1(3, 2, values.tobytes()))
        np.testing.assert_array_equal(io.load_matrix(path).values, values)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_pipe_blocks_in_any_order(self, tmp_path):
        # a pipe has no size to check, so it is read whole on open
        values = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "m.fifo"
        writer = _fifo(path, _fmat1(4, 3, values.tobytes()))
        with io.open_matrix(path) as src:
            writer.join(timeout=10)
            assert not writer.is_alive()
            for lo, hi in [(2, 4), (0, 4), (1, 2)]:
                np.testing.assert_array_equal(src.block(lo, hi),
                                              values[lo:hi])

    @pytest.mark.parametrize("data,message", [
        (_fmat1(3, 2, b"\0" * 40), "FMAT1 payload truncated: header says "
                                   "3x2 (48 bytes), 40 available"),
        (_fmat1(10**12, 3, b"\0" * 48), "FMAT1 payload truncated: header "
         "says 1000000000000x3 (24000000000000 bytes), 48 available"),
        (_fmat1(3, 2, b"\0" * 53), "5 trailing bytes after payload"),
    ], ids=["truncated", "overstated", "trailing"])
    def test_pipe_size_checked(self, data, message, tmp_path):
        path = tmp_path / "m.fifo"
        writer = _fifo(path, data)
        with pytest.raises(io.DataFormatError) as exc:
            io.open_matrix(path)
        assert str(exc.value) == f"{path}: {message}"
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestCreateMatrix:
    """``create_matrix`` writes an FMAT1 file a block of rows at a time, and
    a write that fails leaves no file."""

    def test_blocks_equal_one_record(self, tmp_path):
        values = np.arange(35.0).reshape(7, 5)
        path = tmp_path / "m.fmat"
        with io.create_matrix(path, 7, 5) as out:
            for lo, hi in [(0, 3), (3, 3), (3, 7)]:
                out.write(values[lo:hi])
        assert path.read_bytes() == matrix_to_bytes(io.FeatureMatrix(values))

    @pytest.mark.parametrize("blocks,message", [
        ([(2, 5)], "m.fmat: 2 of 3 rows written"),
        ([(2, 5), (2, 5)], r"a \(2, 5\) block does not fit a 3x5 matrix "
                           r"after 2 rows"),
        ([(3, 4)], r"a \(3, 4\) block does not fit a 3x5 matrix after 0"),
    ], ids=["short", "long", "width"])
    def test_wrong_blocks_leave_no_file(self, blocks, message, tmp_path):
        path = tmp_path / "m.fmat"
        with pytest.raises(ValueError, match=message):
            with io.create_matrix(path, 3, 5) as out:
                for shape in blocks:
                    out.write(np.zeros(shape))
        assert not path.exists()

    def test_failing_body_leaves_no_file(self, tmp_path):
        path = tmp_path / "m.fmat"
        with pytest.raises(KeyboardInterrupt):
            with io.create_matrix(path, 3, 5) as out:
                out.write(np.zeros((1, 5)))
                raise KeyboardInterrupt
        assert not path.exists()

    def test_a_pipe_is_not_removed(self, tmp_path):
        path = tmp_path / "m.fifo"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(
            path.read_bytes()), daemon=True)
        reader.start()
        with pytest.raises(ValueError, match="1 of 3 rows written"):
            with io.create_matrix(path, 3, 5) as out:
                out.write(np.ones((1, 5)))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert path.exists()
        assert got == [io.FMAT1_MAGIC + struct.pack("<QQ", 3, 5)
                       + np.ones(5).tobytes()]


class TestEmbeddingTable:
    def test_parse(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        table = io.load_embedding_table(path)
        assert table.vocab_size == 2 and table.dim == 3
        np.testing.assert_array_equal(table.vector("a"), [1, 0, 0])
        np.testing.assert_array_equal(table.vector("b"), [0, 1, 0])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3 3\na 1 0 0\nb 0 1 0\n")
        with pytest.raises(io.DataFormatError, match="declares 3"):
            io.load_embedding_table(path)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(io.DataFormatError, match="expected token"):
            io.load_embedding_table(path)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 1\na 1\na 2\n")
        with pytest.raises(io.DataFormatError, match="duplicate"):
            io.load_embedding_table(path)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        table = io.EmbeddingTable(
            ("alpha", "beta", "gamma"),
            rng.standard_normal((3, 4)) * np.pi,
        )
        path = tmp_path / "w.txt"
        save_embedding_table(table, path)
        loaded = io.load_embedding_table(path)
        assert loaded.tokens == table.tokens
        np.testing.assert_array_equal(loaded.vectors, table.vectors)

    @pytest.mark.parametrize("data, message", [
        (b"2 3\na 1 0 0\nb 0 1 0\nc 0 0 1\n",
         "w.txt:4: more entries than header declares"),
        (b"3 3\na 1 0 0\nb 0 1 0\n",
         "w.txt:4: header declares 3 entries, found 2"),
        (b"2 3\na 1 0 0\nb 0 1\n",
         "w.txt:3: expected token + 3 values, got 3 fields"),
        (b"2 3\na 1 0 0\n\n", "w.txt:3: expected token + 3 values, got 0 fields"),
        (b"2 1\na 1\na 2\n", "w.txt:3: duplicate token 'a' (first on line 2)"),
        (b"2 3\na 1 0 0\nb 0 x 0\n", "w.txt:3: value 2 is not a number: 'x'"),
        (b"1 2\na 1_0 2\n", "w.txt:2: value 1 is not a number: '1_0'"),
        (b"1 2\na 1 2\rb 3 4\n", "w.txt:2: expected token + 2 values, got 6 fields"),
        (b"1 2\na 1\r2\n", "w.txt:2: "),
        (b"x 2\na 1 2\n", "w.txt:1: non-integer header"),
        (b"", "w.txt:1: header must be"),
        (b"1 2\na 1 \xff\n", "w.txt:2: not UTF-8"),
    ])
    def test_errors_name_the_line(self, tmp_path, data, message):
        path = write(tmp_path / "w.txt", data)
        with pytest.raises(io.DataFormatError) as info:
            io.load_embedding_table(path)
        assert message in str(info.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "w.txt"
        path.write_text(f"2 3\na 1 0 0\nb 0 {bad} 0\n")
        with pytest.raises(io.DataFormatError,
                           match=r"w\.txt:3: value 2 is not finite"):
            io.load_embedding_table(path)

    def test_error_line_past_the_first_chunk(self, tmp_path):
        rows = [f"w{i} {i} 0.5" for i in range(3000)]
        rows[2500] = "w2500 1 nan"
        path = tmp_path / "w.txt"
        path.write_text("3000 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(io.DataFormatError, match=r"w\.txt:2502: "):
            io.load_embedding_table(path)
        rows[2500] = "w2500 1"
        path.write_text("3000 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(io.DataFormatError, match=r"w\.txt:2502: "):
            io.load_embedding_table(path)

    def test_several_chunks_equal_float(self, tmp_path):
        rng = np.random.default_rng(6)
        table = io.EmbeddingTable(tuple(f"w{i}" for i in range(2500)),
                                  rng.standard_normal((2500, 3)))
        path = tmp_path / "w.txt"
        save_embedding_table(table, path)
        tokens, values = table_values_float(path.read_text())
        loaded = io.load_embedding_table(path)
        assert list(loaded.tokens) == tokens
        assert loaded.vectors.tobytes() == values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 30), cols=st.integers(1, 6),
           scale=st.sampled_from((1e-310, 1e-5, 1.0, 1e300)),
           seed=st.integers(0, 2**32 - 1))
    def test_saved_table_round_trips_bitwise(self, rows, cols, scale, seed,
                                             tmp_path_factory):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((rows, cols)) * scale
        values[rng.random((rows, cols)) < 0.1] = -0.0
        table = io.EmbeddingTable(tuple(f"t{i}" for i in range(rows)), values)
        path = tmp_path_factory.mktemp("table") / "w.txt"
        save_embedding_table(table, path)
        loaded = io.load_embedding_table(path)
        _, oracle = table_values_float(path.read_text())
        assert loaded.tokens == table.tokens
        assert loaded.vectors.tobytes() == values.tobytes()
        assert loaded.vectors.tobytes() == oracle.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 30), cols=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_four_decimal_text_equals_float(self, rows, cols, seed,
                                            tmp_path_factory):
        # the shape of a published word2vec text file
        rng = np.random.default_rng(seed)
        steps = rng.integers(-40000, 40001, size=(rows, cols))
        text = f"{rows} {cols}\n" + "".join(
            f"w{i} " + " ".join(f"{k / 1e4:.4f}" for k in row) + "\n"
            for i, row in enumerate(steps))
        path = tmp_path_factory.mktemp("table") / "w.txt"
        path.write_text(text)
        _, oracle = table_values_float(text)
        assert io.load_embedding_table(path).vectors.tobytes() == \
            oracle.tobytes()

    VALID = (b"4 3\nred 0.1234 -1e-3 5\ngreen -0.5000 2.25 0\n"
             b"blue 1.5e2 -0 0.0001\ndog 3 -4 .5\n")

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(VALID))
    def test_mutation_loads_or_names_the_line(self, data, tmp_path_factory):
        path = write(tmp_path_factory.mktemp("table") / "w.txt", data)
        try:
            io.load_embedding_table(path)
        except io.DataFormatError as exc:
            assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), exc


def keep_rows(rows=(), tokens=()):
    """A ``keep`` for :func:`io.load_embedding_table`: these rows and the
    rows of these tokens."""
    return lambda count: lambda row, token: row in rows or token in tokens


#: The ASCII whitespace ``str.split`` splits on: bytes 9-13 and 28-32.
BLANKS = "".join(map(chr, [*range(9, 14), *range(28, 33)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(
    [*BLANKS, "   ", "a", "-1.5", "\x85", "\xa0", "\u3000", "\u00e9"]),
    max_size=40).map("".join), max_size=70))
def test_field_counts_are_split_counts(texts):
    # every ASCII blank, runs of spaces, leading and trailing blanks, and
    # texts with non-ASCII whitespace, which str.split counts itself
    assert io._field_counts(texts) == [len(text.split()) for text in texts]


class TestKeptRows:
    """Only kept rows are parsed; every line is still checked."""

    TABLE = "".join(f"w{i} {i} {i}.5\n" for i in range(8))

    def table(self, tmp_path, lines=None):
        rows = self.TABLE.splitlines()
        for i, line in (lines or {}).items():
            rows[i] = line
        return write(tmp_path / "w.txt",
                     ("8 2\n" + "\n".join(rows) + "\n").encode())

    def test_kept_rows_in_file_order(self, tmp_path):
        counts = []

        def keep(count):
            counts.append(count)
            return lambda row, token: row in (5, 1) or token == "w6"

        table = io.load_embedding_table(self.table(tmp_path), keep)
        assert counts == [8]
        assert table.tokens == ("w1", "w5", "w6")
        np.testing.assert_array_equal(table.vectors,
                                      [[1, 1.5], [5, 5.5], [6, 6.5]])
        assert table.vectors.base is None and not table.vectors.flags.writeable

    def test_keeping_every_row_is_the_default(self, tmp_path):
        path = self.table(tmp_path)
        full = io.load_embedding_table(path)
        kept = io.load_embedding_table(path, keep_rows(range(8)))
        assert kept.tokens == full.tokens
        assert kept.vectors.tobytes() == full.vectors.tobytes()

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_kept_rows_across_chunks(self, window, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_TABLE_WINDOW_LINES", window)
        path = self.table(tmp_path)
        full = io.load_embedding_table(path)
        kept = io.load_embedding_table(path, keep_rows((0, 3, 4, 7)))
        assert kept.tokens == ("w0", "w3", "w4", "w7")
        assert kept.vectors.tobytes() == full.vectors[[0, 3, 4, 7]].tobytes()

    @pytest.mark.parametrize("value", ["x", "nan", "1_0", "1e999"])
    def test_unkept_values_are_not_parsed(self, value, tmp_path):
        path = self.table(tmp_path, {4: f"w4 {value} 1"})
        table = io.load_embedding_table(path, keep_rows((0, 7)))
        np.testing.assert_array_equal(table.vectors, [[0, 0.5], [7, 7.5]])

    @pytest.mark.parametrize("value, message", [
        ("x", "value 1 is not a number: 'x'"),
        ("nan", "value 1 is not finite: nan"),
    ])
    def test_kept_value_names_its_line(self, value, message, tmp_path):
        # kept lines 2, 6 and 9 are not consecutive: the bad one is the
        # third kept row of the window, on line 9
        path = self.table(tmp_path, {7: f"w7 {value} 1"})
        with pytest.raises(io.DataFormatError) as info:
            io.load_embedding_table(path, keep_rows((0, 4, 7)))
        assert str(info.value) == f"{path}:9: {message}"

    @pytest.mark.parametrize("line, message", [
        ("w4 1", "6: expected token + 2 values, got 2 fields"),
        ("w4 1 2 3", "6: expected token + 2 values, got 4 fields"),
        ("w4", "6: expected token + 2 values, got 1 fields"),
        ("w1 1 2", "6: duplicate token 'w1' (first on line 3)"),
        ("w4 1 \udcff", "6: not UTF-8 (invalid start byte)"),
    ])
    def test_unkept_line_still_checked(self, line, message, tmp_path):
        path = self.table(tmp_path)
        data = path.read_bytes().replace(
            b"w4 4 4.5", line.encode("utf-8", "surrogateescape"))
        write(path, data)
        with pytest.raises(io.DataFormatError) as info:
            io.load_embedding_table(path, keep_rows((0,)))
        assert str(info.value) == f"{path}:{message}"

    @pytest.mark.parametrize("window", [1, 5, 64])
    @pytest.mark.parametrize("later", [
        b"w5 1", b"w1 5 5.5", b"w5 5 \xff", b"w5 x 5.5", b"w5 nan 5.5",
        b"w5"])
    def test_field_count_error_comes_first(self, window, later, tmp_path,
                                           monkeypatch):
        # unkept line 4's fields may be counted in the window of a later
        # line that holds an error of its own (line 7, kept): line 4's wins
        monkeypatch.setattr(io, "_TABLE_WINDOW_LINES", window)
        path = self.table(tmp_path, {2: "w2 2 2.5 9", 5: "LATER"})
        write(path, path.read_bytes().replace(b"LATER", later))
        with pytest.raises(io.DataFormatError) as info:
            io.load_embedding_table(path, keep_rows((0, 5)))
        assert str(info.value) == (
            f"{path}:4: expected token + 2 values, got 4 fields")

    @pytest.mark.parametrize("window", [1, 3, 64])
    def test_unkept_lines_counted_in_groups(self, window, tmp_path,
                                            monkeypatch):
        # blanks of every kind between the fields of unkept lines
        monkeypatch.setattr(io, "_TABLE_WINDOW_LINES", window)
        path = self.table(tmp_path, {
            1: "w1 \t1\x0b\x0c 1.5\x1c", 3: "w3\x1f3\x1d\x1e3.5  ",
            4: "w4 4\u30004.5", 6: "w6 6\x856.5\xa0"})
        table = io.load_embedding_table(path, keep_rows((0, 7)))
        assert table.tokens == ("w0", "w7")
        path = self.table(tmp_path, {6: "w6 6\x85 6.5\xa0 7"})
        with pytest.raises(io.DataFormatError, match=r":8: expected token "
                                                     r"\+ 2 values, got 4"):
            io.load_embedding_table(path, keep_rows((0, 7)))

    def test_header_counts_still_checked(self, tmp_path):
        path = write(tmp_path / "w.txt", b"2 1\na 1\nb 2\nc 3\n")
        with pytest.raises(io.DataFormatError,
                           match=r"w\.txt:4: more entries than header"):
            io.load_embedding_table(path, keep_rows((0,)))
        path = write(tmp_path / "w.txt", b"4 1\na 1\nb 2\n")
        with pytest.raises(io.DataFormatError,
                           match=r"w\.txt:4: header declares 4 entries, "
                                 r"found 2"):
            io.load_embedding_table(path, keep_rows((0,)))


#: Value fields of the tables below: numbers, then texts that are not
#: numbers or not finite; and the blanks between fields.
NUMBERS = ["0", "-1.5", "2.25e-3", ".5", "-0", "1e300", "7"]
NOT_VALUES = ["x", "1_0", "--1", "nan", "-inf", "1e999"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\u3000"]


@st.composite
def defective_tables(draw) -> bytes:
    """Table text whose lines may carry defects: a bad value, a field too
    many or too few, a blank or token-only line, a duplicate token, a byte
    that is not UTF-8; then maybe blank lines and a further entry past the
    header's count, and a cut at any byte."""
    rows, dim = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    lines = [[f"w{i}", *draw(st.lists(st.sampled_from(NUMBERS),
                                      min_size=dim, max_size=dim))]
             for i in range(rows)]
    for kind, i, j in draw(st.lists(st.tuples(
            st.sampled_from(["value", "more", "fewer", "blank", "token",
                             "duplicate"]),
            st.integers(0, rows - 1), st.integers(0, rows - 1)),
            max_size=3)):
        if kind == "value" and len(lines[i]) > 1:
            lines[i][1 + j % (len(lines[i]) - 1)] = draw(
                st.sampled_from(NOT_VALUES))
        elif kind == "more":
            lines[i].append("1")
        elif kind == "fewer":
            del lines[i][1:2]
        elif kind in ("blank", "token"):
            lines[i] = [] if kind == "blank" else lines[i][:1]
        elif kind == "duplicate" and lines[j]:
            lines[i][:1] = lines[j][:1]
    text = [draw(st.sampled_from(SEPARATORS)).join(f).encode()
            for f in lines]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=1)):
        at = draw(st.integers(0, len(text[i])))
        text[i] = text[i][:at] + b"\xff" + text[i][at:]
    data = f"{rows} {dim}\n".encode() + b"".join(t + b"\n" for t in text)
    data += draw(st.sampled_from([b"", b"\n", b" \n\n", b"\n\xff\n"]))
    data += draw(st.sampled_from([b"", b"extra 1\n"]))
    if draw(st.booleans()):
        data = data[:draw(st.integers(len(f"{rows} {dim}\n"), len(data)))]
    return data


#: Twelve lines of the form "w<i> <i> <i>.5".
TWELVE = "".join(f"w{i} {i} {i}.5\n" for i in range(12))


@settings(max_examples=200, deadline=None)
@given(data=defective_tables(),
       kept=st.none() | st.frozensets(st.integers(0, 40)),
       window=st.sampled_from([1, 2, 3, 32]))
# a kept bad value on line 3 and an unkept field count on line 11
@example(data=("12 2\n" + TWELVE).replace("w1 1", "w1 x").replace(
    "w9 9 9.5", "w9 1").encode(), kept=frozenset({1, 3}), window=32)
# a bad value on line 2, then a duplicate token, or the file's end
@example(data=("12 2\n" + TWELVE).replace("w0 0", "w0 x").replace(
    "w3 3", "w1 3").encode(), kept=None, window=32)
@example(data=("12 2\n" + TWELVE[:18]).replace("w0 0", "w0 x").encode(),
         kept=None, window=32)
# an entry, or a byte that is not UTF-8, after a blank past the count
@example(data=b"2 3\na 1 2 3\nb 1 2 3\n\nc 1 2 3\n", kept=None, window=32)
@example(data=b"2 3\na 1 2 3\nb 1 2 3\n\n\xff\n", kept=None, window=32)
def test_windows_equal_the_line_reader(data, kept, window, tmp_path_factory):
    # whatever the window and the kept rows, the table is the line reader's,
    # or the error is that of the first bad line in the file
    path = write(tmp_path_factory.mktemp("table") / "w.txt", data)
    keep = None if kept is None else keep_rows(kept)
    want = read_table_lines(data, keep)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_TABLE_WINDOW_LINES", window)
        if isinstance(want, str):
            with pytest.raises(io.DataFormatError) as info:
                io.load_embedding_table(path, keep)
            assert str(info.value) == f"{path}:{want}"
        else:
            table = io.load_embedding_table(path, keep)
            assert list(table.tokens) == want[0]
            assert table.vectors.tobytes() == want[1].tobytes()


class TestCorpus:
    @pytest.fixture
    def table(self):
        return io.EmbeddingTable(("a", "b"), np.eye(2))

    def test_basic(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text("a b\n")
        corpus = io.load_corpus(path, table)
        assert corpus.sentences == (("a", "b"),)

    def test_skip_drops_unknown(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text("a zzz\n")
        corpus = io.load_corpus(path, table, oov_policy="skip")
        assert corpus.sentences == (("a",),)

    def test_skip_empty_sentence_is_error(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text("zzz\n")
        with pytest.raises(io.DataFormatError, match="empty after"):
            io.load_corpus(path, table, oov_policy="skip")

    def test_error_policy(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text("a zzz\n")
        with pytest.raises(io.DataFormatError, match="zzz"):
            io.load_corpus(path, table, oov_policy="error")

    def test_tokenizer_lowercases_and_strips_punctuation(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text('A b... "a"!\n')
        corpus = io.load_corpus(path, table)
        assert corpus.sentences == (("a", "b", "a"),)

    @pytest.mark.parametrize("content,message", [
        (b"a\n\xffb\n", ":2: not UTF-8 (invalid start byte)"),
        (b"a\r\nb \xc3\n", ":2: not UTF-8"),
        (b"\n\n", ": no sentences"),
    ])
    def test_errors_name_the_file(self, tmp_path, table, content, message):
        path = write(tmp_path / "c.txt", content)
        with pytest.raises(io.DataFormatError, match=re.escape(
                f"{path}{message}")):
            io.load_corpus(path, table)

    def test_utf8_tokens_and_line_endings(self, tmp_path):
        table = io.EmbeddingTable(("café", "b"), np.eye(2))
        path = write(tmp_path / "c.txt", "Café b\r\nb\rcafé!".encode())
        assert io.load_corpus(path, table).sentences == (
            ("café", "b"), ("b",), ("café",))


class TestPairing:
    @pytest.mark.parametrize("content,message", [
        (b"0\n1\n99999999999999999999999\n",
         ":3: row index 99999999999999999999999 does not fit in 64 bits"),
        (b"0\n1\n9223372036854775808\n", ":3: row index"),
        (b"0\n\xff1\n", ":2: not UTF-8"),
        (b"0\r\n1\r\xc3\n", ":3: not UTF-8"),
        (b"0\n\n-x\n", ":3: expected an integer row index"),
    ])
    def test_errors_name_the_line(self, tmp_path, content, message):
        path = write(tmp_path / "p.txt", content)
        with pytest.raises(io.DataFormatError, match=re.escape(
                f"{path}{message}")):
            io.load_pairing(path)

    def test_line_endings_as_text_mode(self, tmp_path):
        path = write(tmp_path / "p.txt", b"3\r\n-9223372036854775808\r7")
        np.testing.assert_array_equal(io.load_pairing(path),
                                      [3, -2**63, 7])


class TestSplits:
    def test_round_trip(self, tmp_path):
        splits = {
            "train": np.array([0, 1, 2]),
            "val": np.array([3]),
            "test": np.array([4, 5]),
        }
        path = tmp_path / "s.tsv"
        io.save_split_file(splits, path)
        assert path.read_bytes() == (b"0\ttrain\n1\ttrain\n2\ttrain\n"
                                     b"3\tval\n4\ttest\n5\ttest\n")


class TestModelArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        archive = io.ModelArchive(
            manifest={"kind": "demo", "gamma_x": repr(0.1), "n": "7"},
            blobs={
                "U": io.FeatureMatrix(rng.standard_normal((4, 2))),
                "SIGMA": io.FeatureMatrix(rng.random((1, 2))),
            },
        )
        path = tmp_path / "m.arc"
        io.save_archive(archive, path)
        first = path.read_bytes()
        loaded = io.load_archive(path)
        assert loaded.manifest == archive.manifest
        for name in archive.blobs:
            np.testing.assert_array_equal(
                loaded.blobs[name].values, archive.blobs[name].values
            )
        io.save_archive(loaded, path)
        assert path.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.arc"
        path.write_bytes(b"NOT-ARCH" + b"\0" * 16)
        with pytest.raises(io.DataFormatError, match="archive"):
            io.load_archive(path)



def _archive_with(record: bytes) -> bytes:
    """An archive whose one blob, ``BAD``, is ``record``."""
    manifest = b"kind=test\n"
    return (io.ARCHIVE_MAGIC + struct.pack("<Q", len(manifest)) + manifest
            + struct.pack("<Q", 3) + b"BAD" + record)


class TestArchiveBlobs:
    """Archive blobs are read by the FMAT1 reader: a bad record's message
    is ``open_matrix``'s, word for word, after the blob's number."""

    @pytest.mark.parametrize("record,message", [
        (b"FMATRX01" + b"\0" * 8, "truncated FMAT1 header"),
        (b"NOTMAGIC" + b"\0" * 24, "bad FMAT1 magic"),
        (_fmat1(0, 3, b""), "FMAT1 header declares 0x3 matrix"),
        (_fmat1(2, 2, b"\0" * 24),
         "FMAT1 payload truncated: header says 2x2 (32 bytes), 24 available"),
        (_fmat1(10**12, 3, b"\0" * 48), "FMAT1 payload truncated: header "
         "says 1000000000000x3 (24000000000000 bytes), 48 available"),
    ], ids=["header", "magic", "dims", "truncated", "overstated"])
    def test_messages_are_the_readers(self, record, message, tmp_path):
        path = write(tmp_path / "m.arc", _archive_with(record))
        tracemalloc.start()
        try:
            with pytest.raises(io.DataFormatError) as exc:
                io.load_archive(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"{path}: blob 1: {message}"
        assert peak < 1e5  # nothing the header declares is allocated

    @pytest.fixture
    def archive(self):
        rng = np.random.default_rng(12)
        return io.ModelArchive(
            {"kind": "demo", "n": "3"},
            {"U": io.FeatureMatrix(rng.standard_normal((300, 40))),
             "SIGMA": io.FeatureMatrix(rng.random((1, 40)))})

    def test_pipe_loads_as_the_file(self, archive, tmp_path):
        io.save_archive(archive, tmp_path / "m.arc")
        from_file = io.load_archive(tmp_path / "m.arc")
        writer = _fifo(tmp_path / "m.fifo", (tmp_path / "m.arc").read_bytes())
        from_pipe = io.load_archive(tmp_path / "m.fifo")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert from_pipe.manifest == from_file.manifest == archive.manifest
        assert list(from_pipe.blobs) == list(from_file.blobs)
        for name, blob in from_file.blobs.items():
            np.testing.assert_array_equal(from_pipe.blobs[name].values,
                                          blob.values)
            assert from_pipe.blobs[name].values.base is None

    def test_truncated_pipe(self, archive, tmp_path):
        # the pipe ends 8 bytes into the second blob's payload
        io.save_archive(archive, tmp_path / "m.arc")
        data = (tmp_path / "m.arc").read_bytes()[:-(40 * 8 - 8)]
        path = tmp_path / "m.fifo"
        writer = _fifo(path, data)
        with pytest.raises(io.DataFormatError) as exc:
            io.load_archive(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert str(exc.value) == (f"{path}: blob 2: FMAT1 payload truncated: "
                                  "header says 1x40 (320 bytes), 8 available")


def _archive_bytes(archive, tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("arc") / "a.arc"
    io.save_archive(archive, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> (valid bytes, loader of a path), one per input file type."""
    rng = np.random.default_rng(3)
    x = io.FeatureMatrix(rng.standard_normal((12, 3)))
    y = io.FeatureMatrix(rng.standard_normal((12, 2)))
    problem = cca.prepare(x, y)
    maps = [hkse.build_map("rbf", "rbf", 1.0, 0.5, 3, 2, 2, seed=0),
            hkse.build_map("lin", "rbf", 1.0, 0.5, 0, 2, 2, seed=0, stream=1)]
    table = io.EmbeddingTable(("red", "dog", "runs"), np.eye(3))
    files = {
        "fmat1": (matrix_to_bytes(x), io.load_matrix),
        "map": (_archive_bytes(hkse.maps_to_archive(maps), tmp_path_factory),
                lambda p: cli._read_archive(p, hkse.maps_from_archive)),
        "corpus": (b"Red dog runs.\n\ndog RUNS\nred\n",
                   lambda p: io.load_corpus(p, table)),
        "pairing": (b"0\n1\n-2\n30\n", io.load_pairing),
        "config": (b"similarity=l2\n# a comment\nblocks = 2\n",
                   lambda p: cli._apply_config(["eval", "--config", str(p)])),
    }
    for spec in (cca.RegularizationSpec.tikhonov(0.5, 2.0),
                 cca.RegularizationSpec.tsvd(2, 1)):
        model = cca.solve(problem, spec)
        files[f"model_{spec.kind}"] = (
            _archive_bytes(cca.model_to_archive(model), tmp_path_factory),
            lambda p: cli._read_archive(p, cca.model_from_archive))
    return files


@pytest.mark.parametrize("name", ["fmat1", "model_tikhonov", "model_tsvd",
                                  "map", "corpus", "pairing", "config"])
def test_mutation_loads_or_names_the_file(name, valid_files,
                                          tmp_path_factory):
    """Any one-byte damage to a valid input file either still loads or is a
    DataFormatError whose message starts with the file's path."""
    valid, load = valid_files[name]
    path = tmp_path_factory.mktemp("mutated") / name
    load(write(path, valid))

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(valid))
    def check(data):
        write(path, data)
        try:
            load(path)
        except io.DataFormatError as exc:
            assert re.match(re.escape(str(path)) + r"(:\d+)?: ", str(exc)), \
                exc

    check()
