"""Format round trips and validation errors for every on-disk artifact."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccax import io
from oracles import table_values_float


def write(path, data: bytes):
    path.write_bytes(data)
    return path


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

    def test_ids_checked(self):
        io.FeatureMatrix([[1.0], [2.0]], ids=("a", "b"))
        with pytest.raises(io.DataFormatError):
            io.FeatureMatrix([[1.0], [2.0]], ids=("a",))
        with pytest.raises(io.DataFormatError, match="unique"):
            io.FeatureMatrix([[1.0], [2.0]], ids=("a", "a"))

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


class TestCsv:
    def test_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4\n")
        m = io.load_matrix(path, format="csv")
        np.testing.assert_array_equal(m.values, [[1, 2], [3, 4]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(io.DataFormatError, match="columns"):
            io.load_matrix(path, format="csv")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(io.DataFormatError, match="empty"):
            io.load_matrix(path, format="csv")


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
        io.save_embedding_table(table, path)
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
        io.save_embedding_table(table, path)
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
        io.save_embedding_table(table, path)
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
    @given(kind=st.sampled_from(("truncate", "replace", "insert", "delete")),
           pos=st.integers(0, len(VALID)), byte=st.integers(0, 255))
    def test_mutation_loads_or_names_the_line(self, kind, pos, byte,
                                              tmp_path_factory):
        data = self.VALID
        if kind == "truncate":
            data = data[:pos]
        elif kind == "replace":
            data = data[:pos] + bytes([byte]) + data[pos + 1:]
        elif kind == "insert":
            data = data[:pos] + bytes([byte]) + data[pos:]
        else:
            data = data[:pos] + data[pos + 1:]
        path = write(tmp_path_factory.mktemp("table") / "w.txt", data)
        try:
            io.load_embedding_table(path)
        except io.DataFormatError as exc:
            assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), exc


class TestCorpus:
    @pytest.fixture
    def table(self):
        return io.EmbeddingTable(("a", "b"), np.eye(2))

    def test_basic(self, tmp_path, table):
        path = tmp_path / "c.txt"
        path.write_text("a b\n")
        corpus = io.load_corpus(path, table)
        assert corpus.sentences == (("a", "b"),)
        np.testing.assert_array_equal(corpus.pair_index, [0])

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

    def test_pairing_file(self, tmp_path, table):
        corpus_path = tmp_path / "c.txt"
        corpus_path.write_text("a\nb\n")
        pairing_path = tmp_path / "p.txt"
        pairing_path.write_text("1\n0\n")
        corpus = io.load_corpus(corpus_path, table, pairing_path=pairing_path)
        np.testing.assert_array_equal(corpus.pair_index, [1, 0])

    def test_pair_index_range_checked(self, tmp_path, table):
        corpus_path = tmp_path / "c.txt"
        corpus_path.write_text("a\n")
        pairing_path = tmp_path / "p.txt"
        pairing_path.write_text("5\n")
        with pytest.raises(io.DataFormatError, match="out of range"):
            io.load_corpus(corpus_path, table, pairing_path=pairing_path,
                           n_items=3)


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
        loaded = io.load_split_file(path)
        for name in splits:
            np.testing.assert_array_equal(loaded[name], splits[name])

    def test_bad_label(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("0\tbogus\n")
        with pytest.raises(io.DataFormatError):
            io.load_split_file(path)


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
