"""The embed pipeline holds one copy of each array and never its whole
output, the bandwidth median holds half its Gram, an FMAT1 load holds its
matrix once, a fit never holds its training pair, repeated image rows
shrink prepare's buffers, synth holds one block of rows, and eval holds
blocks of caption rows by images and centers its views a block of rows at
a time, read from their files: the projections are the only whole views it
holds.

Peaks are measured with ``tracemalloc``, which sees numpy's data
allocations, on shapes that run in well under a second.  Each bound sits
between the one-copy peak and the peak with one more copy of the array.
"""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from ccax import cca, cli, hkse, io, retrieval
from oracles import matrix_to_bytes, save_embedding_table


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, over what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_bandwidth_median_inside_its_gram():
    # the whole 1000-word table is the sample, so no row is gathered; the
    # upper-triangle distances are packed into n(n-1)/2 doubles, and one
    # row block's Gram is formed at a time
    n = 1000
    table = io.EmbeddingTable(tuple(f"w{i}" for i in range(n)),
                              np.random.default_rng(0).standard_normal((n, 50)))
    peak = traced_peak(lambda: hkse.bandwidth_heuristic(table, n))
    assert peak < 1.15 * n * n * 8


def test_bandwidth_median_holds_half_its_gram():
    # the packed triangle (0.5 n^2 doubles) and one 192-row block of the
    # Gram (0.19 n^2 at n = 1000); the whole n x n Gram alone is 1.0 n^2
    n = 1000
    table = io.EmbeddingTable(tuple(f"w{i}" for i in range(n)),
                              np.random.default_rng(0).standard_normal((n, 50)))
    peak = traced_peak(lambda: hkse.bandwidth_heuristic(table, n))
    assert peak < 0.75 * n * n * 8


def test_embed_never_holds_its_output(tmp_path):
    # 2000 sentences into 1024 dims: a 16 MB output, 340x the table.  The
    # output is written 64 rows at a time, so the op holds the table, the
    # maps, the word features and the corpus, but never the output
    rng = np.random.default_rng(3)
    vocab, dim, m, m_prime, sentences = 300, 20, 64, 1024, 2000
    table = io.EmbeddingTable(tuple(f"w{i}" for i in range(vocab)),
                              rng.standard_normal((vocab, dim)))
    save_embedding_table(table, tmp_path / "v.txt")
    with open(tmp_path / "c.txt", "w", encoding="utf-8") as fh:
        for _ in range(sentences):
            words = rng.integers(vocab, size=int(rng.integers(3, 9)))
            fh.write(" ".join(f"w{i}" for i in words) + "\n")
    out = tmp_path / "o.fmat"
    argv = ["embed", "--corpus", str(tmp_path / "c.txt"),
            "--vectors", str(tmp_path / "v.txt"), "--variant", "rbf,rbf",
            "--m", str(m), "--mprime", str(m_prime), "--gamma", "0.5",
            "--out", str(out)]
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    assert out.stat().st_size == 24 + sentences * m_prime * 8
    output = sentences * m_prime * 8
    assert output >= 4 * table.vectors.nbytes
    maps = (m * dim + m + m_prime * m + m_prime) * 8
    words = vocab * m * 8
    assert peak < table.vectors.nbytes + maps + words + output / 4


def test_embed_holds_only_the_rows_it_uses(tmp_path):
    # a 20,000 x 100 table (16 MB parsed) and a corpus of 50 of its words:
    # with a fixed gamma only those 50 rows are parsed, and the op holds
    # their values and an index of every token, not the table
    rng = np.random.default_rng(4)
    vocab, dim = 20_000, 100
    digits = rng.integers(0, 10, size=(vocab, dim)).astype(str)
    with open(tmp_path / "v.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{vocab} {dim}\n")
        for i, row in enumerate(digits):
            fh.write(f"w{i} " + " ".join(row) + "\n")
    words = rng.choice(vocab, size=50, replace=False)
    (tmp_path / "c.txt").write_text("".join(
        " ".join(f"w{i}" for i in rng.choice(words, size=6)) + "\n"
        for _ in range(40)))
    argv = ["embed", "--corpus", str(tmp_path / "c.txt"),
            "--vectors", str(tmp_path / "v.txt"), "--variant", "rbf,rbf",
            "--m", "64", "--mprime", "64", "--gamma", "0.01",
            "--out", str(tmp_path / "o.fmat")]
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    assert peak < vocab * dim * 8 / 4


def test_table_parsed_in_place(tmp_path, monkeypatch):
    # 8 windows of 300-dim rows at three decimals: the parsed table, one
    # window's text and block, and the tokens fit in table + window + 25%
    monkeypatch.setattr(io, "_TABLE_WINDOW_LINES", 128)
    count, dim = 8 * io._TABLE_WINDOW_LINES, 300
    steps = np.random.default_rng(1).integers(-3000, 3001, size=(count, dim))
    path = tmp_path / "w.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{count} {dim}\n")
        for i, row in enumerate(steps):
            fh.write(f"w{i} " + " ".join(f"{k / 1e3:.3f}" for k in row)
                     + "\n")
    loaded = []
    peak = traced_peak(lambda: loaded.append(io.load_embedding_table(path)))
    vectors = loaded[0].vectors
    np.testing.assert_array_equal(vectors, steps / 1e3)
    assert vectors.base is None and not vectors.flags.writeable
    assert peak < 1.25 * (count + io._TABLE_WINDOW_LINES) * dim * 8


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_overstated_count_allocates_what_the_file_holds(tmp_path, source):
    # a file or a pipe gets one window of rows at a time, whatever the
    # header's count
    path = tmp_path / "w.txt"
    text = f"{10**12} 3\na 1 0 0\nb 0 1 0\n"
    if source == "file":
        path.write_text(text)
    else:
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, daemon=True,
                                  args=(text,))
        writer.start()

    def load():
        with pytest.raises(io.DataFormatError,
                           match=r"w\.txt:4: header declares 1000000000000 "
                                 r"entries, found 2"):
            io.load_embedding_table(path)

    assert traced_peak(load) < 1e5
    if source == "pipe":
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_table_from_a_pipe(tmp_path, monkeypatch):
    # a pipe's rows, as a regular file's, are allocated as they arrive: one
    # line per window grows the table from 1 row to 2, then to the count
    monkeypatch.setattr(io, "_TABLE_WINDOW_LINES", 1)
    text = "3 3\na 1 0 0\nb 0 1 0.5\nc 0 0 2\n"
    (tmp_path / "w.txt").write_text(text)
    fifo = tmp_path / "w.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, daemon=True,
                              args=(text,))
    writer.start()
    for path in (fifo, tmp_path / "w.txt"):
        table = io.load_embedding_table(path)
        np.testing.assert_array_equal(table.vectors,
                                      [[1, 0, 0], [0, 1, 0.5], [0, 0, 2]])
        assert (table.vectors.base is None
                and not table.vectors.flags.writeable)
    writer.join(timeout=10)
    assert not writer.is_alive()


def _archive_bytes(archive: io.ModelArchive) -> bytes:
    manifest = "".join(f"{k}={v}\n" for k, v in archive.manifest.items())
    out = io.ARCHIVE_MAGIC + struct.pack("<Q", len(manifest)) + \
        manifest.encode()
    for name, blob in archive.blobs.items():
        out += struct.pack("<Q", len(name)) + name.encode()
        out += matrix_to_bytes(blob)
    return out


class TestWritesFromTheArrayBuffer:
    @pytest.fixture(scope="class")
    def matrix(self):
        # 10 MB
        return io.FeatureMatrix(
            np.random.default_rng(2).standard_normal((1250, 1000)))

    def test_save_matrix(self, matrix, tmp_path):
        path = tmp_path / "m.fmat"
        assert traced_peak(lambda: io.save_matrix(matrix, path)) < 1e6
        assert path.read_bytes() == matrix_to_bytes(matrix)

    def test_save_archive(self, matrix, tmp_path):
        archive = io.ModelArchive(
            {"kind": "test", "n": "2"},
            {"BIG": matrix, "ROW": io.FeatureMatrix(np.arange(5.0)[None, :])})
        path = tmp_path / "m.arc"
        assert traced_peak(lambda: io.save_archive(archive, path)) < 1e6
        assert path.read_bytes() == _archive_bytes(archive)


def test_load_matrix_holds_the_file_once(tmp_path):
    # the values are read into the array FeatureMatrix keeps; the finiteness
    # checks add one bool per value
    values = np.random.default_rng(5).standard_normal((2000, 500))  # 8 MB
    path = tmp_path / "m.fmat"
    io.save_matrix(io.FeatureMatrix(values), path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(io.load_matrix(path)))
    np.testing.assert_array_equal(loaded[0].values, values)
    assert loaded[0].values.base is None
    assert peak < 1.2 * values.nbytes



def test_load_archive_holds_each_blob_once(tmp_path):
    # each blob is read into the array FeatureMatrix keeps; the archive's
    # whole file is never held
    values = np.random.default_rng(7).standard_normal((2000, 500))  # 8 MB
    archive = io.ModelArchive({"kind": "test"}, {
        "BIG": io.FeatureMatrix(values),
        "ROW": io.FeatureMatrix(np.arange(5.0)[None, :])})
    path = tmp_path / "m.arc"
    io.save_archive(archive, path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(io.load_archive(path)))
    big = loaded[0].blobs["BIG"].values
    np.testing.assert_array_equal(big, values)
    assert big.base is None
    assert peak < 1.2 * values.nbytes


def test_fit_never_holds_the_pair(tmp_path, monkeypatch):
    # 64-row blocks of a 20000-row pair: a fit holds the (32 + 64) x 32 QR
    # buffer and one block per view, far below one copy of train_x
    monkeypatch.setattr(cca, "_CHUNK_ROWS", 64)
    rng = np.random.default_rng(6)
    train_x = rng.standard_normal((20000, 24))  # 3.8 MB
    io.save_matrix(io.FeatureMatrix(train_x), tmp_path / "x.fmat")
    io.save_matrix(io.FeatureMatrix(train_x[:, :8] + rng.standard_normal(
        (20000, 8))), tmp_path / "y.fmat")
    argv = ["fit", "--x", str(tmp_path / "x.fmat"),
            "--y", str(tmp_path / "y.fmat"), "--out", str(tmp_path / "m.arc")]
    assert traced_peak(lambda: cli.main(argv)) < 0.25 * train_x.nbytes
    assert (tmp_path / "m.arc").exists()


def test_prepare_factors_in_place(tmp_path, monkeypatch):
    # 400-row blocks of a 2000 x (100 + 100) pair: prepare holds its
    # (200 + 400) x 200 buffer and one block per view; a copy of the stack
    # to factor and a fresh R would add 1.33 buffers
    monkeypatch.setattr(cca, "_CHUNK_ROWS", 400)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((2000, 200)) + 5.0
    io.save_matrix(io.FeatureMatrix(values[:, :100]), tmp_path / "x.fmat")
    io.save_matrix(io.FeatureMatrix(values[:, 100:]), tmp_path / "y.fmat")
    buffer, blocks = (200 + 400) * 200 * 8, 400 * 200 * 8
    with io.open_matrix(tmp_path / "x.fmat") as x, \
            io.open_matrix(tmp_path / "y.fmat") as y:
        peak = traced_peak(lambda: cca.prepare(x, y))
    assert peak < 1.25 * (buffer + blocks)


def test_prepare_folds_repeated_rows(tmp_path, monkeypatch):
    # 400 images of 128 values, each beside 5 captions of 64, in one block
    # of 2000 rows: prepare holds the (192 + 400) x 192 buffer of one row
    # per image, the 64 x (64 + 2000) buffer of the captions' rows about
    # their image's mean, and one block per view.  Factored row by row,
    # the pair would need a (192 + 2000) x 192 buffer
    monkeypatch.setattr(cca, "_CHUNK_ROWS", 2000)
    rng = np.random.default_rng(8)
    x = np.repeat(rng.standard_normal((400, 128)) + 5.0, 5, axis=0)
    io.save_matrix(io.FeatureMatrix(x), tmp_path / "x.fmat")
    io.save_matrix(io.FeatureMatrix(x[:, :64] + rng.standard_normal(
        (2000, 64))), tmp_path / "y.fmat")
    joint, within = (192 + 400) * 192 * 8, 64 * (64 + 2000) * 8
    unfolded, blocks = (192 + 2000) * 192 * 8, 2000 * 192 * 8
    with io.open_matrix(tmp_path / "x.fmat") as fx, \
            io.open_matrix(tmp_path / "y.fmat") as fy:
        peak = traced_peak(lambda: cca.prepare(fx, fy))
    assert peak < joint + within + blocks < 1.25 * (unfolded + blocks)


def test_synth_holds_one_block(tmp_path):
    # 3200 images of 512 values with 5 captions of 256 each: synth holds z,
    # the pairing and one block of at most 2 BLOCK_ROWS - 1 rows, besides
    # its training rows repeated once per caption and a product; the files
    # it writes are 95 MB, the whole views alone 46 MB
    n_images, captions, m_x = 3200, 5, 512
    argv = ["synth", "--out-dir", str(tmp_path), "--n-train", "3000",
            "--n-val", "100", "--n-test", "100", "--captions", str(captions),
            "--mx", str(m_x), "--my", "256", "--latent", "100"]
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    held = n_images * (100 + captions) * 8
    block = (2 * retrieval.BLOCK_ROWS - 1) * m_x * 8
    bound = held + (captions + 3) * block
    written = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert peak < bound < written / 6


def _eval_peak(rng, captions_of):
    """Eval's traced peak on 200 images x 4000 captions of a model fit on
    80 pairs, and the bound it keeps: G is formed a block of caption rows
    at a time, BLOCK_ROWS captions by the 200 images, into one buffer
    under 2 BLOCK_ROWS rows, and both tasks are scored from it through one
    score buffer and one mask, beside the projected views and a block of
    centered rows at a time.  One block of BLOCK_ROWS images by the 4000
    captions would alone be 20 such blocks.  ``captions_of(rng, images,
    pair_index)`` makes the caption view."""
    n_images, n_captions, m_x, m_y = 200, 4000, 12, 10
    train = rng.standard_normal((80, m_x))
    model = cca.solve(cca.prepare(
        io.FeatureMatrix(train),
        io.FeatureMatrix(captions_of(rng, train, np.arange(80)))),
        cca.RegularizationSpec.none())
    pair_index = rng.permutation(np.repeat(np.arange(n_images),
                                           n_captions // n_images))
    images = rng.standard_normal((n_images, m_x))
    views = (io.FeatureMatrix(images),
             io.FeatureMatrix(captions_of(rng, images, pair_index)))
    reports = []
    peak = traced_peak(lambda: reports.extend(
        retrieval.evaluate_bidirectional(model, *views, pair_index)))
    block = retrieval.BLOCK_ROWS * n_images * 8
    held = (n_images * m_x + n_captions * m_y) * 8
    return peak, 8 * block + 2 * held, reports


def test_eval_holds_caption_blocks_by_images():
    # a random model: ranks near half the items, so each block's mask is
    # dense and is counted along its axes
    peak, bound, reports = _eval_peak(
        np.random.default_rng(8),
        lambda rng, images, pair_index: rng.standard_normal(
            (len(pair_index), 10)))
    assert reports[0].median_rank > 50
    assert peak < bound


def test_eval_holds_caption_blocks_on_the_sparse_route():
    # captions near their image's first ten features: nearly every rank is
    # 1, so each block's mask is sparse and its positions are listed
    peak, bound, reports = _eval_peak(
        np.random.default_rng(8),
        lambda rng, images, pair_index: images[pair_index, :10]
        + 0.05 * rng.standard_normal((len(pair_index), 10)))
    assert all(r.recalls[10] == 100.0 for r in reports)
    assert peak < bound


def test_eval_centers_caption_blocks():
    # 4000 captions of 300 features and a rank-10 model.  Eval centers and
    # projects a block of caption rows at a time, so beside the two
    # projections and the kernel's blocks it holds under 4 BLOCK_ROWS rows
    # of centered captions; a centered copy of all of them would alone be
    # 20 BLOCK_ROWS rows
    rng = np.random.default_rng(9)
    n_images, n_captions, m_x, m_y = 200, 4000, 10, 300
    model = cca.solve(cca.prepare(
        io.FeatureMatrix(rng.standard_normal((400, m_x))),
        io.FeatureMatrix(rng.standard_normal((400, m_y)))),
        cca.RegularizationSpec.none())
    assert model.k == m_x
    pair_index = rng.permutation(np.repeat(np.arange(n_images),
                                           n_captions // n_images))
    images = io.FeatureMatrix(rng.standard_normal((n_images, m_x)))
    captions = io.FeatureMatrix(rng.standard_normal((n_captions, m_y)))
    peak = traced_peak(lambda: retrieval.evaluate_bidirectional(
        model, images, captions, pair_index))
    projections = (n_images + n_captions) * model.k * 8
    kernel = 8 * retrieval.BLOCK_ROWS * n_images * 8
    assert peak < projections + kernel + 4 * retrieval.BLOCK_ROWS * m_y * 8


@pytest.mark.parametrize("command", [["eval"], ["eval", "--blocks", "3"],
                                     ["sweep"]])
def test_eval_holds_only_the_projections(command, tmp_path, capsys):
    # 200 images and 4000 captions of 300 features, a rank-64 model.  The
    # views are read from their files a block of rows at a time, so the
    # command holds the two projections, the kernel's blocks, under 4
    # BLOCK_ROWS rows of raw and centered captions, and a few vectors per
    # weighting (11 for the sweep); the raw captions alone are 9.6 MB
    rng = np.random.default_rng(10)
    n_images, n_captions, m_x, m_y = 200, 4000, 64, 300
    model = cca.solve(cca.prepare(
        io.FeatureMatrix(rng.standard_normal((600, m_x))),
        io.FeatureMatrix(rng.standard_normal((600, m_y)))),
        cca.RegularizationSpec.none())
    io.save_archive(cca.model_to_archive(model), tmp_path / "m.arc")
    io.save_matrix(io.FeatureMatrix(rng.standard_normal((n_images, m_x))),
                   tmp_path / "i.fmat")
    captions = io.FeatureMatrix(rng.standard_normal((n_captions, m_y)))
    io.save_matrix(captions, tmp_path / "c.fmat")
    io.save_pairing(rng.permutation(np.repeat(np.arange(n_images),
                                              n_captions // n_images)),
                    tmp_path / "p.txt")
    argv = [*command, "--model", str(tmp_path / "m.arc"),
            "--images", str(tmp_path / "i.fmat"),
            "--captions", str(tmp_path / "c.fmat"),
            "--pairing", str(tmp_path / "p.txt"),
            "--out", str(tmp_path / "out.tsv")]
    codes = []
    peak = traced_peak(lambda: codes.append(cli.main(argv)))
    assert codes == [0]
    capsys.readouterr()
    projections = (n_images + n_captions) * model.k * 8
    kernel = 8 * retrieval.BLOCK_ROWS * n_images * 8
    caption_rows = 4 * retrieval.BLOCK_ROWS * m_y * 8
    weightings = 11 if command == ["sweep"] else 1
    per_weighting = 3 * weightings * (n_images + n_captions) * 8
    assert model.k == m_x and captions.values.nbytes > 4 * projections
    assert peak < projections + kernel + caption_rows + per_weighting


def _owned_read_only():
    arr = np.arange(12.0).reshape(3, 4).copy()
    arr.flags.writeable = False
    return arr


def _wrap(kind, arr):
    if kind == "matrix":
        return io.FeatureMatrix(arr).values
    return io.EmbeddingTable(tuple("abc"), arr).vectors


@pytest.mark.parametrize("kind", ["matrix", "table"])
class TestKeptOrCopied:
    def test_owned_read_only_array_is_kept(self, kind):
        arr = _owned_read_only()
        assert np.shares_memory(_wrap(kind, arr), arr)

    def test_writeable_array_is_copied_and_left_writeable(self, kind):
        for arr in (np.arange(12.0).reshape(3, 4).copy(),
                    np.frombuffer(bytearray(96)).reshape(3, 4)):
            kept = _wrap(kind, arr)
            assert not np.shares_memory(kept, arr)
            assert arr.flags.writeable and not kept.flags.writeable

    @pytest.mark.parametrize("make", [
        # a read-only view: the array under it can still change
        lambda: np.ones((4, 4))[1:],
        lambda: np.frombuffer(bytes(96)).reshape(3, 4),
        lambda: np.ones((3, 4), order="F"),
        lambda: np.ones((3, 4), dtype=np.float32),
        lambda: np.ones((3, 4), dtype=">f8"),
    ], ids=["view", "frombuffer", "fortran", "float32", "big-endian"])
    def test_other_arrays_are_copied(self, kind, make):
        arr = make()
        arr.flags.writeable = False
        kept = _wrap(kind, arr)
        assert not np.shares_memory(kept, arr)
        assert kept.base is None and kept.dtype == np.float64
        np.testing.assert_array_equal(kept, arr)


def test_map_blobs_share_the_map():
    m = hkse.build_map("rbf", "rbf", 1.0, 1.0, 6, 4, 3, seed=0)
    blobs = hkse.maps_to_archive(m).blobs
    assert np.shares_memory(blobs["W_WORD"].values, m.w_word)
    assert np.shares_memory(blobs["W_SENT"].values, m.w_sent)
