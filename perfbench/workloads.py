"""The four workloads: seeded inputs, the CLI call of one op, output checks.

Each workload drives one ``ccax`` pipeline through ``ccax.cli.main``:

* ``select``   -- ``fit --reg guided-tsvd`` with a wide validation set, so
  validation scoring (``retrieval``) dominates;
* ``fit-tall`` -- the same command on a tall training set with a tiny
  validation set, so the thin SVDs (``cca``) dominate;
* ``eval``     -- ``eval`` of a fixed Tikhonov model on one large gallery,
  one big similarity-and-sort that bypasses ``cca`` and ``selection``;
* ``embed``    -- ``embed --variant rbf,rbf`` over a word-vector table and a
  Zipf-drawn corpus, the only workload that runs ``hkse`` and the text
  parsers of ``io``.

Inputs depend only on the seed and the shape table below.  Every check
here is independent of the timed op and runs outside its timing.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

NAMES = ("select", "fit-tall", "eval", "embed")

# "full" is what the benchmark measures; "smoke" exercises the same code and
# checks in a fraction of a second per op.
SHAPES = {
    "full": {
        "select": dict(n_train=400, n_val=200, captions=5, mx=256, my=128,
                       latent=50, noise_x=0.1, noise_y=2.0, grid="6x6"),
        "fit-tall": dict(n_train=1200, n_val=30, captions=5, mx=512, my=256,
                         latent=100, noise_x=0.1, noise_y=2.0, grid="4x4"),
        "eval": dict(n_train=1000, n_test=1000, captions=5, mx=512, my=256,
                     latent=100, noise_x=0.1, noise_y=2.0, gamma=100.0),
        "embed": dict(vocab=6000, dim=300, sentences=600, min_len=6,
                      max_len=16, zipf=1.1, m=1000, mprime=1500,
                      kernel_pairs=60),
    },
    "smoke": {
        "select": dict(n_train=40, n_val=12, captions=3, mx=24, my=16,
                       latent=6, noise_x=0.1, noise_y=1.0, grid="3x3"),
        "fit-tall": dict(n_train=80, n_val=8, captions=3, mx=24, my=16,
                         latent=6, noise_x=0.1, noise_y=1.0, grid="2x2"),
        "eval": dict(n_train=40, n_test=30, captions=3, mx=24, my=16,
                     latent=4, noise_x=0.25, noise_y=0.25, gamma=1.0),
        "embed": dict(vocab=300, dim=20, sentences=40, min_len=3,
                      max_len=8, zipf=1.1, m=32, mprime=48,
                      kernel_pairs=10),
    },
}

class CheckError(Exception):
    """An op's outputs failed a check."""


# ---------------------------------------------------------------------------
# Set-up: generate the seeded inputs (and the eval model) under ``d``
# ---------------------------------------------------------------------------

def _synth(cli, d: Path, shape: dict, seed: int, n_val: int,
           n_test: int) -> None:
    rc = cli.main([
        "synth", "--out-dir", str(d), "--seed", str(seed),
        "--n-train", str(shape["n_train"]), "--n-val", str(n_val),
        "--n-test", str(n_test), "--captions", str(shape["captions"]),
        "--mx", str(shape["mx"]), "--my", str(shape["my"]),
        "--latent", str(shape["latent"]),
        "--noise-x", str(shape["noise_x"]), "--noise-y", str(shape["noise_y"]),
    ])
    if rc != 0:
        raise RuntimeError(f"ccax synth exited with {rc}")


def _zipf_corpus(rng: np.random.Generator, shape: dict) -> list[list[int]]:
    # bounded Zipf over a seeded permutation of the vocabulary, so frequent
    # words are reused across sentences the way real captions reuse them
    ranks = np.arange(1, shape["vocab"] + 1, dtype=np.float64)
    p = ranks ** -shape["zipf"]
    p /= p.sum()
    order = rng.permutation(shape["vocab"])
    lengths = rng.integers(shape["min_len"], shape["max_len"] + 1,
                           size=shape["sentences"])
    return [order[rng.choice(shape["vocab"], size=int(n), p=p)].tolist()
            for n in lengths]


def setup(workload: str, shape: dict, seed: int, d: Path) -> dict:
    """Write the inputs of one run; returns facts about them."""
    from ccax import cli

    d.mkdir(parents=True, exist_ok=True)
    if workload in ("select", "fit-tall"):
        _synth(cli, d, shape, seed, n_val=shape["n_val"], n_test=1)
        return {"train_pairs": shape["n_train"] * shape["captions"],
                "val_images": shape["n_val"],
                "val_captions": shape["n_val"] * shape["captions"]}
    if workload == "eval":
        _synth(cli, d, shape, seed, n_val=1, n_test=shape["n_test"])
        gamma = str(shape["gamma"])
        rc = cli.main(["fit", "--reg", "tikhonov", "--gamma-x", gamma,
                       "--gamma-y", gamma, "--x", str(d / "train_x.fmat"),
                       "--y", str(d / "train_y.fmat"),
                       "--out", str(d / "model.arc")])
        if rc != 0:
            raise RuntimeError(f"ccax fit exited with {rc}")
        return {"gallery_images": shape["n_test"],
                "gallery_captions": shape["n_test"] * shape["captions"]}
    if workload == "embed":
        rng = np.random.default_rng(seed)
        tokens = [f"w{i}" for i in range(shape["vocab"])]
        # four decimals in [-4, 4], formatted through a lookup table: the
        # table is text like a published word2vec file and writes quickly
        steps = np.clip(np.rint(rng.standard_normal(
            (shape["vocab"], shape["dim"])) * 1e4), -40000, 40000)
        text = np.array([f"{k / 1e4:.4f}" for k in range(-40000, 40001)],
                        dtype=object)[steps.astype(np.int64) + 40000]
        with open(d / "vectors.txt", "w", encoding="utf-8") as fh:
            fh.write(f"{shape['vocab']} {shape['dim']}\n")
            for token, row in zip(tokens, text.tolist()):
                fh.write(token + " " + " ".join(row) + "\n")
        sentences = _zipf_corpus(rng, shape)
        with open(d / "corpus.txt", "w", encoding="utf-8") as fh:
            for sentence in sentences:
                fh.write(" ".join(tokens[i] for i in sentence) + "\n")
        n_tokens = sum(len(s) for s in sentences)
        distinct = len({i for s in sentences for i in s})
        return {"tokens": n_tokens, "distinct_tokens": distinct}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------

def op_argv(workload: str, shape: dict, seed: int, d: Path,
            out: Path) -> list[str]:
    """The ``ccax`` command line of one op; it writes only under ``out``."""
    if workload in ("select", "fit-tall"):
        return ["fit", "--reg", "guided-tsvd", "--grid", shape["grid"],
                "--x", str(d / "train_x.fmat"), "--y", str(d / "train_y.fmat"),
                "--val-x", str(d / "val_images.fmat"),
                "--val-y", str(d / "val_captions.fmat"),
                "--val-pairing", str(d / "val_pairing.txt"),
                "--threads", "1", "--path-out", str(out / "path.tsv"),
                "--out", str(out / "model.arc")]
    if workload == "eval":
        return ["eval", "--model", str(d / "model.arc"),
                "--images", str(d / "test_images.fmat"),
                "--captions", str(d / "test_captions.fmat"),
                "--pairing", str(d / "test_pairing.txt"),
                "--out", str(out / "report.tsv")]
    if workload == "embed":
        return ["embed", "--corpus", str(d / "corpus.txt"),
                "--vectors", str(d / "vectors.txt"), "--variant", "rbf,rbf",
                "--m", str(shape["m"]), "--mprime", str(shape["mprime"]),
                "--gamma", "median", "--seed", str(seed),
                "--out", str(out / "embedded.fmat")]
    raise ValueError(f"unknown workload {workload!r}")


_OUTPUTS = {
    "select": ("path.tsv", "model_search.arc", "model_annotation.arc"),
    "fit-tall": ("path.tsv", "model_search.arc", "model_annotation.arc"),
    "eval": ("report.tsv",),
    "embed": ("embedded.fmat",),
}


def _strip_cell_seconds(tsv: bytes) -> bytes:
    lines = tsv.decode("utf-8").splitlines()
    if not lines or lines[0].split("\t")[-1] != "cell_seconds":
        raise CheckError("path TSV lacks its cell_seconds column")
    return "\n".join(line.rsplit("\t", 1)[0] for line in lines).encode()


def output_digest(workload: str, out: Path) -> str:
    """Digest of an op's outputs, timing columns stripped.

    Files are hashed in small blocks: a large read buffer, once freed, would
    raise the allocator's mmap threshold and so the next ops' peak memory.
    """
    h = hashlib.sha256()
    for name in _OUTPUTS[workload]:
        path = out / name
        if not path.is_file():
            raise CheckError(f"missing output {name}")
        h.update(name.encode() + b"\0")
        if name == "path.tsv":
            h.update(_strip_cell_seconds(path.read_bytes()))
            continue
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    return h.hexdigest()


def keep_reference(workload: str, out: Path, ref: Path) -> None:
    """Copy the first op's outputs aside for the detailed checks."""
    ref.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUTS[workload]:
        shutil.copyfile(out / name, ref / name)


# ---------------------------------------------------------------------------
# Detailed checks of the reference outputs, and the quality they report
# ---------------------------------------------------------------------------

def _read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _check_guided(ref: Path) -> dict:
    from ccax import cca, io

    rows = _read_tsv(ref / "path.tsv")
    quality = {}
    for task in ("search", "annotation"):
        column = f"r1_{task}"
        best = max(float(r[column]) for r in rows)
        # documented tie rule: the smallest (k_x, k_y) among the best cells
        k_x, k_y = min((int(r["param_x"]), int(r["param_y"]))
                       for r in rows if float(r[column]) == best)
        archive = io.load_archive(ref / f"model_{task}.arc")
        cca.model_from_archive(archive)
        got = (int(archive.manifest["guided_k_x"]),
               int(archive.manifest["guided_k_y"]))
        if got != (k_x, k_y):
            raise CheckError(f"{task} archive records ranks {got}, the path "
                             f"TSV's winner is {(k_x, k_y)}")
        quality[f"quality.{column}"] = best
    return quality


def _count_ranks(sim: np.ndarray, queries: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Rank of item targets[i] for query queries[i], ties to smaller index.

    rank = 1 + #(sim > s*) + #(sim == s* and index < i*), counted without
    sorting.
    """
    index = np.arange(sim.shape[1])
    ranks = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), 1024):
        q, t = queries[lo:lo + 1024], targets[lo:lo + 1024]
        rows = sim[q]
        s_star = rows[np.arange(len(q)), t][:, None]
        ranks[lo:lo + 1024] = 1 + np.count_nonzero(
            (rows > s_star) | ((rows == s_star) & (index < t[:, None])), axis=1)
    return ranks


def _check_eval(d: Path, ref: Path) -> dict:
    from ccax import cca, io

    model = cca.model_from_archive(io.load_archive(d / "model.arc"))
    images = io.load_matrix(d / "test_images.fmat").values
    captions = io.load_matrix(d / "test_captions.fmat").values
    pairs = io.load_pairing(d / "test_pairing.txt")
    ut, vt, sigma = model.u.T, model.v.T, model.sigma

    def cosine(queries, items):
        # the same expression as the protocol, so ties are the same ties
        qn = np.linalg.norm(queries, axis=1)
        sn = np.linalg.norm(items, axis=1)
        return (queries / qn[:, None]) @ (items / sn[:, None]).T

    # search: each caption queries the images, its paired image is correct
    sim = cosine((captions - model.mean_y) @ vt.T,
                 (images - model.mean_x) @ (sigma[:, None] * ut).T)
    search = _count_ranks(sim, np.arange(len(pairs)), pairs).astype(float)
    # annotation: each image queries the captions; its best caption counts
    sim = cosine((images - model.mean_x) @ ut.T,
                 (captions - model.mean_y) @ (sigma[:, None] * vt).T)
    caption_ranks = _count_ranks(sim, pairs, np.arange(len(pairs)))
    annotation = np.full(len(images), np.iinfo(np.int64).max)
    np.minimum.at(annotation, pairs, caption_ranks)
    annotation = annotation.astype(float)

    report = {r["task"]: r for r in _read_tsv(ref / "report.tsv")}
    quality = {}
    for task, ranks in (("search", search), ("annotation", annotation)):
        want = (format(100.0 * np.count_nonzero(ranks <= 1) / len(ranks), ".6g"),
                format(float(np.median(ranks)), ".6g"))
        got = (report[task]["r1"], report[task]["medr"])
        if got != want:
            raise CheckError(f"eval {task}: report says r1, medr = {got}, "
                             f"counting gives {want}")
        quality[f"quality.r1_{task}"] = float(got[0])
    return quality


def _check_embed(shape: dict, seed: int, d: Path, ref: Path) -> dict:
    from ccax import hkse, io

    table = io.load_embedding_table(d / "vectors.txt")
    corpus = io.load_corpus(d / "corpus.txt", table)
    embedded = io.load_matrix(ref / "embedded.fmat").values
    # the op's median heuristic and map, rebuilt from the same arguments
    gamma = hkse.bandwidth_heuristic(table, 2000, seed=seed)
    hmap = hkse.build_map("rbf", "rbf", gamma, 0.01, shape["m"],
                          shape["mprime"], table.dim, seed)
    rng = np.random.default_rng([seed, 7])
    n = len(corpus)
    for i in rng.choice(n, size=min(n, 16), replace=False):
        vecs = [table.vector(t) for t in corpus.sentences[i]]
        if not np.array_equal(hkse.embed_sentence(hmap, vecs), embedded[i]):
            raise CheckError(f"embedded row {i} differs from embed_sentence")
    # kernel approximation error over a fixed sample of sentence pairs
    pairs = rng.integers(0, n, size=(shape["kernel_pairs"], 2))
    err = []
    for i, j in pairs:
        a = [table.vector(t) for t in corpus.sentences[i]]
        b = [table.vector(t) for t in corpus.sentences[j]]
        exact = hkse.exact_kernel(a, b, gamma, 0.01)
        err.append(float(embedded[i] @ embedded[j]) - exact)
    return {"quality.kernel_rmse": float(np.sqrt(np.mean(np.square(err))))}


def check_reference(workload: str, shape: dict, seed: int, d: Path,
                    ref: Path) -> dict:
    """Check the first op's outputs in depth; returns its quality metrics."""
    if workload in ("select", "fit-tall"):
        return _check_guided(ref)
    if workload == "eval":
        return _check_eval(d, ref)
    if workload == "embed":
        return _check_embed(shape, seed, d, ref)
    raise ValueError(f"unknown workload {workload!r}")
