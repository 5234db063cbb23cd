"""Hierarchical kernel sentence embedding via two stacked random feature maps.

A sentence is treated as a bag of word vectors.  The word layer maps each
vector through random Fourier features approximating a Gaussian kernel
exp(-gamma/2 ||a-b||^2) (or passes it through unchanged, the ``lin``
variant); mean pooling the word features gives an empirical kernel mean
embedding; the sentence layer applies a second feature map with bandwidth
eta (or none).  Inner products of the resulting vectors approximate a
kernel between the two bags of words.  With both layers linear this is
exactly the mean word vector.

:func:`exact_kernel` computes the kernel the maps approximate, by the
double sum over token pairs -- the oracle every approximation here is
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import (
    DataFormatError,
    EmbeddingTable,
    FeatureMatrix,
    ModelArchive,
    SentenceCorpus,
    _require_finite,
    format_manifest_value,
)
from .retrieval import _row_blocks

VARIANTS = ("lin", "rbf")

# labels for the per-layer RNG sub-streams, so the word draw never
# perturbs the sentence draw
_WORD_STREAM = 11
_SENT_STREAM = 12

#: Rows per layer product.  OpenBLAS (0.3.31, SkylakeX kernels) rounds a
#: row of a product differently depending on the rows beside it: a one-row
#: product goes to GEMV, small shapes take other kernels, and the last
#: (columns mod 8) output columns round by position.  Every layer product
#: is therefore the same (out x in) @ (in x BLOCK_ROWS) GEMM over a
#: zero-padded block, so a sentence gets the same bits alone or among any
#: others.  A multiple of 8.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class HkseMap:
    """Frozen two-layer random feature map.

    ``rbf`` layers carry a projection matrix (rows drawn from a zero-mean
    Gaussian with covariance bandwidth * I) and phases uniform on
    [0, 2pi); ``lin`` layers carry none and act as the identity.
    Embedding the same sentence twice yields bitwise-identical vectors.
    """

    word_variant: str
    sent_variant: str
    gamma: float
    eta: float
    input_dim: int                 # word-vector dimension d
    w_word: np.ndarray | None      # (n_word_features, d)
    b_word: np.ndarray | None
    w_sent: np.ndarray | None      # (n_sent_features, pooled dim)
    b_sent: np.ndarray | None
    seed: int
    stream: int = 0

    @property
    def pooled_dim(self) -> int:
        if self.word_variant == "rbf":
            return self.w_word.shape[0]
        return self.input_dim

    @property
    def output_dim(self) -> int:
        if self.sent_variant == "rbf":
            return self.w_sent.shape[0]
        return self.pooled_dim


def build_map(word_variant: str, sent_variant: str, gamma: float, eta: float,
              n_word_features: int, n_sent_features: int, input_dim: int,
              seed: int, stream: int = 0) -> HkseMap:
    """Draw and freeze the random layers; deterministic per (seed, stream)."""
    for variant in (word_variant, sent_variant):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    layers, in_dim = [], input_dim  # w_word, b_word, w_sent, b_sent
    for name, variant, (b_name, width), (n_name, n), label in (
            ("word", word_variant, ("gamma", gamma),
             ("n_word_features", n_word_features), _WORD_STREAM),
            ("sentence", sent_variant, ("eta", eta),
             ("n_sent_features", n_sent_features), _SENT_STREAM)):
        w = b = None
        if variant == "rbf":
            if not 0 < width < math.inf:  # refuses NaN too
                raise ValueError(f"rbf {name} layer needs a finite "
                                 f"{b_name} > 0, got {width}")
            if n < 1:
                raise ValueError(f"rbf {name} layer needs {n_name} >= 1")
            rng = np.random.default_rng([seed, stream, label])
            # the bits of rng.normal(0.0, sqrt(width)), which computes
            # 0.0 + scale * z; the += 0.0 turns a -0.0 into +0.0 as it does
            w = rng.standard_normal((n, in_dim))
            w *= math.sqrt(width)
            w += 0.0
            b = rng.uniform(0.0, 2.0 * math.pi, size=n)
            w.flags.writeable = b.flags.writeable = False
            in_dim = n
        layers += [w, b]
    return HkseMap(word_variant, sent_variant, gamma, eta, input_dim,
                   *layers, seed=seed, stream=stream)


def word_feature(hkse_map: HkseMap, a: np.ndarray) -> np.ndarray:
    """One word vector through the word layer.

    rbf: sqrt(2/m) * cos(W a + b), whose inner products concentrate on the
    Gaussian kernel.  lin: the vector itself.  The one-word case of
    :func:`embed_blocks`'s kernel, so it equals the corpus's word rows.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (hkse_map.input_dim,):
        raise ValueError(
            f"word vector has shape {a.shape}, expected ({hkse_map.input_dim},)"
        )
    return _word_layer(hkse_map, a[None, :], [0])[0]


def embed_sentence(hkse_map: HkseMap, token_vectors) -> np.ndarray:
    """Mean-pool word features, then apply the sentence layer.

    ``token_vectors`` is a sequence of word vectors (repeats contribute
    repeatedly; order never matters).  The one-sentence case of
    :func:`embed_blocks`'s kernel, so a corpus row equals this bitwise.
    """
    vectors = np.asarray(token_vectors, dtype=np.float64)
    if vectors.size == 0:
        raise ValueError("cannot embed an empty sentence")
    if vectors.ndim != 2 or vectors.shape[1] != hkse_map.input_dim:
        raise ValueError(
            f"token vectors have shape {vectors.shape}, expected "
            f"(n, {hkse_map.input_dim})"
        )
    rows = np.arange(vectors.shape[0])
    block, = _blocks([hkse_map], vectors, rows, [rows])
    return block[0].copy()


def exact_kernel(s1, s2, gamma: float, eta: float,
                 word_variant: str = "rbf", sent_variant: str = "rbf") -> float:
    """The kernel the feature maps approximate, by brute-force double sums.

    With word kernel k (Gaussian for rbf, dot product for lin) and token
    bags {a_i}, {b_j}:

        delta = 2/(n1 n2) sum k(a_i, b_j) - 1/n1^2 sum k(a_i, a_j)
                - 1/n2^2 sum k(b_i, b_j)

    (= -||mu_1 - mu_2||^2 between the kernel mean embeddings).  The rbf
    sentence layer returns exp(eta * delta / 2); the linear one returns the
    plain inner product of the mean embeddings.

    For lin words + rbf sentences this is the Gaussian product-kernel
    similarity of two sentences up to its constant normalization factor,
    which is dropped: a global positive scale cannot change any cosine or
    nearest-neighbor ranking.
    """
    a = np.atleast_2d(np.asarray(s1, dtype=np.float64))
    b = np.atleast_2d(np.asarray(s2, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("cannot compare an empty sentence")
    # canonical argument order: both call directions sum the same floats
    # in the same order, so K(s1, s2) == K(s2, s1) bitwise
    if (b.shape, b.tobytes()) < (a.shape, a.tobytes()):
        a, b = b, a

    def gram(lhs, rhs):
        if word_variant == "rbf":
            sq = (
                np.sum(lhs * lhs, axis=1)[:, None]
                + np.sum(rhs * rhs, axis=1)[None, :]
                - 2.0 * lhs @ rhs.T
            )
            return np.exp(-0.5 * gamma * sq)
        return lhs @ rhs.T

    cross = float(np.mean(gram(a, b)))
    if sent_variant == "lin":
        return cross
    delta = 2.0 * cross - float(np.mean(gram(a, a))) - float(np.mean(gram(b, b)))
    return float(np.exp(0.5 * eta * delta))


def bandwidth_heuristic(table: EmbeddingTable, sample_size: int = 2000,
                        seed: int = 0) -> float:
    """gamma = 1 / median(pairwise distance)^2 over a word sample.

    The median of an even-length list is its lower middle element.  With
    ``sample_size >= vocab_size`` the whole vocabulary is used and the seed
    is irrelevant.  A median that overflows is a DataFormatError, and a
    zero median a ValueError.
    """
    if table.vocab_size < 2:
        raise ValueError("need at least 2 words in the table")
    if sample_size < 2:
        raise ValueError("need a sample of at least 2 words")
    rows = sample_rows(table.vocab_size, sample_size, seed)
    sample = table.vectors if rows is None else table.vectors[rows]
    # the upper triangle of |a|^2 + |b|^2 - 2 a.b, packed row by row.  Each
    # row block's Gram is formed from the block's first column on; blocks
    # are never short, so their rows round as in the whole Gram.  The lower
    # middle is selected in place, and the monotone sqrt and clamp at 0
    # apply to it alone.  Overflow is not warned of: a median it reaches
    # is refused below.
    n = sample.shape[0]
    dists = np.empty(n * (n - 1) // 2)
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(sample * sample, axis=1)
        for b0, b1 in _row_blocks(n):
            gram = 2.0 * sample[b0:b1] @ sample[b0:].T
            for i in range(b0, min(b1, n - 1)):
                hi = lo + n - 1 - i
                np.subtract(norms[i] + norms[i + 1:],
                            gram[i - b0, i + 1 - b0:], out=dists[lo:hi])
                lo = hi
            del gram  # one block's Gram at a time
    mid = (lo - 1) // 2
    dists.partition(mid)
    median = np.sqrt(max(dists[mid], 0.0))
    if not np.isfinite(median):
        raise DataFormatError("sampled pairwise distances overflow: their "
                              "median is not finite")
    if median == 0.0:
        raise ValueError("all sampled pairwise distances are zero")
    return float(1.0 / median**2)


def sample_rows(vocab_size: int, sample_size: int,
                seed: int = 0) -> np.ndarray | None:
    """The sorted rows :func:`bandwidth_heuristic` draws from a table of
    ``vocab_size`` rows; None when ``sample_size >= vocab_size``: all."""
    if sample_size >= vocab_size:
        return None
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(vocab_size, size=sample_size, replace=False))


def dimension_bound(vocab_size: int, max_sentence_len: int,
                    delta: float, epsilon: float) -> tuple[int, int]:
    """Feature counts sufficient for delta-accurate kernel estimates.

    Word layer: ceil(log(|A|^2 / eps) / (2 delta^2)); sentence layer the
    same with |A|^(2s).  Both computed in log space (|A|^(2s) overflows
    floats quickly) with natural logs, clamped to at least 1.
    """
    if vocab_size < 1 or max_sentence_len < 1:
        raise ValueError("vocab_size and max_sentence_len must be >= 1")
    if delta <= 0 or epsilon <= 0:
        raise ValueError("delta and epsilon must be > 0")
    log_a = math.log(vocab_size)
    m_word = (2.0 * log_a - math.log(epsilon)) / (2.0 * delta**2)
    m_sent = (2.0 * max_sentence_len * log_a - math.log(epsilon)) / (2.0 * delta**2)
    return max(1, math.ceil(m_word)), max(1, math.ceil(m_sent))


def embed_blocks(maps, corpus: SentenceCorpus, table: EmbeddingTable):
    """One embedded row per sentence, BLOCK_ROWS sentences at a time;
    several maps concatenate column-wise.

    The word layer runs once over the distinct tokens the corpus uses, and
    every row is bitwise-identical to :func:`embed_sentence` on its tokens.
    Every check (the maps' word dimension, every token in the table) runs
    before this returns; the returned iterator then yields each block of
    rows as it is embedded.  A block is overwritten by the next one, so
    use or copy it before drawing the next.
    """
    if not maps:
        raise ValueError("need at least one map")
    for hkse_map in maps:
        if hkse_map.input_dim != table.dim:
            raise ValueError(
                f"map expects {hkse_map.input_dim}-dim words, table has {table.dim}"
            )
    try:
        ids = [table.index[t] for sentence in corpus.sentences
               for t in sentence]
    except KeyError as exc:
        raise DataFormatError(f"token {exc.args[0]!r} not in table") from None
    used, inverse = np.unique(np.array(ids, dtype=np.int64),
                              return_inverse=True)
    ends = np.cumsum([len(s) for s in corpus.sentences])
    return _blocks(maps, table.vectors, used, np.split(inverse, ends[:-1]))


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

def _layer(w: np.ndarray, b: np.ndarray, block: np.ndarray) -> np.ndarray:
    """sqrt(2/out) * cos(W x + b) for each row x of a BLOCK_ROWS-row block.

    The only random-feature layer code: every call is the same
    (out x in) @ (in x BLOCK_ROWS) product, so a row's features never depend
    on the rows that share its block.
    """
    z = w @ block.T
    z += b[:, None]
    np.cos(z, out=z)
    z *= math.sqrt(2.0 / w.shape[0])
    return z.T


def _word_layer(hkse_map: HkseMap, vectors: np.ndarray, rows) -> np.ndarray:
    """Word features of vectors[rows] (those rows themselves for lin)."""
    if hkse_map.word_variant == "lin":
        return vectors[rows]
    n = len(rows)
    words = np.empty((n, hkse_map.pooled_dim))
    block = np.zeros((BLOCK_ROWS, hkse_map.input_dim))
    for lo in range(0, n, BLOCK_ROWS):
        k = min(BLOCK_ROWS, n - lo)
        block[:k] = vectors[rows[lo:lo + k]]
        block[k:] = 0.0
        words[lo:lo + k] = _layer(hkse_map.w_word, hkse_map.b_word, block)[:k]
    return words


def _blocks(maps, vectors: np.ndarray, rows, sentences):
    """Word layer, mean pooling and sentence layer: yield the embedded rows
    BLOCK_ROWS sentences at a time, the maps' outputs side by side.

    ``vectors[rows]`` holds each distinct word once, until every map's word
    features, held throughout, are made; ``sentences[i]`` indexes the rows
    that sentence i is made of.  Each sentence is pooled straight into a
    BLOCK_ROWS-row block, which the sentence layer maps into one output
    block, yielded and then overwritten.  A non-finite output value is a
    DataFormatError that counts over all rows.
    """
    words = [_word_layer(hkse_map, vectors, rows) for hkse_map in maps]
    del vectors, rows
    pooled = [np.zeros((BLOCK_ROWS, m.pooled_dim)) for m in maps]
    out = np.empty((BLOCK_ROWS, sum(m.output_dim for m in maps)))
    for lo in range(0, len(sentences), BLOCK_ROWS):
        chunk = sentences[lo:lo + BLOCK_ROWS]
        k = len(chunk)
        col = 0
        for hkse_map, feats, block in zip(maps, words, pooled):
            for j, rows in enumerate(chunk):
                np.mean(feats[rows], axis=0, out=block[j])
            block[k:] = 0.0
            mapped = (block if hkse_map.sent_variant == "lin"
                      else _layer(hkse_map.w_sent, hkse_map.b_sent, block))
            out[:k, col:col + hkse_map.output_dim] = mapped[:k]
            col += hkse_map.output_dim
        _require_finite(out[:k], first_row=lo)
        yield out[:k]


# ---------------------------------------------------------------------------
# Archive round trip
# ---------------------------------------------------------------------------

def maps_to_archive(maps) -> ModelArchive:
    """Serialize one map (pinned blob names) or a concatenation of maps."""
    if isinstance(maps, HkseMap):
        maps = [maps]
    manifest: dict[str, str] = {"kind": "hkse", "n_maps": str(len(maps))}
    blobs: dict[str, FeatureMatrix] = {}
    for idx, m in enumerate(maps):
        suffix = "" if idx == 0 else f"_{idx}"
        manifest.update({
            f"word_variant{suffix}": m.word_variant,
            f"sent_variant{suffix}": m.sent_variant,
            f"gamma{suffix}": format_manifest_value(m.gamma),
            f"eta{suffix}": format_manifest_value(m.eta),
            f"d{suffix}": str(m.input_dim),
            f"m{suffix}": str(m.w_word.shape[0] if m.w_word is not None else 0),
            f"m_prime{suffix}": str(m.w_sent.shape[0] if m.w_sent is not None else 0),
            f"seed{suffix}": str(m.seed),
            f"stream{suffix}": str(m.stream),
        })
        for layer, w, b in (("WORD", m.w_word, m.b_word),
                            ("SENT", m.w_sent, m.b_sent)):
            if w is not None:
                blobs[f"W_{layer}{suffix}"] = FeatureMatrix(w)
                blobs[f"B_{layer}{suffix}"] = FeatureMatrix(b[None, :])
    return ModelArchive(manifest, blobs)


def maps_from_archive(archive: ModelArchive) -> list[HkseMap]:
    man = archive.manifest
    if man.get("kind") != "hkse":
        raise DataFormatError(
            f"not an HKSE map archive (kind {man.get('kind')!r})")
    n_maps = archive.number("n_maps") if "n_maps" in man else 1
    if n_maps < 1:
        raise DataFormatError(f"archive holds {n_maps} maps")
    out = []
    for idx in range(n_maps):
        suffix = "" if idx == 0 else f"_{idx}"
        archive.require(f"{key}{suffix}" for key in (
            "word_variant", "sent_variant", "gamma", "eta", "d", "m",
            "m_prime", "seed", "stream"))
        word_variant = man[f"word_variant{suffix}"]
        sent_variant = man[f"sent_variant{suffix}"]
        for variant in (word_variant, sent_variant):
            if variant not in VARIANTS:
                raise DataFormatError(f"unknown map variant {variant!r}")
        w_word = b_word = w_sent = b_sent = None
        if word_variant == "rbf":
            archive.require(blobs=(f"W_WORD{suffix}", f"B_WORD{suffix}"))
            w_word = archive.blobs[f"W_WORD{suffix}"].values
            if w_word.shape != (archive.number(f"m{suffix}"),
                                archive.number(f"d{suffix}")):
                raise DataFormatError(
                    "manifest dimensions disagree with W_WORD blob")
            b_word = archive.vector(f"B_WORD{suffix}", w_word.shape[0])
        if sent_variant == "rbf":
            archive.require(blobs=(f"W_SENT{suffix}", f"B_SENT{suffix}"))
            w_sent = archive.blobs[f"W_SENT{suffix}"].values
            if w_sent.shape[0] != archive.number(f"m_prime{suffix}"):
                raise DataFormatError(
                    "manifest dimensions disagree with W_SENT blob")
            b_sent = archive.vector(f"B_SENT{suffix}", w_sent.shape[0])
        hkse_map = HkseMap(
            word_variant=word_variant,
            sent_variant=sent_variant,
            gamma=archive.number(f"gamma{suffix}", float),
            eta=archive.number(f"eta{suffix}", float),
            input_dim=archive.number(f"d{suffix}"),
            w_word=w_word, b_word=b_word, w_sent=w_sent, b_sent=b_sent,
            seed=archive.number(f"seed{suffix}"),
            stream=archive.number(f"stream{suffix}"),
        )
        if w_sent is not None and w_sent.shape[1] != hkse_map.pooled_dim:
            raise DataFormatError(
                f"W_SENT{suffix} has {w_sent.shape[1]} columns, "
                f"the pooled dimension is {hkse_map.pooled_dim}")
        out.append(hkse_map)
    return out
