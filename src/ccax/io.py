"""Loading, validation, and persistence of the on-disk artifacts.

Formats handled here:

* FMAT1 -- dense float64 matrices: 8-byte magic ``FMATRX01``, row and
  column counts as unsigned 64-bit little-endian, then row-major IEEE-754
  binary64 values.  No padding, no trailing bytes.
* Embedding tables -- UTF-8 text, header ``<count> <dim>``, one
  ``<token> <v1> ... <vdim>`` line per word.
* Sentence corpora -- one sentence per line, plus an optional pairing file
  (one image row index per sentence).
* Split files -- ``<row-index>\\t<train|val|test>`` per line.
* Model archives -- magic ``CCAXARC1``, a key=value manifest, then named
  FMAT1 blobs.
"""

from __future__ import annotations

import math
import string
import struct
from dataclasses import dataclass, field

import numpy as np

FMAT1_MAGIC = b"FMATRX01"
ARCHIVE_MAGIC = b"CCAXARC1"

_PUNCT = string.punctuation


class DataFormatError(ValueError):
    """A file failed validation against its declared format."""


def _as_float64_matrix(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise DataFormatError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x m matrix of per-sample feature vectors.

    Rows are samples, columns are features.  Values are float64 and the
    array is frozen (non-writeable) after construction so instances can be
    shared across threads.  ``ids``, when given, names each row uniquely;
    otherwise the 0-based row index is the identifier.
    """

    values: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = _as_float64_matrix(self.values)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataFormatError(f"matrix must be at least 1x1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DataFormatError(
                f"non-finite value at flat index {bad} "
                f"(row {bad // arr.shape[1]}, col {bad % arr.shape[1]})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.ids is not None:
            ids = tuple(self.ids)
            if len(ids) != arr.shape[0]:
                raise DataFormatError(
                    f"{len(ids)} ids for {arr.shape[0]} rows"
                )
            if len(set(ids)) != len(ids):
                raise DataFormatError("row ids must be unique")
            object.__setattr__(self, "ids", ids)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EmbeddingTable:
    """Word-embedding lookup: unique tokens, one float64 vector each."""

    tokens: tuple[str, ...]
    vectors: np.ndarray  # (vocab_size, dim)
    index: dict[str, int] = field(repr=False, default=None)

    def __post_init__(self):
        arr = _as_float64_matrix(self.vectors)
        if len(self.tokens) != arr.shape[0]:
            raise DataFormatError(
                f"{len(self.tokens)} tokens for {arr.shape[0]} vectors"
            )
        if any(not t for t in self.tokens):
            raise DataFormatError("empty token")
        if len(set(self.tokens)) != len(self.tokens):
            raise DataFormatError("duplicate token")
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)
        object.__setattr__(
            self, "index", {t: i for i, t in enumerate(self.tokens)}
        )

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.index[token]]


@dataclass(frozen=True)
class SentenceCorpus:
    """Tokenized sentences plus the image row each sentence is paired with."""

    sentences: tuple[tuple[str, ...], ...]
    pair_index: np.ndarray  # (n_sentences,) int

    def __post_init__(self):
        pairs = np.asarray(self.pair_index, dtype=np.int64)
        if pairs.ndim != 1 or pairs.shape[0] != len(self.sentences):
            raise DataFormatError(
                f"pair_index length {pairs.shape} does not match "
                f"{len(self.sentences)} sentences"
            )
        if len(self.sentences) == 0:
            raise DataFormatError("corpus has no sentences")
        if any(len(s) == 0 for s in self.sentences):
            raise DataFormatError("corpus contains an empty sentence")
        if pairs.size and pairs.min() < 0:
            raise DataFormatError("negative pair index")
        pairs.flags.writeable = False
        object.__setattr__(self, "pair_index", pairs)
        object.__setattr__(
            self, "sentences", tuple(tuple(s) for s in self.sentences)
        )

    def __len__(self) -> int:
        return len(self.sentences)

    def validate_against(self, n_items: int) -> None:
        """Check every pair index addresses a row of an n_items-row matrix."""
        if self.pair_index.max() >= n_items:
            raise DataFormatError(
                f"pair index {int(self.pair_index.max())} out of range "
                f"for {n_items} items"
            )


# ---------------------------------------------------------------------------
# FMAT1 matrices
# ---------------------------------------------------------------------------

def save_matrix(m: FeatureMatrix, path) -> None:
    """Write a FeatureMatrix as an FMAT1 file."""
    with open(path, "wb") as fh:
        fh.write(matrix_to_bytes(m))


def matrix_to_bytes(m: FeatureMatrix) -> bytes:
    header = FMAT1_MAGIC + struct.pack("<QQ", m.rows, m.cols)
    payload = np.ascontiguousarray(m.values, dtype="<f8").tobytes()
    return header + payload


def matrix_from_bytes(buf: bytes, offset: int = 0) -> tuple[FeatureMatrix, int]:
    """Decode one FMAT1 record from ``buf`` at ``offset``.

    Returns the matrix and the offset just past it (archives store several
    records back to back).
    """
    if len(buf) - offset < 24:
        raise DataFormatError("truncated FMAT1 header")
    if buf[offset : offset + 8] != FMAT1_MAGIC:
        raise DataFormatError("bad FMAT1 magic")
    rows, cols = struct.unpack_from("<QQ", buf, offset + 8)
    if rows < 1 or cols < 1:
        raise DataFormatError(f"FMAT1 header declares {rows}x{cols} matrix")
    n_bytes = rows * cols * 8
    end = offset + 24 + n_bytes
    if len(buf) < end:
        raise DataFormatError(
            f"FMAT1 payload truncated: header says {rows}x{cols} "
            f"({n_bytes} bytes), {len(buf) - offset - 24} available"
        )
    values = np.frombuffer(buf, dtype="<f8", count=rows * cols, offset=offset + 24)
    return FeatureMatrix(values.reshape(rows, cols)), end


def load_matrix(path, format: str = "fmat1") -> FeatureMatrix:
    """Load a matrix from disk; ``format`` is ``fmat1`` or ``csv``."""
    fmt = format.lower()
    if fmt == "fmat1":
        with open(path, "rb") as fh:
            buf = fh.read()
        if not buf:
            raise DataFormatError(f"{path}: empty file")
        try:
            m, end = matrix_from_bytes(buf)
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
        if end != len(buf):
            raise DataFormatError(
                f"{path}: {len(buf) - end} trailing bytes after payload"
            )
        return m
    if fmt == "csv":
        rows: list[list[float]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(cell) for cell in line.split(",")])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: {exc}") from None
                if len(rows[-1]) != len(rows[0]):
                    raise DataFormatError(
                        f"{path}:{lineno}: {len(rows[-1])} columns, "
                        f"expected {len(rows[0])}"
                    )
        if not rows:
            raise DataFormatError(f"{path}: empty file")
        return FeatureMatrix(rows)
    raise DataFormatError(f"unknown matrix format {format!r}")


# ---------------------------------------------------------------------------
# Embedding tables
# ---------------------------------------------------------------------------

#: Lines parsed per ``np.loadtxt`` call by :func:`load_embedding_table`.
_TABLE_CHUNK_LINES = 1024


def load_embedding_table(path) -> EmbeddingTable:
    """Parse the standard text vector format (``count dim`` header line).

    Values are parsed by ``np.loadtxt`` (bitwise the same doubles as
    ``float``), ``_TABLE_CHUNK_LINES`` lines at a time, so only one chunk of
    text is held.  Every error names the file and line; non-finite values
    and fields ``float`` would take but ``loadtxt`` does not (``1_0``) are
    errors.
    """
    with open(path, "rb") as fh:
        header = _decode_line(path, 1, fh.readline()).split()
        if len(header) != 2:
            raise DataFormatError(f"{path}:1: header must be '<count> <dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise DataFormatError(f"{path}:1: non-integer header") from None
        if count < 1 or dim < 1:
            raise DataFormatError(f"{path}:1: header declares {count} x {dim}")
        lines_of: dict[str, int] = {}  # token -> its line, in file order
        chunks: list[np.ndarray] = []
        while len(lines_of) < count:
            first = len(lines_of) + 2  # line number of the chunk's first line
            values = []
            for lineno in range(first,
                                first + min(_TABLE_CHUNK_LINES,
                                            count - len(lines_of))):
                raw = fh.readline()
                if not raw:
                    raise DataFormatError(
                        f"{path}:{lineno}: header declares {count} entries, "
                        f"found {lineno - 2}"
                    )
                parts = _decode_line(path, lineno, raw).split(None, 1)
                if len(parts) != 2:
                    raise _field_count_error(path, lineno, len(parts), dim)
                token = parts[0]
                if token in lines_of:
                    raise DataFormatError(
                        f"{path}:{lineno}: duplicate token {token!r} "
                        f"(first on line {lines_of[token]})"
                    )
                lines_of[token] = lineno
                values.append(parts[1])
            chunks.append(_parse_table_chunk(path, first, values, dim))
        if _decode_line(path, count + 2, fh.readline()).strip():
            raise DataFormatError(
                f"{path}:{count + 2}: more entries than header declares")
    vectors = np.concatenate(chunks)
    del chunks  # EmbeddingTable copies the vectors: two copies, not three
    return EmbeddingTable(tuple(lines_of), vectors)


def _text_lines(path):
    """Yield (line number, line) of a UTF-8 text file, read in text mode; a
    byte that is not UTF-8 is a DataFormatError naming the file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():  # a bad byte is now a lone surrogate
                _decode_line(path, lineno,
                             line.encode("utf-8", "surrogateescape"))
            yield lineno, line


def _decode_line(path, lineno: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") \
            from None


def _parse_table_chunk(path, first: int, values: list[str],
                       dim: int) -> np.ndarray:
    """The value fields of consecutive table lines as a (lines, dim) block.

    ``values[i]`` is line ``first + i`` without its token.
    """
    try:
        block = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        block = None
    if block is None or block.shape[1] != dim:
        for lineno, text in enumerate(values, start=first):
            _check_table_line(path, lineno, text, dim)
        raise DataFormatError(f"{path}:{first}: values do not parse")
    finite = np.isfinite(block)
    if not finite.all():
        row, col = (int(i[0]) for i in np.nonzero(~finite))
        raise DataFormatError(
            f"{path}:{first + row}: value {col + 1} is not finite: "
            f"{block[row, col]}"
        )
    return block


def _check_table_line(path, lineno: int, text: str, dim: int) -> None:
    """Raise the error of one line's value fields, if they do not parse."""
    fields = text.split()
    if len(fields) != dim:
        raise _field_count_error(path, lineno, len(fields) + 1, dim)
    try:
        np.loadtxt([text], dtype=np.float64, comments=None)
    except ValueError as exc:
        reason = str(exc)
        for col, field in enumerate(fields, start=1):
            try:
                np.loadtxt([field], dtype=np.float64, comments=None)
            except ValueError:
                reason = f"value {col} is not a number: {field!r}"
                break
        raise DataFormatError(f"{path}:{lineno}: {reason}") from None


def _field_count_error(path, lineno: int, fields: int,
                       dim: int) -> DataFormatError:
    return DataFormatError(
        f"{path}:{lineno}: expected token + {dim} values, got {fields} fields"
    )


def save_embedding_table(table: EmbeddingTable, path) -> None:
    # 17 significant digits round-trips any float64 exactly
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.vocab_size} {table.dim}\n")
        for token, vec in zip(table.tokens, table.vectors):
            fh.write(token + " " + " ".join(f"{v:.17g}" for v in vec) + "\n")


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def tokenize(line: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation from token edges.

    Tokens that are all punctuation vanish.  This is a documented
    convention: given the same input files it makes results reproducible.
    """
    out = []
    for raw in line.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


def load_corpus(
    path,
    table: EmbeddingTable,
    oov_policy: str = "skip",
    pairing_path=None,
    n_items: int | None = None,
) -> SentenceCorpus:
    """Load one-sentence-per-line text, keeping only in-table tokens.

    ``oov_policy='skip'`` silently drops unknown tokens (a sentence that
    loses every token is still an error); ``'error'`` aborts on the first
    unknown token.  ``pairing_path`` names a file with one paired image row
    index per sentence; without it sentence i pairs with row i.
    """
    if oov_policy not in ("skip", "error"):
        raise DataFormatError(f"unknown oov policy {oov_policy!r}")
    sentences: list[tuple[str, ...]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            kept = []
            for tok in tokenize(line):
                if tok in table:
                    kept.append(tok)
                elif oov_policy == "error":
                    raise DataFormatError(
                        f"{path}:{lineno}: token {tok!r} not in table"
                    )
            if not kept:
                raise DataFormatError(
                    f"{path}:{lineno}: sentence empty after vocabulary filter"
                )
            sentences.append(tuple(kept))
    if not sentences:
        raise DataFormatError(f"{path}: no sentences")
    if pairing_path is not None:
        pair_index = load_pairing(pairing_path)
        if len(pair_index) != len(sentences):
            raise DataFormatError(
                f"{pairing_path}: {len(pair_index)} pair entries for "
                f"{len(sentences)} sentences"
            )
    else:
        pair_index = np.arange(len(sentences), dtype=np.int64)
    corpus = SentenceCorpus(tuple(sentences), pair_index)
    if n_items is not None:
        corpus.validate_against(n_items)
    return corpus


def load_pairing(path) -> np.ndarray:
    """One decimal row index per line."""
    out = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise DataFormatError(
                f"{path}:{lineno}: expected an integer row index") from None
        if not -2**63 <= out[-1] < 2**63:
            raise DataFormatError(
                f"{path}:{lineno}: row index {line} does not fit in 64 bits")
    if not out:
        raise DataFormatError(f"{path}: empty pairing file")
    return np.asarray(out, dtype=np.int64)


def save_pairing(pair_index, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idx in np.asarray(pair_index).ravel():
            fh.write(f"{int(idx)}\n")


# ---------------------------------------------------------------------------
# Split files
# ---------------------------------------------------------------------------

_SPLIT_NAMES = ("train", "val", "test")


def load_split_file(path) -> dict[str, np.ndarray]:
    """Read ``<row-index>\\t<train|val|test>`` lines into index arrays."""
    buckets: dict[str, list[int]] = {name: [] for name in _SPLIT_NAMES}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in _SPLIT_NAMES:
                raise DataFormatError(
                    f"{path}:{lineno}: expected '<row>\\t<train|val|test>'"
                )
            try:
                buckets[parts[1]].append(int(parts[0]))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: bad row index {parts[0]!r}"
                ) from None
    return {name: np.asarray(idx, dtype=np.int64) for name, idx in buckets.items()}


def save_split_file(splits: dict[str, np.ndarray], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name in _SPLIT_NAMES:
            for idx in np.asarray(splits.get(name, ())).ravel():
                fh.write(f"{int(idx)}\t{name}\n")


# ---------------------------------------------------------------------------
# Model archives
# ---------------------------------------------------------------------------

@dataclass
class ModelArchive:
    """Key=value manifest plus named FMAT1 blobs, one file on disk."""

    manifest: dict[str, str]
    blobs: dict[str, FeatureMatrix]

    def require(self, keys=(), blobs=()) -> None:
        """Raise DataFormatError naming the first missing key or blob."""
        for key in keys:
            if key not in self.manifest:
                raise DataFormatError(f"archive lacks manifest key {key!r}")
        for name in blobs:
            if name not in self.blobs:
                raise DataFormatError(f"archive lacks blob {name!r}")

    def vector(self, name: str) -> np.ndarray:
        """The one row of a single-row blob."""
        blob = self.blobs[name]
        if blob.rows != 1:
            raise DataFormatError(
                f"archive blob {name!r} has {blob.rows} rows, expected 1")
        return blob.values[0]


def format_manifest_value(value) -> str:
    """Canonical manifest text for a value; floats round-trip exactly."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite manifest value {value!r}")
        return repr(value)
    return str(value)


def save_archive(archive: ModelArchive, path) -> None:
    manifest_text = "".join(
        f"{k}={v}\n" for k, v in archive.manifest.items()
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<Q", len(manifest_text)))
        fh.write(manifest_text)
        for name, blob in archive.blobs.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(encoded)))
            fh.write(encoded)
            fh.write(matrix_to_bytes(blob))


def load_archive(path) -> ModelArchive:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16 or buf[:8] != ARCHIVE_MAGIC:
        raise DataFormatError(f"{path}: not a model archive")
    (manifest_len,) = struct.unpack_from("<Q", buf, 8)
    if len(buf) < 16 + manifest_len:
        raise DataFormatError(f"{path}: truncated manifest")
    manifest: dict[str, str] = {}
    try:
        manifest_text = buf[16 : 16 + manifest_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        line = buf[16 : 16 + exc.start].count(b"\n") + 1
        raise DataFormatError(f"{path}: manifest line {line} is not UTF-8 "
                              f"({exc.reason})") from None
    for lineno, line in enumerate(manifest_text.splitlines(), start=1):
        if not line:
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}: manifest line {lineno} lacks '='")
        key, value = line.split("=", 1)
        manifest[key] = value
    blobs: dict[str, FeatureMatrix] = {}
    offset = 16 + manifest_len
    while offset < len(buf):
        if len(buf) - offset < 8:
            raise DataFormatError(f"{path}: truncated blob record")
        (name_len,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        if len(buf) - offset < name_len:
            raise DataFormatError(f"{path}: truncated blob name")
        try:
            name = buf[offset : offset + name_len].decode("utf-8")
            blob, offset = matrix_from_bytes(buf, offset + name_len)
        except (UnicodeDecodeError, DataFormatError) as exc:
            raise DataFormatError(f"{path}: blob {len(blobs) + 1}: {exc}") \
                from None
        if name in blobs:
            raise DataFormatError(f"{path}: duplicate blob {name!r}")
        blobs[name] = blob
    return ModelArchive(manifest, blobs)
