"""Loading, validation, and persistence of the on-disk artifacts.

Formats handled here:

* FMAT1 -- dense float64 matrices: 8-byte magic ``FMATRX01``, row and
  column counts as unsigned 64-bit little-endian, then row-major IEEE-754
  binary64 values.  No padding, no trailing bytes.
* Embedding tables -- UTF-8 text, header ``<count> <dim>``, one
  ``<token> <v1> ... <vdim>`` line per word.
* Sentence corpora -- one sentence per line.
* Pairing files -- one image row index per caption line.
* Split files -- ``<row-index>\\t<train|val|test>`` per line; written only.
* Model archives -- magic ``CCAXARC1``, a key=value manifest, then named
  FMAT1 blobs.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import string
import struct
from dataclasses import dataclass, field
from io import BytesIO

import numpy as np

FMAT1_MAGIC = b"FMATRX01"
ARCHIVE_MAGIC = b"CCAXARC1"

_PUNCT = string.punctuation


class DataFormatError(ValueError):
    """A file failed validation against its declared format."""


def _as_float64_matrix(values) -> np.ndarray:
    # kept only when no caller can write to it; see FeatureMatrix
    if (type(values) is np.ndarray and values.base is None
            and values.dtype == np.float64 and values.flags.c_contiguous
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise DataFormatError(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x m matrix of per-sample feature vectors.

    Rows are samples, columns are features.  Values are a read-only float64
    C array, so instances can be shared across threads: an array that is one
    already and owns its data is kept, anything else is copied.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float64_matrix(self.values)
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DataFormatError(f"matrix must be at least 1x1, got {arr.shape}")
        _require_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _read(cls, src: "MatrixFile") -> "FeatureMatrix":
        """All rows of ``src``, kept unchecked: :meth:`MatrixFile.block`
        has checked them and returns an owned read-only array."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", src.block(0, src.rows))
        return out

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi``, as :meth:`MatrixFile.block` reads them from a file."""
        return self.values[lo:hi]


def _require_finite(arr: np.ndarray, prefix: str = "",
                    first_row: int = 0) -> None:
    """Raise a DataFormatError at the first non-finite value of ``arr``,
    whose rows are those of a matrix from ``first_row`` on; the flat index,
    row and column count over that whole matrix."""
    if not np.isfinite(arr).all():
        bad = (first_row * arr.shape[1]
               + int(np.flatnonzero(~np.isfinite(arr))[0]))
        raise DataFormatError(
            f"{prefix}non-finite value at flat index {bad} "
            f"(row {bad // arr.shape[1]}, col {bad % arr.shape[1]})"
        )


@dataclass(frozen=True)
class EmbeddingTable:
    """Word-embedding lookup: unique tokens, one float64 vector each."""

    tokens: tuple[str, ...]
    vectors: np.ndarray  # (vocab_size, dim)
    index: dict[str, int] = field(init=False, repr=False)

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
    """Tokenized sentences, none of them empty."""

    sentences: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.sentences) == 0:
            raise DataFormatError("corpus has no sentences")
        if any(len(s) == 0 for s in self.sentences):
            raise DataFormatError("corpus contains an empty sentence")
        object.__setattr__(
            self, "sentences", tuple(tuple(s) for s in self.sentences)
        )

    def __len__(self) -> int:
        return len(self.sentences)


# ---------------------------------------------------------------------------
# FMAT1 matrices
# ---------------------------------------------------------------------------

class MatrixWriter:
    """One FMAT1 record written a block of rows at a time: the header when
    made, then each block from its own buffer."""

    def __init__(self, fh, rows: int, cols: int):
        fh.write(FMAT1_MAGIC + struct.pack("<QQ", rows, cols))
        self._fh, self.rows, self.cols, self.written = fh, rows, cols, 0

    def write(self, block: np.ndarray) -> None:
        """Append the rows of ``block``; a block of another width, or rows
        past the header's count, is a ValueError."""
        if (block.ndim != 2 or block.shape[1] != self.cols
                or self.written + block.shape[0] > self.rows):
            raise ValueError(
                f"a {block.shape} block does not fit a {self.rows}x"
                f"{self.cols} matrix after {self.written} rows")
        self._fh.write(np.ascontiguousarray(block, dtype="<f8"))
        self.written += block.shape[0]


@contextlib.contextmanager
def _new_file(path):
    """Open ``path`` for binary writing; if the body raises, a regular file
    is removed again, so a failed write leaves no partial file."""
    with open(path, "wb") as fh:
        try:
            yield fh
        except BaseException:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.remove(path)
            raise


@contextlib.contextmanager
def create_matrix(path, rows: int, cols: int):
    """Write an FMAT1 file a block of rows at a time.

    Yields a :class:`MatrixWriter` whose blocks must add up to ``rows``
    rows.  If they do not, or the body raises, the file is removed.
    """
    with _new_file(path) as fh:
        out = MatrixWriter(fh, rows, cols)
        yield out
        if out.written != rows:
            raise ValueError(f"{path}: {out.written} of {rows} rows written")


def save_matrix(m: FeatureMatrix, path) -> None:
    """Write a FeatureMatrix as an FMAT1 file: the one-block case of
    :func:`create_matrix`."""
    with create_matrix(path, m.rows, m.cols) as out:
        out.write(m.values)


#: Bytes before an FMAT1 payload: the magic, then the row and column counts.
_FMAT1_HEADER = 24


def _open_binary(path):
    """Open ``path`` for binary reading: the handle and its size in bytes.

    A regular file is returned as is.  A pipe has no size to check, so it
    is read whole and returned as an in-memory handle.
    """
    fh = open(path, "rb")
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        return fh, st.st_size
    with fh:
        data = fh.read()
    return BytesIO(data), len(data)


def _truncated(rows: int, cols: int, available: int) -> str:
    return (f"FMAT1 payload truncated: header says {rows}x{cols} "
            f"({rows * cols * 8} bytes), {available} available")


class MatrixFile:
    """One FMAT1 record of an open file, whose rows are read a block at a
    time.

    Made on the record at the handle's position, given the ``left`` bytes
    from there on; the header and the payload size are checked before
    anything is allocated, and every error starts with ``prefix``.  Rows
    can be read in any order, any number of times.  Close it, or use it
    in a ``with`` statement, to close the handle.
    """

    def __init__(self, fh, prefix, left: int):
        self._fh, self._prefix, self._start = fh, prefix, fh.tell()
        header = fh.read(min(left, _FMAT1_HEADER))
        if len(header) < _FMAT1_HEADER:
            raise DataFormatError(f"{prefix}: truncated FMAT1 header")
        if header[:8] != FMAT1_MAGIC:
            raise DataFormatError(f"{prefix}: bad FMAT1 magic")
        self.rows, self.cols = struct.unpack_from("<QQ", header, 8)
        if self.rows < 1 or self.cols < 1:
            raise DataFormatError(f"{prefix}: FMAT1 header declares "
                                  f"{self.rows}x{self.cols} matrix")
        if left - _FMAT1_HEADER < self.rows * self.cols * 8:
            raise DataFormatError(f"{prefix}: " + _truncated(
                self.rows, self.cols, left - _FMAT1_HEADER))

    def __enter__(self) -> "MatrixFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` as a read-only float64 array that owns its data;
        the handle is left just past them.

        A non-finite value or a short read is a DataFormatError; a value's
        flat index, row and column count over the whole record.
        """
        self._fh.seek(self._start + _FMAT1_HEADER + 8 * lo * self.cols)
        values = np.empty((hi - lo, self.cols), dtype="<f8")
        got = self._fh.readinto(values)
        if got < values.nbytes:  # the file shrank after it was opened
            raise DataFormatError(f"{self._prefix}: " + _truncated(
                self.rows, self.cols, 8 * lo * self.cols + got))
        _require_finite(values, f"{self._prefix}: ", lo)
        values.flags.writeable = False
        return values


def open_matrix(path) -> MatrixFile:
    """Open an FMAT1 file for reading by row blocks, checking its header
    and payload size; any format error names the file."""
    fh, size = _open_binary(path)
    try:
        if not size:
            raise DataFormatError(f"{path}: empty file")
        src = MatrixFile(fh, path, size)
        trailing = size - _FMAT1_HEADER - src.rows * src.cols * 8
        if trailing:
            raise DataFormatError(
                f"{path}: {trailing} trailing bytes after payload")
    except BaseException:
        fh.close()
        raise
    return src


def load_matrix(path) -> FeatureMatrix:
    """Load an FMAT1 matrix; any format error names the file.

    The rows are read and checked once, into the array FeatureMatrix keeps.
    """
    with open_matrix(path) as src:
        return FeatureMatrix._read(src)


# ---------------------------------------------------------------------------
# Embedding tables
# ---------------------------------------------------------------------------

#: File lines per window: each window's kept values are parsed by one
#: ``np.loadtxt`` call and the fields of its other lines counted in one pass.
_TABLE_WINDOW_LINES = 32


def load_embedding_table(path, keep=None) -> EmbeddingTable:
    """Parse the standard text vector format (``count dim`` header line).

    ``keep``, if given, is called with the header's count and returns a
    predicate of (row, token): only the rows it accepts are parsed and
    kept, in file order.  Lines end at ``\\n`` only.  Each window of
    ``_TABLE_WINDOW_LINES`` has its kept values parsed by ``np.loadtxt``
    (bitwise the same doubles as ``float``) into the one table array, which
    doubles when it fills, and its other lines' fields counted.  Every
    line's UTF-8, token, uniqueness and field count are checked, and a kept
    value must be a finite number ``loadtxt`` takes (``1_0`` is not).  Past
    the header's count only blank lines may follow.  A failed check raises
    the error of the first bad line in the file, naming the file and line.
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
        wanted = keep(count) if keep else None
        # the header's count may overstate the rows, so they are allocated
        # as they arrive: a window first, doubling as it fills
        vectors = np.empty((min(count, _TABLE_WINDOW_LINES), dim))
        lines_of: dict[str, int] = {}  # token -> its line, in file order
        tokens = []  # of the kept rows
        window = []  # (line, value text, kept) of the lines not yet checked
        lineno = 1
        for lineno, raw in enumerate(fh, start=2):
            try:
                text = _decode_line(path, lineno, raw)
                if lineno > count + 1:
                    if text.strip():
                        raise DataFormatError(f"{path}:{lineno}: more "
                                              f"entries than header declares")
                    continue
                parts = text.split(None, 1)
                if len(parts) != 2:
                    raise _field_count_error(path, lineno, len(parts), dim)
                token = parts[0]
                if token in lines_of:
                    raise DataFormatError(
                        f"{path}:{lineno}: duplicate token {token!r} "
                        f"(first on line {lines_of[token]})"
                    )
            except DataFormatError as exc:
                _first_error(path, window, dim, exc)
            lines_of[token] = lineno
            kept = wanted is None or wanted(lineno - 2, token)
            if kept:
                tokens.append(token)
            window.append((lineno, parts[1], kept))
            if len(window) == _TABLE_WINDOW_LINES or lineno == count + 1:
                values = [t for _, t, k in window if k]
                others = [t for _, t, k in window if not k]
                if len(tokens) > len(vectors):  # a growing table doubles
                    vectors.resize((min(count, 2 * len(vectors)), dim),
                                   refcheck=False)
                if not (_parse_into(vectors[len(tokens) - len(values):
                                            len(tokens)], values)
                        and all(n == dim for n in _field_counts(others))):
                    _first_error(path, window, dim, DataFormatError(
                        f"{path}:{window[0][0]}: values do not parse"))
                window = []
        if lineno < count + 1:
            _first_error(path, window, dim, DataFormatError(
                f"{path}:{lineno + 1}: header declares {count} entries, "
                f"found {lineno - 1}"))
    if len(tokens) < len(vectors):
        vectors.resize((len(tokens), dim), refcheck=False)
    vectors.flags.writeable = False  # owned and read-only: kept, not copied
    return EmbeddingTable(tuple(tokens), vectors)


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


def _parse_into(out: np.ndarray, values: list[str]) -> bool:
    """Parse the value texts ``values`` into the rows of ``out``; False if
    they are not ``out``'s shape of finite numbers."""
    try:
        if values:  # each a non-blank line; a ragged block does not parse
            out[...] = np.loadtxt(values, dtype=np.float64,
                                  comments=None).reshape(out.shape)
    except ValueError:
        return False
    return bool(np.isfinite(out).all())


def _field_counts(texts: list[str]) -> list[int]:
    """``len(text.split())`` of each text, without making its fields.

    ASCII texts are counted in one numpy pass: a field starts where a byte
    that is not blank follows a blank one, the blanks being bytes 9-13 and
    28-32, the ASCII whitespace of ``str.split``.  Other texts are split.
    """
    counts = [-1 if text.isascii() else len(text.split()) for text in texts]
    plain = [text for text, n in zip(texts, counts) if n < 0]
    if plain:
        # each text after a blank, so that its first field is counted
        data = np.frombuffer((" " + " ".join(plain)).encode("ascii"),
                             dtype=np.uint8)
        shifted = data - np.uint8(9)  # wraps below 9
        blank = shifted < 5
        blank |= np.subtract(data, np.uint8(28), out=shifted) < 5
        starts = np.flatnonzero(blank[:-1] > blank[1:])  # a field at i + 1
        ends = np.cumsum([len(text) + 1 for text in plain])
        found = iter(np.diff(np.searchsorted(starts, ends),
                             prepend=0).tolist())
        counts = [next(found) if n < 0 else n for n in counts]
    return counts


def _first_error(path, window, dim: int, error: DataFormatError):
    """Raise the error of the first bad line of ``window``, the (line, value
    text, kept) of lines in file order: its field count, and for a kept
    line a value that is not a number or not finite.  If none is bad, raise
    ``error``."""
    for lineno, text, kept in window:
        fields = text.split()
        if len(fields) != dim:
            raise _field_count_error(path, lineno, len(fields) + 1, dim)
        if not kept:
            continue
        try:
            values = np.loadtxt([text], dtype=np.float64, comments=None,
                                ndmin=1)
        except ValueError as exc:
            reason = str(exc)
            for col, field in enumerate(fields, start=1):
                try:
                    np.loadtxt([field], dtype=np.float64, comments=None)
                except ValueError:
                    reason = f"value {col} is not a number: {field!r}"
                    break
            raise DataFormatError(f"{path}:{lineno}: {reason}") from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DataFormatError(f"{path}:{lineno}: value {bad[0] + 1} is "
                                  f"not finite: {values[bad[0]]}")
    raise error


def _field_count_error(path, lineno: int, fields: int,
                       dim: int) -> DataFormatError:
    return DataFormatError(
        f"{path}:{lineno}: expected token + {dim} values, got {fields} fields"
    )


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


def corpus_lines(path):
    """Yield (line number, tokens) of each non-blank line of a UTF-8
    corpus; a byte that is not UTF-8 is a DataFormatError naming the line."""
    for lineno, line in _text_lines(path):
        if line.strip():
            yield lineno, tokenize(line)


def load_corpus(path, table: EmbeddingTable, oov_policy: str = "skip",
                lines=None) -> SentenceCorpus:
    """Load one-sentence-per-line UTF-8 text, keeping only in-table tokens.

    ``oov_policy='skip'`` silently drops unknown tokens (a sentence that
    loses every token is still an error); ``'error'`` aborts on the first
    unknown token.  Every error names the file, and the line where there
    is one.  ``lines`` are ``path``'s :func:`corpus_lines`, if read already.
    """
    if oov_policy not in ("skip", "error"):
        raise DataFormatError(f"unknown oov policy {oov_policy!r}")
    sentences: list[tuple[str, ...]] = []
    for lineno, tokens in corpus_lines(path) if lines is None else lines:
        kept = []
        for tok in tokens:
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
    return SentenceCorpus(tuple(sentences))


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

    def number(self, key: str, kind=int):
        """Manifest value ``key``, which :meth:`require` has checked, parsed
        by ``kind`` (``int`` or ``float``); text that does not parse, or a
        non-finite float, is a DataFormatError naming the key."""
        text = self.manifest[key]
        try:
            value = kind(text)
        except ValueError:
            raise DataFormatError(f"manifest key {key!r}: {text!r} is not "
                                  f"a valid {kind.__name__}") from None
        if kind is float and not math.isfinite(value):
            raise DataFormatError(
                f"manifest key {key!r}: {text!r} is not finite")
        return value

    def vector(self, name: str, length: int) -> np.ndarray:
        """The one row of a single-row blob, which must hold ``length``
        entries."""
        blob = self.blobs[name]
        if blob.rows != 1:
            raise DataFormatError(
                f"archive blob {name!r} has {blob.rows} rows, expected 1")
        if blob.cols != length:
            raise DataFormatError(f"archive blob {name!r} has {blob.cols} "
                                  f"entries, expected {length}")
        return blob.values[0]


def format_manifest_value(value) -> str:
    """Canonical manifest text for a value; floats round-trip exactly."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite manifest value {value!r}")
        return repr(value)
    return str(value)


def save_archive(archive: ModelArchive, path) -> None:
    with _new_file(path) as fh:
        write_archive(archive, fh)


def write_archive(archive: ModelArchive, fh) -> None:
    """Write ``archive`` to the binary handle ``fh``."""
    manifest_text = "".join(
        f"{k}={v}\n" for k, v in archive.manifest.items()
    ).encode("utf-8")
    fh.write(ARCHIVE_MAGIC)
    fh.write(struct.pack("<Q", len(manifest_text)))
    fh.write(manifest_text)
    for name, blob in archive.blobs.items():
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<Q", len(encoded)))
        fh.write(encoded)
        MatrixWriter(fh, blob.rows, blob.cols).write(blob.values)


def load_archive(path) -> ModelArchive:
    """Load a model archive; any format error names the file.

    Each blob is read through :class:`MatrixFile` into the array its
    FeatureMatrix keeps, so no blob is held twice.
    """
    fh, size = _open_binary(path)
    with fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != ARCHIVE_MAGIC:
            raise DataFormatError(f"{path}: not a model archive")
        (manifest_len,) = struct.unpack_from("<Q", head, 8)
        if size < 16 + manifest_len:
            raise DataFormatError(f"{path}: truncated manifest")
        raw = fh.read(manifest_len)
        try:
            manifest_text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw[: exc.start].count(b"\n") + 1
            raise DataFormatError(f"{path}: manifest line {line} is not "
                                  f"UTF-8 ({exc.reason})") from None
        manifest: dict[str, str] = {}
        for lineno, line in enumerate(manifest_text.splitlines(), start=1):
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(
                    f"{path}: manifest line {lineno} lacks '='")
            key, value = line.split("=", 1)
            manifest[key] = value
        blobs: dict[str, FeatureMatrix] = {}
        while fh.tell() < size:
            if size - fh.tell() < 8:
                raise DataFormatError(f"{path}: truncated blob record")
            (name_len,) = struct.unpack("<Q", fh.read(8))
            if size - fh.tell() < name_len:
                raise DataFormatError(f"{path}: truncated blob name")
            prefix = f"{path}: blob {len(blobs) + 1}"
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"{prefix}: {exc}") from None
            # reading the whole record leaves the handle at the next one
            blob = FeatureMatrix._read(
                MatrixFile(fh, prefix, size - fh.tell()))
            if name in blobs:
                raise DataFormatError(f"{path}: duplicate blob {name!r}")
            blobs[name] = blob
    return ModelArchive(manifest, blobs)
