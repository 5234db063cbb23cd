"""Canonical correlation analysis via SVD, with spectral-filter regularizers.

The solver never forms covariance matrices: the training pair is read
once, and [1 | X - s | Y - t], shifted by the first rows' column means,
is reduced to the triangular factor R of one QR, whose trailing block is
the R of the centered pair [Xc | Yc].  Each view's block of that R goes
to its thin SVD, and the canonical system is read off an SVD of the small
correlation operator T = Ux' Uy.  An image repeated beside each of its
captions is factored once: a run of equal x rows folds into one weighted
row, and its caption rows about their mean into a QR of the y columns
alone, which gives the same R up to rounding; input without such runs
is factored as it is.  Tikhonov regularization soft-shrinks
the singular values of each view (by sigma / sqrt(sigma^2 + gamma)) and
truncated-SVD regularization hard-prunes them; both act on T through
diagonal scalings only, which is what makes the regularization paths in
:mod:`ccax.selection` cheap.  :func:`prepare` does the filter-independent
work once; :func:`solve` turns it into a model for any one filter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .io import (DataFormatError, FeatureMatrix, MatrixFile, ModelArchive,
                 format_manifest_value)

def default_rank_tol(n: int, m: int) -> float:
    """Relative singular-value cutoff: a singular value below this times
    max(s_max, ||X||_F), the view's uncentered Frobenius norm, is treated
    as numerical noise and dropped.  Centering leaves rounding noise of
    about eps times the uncentered values, which s_max alone can miss."""
    return max(n, m) * 2.0 ** -52


#: Regularization kinds; a model archive's ``kind`` is one of these.
REG_KINDS = ("none", "tikhonov", "tsvd")


@dataclass(frozen=True)
class RegularizationSpec:
    """How a CCA model was (or should be) regularized.

    ``kind`` is one of ``none``, ``tikhonov`` (penalties gamma_x, gamma_y)
    or ``tsvd`` (per-view ranks k_x, k_y).
    """

    kind: str
    gamma_x: float = 0.0
    gamma_y: float = 0.0
    k_x: int = 0
    k_y: int = 0

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"unknown regularization kind {self.kind!r}")
        for name, gamma in (("gamma_x", self.gamma_x),
                            ("gamma_y", self.gamma_y)):
            if not 0 <= gamma < np.inf:  # also refuses NaN
                raise ValueError(
                    f"{name} must be a finite penalty >= 0, got {gamma}")
        if self.kind == "tsvd" and (self.k_x < 1 or self.k_y < 1):
            raise ValueError("tsvd ranks must be >= 1")

    @classmethod
    def none(cls) -> "RegularizationSpec":
        return cls("none")

    @classmethod
    def tikhonov(cls, gamma_x: float, gamma_y: float) -> "RegularizationSpec":
        return cls("tikhonov", gamma_x=float(gamma_x), gamma_y=float(gamma_y))

    @classmethod
    def tsvd(cls, k_x: int, k_y: int) -> "RegularizationSpec":
        return cls("tsvd", k_x=int(k_x), k_y=int(k_y))


@dataclass(frozen=True)
class CcaModel:
    """Canonical weights, correlations, and the training column means.

    ``u`` (m_x, k) and ``v`` (m_y, k) map centered feature vectors into the
    shared space; ``sigma`` holds the k canonical correlations, sorted
    nonincreasing and clamped to [0, 1].
    """

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    reg: RegularizationSpec
    n: int

    @property
    def k(self) -> int:
        return self.sigma.shape[0]

    @property
    def m_x(self) -> int:
        return self.u.shape[0]

    @property
    def m_y(self) -> int:
        return self.v.shape[0]


def _sign_fix(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each weight column u_j made positive (the
    # first, on ties); v_j flips with it, so u Sigma v' is untouched.  u is
    # in input space, so the signs do not depend on how prepare factors.
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[lead, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return u * signs, v * signs


def _validate_pair(x: FeatureMatrix | MatrixFile,
                   y: FeatureMatrix | MatrixFile) -> None:
    if x.rows != y.rows:
        raise ValueError(f"row counts differ: {x.rows} vs {y.rows}")
    if x.rows <= max(x.cols, y.cols):
        warnings.warn(
            f"n={x.rows} <= max feature dimension {max(x.cols, y.cols)}; "
            "covariances are singular and ranks will be truncated",
            stacklevel=3,
        )


@dataclass(frozen=True)
class CcaProblem:
    """Everything a regularized fit needs that does not depend on the filter.

    Both views are centered and factored once; the problem keeps the column
    means, each view's singular values ``s_x``/``s_y`` and right singular
    vectors ``v_x`` (m_x, r_x) and ``v_y`` (m_y, r_y), and the correlation
    operator T = Ux' Uy (r_x, r_y).  No n-row array is kept, and every array
    is read-only, so path worker threads can share one problem.
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    s_x: np.ndarray
    s_y: np.ndarray
    v_x: np.ndarray
    v_y: np.ndarray
    t: np.ndarray
    n: int

    @property
    def rank_x(self) -> int:
        return self.s_x.shape[0]

    @property
    def rank_y(self) -> int:
        return self.s_y.shape[0]


#: Training rows :func:`prepare` reads, shifts and folds into R per step.
_CHUNK_ROWS = 2048

#: Rows :func:`_add_rows` copies under the running column sums per step.
_SUM_ROWS = 64

#: Columns :func:`_put` writes per step into a column-major stack.
_TILE = 16


def _add_rows(total: np.ndarray, block: np.ndarray) -> None:
    # adds the rows of ``block`` to ``total`` in order, as values.mean(
    # axis=0) adds a matrix's rows when it has two or more columns: each
    # short piece of rows is copied under the running total and reduced.
    # The copy has a spare zero column when the view has one, since numpy
    # sums a single column pairwise
    m = total.size
    buf = np.zeros((_SUM_ROWS + 1, max(m, 2)))
    for lo in range(0, len(block), _SUM_ROWS):
        piece = block[lo:lo + _SUM_ROWS]
        buf[0, :m] = total
        buf[1:len(piece) + 1, :m] = piece
        total[:] = np.add.reduce(buf[:len(piece) + 1], axis=0)[:m]


def _put(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    # out = a - b, a tile of columns at a time: ``out`` is a row view of a
    # column-major stack, which a whole row-major block would stride
    # through; a tile's columns stay in cache while they are transposed
    for j in range(0, out.shape[1], _TILE):
        np.subtract(a[:, j:j + _TILE], b[..., j:j + _TILE],
                    out=out[:, j:j + _TILE])


def _run_starts(block: np.ndarray) -> np.ndarray:
    # the first row of each run of bitwise-equal consecutive rows
    bits = block.view(np.uint64)
    return np.flatnonzero(np.concatenate(
        ([True], np.any(bits[1:] != bits[:-1], axis=1))))


def _geqrf(m: int, n: int, a: np.ndarray, tau: np.ndarray,
           work: np.ndarray, lwork: int) -> None:
    # LAPACK dgeqrf in place on the leading m rows of the column-major
    # matrix whose columns are the rows of C-contiguous ``a`` (lda =
    # a.shape[1]): numpy's own binding to the routine np.linalg.qr calls
    info = lapack_lite.dgeqrf(m, n, a, a.shape[1], tau, work, lwork, 0)
    if info["info"] != 0:
        raise RuntimeError(f"dgeqrf failed with info {info['info']}")


class _QrStack:
    """R, ``k`` x ``cols`` upper trapezoidal, above room for ``room`` rows.

    The stack is column-major for LAPACK, and ``rows`` is its row view.
    :meth:`take` hands out rows under R to write; :meth:`fold` factors R
    and them in place by one ``dgeqrf``, so no copy of the stack is made.
    The workspace is queried at the first fold, so no LAPACK call runs
    before the first rows are in.
    """

    def __init__(self, cols: int, room: int):
        self.t = np.empty((cols, cols + room))  # row j is column j
        self.rows = self.t.T
        self.k = self.h = 0  # rows of R, rows taken under it
        self.tau, self.work = np.empty(cols), None

    def take(self, h: int) -> np.ndarray:
        """The next ``h`` rows under R and the rows taken before them,
        folding those first if the room would overflow, and making more
        room if ``h`` rows alone would."""
        cols = self.t.shape[0]
        if self.h + h > self.t.shape[1] - cols:
            self.fold()
            if h > self.t.shape[1] - cols:
                t = np.empty((cols, cols + h))
                t[:, :self.k] = self.t[:, :self.k]
                self.t, self.rows = t, t.T
        self.h += h
        return self.rows[self.k + self.h - h:self.k + self.h]

    def fold(self) -> None:
        cols = self.t.shape[0]
        if self.work is None:  # as numpy's qr queries it
            work = np.empty(1)
            _geqrf(self.t.shape[1], cols, self.t, self.tau, work, -1)
            self.work = np.empty(max(1, cols, int(work[0])))
        _geqrf(self.k + self.h, cols, self.t, self.tau, self.work,
               self.work.size)
        self.k, self.h = min(self.k + self.h, cols), 0
        for j in range(self.k - 1):  # Householder vectors below R's diagonal
            self.t[j, j + 1:self.k] = 0.0


def _split_runs(block: np.ndarray, starts: np.ndarray, shift: np.ndarray,
                out: np.ndarray, within: _QrStack) -> np.ndarray:
    # the between/within split of a chunk's captions: each run's mean ybar,
    # shifted, to ``out``, and each row's y - ybar to ``within`` (zero for
    # a run of one row); returns each run's row weight sqrt(g).  ybar - t
    # is (head - t) + the mean of the rows' differences from the run's
    # first row, its head, added in order, one gather per position in the
    # run; with the longest runs first, the runs that have a row j are a
    # prefix.  Under a large common offset the differences are exact, where
    # a sum of rows is rounded at the offset's scale.  The rows y - ybar,
    # about the rounded ybar, sum to g times its rounding, which moves
    # their Gram matrix only by that sum's square over g
    g = np.diff(starts, append=len(block))
    order = np.argsort(-g, kind="stable")
    first, g_desc = starts[order], g[order]
    head = block[first]
    diffs, step = np.zeros_like(head), np.empty_like(head)
    for j in range(1, g_desc[0]):  # no run-sized temporary
        more = np.count_nonzero(g_desc > j)
        np.take(block, first[:more] + j, axis=0, out=step[:more])
        step[:more] -= head[:more]
        diffs[:more] += step[:more]
    head -= shift
    diffs /= g_desc[:, None]
    head += diffs  # ybar - t, longest runs first
    ybar = np.take(head, np.argsort(order), axis=0, out=step)  # chunk order
    out[...] = ybar  # ybar - t as yet
    ybar += shift  # ybar, rounded
    del head, diffs  # not held beside the repeated means
    _put(within.take(len(block)), block, np.repeat(ybar, g, axis=0))
    return np.sqrt(g)[:, None]


def prepare(x: FeatureMatrix | MatrixFile,
            y: FeatureMatrix | MatrixFile) -> CcaProblem:
    """Center both views and form T = Ux' Uy by one joint QR (Bjorck-Golub).

    The pair is read once, ``block`` by block, c = max(_CHUNK_ROWS, p)
    rows at a time, p = m_x + m_y, the x block and then the y block of
    each chunk.  The column means are summed as the rows go by, in order,
    so they are bitwise ``values.mean(axis=0)`` for a view of two or more
    columns.  What is factored is [1 | X - s | Y - t], where the shifts s
    and t are the first chunk's column means: each chunk of rows is
    written under R and the stack refactored in place by LAPACK
    ``dgeqrf``, with no copy of it made.  The leading column of ones takes
    the rest of the centering: R's trailing p x p block is the R of the
    centered pair [Xc | Yc], up to row signs, whatever s and t are, and
    shifts near the means keep the rounding that of centered data.  So
    memory is O(p (p + c)) whatever n is, and a view may be an FMAT1
    file (:func:`ccax.io.open_matrix`) that is never held whole.  That
    block R is upper triangular, so its x block is zero below row m_x:
    the thin SVDs R[:m_x, :m_x] = Wx Sx Vx' and R[:, m_x:] = Wy Sy Vy'
    give Ux = Q Wx (Wx padded with zero rows), so T = Wx' Wy[:m_x].

    An image paired with g captions is g equal x rows in a row.  Each
    run of g bitwise-equal consecutive x rows in a chunk, with caption
    mean ybar, becomes one row [sqrt(g), sqrt(g) (x - s),
    sqrt(g) (ybar - t)] under R, and its g rows y - ybar, zero in the
    other columns, go under a second R of the y columns alone.  These
    rows have the Gram matrix of the shifted pair (the between/within-
    group split), so R, and all that is read from it, is the same up to
    rounding and row signs.  Runs end at chunk edges, which is still
    exact: any split into parts of equal x is.  The joint stack has room
    for the first chunk's runs times the number of chunks, and is
    factored early if later chunks have more.  The trailing block's rows
    from m_x on, zero in the x columns, are then merged with the second
    R by one QR of the y columns.
    """
    _validate_pair(x, y)
    n, m_x, m_y = x.rows, x.cols, y.cols
    p = m_x + m_y
    c = max(_CHUNK_ROWS, p)
    sum_x, sum_y = np.zeros(m_x), np.zeros(m_y)
    within = None
    for lo in range(0, n, c):
        h = min(c, n - lo)
        block = x.block(lo, lo + h)
        _add_rows(sum_x, block)
        starts = _run_starts(block)
        if lo == 0:
            shift_x = sum_x / h
            joint = _QrStack(1 + p, min(c, len(starts) * -(-n // c)))
        new = joint.take(len(starts))
        new[:, 0] = 1.0
        _put(new[:, 1:1 + m_x], block[starts] if len(starts) < h else block,
             shift_x)
        del block  # one view's block is held at a time
        block = y.block(lo, lo + h)
        _add_rows(sum_y, block)
        if lo == 0:
            shift_y = sum_y / h
        if len(starts) == h:
            _put(new[:, 1 + m_x:], block, shift_y)
        else:
            if within is None:
                within = _QrStack(m_y, min(c, n))
            new *= _split_runs(block, starts, shift_y, new[:, 1 + m_x:],
                               within)
        del block
    joint.fold()
    mean_x, mean_y = sum_x / n, sum_y / n
    # the R of the centered pair, k x p: row 0 and column 0 of the stack's
    # R hold the column of ones and the shifted column sums
    r, k = joint.rows[1:, 1:], joint.k - 1
    rows_x = min(k, m_x)
    if within is not None:
        # its rows from m_x on are zero in the x columns, so one QR of the
        # y columns merges them with the within-run R; the x block read
        # below ends at rows_x
        within.take(k - rows_x)[...] = r[rows_x:k, m_x:]
        within.fold()
        r[rows_x:rows_x + within.k, m_x:] = within.rows[:within.k]
        k = rows_x + within.k
        del within  # not held through the SVDs
    factors = []
    for block, mean in ((r[:rows_x, :m_x], mean_x), (r[:k, m_x:], mean_y)):
        w, s, vt = np.linalg.svd(block, full_matrices=False)
        # ||X||_F^2 = ||Xc||_F^2 + n ||mean||^2, summed without overflow
        norm = math.hypot(*s, *(math.sqrt(n) * mean))
        tol = default_rank_tol(n, block.shape[1]) * np.max(s, initial=norm)
        rank = int(np.count_nonzero((s > 0) & (s >= tol)))
        if rank == 0:
            raise ValueError("zero numerical rank after centering")
        factors.append((w[:, :rank], s[:rank], vt[:rank].T))
    (w_x, s_x, v_x), (w_y, s_y, v_y) = factors
    arrays = (mean_x, mean_y, s_x, s_y, v_x, v_y,
              w_x.T @ w_y[:w_x.shape[0]])
    for arr in arrays:
        arr.flags.writeable = False
    return CcaProblem(*arrays, n=n)


def _tikhonov_units(s: np.ndarray, gammas, name: str):
    """(s_max, r, q) of singular values ``s`` under penalties ``gammas``:
    r = s/s_max and q = r^2 + g, g = (gamma/s_max)/s_max, a column per
    penalty of an array, so 1/sqrt(s^2 + gamma) = (1/s_max)/sqrt(q) forms no
    square of s or gamma, which float64 may not hold where s and gamma are.
    A penalty whose g overflows is a DataFormatError naming the view."""
    s_max = s[0]
    with np.errstate(over="ignore"):
        g = (np.asarray(gammas, dtype=np.float64) / s_max) / s_max
    if not np.all(g < np.inf):  # g grows with gamma: the largest overflows
        raise DataFormatError(
            f"{name}: the penalty {np.max(gammas):.6g} over s_max^2 = "
            f"({s_max:.6g})^2 overflows float64; rescale the view")
    r = s / s_max
    return s_max, r, np.add.outer(r * r, g)


def solve(problem: CcaProblem, spec: RegularizationSpec) -> CcaModel:
    """Filter the operator as ``spec`` says, take one SVD, build the weights.

    ``none`` is the full-rank case of ``tsvd``: the leading k_x x k_y block
    of T with weights Vx Sx^-1 Px and Vy Sy^-1 Py, so that U'(Xc'Xc)U = I
    and V'(Yc'Yc)V = I on the training data.  ``tikhonov`` takes the SVD of
    the soft-filtered operator diag(1/sqrt(s_x^2+gamma_x)) (Sx T Sy)
    diag(1/sqrt(s_y^2+gamma_y)), which solves max Tr(U' Xc'Yc V) under
    U'(Xc'Xc + gamma_x I)U = I and the symmetric constraint on V.  sigma is
    clamped to [0, 1].  The filters are formed in units of each view's
    largest singular value (:func:`_tikhonov_units`).
    """
    s_x, s_y = problem.s_x, problem.s_y
    if spec.kind == "tikhonov":
        sx_max, r_x, q_x = _tikhonov_units(s_x, spec.gamma_x, "training view x")
        sy_max, r_y, q_y = _tikhonov_units(s_y, spec.gamma_y, "training view y")
        t0 = (r_x[:, None] * problem.t) * r_y[None, :]
        dx, dy = 1.0 / np.sqrt(q_x), 1.0 / np.sqrt(q_y)
        op = (dx[:, None] * t0) * dy[None, :]
        base_x = problem.v_x * ((1.0 / sx_max) * dx)
        base_y = problem.v_y * ((1.0 / sy_max) * dy)
    else:
        k_x, k_y = ((spec.k_x, spec.k_y) if spec.kind == "tsvd"
                    else (problem.rank_x, problem.rank_y))
        if not 1 <= k_x <= problem.rank_x:
            raise ValueError(
                f"k_x={k_x} outside [1, rank(X)={problem.rank_x}]")
        if not 1 <= k_y <= problem.rank_y:
            raise ValueError(
                f"k_y={k_y} outside [1, rank(Y)={problem.rank_y}]")
        op = problem.t[:k_x, :k_y]
        base_x = problem.v_x[:, :k_x] / s_x[:k_x]
        base_y = problem.v_y[:, :k_y] / s_y[:k_y]
    p_x, sigma, p_yt = np.linalg.svd(op, full_matrices=False)
    sigma = np.clip(sigma, 0.0, 1.0)
    u, v = _sign_fix(base_x @ p_x, base_y @ p_yt.T)
    for arr in (u, v, sigma):
        arr.flags.writeable = False
    return CcaModel(u=u, v=v, sigma=sigma, mean_x=problem.mean_x,
                    mean_y=problem.mean_y, reg=spec, n=problem.n)


# ---------------------------------------------------------------------------
# Archive round trip
# ---------------------------------------------------------------------------

def model_to_archive(model: CcaModel) -> ModelArchive:
    manifest = {
        "kind": model.reg.kind,
        "gamma_x": format_manifest_value(model.reg.gamma_x),
        "gamma_y": format_manifest_value(model.reg.gamma_y),
        "k_x": str(model.reg.k_x),
        "k_y": str(model.reg.k_y),
        "n": str(model.n),
        "m_x": str(model.m_x),
        "m_y": str(model.m_y),
    }
    blobs = {
        "U": FeatureMatrix(model.u),
        "V": FeatureMatrix(model.v),
        "SIGMA": FeatureMatrix(model.sigma[None, :]),
        "MEAN_X": FeatureMatrix(model.mean_x[None, :]),
        "MEAN_Y": FeatureMatrix(model.mean_y[None, :]),
    }
    return ModelArchive(manifest, blobs)


def model_from_archive(archive: ModelArchive) -> CcaModel:
    man = archive.manifest
    if man.get("kind") not in REG_KINDS:
        raise DataFormatError(
            f"not a CCA model archive (kind {man.get('kind')!r})")
    archive.require(("gamma_x", "gamma_y", "k_x", "k_y", "n", "m_x", "m_y"),
                    ("U", "V", "SIGMA", "MEAN_X", "MEAN_Y"))
    gamma_x = archive.number("gamma_x", float)
    gamma_y = archive.number("gamma_y", float)
    k_x, k_y = archive.number("k_x"), archive.number("k_y")
    try:
        reg = RegularizationSpec(man["kind"], gamma_x=gamma_x,
                                 gamma_y=gamma_y, k_x=k_x, k_y=k_y)
    except ValueError as exc:  # a penalty or rank out of range
        raise DataFormatError(str(exc)) from None
    u = archive.blobs["U"].values
    v = archive.blobs["V"].values
    if (u.shape[0] != archive.number("m_x")
            or v.shape[0] != archive.number("m_y")):
        raise DataFormatError("manifest dimensions disagree with blob headers")
    if u.shape[1] != v.shape[1]:
        raise DataFormatError("U and V column counts disagree")
    return CcaModel(u=u, v=v, sigma=archive.vector("SIGMA", u.shape[1]),
                    mean_x=archive.vector("MEAN_X", u.shape[0]),
                    mean_y=archive.vector("MEAN_Y", v.shape[0]),
                    reg=reg, n=archive.number("n"))
