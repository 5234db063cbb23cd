"""Canonical correlation analysis via SVD, with spectral-filter regularizers.

The solver never forms covariance matrices: the centered pair [Xc | Yc] is
reduced to the triangular factor R of one QR, each view's block of R to
its thin SVD, and the canonical system is read off an SVD of the small
correlation operator T = Ux' Uy.  Tikhonov regularization soft-shrinks the
singular values of each view (by sigma / sqrt(sigma^2 + gamma)) and
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


#: Training rows :func:`prepare` centers and folds into R per QR step.
_CHUNK_ROWS = 2048


def _column_mean(view: FeatureMatrix | MatrixFile, c: int) -> np.ndarray:
    # rows added in order across blocks, as values.mean(axis=0) adds them
    # when the view has two or more columns (one column numpy sums pairwise)
    total = np.zeros(view.cols)
    for lo in range(0, view.rows, c):
        block = view.block(lo, min(lo + c, view.rows))
        total = np.add.reduce(np.concatenate([total[None], block]), axis=0)
    return total / view.rows


def prepare(x: FeatureMatrix | MatrixFile,
            y: FeatureMatrix | MatrixFile) -> CcaProblem:
    """Center both views and form T = Ux' Uy by one joint QR (Bjorck-Golub).

    Each view is read ``block`` by block, c = max(_CHUNK_ROWS, p) rows at
    a time, p = m_x + m_y, in two passes: the column means, then
    [Xc | Yc] = Q R, each centered chunk stacked under R and refactored.
    So memory is O(p (p + c)) whatever n is, and a view may be an FMAT1
    file (:func:`ccax.io.open_matrix`) that is never held whole.  R is
    upper triangular, so its x block is zero below row m_x: the thin SVDs
    R[:m_x, :m_x] = Wx Sx Vx' and R[:, m_x:] = Wy Sy Vy' give Ux = Q Wx
    (Wx padded with zero rows), so T = Wx' Wy[:m_x].
    """
    _validate_pair(x, y)
    n, m_x, p = x.rows, x.cols, x.cols + y.cols
    c = max(_CHUNK_ROWS, p)
    mean_x, mean_y = _column_mean(x, c), _column_mean(y, c)
    buf = np.empty((p + c, p))
    k = 0  # rows of R at the top of buf
    for lo in range(0, n, c):
        h = min(c, n - lo)
        np.subtract(x.block(lo, lo + h), mean_x, out=buf[k:k + h, :m_x])
        np.subtract(y.block(lo, lo + h), mean_y, out=buf[k:k + h, m_x:])
        r_factor = np.linalg.qr(buf[:k + h], mode="r")
        k = r_factor.shape[0]
        buf[:k] = r_factor
    factors = []
    for block, mean in ((buf[:min(k, m_x), :m_x], mean_x),
                        (buf[:k, m_x:], mean_y)):
        w, s, vt = np.linalg.svd(block, full_matrices=False)
        # ||X||_F^2 = ||Xc||_F^2 + n ||mean||^2, summed without overflow
        norm = math.hypot(*s, *(math.sqrt(n) * mean))
        tol = default_rank_tol(n, block.shape[1]) * max(s[0], norm)
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


def solve(problem: CcaProblem, spec: RegularizationSpec) -> CcaModel:
    """Filter the operator as ``spec`` says, take one SVD, build the weights.

    ``none`` is the full-rank case of ``tsvd``: the leading k_x x k_y block
    of T with weights Vx Sx^-1 Px and Vy Sy^-1 Py, so that U'(Xc'Xc)U = I
    and V'(Yc'Yc)V = I on the training data.  ``tikhonov`` takes the SVD of
    the soft-filtered operator diag(1/sqrt(s_x^2+gamma_x)) (Sx T Sy)
    diag(1/sqrt(s_y^2+gamma_y)), which solves max Tr(U' Xc'Yc V) under
    U'(Xc'Xc + gamma_x I)U = I and the symmetric constraint on V.  sigma is
    clamped to [0, 1].
    """
    s_x, s_y = problem.s_x, problem.s_y
    if spec.kind == "tikhonov":
        t0 = (s_x[:, None] * problem.t) * s_y[None, :]
        dx = 1.0 / np.sqrt(s_x**2 + spec.gamma_x)
        dy = 1.0 / np.sqrt(s_y**2 + spec.gamma_y)
        op = (dx[:, None] * t0) * dy[None, :]
        base_x, base_y = problem.v_x * dx, problem.v_y * dy
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
