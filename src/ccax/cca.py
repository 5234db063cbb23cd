"""Canonical correlation analysis via SVD, with spectral-filter regularizers.

The solver never forms covariance matrices: each view is centered, reduced
to its thin SVD, and the canonical system is read off an SVD of the small
correlation operator T = Ux' Uy.  Tikhonov regularization soft-shrinks the
singular values of each view (by sigma / sqrt(sigma^2 + gamma)) and
truncated-SVD regularization hard-prunes them; both act on T through
diagonal scalings only, which is what makes the regularization paths in
:mod:`ccax.selection` cheap.  :func:`prepare` does the filter-independent
work once; :func:`solve` turns it into a model for any one filter.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .io import (DataFormatError, FeatureMatrix, ModelArchive,
                 format_manifest_value)

#: Relative singular-value cutoff: anything below rank_tol * s_max is
#: treated as numerical noise and dropped.
def default_rank_tol(n: int, m: int) -> float:
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
        if self.kind == "tikhonov" and (self.gamma_x < 0 or self.gamma_y < 0):
            raise ValueError("tikhonov penalties must be >= 0")
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
class SvdFactors:
    """Thin SVD of a centered data matrix, cut at numerical rank."""

    u_left: np.ndarray   # (n, r)
    s: np.ndarray        # (r,) nonincreasing, positive
    v_right: np.ndarray  # (m, r)

    @property
    def rank(self) -> int:
        return self.s.shape[0]


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


def center_columns(m: FeatureMatrix) -> tuple[FeatureMatrix, np.ndarray]:
    """Subtract column means; returns the centered matrix and the means.

    The means are what test/validation vectors must be shifted by before
    projecting through a model fit on this data.
    """
    means = m.values.mean(axis=0)
    return FeatureMatrix(m.values - means, ids=m.ids), means


def thin_svd(m: FeatureMatrix, rank_tol: float | None = None) -> SvdFactors:
    """Thin SVD with singular values below rank_tol * s_max discarded."""
    if rank_tol is None:
        rank_tol = default_rank_tol(*m.values.shape)
    u, s, vt = np.linalg.svd(m.values, full_matrices=False)
    if s.size and s[0] > 0:
        r = int(np.count_nonzero(s >= rank_tol * s[0]))
    else:
        r = 0
    return SvdFactors(u[:, :r], s[:r], vt[:r].T)


def spectral_filter_soft(s, alpha: float):
    """Tikhonov shrinkage factor s / sqrt(s^2 + alpha^2), in [0, 1)."""
    if alpha <= 0:
        raise ValueError("soft filter needs alpha > 0")
    s = np.asarray(s, dtype=np.float64)
    out = s / np.sqrt(s * s + alpha * alpha)
    return out if out.ndim else float(out)

def spectral_filter_hard(s, threshold: float):
    """Hard threshold: 1 where s >= threshold, else 0."""
    s = np.asarray(s, dtype=np.float64)
    out = (s >= threshold).astype(np.float64)
    return out if out.ndim else float(out)


def _sign_fix(p_x: np.ndarray, p_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each p_x column made positive; the paired
    # p_y column flips with it so p_x Sigma p_y' is untouched.
    lead = np.argmax(np.abs(p_x), axis=0)
    signs = np.where(p_x[lead, np.arange(p_x.shape[1])] < 0, -1.0, 1.0)
    return p_x * signs, p_y * signs


def _validate_pair(x: FeatureMatrix, y: FeatureMatrix) -> None:
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

    Each view is centered and reduced to its thin SVD once; the problem
    keeps the column means, the singular values ``s_x``/``s_y``, the right
    singular vectors ``v_x`` (m_x, r_x) and ``v_y`` (m_y, r_y), and the
    correlation operator T = Ux' Uy (r_x, r_y).  No n-row array is kept, and
    every array is read-only, so path worker threads can share one problem.
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


def prepare(x: FeatureMatrix, y: FeatureMatrix,
            rank_tol: float | None = None) -> CcaProblem:
    """Center both views, take their thin SVDs, and form T = Ux' Uy."""
    _validate_pair(x, y)
    xc, mean_x = center_columns(x)
    yc, mean_y = center_columns(y)
    fx = thin_svd(xc, rank_tol)
    fy = thin_svd(yc, rank_tol)
    if fx.rank == 0 or fy.rank == 0:
        raise ValueError("zero numerical rank after centering")
    t = fx.u_left.T @ fy.u_left
    arrays = (mean_x, mean_y, fx.s, fy.s, fx.v_right, fy.v_right, t)
    for arr in arrays:
        arr.flags.writeable = False
    return CcaProblem(*arrays, n=x.rows)


def solve(problem: CcaProblem, spec: RegularizationSpec) -> CcaModel:
    """Filter the operator as ``spec`` says, take one SVD, build the weights.

    ``none`` is the full-rank case of ``tsvd``: the leading k_x x k_y block
    of T with weights Vx Sx^-1 Px and Vy Sy^-1 Py, so that U'(Xc'Xc)U = I
    and V'(Yc'Yc)V = I on the training data.  ``tikhonov`` takes the SVD of
    the soft-filtered operator diag(1/sqrt(s_x^2+gamma_x)) (Sx T Sy)
    diag(1/sqrt(s_y^2+gamma_y)), which solves max Tr(U' Xc'Yc V) under
    U'(Xc'Xc + gamma_x I)U = I and the symmetric constraint on V.
    """
    s_x, s_y = problem.s_x, problem.s_y
    if spec.kind == "tikhonov":
        t0 = (s_x[:, None] * problem.t) * s_y[None, :]
        dx = 1.0 / np.sqrt(s_x**2 + spec.gamma_x)
        dy = 1.0 / np.sqrt(s_y**2 + spec.gamma_y)
        op = (dx[:, None] * t0) * dy[None, :]
        w_x, w_y = problem.v_x * dx, problem.v_y * dy
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
        w_x = problem.v_x[:, :k_x] / s_x[:k_x]
        w_y = problem.v_y[:, :k_y] / s_y[:k_y]
    p_x, sigma, p_yt = np.linalg.svd(op, full_matrices=False)
    p_x, p_y = _sign_fix(p_x, p_yt.T)
    u = w_x @ p_x
    v = w_y @ p_y
    sigma = np.clip(sigma, 0.0, 1.0)
    for arr in (u, v, sigma):
        arr.flags.writeable = False
    return CcaModel(u=u, v=v, sigma=sigma, mean_x=problem.mean_x,
                    mean_y=problem.mean_y, reg=spec, n=problem.n)


def cca_fit(x: FeatureMatrix, y: FeatureMatrix,
            rank_tol: float | None = None) -> CcaModel:
    """Unregularized CCA: SVD both views, SVD of T = Ux' Uy."""
    return solve(prepare(x, y, rank_tol), RegularizationSpec.none())


def cca_fit_tikhonov(x: FeatureMatrix, y: FeatureMatrix,
                     gamma_x: float, gamma_y: float,
                     rank_tol: float | None = None) -> CcaModel:
    """Tikhonov-regularized CCA with penalties gamma_x, gamma_y >= 0."""
    spec = RegularizationSpec.tikhonov(gamma_x, gamma_y)  # checks, pre-SVD
    return solve(prepare(x, y, rank_tol), spec)


def cca_fit_tsvd(x: FeatureMatrix, y: FeatureMatrix,
                 k_x: int, k_y: int,
                 rank_tol: float | None = None) -> CcaModel:
    """Truncated-SVD-regularized CCA.

    Each view's covariance metric is replaced by that of its best rank-k
    approximation; the regularized operator is just the leading k_x x k_y
    block of T.
    """
    spec = RegularizationSpec.tsvd(k_x, k_y)  # checks, pre-SVD
    return solve(prepare(x, y, rank_tol), spec)


def verify_filter_forms(x: FeatureMatrix, y: FeatureMatrix,
                        spec: RegularizationSpec,
                        rank_tol: float | None = None) -> float:
    """Max |difference| between the two constructions of the operator.

    Route one builds the regularized correlation operator from its closed
    form (explicit diagonal matrix products for Tikhonov; the leading
    submatrix of T for T-SVD).  Route two applies the equivalent
    elementwise spectral filter to the singular values.  The two agree to
    rounding error (and exactly, for T-SVD).
    """
    problem = prepare(x, y, rank_tol)
    s_x, s_y, t = problem.s_x, problem.s_y, problem.t
    if spec.kind == "tsvd":
        k_x, k_y = spec.k_x, spec.k_y
        if not (1 <= k_x <= problem.rank_x and 1 <= k_y <= problem.rank_y):
            raise ValueError("tsvd ranks exceed numerical rank")
        closed = t[:k_x, :k_y]
        f_x = spectral_filter_hard(s_x, s_x[k_x - 1])
        f_y = spectral_filter_hard(s_y, s_y[k_y - 1])
        filtered = ((f_x[:, None] * t) * f_y[None, :])[:k_x, :k_y]
    else:
        gamma_x = spec.gamma_x if spec.kind == "tikhonov" else 0.0
        gamma_y = spec.gamma_y if spec.kind == "tikhonov" else 0.0
        left = np.diag(1.0 / np.sqrt(s_x**2 + gamma_x)) @ np.diag(s_x)
        right = np.diag(s_y) @ np.diag(1.0 / np.sqrt(s_y**2 + gamma_y))
        closed = left @ t @ right
        # gamma = 0 keeps the exact ratio s/s rather than the soft filter,
        # whose alpha must be positive
        f_x = (spectral_filter_soft(s_x, np.sqrt(gamma_x))
               if gamma_x > 0 else s_x / s_x)
        f_y = (spectral_filter_soft(s_y, np.sqrt(gamma_y))
               if gamma_y > 0 else s_y / s_y)
        filtered = (f_x[:, None] * t) * f_y[None, :]
    return float(np.max(np.abs(closed - filtered))) if closed.size else 0.0


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
    reg = RegularizationSpec(
        man["kind"],
        gamma_x=float(man["gamma_x"]),
        gamma_y=float(man["gamma_y"]),
        k_x=int(man["k_x"]),
        k_y=int(man["k_y"]),
    )
    u = archive.blobs["U"].values
    v = archive.blobs["V"].values
    sigma = archive.vector("SIGMA")
    mean_x = archive.vector("MEAN_X")
    mean_y = archive.vector("MEAN_Y")
    if u.shape[0] != int(man["m_x"]) or v.shape[0] != int(man["m_y"]):
        raise DataFormatError("manifest dimensions disagree with blob headers")
    if u.shape[1] != sigma.shape[0] or v.shape[1] != sigma.shape[0]:
        raise DataFormatError(
            "weight column counts disagree with SIGMA length")
    return CcaModel(u=u, v=v, sigma=sigma, mean_x=mean_x, mean_y=mean_y,
                    reg=reg, n=int(man["n"]))
