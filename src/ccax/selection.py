"""Regularization-path grid searches scored by validation retrieval.

Both paths reuse everything that does not depend on the grid point: the
thin SVDs of the centered training views and the correlation operator
T = Ux' Uy (Tikhonov additionally pre-scales it to Sx T Sy).  A T-SVD cell
then costs one SVD of the leading k_x x k_y block of T, while a Tikhonov
cell needs a full-size SVD after diagonal rescaling -- the asymmetry the
guided-Tikhonov shortcut exploits: run the cheap hard-threshold path, map
its winning ranks (k*_x, k*_y) to penalties (s_x[k*_x]^2, s_y[k*_y]^2),
and fit Tikhonov once per task.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cca import (
    CcaModel,
    RegularizationSpec,
    _finish,
    _sign_fix,
    cca_fit_tikhonov,
    center_columns,
    thin_svd,
)
from .io import FeatureMatrix
from .retrieval import _check_pairing, evaluate_bidirectional

METRICS = ("r1", "mean-r1")


@dataclass
class PathGrid:
    """Validation r@1 per grid cell, one slice per retrieval task."""

    axis_x: np.ndarray
    axis_y: np.ndarray
    search_scores: np.ndarray      # (len_x, len_y), percent
    annotation_scores: np.ndarray
    cell_seconds: np.ndarray
    total_seconds: float
    kind: str  # "tsvd" or "tikhonov"
    sigmas: list                   # [i][j] -> canonical correlations of cell


@dataclass(frozen=True)
class SelectionResult:
    """Winning grid point per task under the chosen metric."""

    best_search: RegularizationSpec
    best_search_score: float
    best_annotation: RegularizationSpec
    best_annotation_score: float
    metric: str


def default_rank_grid(rank: int, count: int = 20) -> np.ndarray:
    """Index-spaced ranks ceil(j * rank / count), j = 1..count, deduplicated."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    ks = np.ceil(np.arange(1, count + 1) * rank / count).astype(np.int64)
    return np.unique(ks)


def default_penalty_grid(singular_values: np.ndarray, count: int = 20) -> np.ndarray:
    """Squared singular values at index-spaced positions, deduplicated.

    This is the natural Tikhonov grid: each penalty gamma = s_k^2 is the
    soft counterpart of truncating at rank k.
    """
    s = np.asarray(singular_values, dtype=np.float64)
    ks = default_rank_grid(s.shape[0], count)
    return np.unique(s[ks - 1] ** 2)[::-1].copy()


def _argmax_with_value_tiebreak(scores: np.ndarray, axis_x, axis_y):
    """Cell of the max score; ties go to the smallest (param_x, param_y)."""
    best = scores.max()
    ties = np.argwhere(scores == best)
    key = min(
        (axis_x[i], axis_y[j], i, j) for i, j in ties
    )
    return key[2], key[3]


def _select(grid: PathGrid, metric: str) -> SelectionResult:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")

    def spec_at(i: int, j: int) -> RegularizationSpec:
        if grid.kind == "tsvd":
            return RegularizationSpec.tsvd(int(grid.axis_x[i]),
                                           int(grid.axis_y[j]))
        return RegularizationSpec.tikhonov(float(grid.axis_x[i]),
                                           float(grid.axis_y[j]))

    if metric == "mean-r1":
        combined = 0.5 * (grid.search_scores + grid.annotation_scores)
        i, j = _argmax_with_value_tiebreak(combined, grid.axis_x, grid.axis_y)
        spec = spec_at(i, j)
        return SelectionResult(
            best_search=spec,
            best_search_score=float(grid.search_scores[i, j]),
            best_annotation=spec,
            best_annotation_score=float(grid.annotation_scores[i, j]),
            metric=metric,
        )
    i_s, j_s = _argmax_with_value_tiebreak(grid.search_scores,
                                           grid.axis_x, grid.axis_y)
    i_a, j_a = _argmax_with_value_tiebreak(grid.annotation_scores,
                                           grid.axis_x, grid.axis_y)
    return SelectionResult(
        best_search=spec_at(i_s, j_s),
        best_search_score=float(grid.search_scores[i_s, j_s]),
        best_annotation=spec_at(i_a, j_a),
        best_annotation_score=float(grid.annotation_scores[i_a, j_a]),
        metric=metric,
    )


class _PathState:
    """Shared read-only precomputation for one path run."""

    def __init__(self, x_train: FeatureMatrix, y_train: FeatureMatrix,
                 val_images: FeatureMatrix, val_captions: FeatureMatrix,
                 pair_index, similarity: str):
        # a bad pairing fails here, before any SVD is paid for
        self.pair_index = _check_pairing(pair_index, val_images.rows,
                                        val_captions.rows)
        xc, self.mean_x = center_columns(x_train)
        yc, self.mean_y = center_columns(y_train)
        self.fx = thin_svd(xc)
        self.fy = thin_svd(yc)
        if self.fx.rank == 0 or self.fy.rank == 0:
            raise ValueError("zero numerical rank after centering")
        self.t = self.fx.u_left.T @ self.fy.u_left
        self.n = x_train.rows
        self.val_images = val_images
        self.val_captions = val_captions
        self.similarity = similarity

    def score(self, model: CcaModel) -> tuple[float, float]:
        search, annotation = evaluate_bidirectional(
            model, self.val_images, self.val_captions, self.pair_index,
            similarity=self.similarity, ks=(1,))
        return search.recalls[1], annotation.recalls[1]


def _run_grid(state: _PathState, axis_x, axis_y, cell_model, kind: str,
              workers: int | None) -> PathGrid:
    nx, ny = len(axis_x), len(axis_y)
    search_scores = np.zeros((nx, ny))
    annotation_scores = np.zeros((nx, ny))
    cell_seconds = np.zeros((nx, ny))
    sigmas = [[None] * ny for _ in range(nx)]
    cells = [(i, j) for i in range(nx) for j in range(ny)]

    def run_cell(ij):
        i, j = ij
        start = time.perf_counter()
        model = cell_model(axis_x[i], axis_y[j])
        s, a = state.score(model)
        search_scores[i, j] = s
        annotation_scores[i, j] = a
        sigmas[i][j] = model.sigma
        cell_seconds[i, j] = time.perf_counter() - start

    t0 = time.perf_counter()
    if workers is not None and workers == 1:
        for ij in cells:
            run_cell(ij)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # materialize to surface worker exceptions
            list(pool.map(run_cell, cells))
    total = time.perf_counter() - t0
    return PathGrid(np.asarray(axis_x), np.asarray(axis_y),
                    search_scores, annotation_scores, cell_seconds,
                    total, kind, sigmas)


def tsvd_path(x_train: FeatureMatrix, y_train: FeatureMatrix,
              val_images: FeatureMatrix, val_captions: FeatureMatrix,
              grid_x=None, grid_y=None, metric: str = "r1",
              pair_index=None, similarity: str = "cosine",
              workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over truncation ranks (k_x, k_y).

    Every cell reuses the precomputed T and whitening factors; its model is
    identical (to rounding) to a standalone rank-(k_x, k_y) fit.
    """
    state = _PathState(x_train, y_train, val_images, val_captions,
                       pair_index, similarity)
    if grid_x is None:
        grid_x = default_rank_grid(state.fx.rank)
    if grid_y is None:
        grid_y = default_rank_grid(state.fy.rank)
    grid_x = np.asarray(grid_x, dtype=np.int64)
    grid_y = np.asarray(grid_y, dtype=np.int64)
    if grid_x.min() < 1 or grid_x.max() > state.fx.rank:
        raise ValueError(f"k_x grid outside [1, {state.fx.rank}]")
    if grid_y.min() < 1 or grid_y.max() > state.fy.rank:
        raise ValueError(f"k_y grid outside [1, {state.fy.rank}]")

    wx = state.fx.v_right / state.fx.s
    wy = state.fy.v_right / state.fy.s

    def cell_model(k_x, k_y) -> CcaModel:
        p_x, sigma, p_yt = np.linalg.svd(state.t[:k_x, :k_y],
                                         full_matrices=False)
        p_x, p_y = _sign_fix(p_x, p_yt.T)
        u = wx[:, :k_x] @ p_x
        v = wy[:, :k_y] @ p_y
        return _finish(u, v, sigma, state.mean_x.copy(), state.mean_y.copy(),
                       RegularizationSpec.tsvd(int(k_x), int(k_y)), state.n)

    grid = _run_grid(state, grid_x, grid_y, cell_model, "tsvd", workers)
    return grid, _select(grid, metric)


def tikhonov_path(x_train: FeatureMatrix, y_train: FeatureMatrix,
                  val_images: FeatureMatrix, val_captions: FeatureMatrix,
                  grid_x=None, grid_y=None, metric: str = "r1",
                  pair_index=None, similarity: str = "cosine",
                  workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over Tikhonov penalties (gamma_x, gamma_y).

    Defaults to index-spaced squared singular values of each view.  Every
    cell rescales the precomputed Sx T Sy and takes a full-size SVD.
    """
    state = _PathState(x_train, y_train, val_images, val_captions,
                       pair_index, similarity)
    if grid_x is None:
        grid_x = default_penalty_grid(state.fx.s)
    if grid_y is None:
        grid_y = default_penalty_grid(state.fy.s)
    grid_x = np.asarray(grid_x, dtype=np.float64)
    grid_y = np.asarray(grid_y, dtype=np.float64)
    if grid_x.min() < 0 or grid_y.min() < 0:
        raise ValueError("penalties must be >= 0")

    t0_op = (state.fx.s[:, None] * state.t) * state.fy.s[None, :]

    def cell_model(gamma_x, gamma_y) -> CcaModel:
        dx = 1.0 / np.sqrt(state.fx.s**2 + gamma_x)
        dy = 1.0 / np.sqrt(state.fy.s**2 + gamma_y)
        p_x, sigma, p_yt = np.linalg.svd((dx[:, None] * t0_op) * dy[None, :],
                                         full_matrices=False)
        p_x, p_y = _sign_fix(p_x, p_yt.T)
        u = (state.fx.v_right * dx) @ p_x
        v = (state.fy.v_right * dy) @ p_y
        return _finish(u, v, sigma, state.mean_x.copy(), state.mean_y.copy(),
                       RegularizationSpec.tikhonov(float(gamma_x),
                                                   float(gamma_y)), state.n)

    grid = _run_grid(state, grid_x, grid_y, cell_model, "tikhonov", workers)
    return grid, _select(grid, metric)


@dataclass(frozen=True)
class GuidedTikhonovResult:
    """Per-task Tikhonov fits at the penalties chosen by the T-SVD path."""

    search_model: CcaModel
    annotation_model: CcaModel
    tsvd_selection: SelectionResult
    tsvd_grid: PathGrid
    search_penalties: tuple[float, float]
    annotation_penalties: tuple[float, float]


def guided_tikhonov(x_train: FeatureMatrix, y_train: FeatureMatrix,
                    val_images: FeatureMatrix, val_captions: FeatureMatrix,
                    grid_x=None, grid_y=None, metric: str = "r1",
                    pair_index=None, similarity: str = "cosine",
                    workers: int | None = 1) -> GuidedTikhonovResult:
    """T-SVD path first, then one Tikhonov fit per task at mapped penalties.

    The winning ranks (k*_x, k*_y) become (gamma_x, gamma_y) =
    (s_x[k*_x]^2, s_y[k*_y]^2); the returned models are exactly what
    :func:`ccax.cca.cca_fit_tikhonov` produces at those penalties.
    """
    grid, selection = tsvd_path(
        x_train, y_train, val_images, val_captions, grid_x, grid_y,
        metric, pair_index, similarity, workers,
    )
    xc, _ = center_columns(x_train)
    yc, _ = center_columns(y_train)
    s_x = thin_svd(xc).s
    s_y = thin_svd(yc).s

    def mapped(spec: RegularizationSpec) -> tuple[float, float]:
        return float(s_x[spec.k_x - 1] ** 2), float(s_y[spec.k_y - 1] ** 2)

    pen_search = mapped(selection.best_search)
    pen_annotation = mapped(selection.best_annotation)
    search_model = cca_fit_tikhonov(x_train, y_train, *pen_search)
    if pen_annotation == pen_search:
        annotation_model = search_model
    else:
        annotation_model = cca_fit_tikhonov(x_train, y_train, *pen_annotation)
    return GuidedTikhonovResult(
        search_model=search_model,
        annotation_model=annotation_model,
        tsvd_selection=selection,
        tsvd_grid=grid,
        search_penalties=pen_search,
        annotation_penalties=pen_annotation,
    )


@dataclass(frozen=True)
class PathTimingReport:
    """Median wall time of each path on identical grid sizes."""

    tsvd_seconds: float
    tikhonov_seconds: float
    tsvd_runs: tuple[float, ...]
    tikhonov_runs: tuple[float, ...]
    cells: int
    repeats: int

    @property
    def speedup(self) -> float:
        return self.tikhonov_seconds / self.tsvd_seconds


def measure_path_timing(x_train: FeatureMatrix, y_train: FeatureMatrix,
                        val_images: FeatureMatrix, val_captions: FeatureMatrix,
                        grid_x=None, grid_y=None, pair_index=None,
                        repeats: int = 3, metric: str = "r1",
                        similarity: str = "cosine") -> PathTimingReport:
    """Time both paths on rank grids and the matching penalty grids.

    Single-threaded cell evaluation, one unmeasured warm-up run, then the
    median over ``repeats`` runs of each path.  The Tikhonov grid is the
    squared-singular-value image of the rank grid so both paths visit the
    same number of cells.
    """
    xc, _ = center_columns(x_train)
    yc, _ = center_columns(y_train)
    s_x = thin_svd(xc).s
    s_y = thin_svd(yc).s
    if grid_x is None:
        grid_x = default_rank_grid(s_x.shape[0])
    if grid_y is None:
        grid_y = default_rank_grid(s_y.shape[0])
    grid_x = np.asarray(grid_x, dtype=np.int64)
    grid_y = np.asarray(grid_y, dtype=np.int64)
    pen_x = s_x[grid_x - 1] ** 2
    pen_y = s_y[grid_y - 1] ** 2

    def run_tsvd() -> float:
        start = time.perf_counter()
        tsvd_path(x_train, y_train, val_images, val_captions,
                  grid_x, grid_y, metric, pair_index, similarity, workers=1)
        return time.perf_counter() - start

    def run_tikhonov() -> float:
        start = time.perf_counter()
        tikhonov_path(x_train, y_train, val_images, val_captions,
                      pen_x, pen_y, metric, pair_index, similarity, workers=1)
        return time.perf_counter() - start

    run_tsvd()  # warm-up, excluded
    run_tikhonov()
    tsvd_runs = tuple(run_tsvd() for _ in range(repeats))
    tikhonov_runs = tuple(run_tikhonov() for _ in range(repeats))
    return PathTimingReport(
        tsvd_seconds=float(np.median(tsvd_runs)),
        tikhonov_seconds=float(np.median(tikhonov_runs)),
        tsvd_runs=tsvd_runs,
        tikhonov_runs=tikhonov_runs,
        cells=len(grid_x) * len(grid_y),
        repeats=repeats,
    )


def grid_to_tsv(grid: PathGrid) -> str:
    """Machine-readable path: one row per cell."""

    def fmt(v) -> str:
        return str(int(v)) if grid.kind == "tsvd" else format(float(v), ".17g")

    lines = ["param_x\tparam_y\tr1_search\tr1_annotation\tcell_seconds"]
    for i, px in enumerate(grid.axis_x):
        for j, py in enumerate(grid.axis_y):
            lines.append(
                f"{fmt(px)}\t{fmt(py)}\t"
                f"{format(grid.search_scores[i, j], '.6g')}\t"
                f"{format(grid.annotation_scores[i, j], '.6g')}\t"
                f"{format(grid.cell_seconds[i, j], '.6g')}"
            )
    return "\n".join(lines) + "\n"
