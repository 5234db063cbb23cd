"""Regularization-path grid searches scored by validation retrieval.

Both paths take a :class:`ccax.cca.CcaProblem`, which holds everything
that does not depend on the grid point: the singular values and right
singular vectors of each centered training view and the correlation
operator T = Ux' Uy.  Each cell is one
:func:`ccax.cca.solve`.  A T-SVD cell costs one SVD of the leading
k_x x k_y block of T, while a Tikhonov cell needs a full-size SVD of the
diagonally rescaled Sx T Sy -- the asymmetry the
guided-Tikhonov shortcut exploits: run the cheap hard-threshold path, map
its winning ranks (k*_x, k*_y) to penalties (s_x[k*_x]^2, s_y[k*_y]^2),
and fit Tikhonov once per task.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cca import CcaModel, CcaProblem, RegularizationSpec, solve
from .io import FeatureMatrix
from .retrieval import _check_pairing, evaluate_bidirectional

METRICS = ("r1", "mean-r1")

#: Path kind -> the spec of one grid cell, from its (param_x, param_y).
_SPECS = {"tsvd": RegularizationSpec.tsvd,
          "tikhonov": RegularizationSpec.tikhonov}


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
        return _SPECS[grid.kind](grid.axis_x[i], grid.axis_y[j])

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


def _run_grid(problem: CcaProblem, axis_x, axis_y, kind: str,
              val_images: FeatureMatrix, val_captions: FeatureMatrix,
              pair_index, similarity: str,
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
        model = solve(problem, _SPECS[kind](axis_x[i], axis_y[j]))
        search, annotation = evaluate_bidirectional(
            model, val_images, val_captions, pair_index,
            similarity=similarity, ks=(1,))
        search_scores[i, j] = search.recalls[1]
        annotation_scores[i, j] = annotation.recalls[1]
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


def _axis(values, dtype, name: str) -> np.ndarray:
    axis = np.asarray(values, dtype=dtype)
    if axis.size == 0:
        raise ValueError(f"{name} grid is empty")
    return axis


def tsvd_path(problem: CcaProblem,
              val_images: FeatureMatrix, val_captions: FeatureMatrix,
              grid_x=None, grid_y=None, metric: str = "r1",
              pair_index=None, similarity: str = "cosine",
              workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over truncation ranks (k_x, k_y).

    Every cell is ``solve(problem, tsvd(k_x, k_y))``: the same model a
    standalone rank-(k_x, k_y) fit produces.
    """
    # a bad pairing fails here, before any cell is solved
    pair_index = _check_pairing(pair_index, val_images.rows, val_captions.rows)
    if grid_x is None:
        grid_x = default_rank_grid(problem.rank_x)
    if grid_y is None:
        grid_y = default_rank_grid(problem.rank_y)
    grid_x = _axis(grid_x, np.int64, "k_x")
    grid_y = _axis(grid_y, np.int64, "k_y")
    if grid_x.min() < 1 or grid_x.max() > problem.rank_x:
        raise ValueError(f"k_x grid outside [1, {problem.rank_x}]")
    if grid_y.min() < 1 or grid_y.max() > problem.rank_y:
        raise ValueError(f"k_y grid outside [1, {problem.rank_y}]")
    grid = _run_grid(problem, grid_x, grid_y, "tsvd", val_images,
                     val_captions, pair_index, similarity, workers)
    return grid, _select(grid, metric)


def tikhonov_path(problem: CcaProblem,
                  val_images: FeatureMatrix, val_captions: FeatureMatrix,
                  grid_x=None, grid_y=None, metric: str = "r1",
                  pair_index=None, similarity: str = "cosine",
                  workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over Tikhonov penalties (gamma_x, gamma_y).

    Defaults to index-spaced squared singular values of each view.  Every
    cell is ``solve(problem, tikhonov(gamma_x, gamma_y))``, a full-size SVD
    of the rescaled Sx T Sy.
    """
    pair_index = _check_pairing(pair_index, val_images.rows, val_captions.rows)
    if grid_x is None:
        grid_x = default_penalty_grid(problem.s_x)
    if grid_y is None:
        grid_y = default_penalty_grid(problem.s_y)
    grid_x = _axis(grid_x, np.float64, "gamma_x")
    grid_y = _axis(grid_y, np.float64, "gamma_y")
    if grid_x.min() < 0 or grid_y.min() < 0:
        raise ValueError("penalties must be >= 0")
    grid = _run_grid(problem, grid_x, grid_y, "tikhonov", val_images,
                     val_captions, pair_index, similarity, workers)
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


def guided_tikhonov(problem: CcaProblem,
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
        problem, val_images, val_captions, grid_x, grid_y,
        metric, pair_index, similarity, workers,
    )

    def mapped(spec: RegularizationSpec) -> tuple[float, float]:
        return (float(problem.s_x[spec.k_x - 1] ** 2),
                float(problem.s_y[spec.k_y - 1] ** 2))

    pen_search = mapped(selection.best_search)
    pen_annotation = mapped(selection.best_annotation)
    search_model = solve(problem, RegularizationSpec.tikhonov(*pen_search))
    if pen_annotation == pen_search:
        annotation_model = search_model
    else:
        annotation_model = solve(problem,
                                 RegularizationSpec.tikhonov(*pen_annotation))
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


def measure_path_timing(problem: CcaProblem,
                        val_images: FeatureMatrix, val_captions: FeatureMatrix,
                        grid_x=None, grid_y=None, pair_index=None,
                        repeats: int = 3, metric: str = "r1",
                        similarity: str = "cosine") -> PathTimingReport:
    """Time both paths on rank grids and the matching penalty grids.

    Single-threaded cell evaluation, one unmeasured warm-up run, then the
    median over ``repeats`` runs of each path.  The Tikhonov grid is the
    squared-singular-value image of the rank grid so both paths visit the
    same number of cells.  The shared factorisation in ``problem`` is paid
    before timing starts, so the runs time the grids alone.
    """
    if grid_x is None:
        grid_x = default_rank_grid(problem.rank_x)
    if grid_y is None:
        grid_y = default_rank_grid(problem.rank_y)
    grid_x = np.asarray(grid_x, dtype=np.int64)
    grid_y = np.asarray(grid_y, dtype=np.int64)
    pen_x = problem.s_x[grid_x - 1] ** 2
    pen_y = problem.s_y[grid_y - 1] ** 2

    def run_tsvd() -> float:
        start = time.perf_counter()
        tsvd_path(problem, val_images, val_captions,
                  grid_x, grid_y, metric, pair_index, similarity, workers=1)
        return time.perf_counter() - start

    def run_tikhonov() -> float:
        start = time.perf_counter()
        tikhonov_path(problem, val_images, val_captions,
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
