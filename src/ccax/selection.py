"""Regularization-path grid searches scored by validation retrieval.

Both paths take a :class:`ccax.cca.CcaProblem`, which holds everything
that does not depend on the grid point: the singular values and right
singular vectors of each centered training view and the correlation
operator T = Ux' Uy.  A path rotates both validation views once, a
block of rows at a time (from memory or an open file), to Xr = (Xv -
mean_x) Vx and Yr = (Yv - mean_y) Vy, and a cell builds no model and
takes no SVD.  With op = P_x Sigma P_y' the cell's filtered
operator and X~, Y~ the rotated views under the filter's column scale,
both tasks rank by one matrix G = X~ op Y~': G[i, c] is the inner product
of image i and caption c with Sigma on either side, and the search and
annotation item norms are ||op' x~_i|| and ||op y~_c||, so a cell is one
product and one first-best call of the retrieval kernel
(:func:`ccax.retrieval._rank_tasks`) for both tasks.  A T-SVD op is the
nested block T[:k_x, :k_y], so a grid row accumulates G over ascending
k_y; a Tikhonov op is the full-size rescaled dx (Sx T Sy) dy, so each
cell needs a full-width product -- the asymmetry the guided-Tikhonov
shortcut exploits: run the cheap hard-threshold path, map its winning
ranks (k*_x, k*_y) to penalties (s_x[k*_x]^2, s_y[k*_y]^2), and fit
Tikhonov once per task.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cca import (CcaModel, CcaProblem, RegularizationSpec, solve,
                  _tikhonov_units)
from .io import DataFormatError
from .retrieval import _check_pairing, _project, _rank_tasks

METRICS = ("r1", "mean-r1")

#: Path kind -> the spec of one grid cell, from its (param_x, param_y).
_SPECS = {"tsvd": RegularizationSpec.tsvd,
          "tikhonov": RegularizationSpec.tikhonov}


@dataclass
class PathGrid:
    """Validation r@1 per grid cell, one slice per retrieval task: that of
    ``solve(problem, spec)`` at the cell's spec."""

    axis_x: np.ndarray
    axis_y: np.ndarray
    search_scores: np.ndarray      # (len_x, len_y), percent
    annotation_scores: np.ndarray
    cell_seconds: np.ndarray
    total_seconds: float
    kind: str  # "tsvd" or "tikhonov"


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


def _rank_penalties(s: np.ndarray, ks, name: str):
    """The Tikhonov penalty s[k-1]^2 of each rank k in ``ks``.

    gamma = s_k^2 is the soft counterpart of truncating at rank k.  The
    square is s * s, correctly rounded for a scalar k and an array alike
    (numpy's scalar ``** 2`` goes through pow, which can be an ulp off).  A
    square that overflows, or that underflows to zero or a subnormal while
    s_k > 0, is no penalty of rank k: a DataFormatError names the singular
    values' view, ``name``.
    """
    s_k = s[np.asarray(ks) - 1]
    with np.errstate(over="ignore"):
        squares = s_k * s_k
    held = (squares < np.inf) & ((squares >= np.finfo(np.float64).tiny)
                                 | (s_k == 0))
    if not np.all(held):
        i = np.flatnonzero(~held)[0]
        k, s_bad = np.atleast_1d(ks)[i], np.atleast_1d(s_k)[i]
        raise DataFormatError(
            f"{name}: the penalty of rank {k}, s_{k}^2 = ({s_bad:.6g})^2, "
            f"{'overflows' if s_bad > 1 else 'underflows'} float64; rescale "
            "the view")
    return squares


def default_penalty_grid(singular_values: np.ndarray, count: int = 20,
                         name: str = "singular values") -> np.ndarray:
    """The penalties of :func:`default_rank_grid`'s ranks, deduplicated and
    descending: the natural Tikhonov grid.  ``name`` is the view a penalty
    that float64 cannot hold is refused for."""
    s = np.asarray(singular_values, dtype=np.float64)
    ks = default_rank_grid(s.shape[0], count)
    return np.unique(_rank_penalties(s, ks, name))[::-1].copy()


def _penalties(problem: CcaProblem, k_x, k_y):
    """The penalties of ranks ``k_x`` of the x view and ``k_y`` of the y
    view: (s_x[k_x - 1]^2, s_y[k_y - 1]^2)."""
    return (_rank_penalties(problem.s_x, k_x, "training view x"),
            _rank_penalties(problem.s_y, k_y, "training view y"))


def path_axes(problem: CcaProblem, kind: str, grid_x=None, grid_y=None,
              counts=(20, 20)) -> tuple[np.ndarray, np.ndarray]:
    """The checked (axis_x, axis_y) of a ``tsvd`` or ``tikhonov`` path.

    An axis left as None is its view's default of ``counts`` cells:
    :func:`default_rank_grid` ranks for ``tsvd``, and
    :func:`default_penalty_grid` penalties for ``tikhonov``.  A ``tsvd``
    axis holds whole ranks in [1, rank], a ``tikhonov`` axis finite
    penalties >= 0.
    """
    axes = []
    for view, values, count, s in (("x", grid_x, counts[0], problem.s_x),
                                   ("y", grid_y, counts[1], problem.s_y)):
        if values is None:
            values = (default_rank_grid(len(s), count) if kind == "tsvd"
                      else default_penalty_grid(s, count,
                                                f"training view {view}"))
        name = f"k_{view}" if kind == "tsvd" else f"gamma_{view}"
        axis = np.asarray(values, dtype=np.float64)
        if axis.size == 0:
            raise ValueError(f"{name} grid is empty")
        # each test is written so that NaN fails it
        if kind == "tsvd":
            if not np.all((axis >= 1) & (axis <= len(s)) & (axis % 1 == 0)):
                raise ValueError(f"{name} grid outside the whole ranks "
                                 f"[1, {len(s)}]")
            axis = axis.astype(np.int64)
        elif not np.all((axis >= 0) & (axis < np.inf)):
            raise ValueError(f"{name} grid must hold finite penalties >= 0")
        axes.append(axis)
    return axes[0], axes[1]


def _argmax_with_value_tiebreak(scores: np.ndarray, axis_x, axis_y):
    """Cell of the max score; ties go to the smallest (param_x, param_y)."""
    ties = np.argwhere(scores == scores.max())
    _, _, i, j = min((axis_x[i], axis_y[j], i, j) for i, j in ties)
    return i, j


def _select(grid: PathGrid, metric: str) -> SelectionResult:
    """Each task's winning cell; ``mean-r1`` ranks both tasks on the mean
    of the two grids, so they share one winner.  A winner's score is its
    own task's r@1."""
    search, annotation = grid.search_scores, grid.annotation_scores
    if metric == "mean-r1":
        search = annotation = 0.5 * (search + annotation)
    i_s, j_s = _argmax_with_value_tiebreak(search, grid.axis_x, grid.axis_y)
    i_a, j_a = _argmax_with_value_tiebreak(annotation, grid.axis_x,
                                           grid.axis_y)

    def spec_at(i: int, j: int) -> RegularizationSpec:
        return _SPECS[grid.kind](grid.axis_x[i], grid.axis_y[j])

    return SelectionResult(
        best_search=spec_at(i_s, j_s),
        best_search_score=float(grid.search_scores[i_s, j_s]),
        best_annotation=spec_at(i_a, j_a),
        best_annotation_score=float(grid.annotation_scores[i_a, j_a]),
        metric=metric,
    )


def _prefix_sq(a: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Row sums of a[:, :e]^2 for each e in the ascending ``ends``, where
    ``a`` has ends[-1] columns; no full-width prefix sum is held.  Squared
    norms overflow silently here: the rank kernel raises on them."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduceat(a * a, np.r_[0, ends[:-1]], axis=1).cumsum(1)


def _tsvd_rows(problem: CcaProblem, xs, ys, x_rot, y_rot):
    """Caption norms per cell and the cells of each row of a T-SVD path.

    op = T[:k_x, :k_y] is a nested block, so a grid row shares its work:
    D = X~[:, :k_x] T[:k_x, :] once, then g grows over ascending k_y by
    D[:, k':k_y] Y~[:, k':k_y]'.  Image norms are prefix sums of D^2 along
    the row; caption norms prefix sums of C^2, C = Y~[:, :k_y] T[:, :k_y]',
    grown along the columns once for the whole path.
    """
    s_x, s_y, t = problem.s_x, problem.s_y, problem.t
    steps = list(enumerate(zip(np.r_[0, ys[:-1]], ys)))
    y_til = y_rot[:, :ys[-1]] / s_y[:ys[-1]]
    caption_sq = np.empty((len(xs), len(ys), y_rot.shape[0]))
    c = np.zeros((y_rot.shape[0], xs[-1]))
    for j, (lo, hi) in steps:
        c += y_til[:, lo:hi] @ t[:xs[-1], lo:hi].T
        caption_sq[:, j] = _prefix_sq(c, xs).T

    def cells(i):
        k_x = xs[i]
        d = (x_rot[:, :k_x] / s_x[:k_x]) @ t[:k_x, :ys[-1]]
        image_sq = _prefix_sq(d, ys)
        g = np.zeros((x_rot.shape[0], y_rot.shape[0]))
        for j, (lo, hi) in steps:
            start = time.perf_counter()
            g += d[:, lo:hi] @ y_til[:, lo:hi].T
            yield j, start, g, image_sq[:, j], min(k_x, hi) == 1

    return caption_sq, cells


def _tikhonov_rows(problem: CcaProblem, xs, ys, x_rot, y_rot):
    """Caption norms per cell and the cells of each row of a Tikhonov path.

    With M = Sx T Sy and d^2 = 1 / (s^2 + gamma), op = dx M dy and
    g = (Xr dx^2) M (Yr dy^2)': a row factor R_x = (Xr dx^2) M per gamma_x
    and a column factor R_y = (Yr dy^2) M' per gamma_y, so a cell is one
    product (R_x dy^2) Yr', with norms R_x^2 dy^2 and R_y^2 dx^2.  In units
    of s_max (:func:`ccax.cca._tikhonov_units`), M' = M / (sx_max sy_max)
    and e = s_max^2 d^2 give R_x / sy_max = (Xr e_x / sx_max) M', and R_y /
    sx_max likewise; the norms take e and a cell e_y / sy_max.  So G and
    the norms are unchanged, and no square of s or gamma is formed.
    """
    sx_max, ratio_x, q_x = _tikhonov_units(problem.s_x, xs, "training view x")
    sy_max, ratio_y, q_y = _tikhonov_units(problem.s_y, ys, "training view y")
    m = (ratio_x[:, None] * problem.t) * ratio_y[None, :]
    ex, ey = 1.0 / q_x, 1.0 / q_y  # one column per penalty
    rank_one = min(m.shape) == 1
    caption_sq = np.empty((len(xs), len(ys), y_rot.shape[0]))
    for j in range(len(ys)):
        r_y = (y_rot * (ey[:, j] / sy_max)) @ m.T
        with np.errstate(over="ignore", invalid="ignore"):
            caption_sq[:, j] = ((r_y * r_y) @ ex).T

    def cells(i):
        r_x = (x_rot * (ex[:, i] / sx_max)) @ m
        with np.errstate(over="ignore", invalid="ignore"):
            image_sq = (r_x * r_x) @ ey
        for j in range(len(ys)):
            start = time.perf_counter()
            g = (r_x * (ey[:, j] / sy_max)) @ y_rot.T
            yield j, start, g, image_sq[:, j], rank_one

    return caption_sq, cells


def _rotate(problem: CcaProblem, val_images, val_captions, pair_index):
    """Xr = (Xv - mean_x) Vx and Yr = (Yv - mean_y) Vy, which every cell of a
    path scores, and their pairing, checked before any row is read."""
    pair_index = _check_pairing(pair_index, val_images.rows, val_captions.rows)
    return (_project(val_images, problem.mean_x, problem.v_x.T),
            _project(val_captions, problem.mean_y, problem.v_y.T), pair_index)


def _run_grid(problem: CcaProblem, axis_x, axis_y, kind: str, x_rot, y_rot,
              pair_index, similarity: str, workers: int | None) -> PathGrid:
    # rows run on the sorted, distinct axis values, so a cell's bits do not
    # depend on the order or repeats of the axes or on the worker count
    xs, at_x = np.unique(axis_x, return_inverse=True)
    ys, at_y = np.unique(axis_y, return_inverse=True)
    search_scores = np.zeros((len(xs), len(ys)))
    annotation_scores = np.zeros_like(search_scores)
    cell_seconds = np.zeros_like(search_scores)
    n_images, n_captions = x_rot.shape[0], y_rot.shape[0]

    t0 = time.perf_counter()
    rows = _tsvd_rows if kind == "tsvd" else _tikhonov_rows
    caption_sq, cells = rows(problem, xs, ys, x_rot, y_rot)

    def run_row(i):
        for j, start, g, image_sq, rank_one in cells(i):
            # top 1 of each task: a caption hits at its own image, an image
            # at one of its own captions
            image_of, caption_of = (best[0] for best in _rank_tasks(
                lambda lo, hi: g.T[lo:hi], [image_sq], [caption_sq[i, j]],
                similarity, rank_one))
            search_scores[i, j] = (100.0 * np.count_nonzero(
                image_of == pair_index) / n_captions)
            annotation_scores[i, j] = (100.0 * np.count_nonzero(
                pair_index[caption_of] == np.arange(n_images)) / n_images)
            cell_seconds[i, j] = time.perf_counter() - start

    if workers is not None and workers == 1:
        for i in range(len(xs)):
            run_row(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # materialize to surface worker exceptions
            list(pool.map(run_row, range(len(xs))))
    total = time.perf_counter() - t0
    cell = np.ix_(at_x.ravel(), at_y.ravel())
    return PathGrid(np.asarray(axis_x), np.asarray(axis_y),
                    search_scores[cell], annotation_scores[cell],
                    cell_seconds[cell], total, kind)


def _path(kind: str, problem: CcaProblem, val_images, val_captions, grid_x,
          grid_y, metric: str, pair_index, similarity: str,
          workers: int | None) -> tuple[PathGrid, SelectionResult]:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    # a bad axis or pairing fails here, before any row is read
    axis_x, axis_y = path_axes(problem, kind, grid_x, grid_y)
    grid = _run_grid(problem, axis_x, axis_y, kind, *_rotate(
        problem, val_images, val_captions, pair_index), similarity, workers)
    return grid, _select(grid, metric)


def tsvd_path(problem: CcaProblem, val_images, val_captions, grid_x=None,
              grid_y=None, metric: str = "r1", pair_index=None,
              similarity: str = "cosine",
              workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over truncation ranks (k_x, k_y); axes as
    :func:`path_axes` makes them.

    A cell's r@1 is that of ``solve(problem, tsvd(k_x, k_y))``, the model a
    standalone rank-(k_x, k_y) fit produces, found from G = X~ T[:k_x, :k_y]
    Y~' without its SVD; each grid row grows G over ascending k_y.
    ``workers`` grid rows run at once (None: a default thread pool).
    """
    return _path("tsvd", problem, val_images, val_captions, grid_x, grid_y,
                 metric, pair_index, similarity, workers)


def tikhonov_path(problem: CcaProblem, val_images, val_captions,
                  grid_x=None, grid_y=None, metric: str = "r1",
                  pair_index=None, similarity: str = "cosine",
                  workers: int | None = 1) -> tuple[PathGrid, SelectionResult]:
    """Grid search over Tikhonov penalties (gamma_x, gamma_y); axes as
    :func:`path_axes` makes them.

    A cell's r@1 is that of ``solve(problem, tikhonov(gamma_x, gamma_y))``,
    found without its SVD from one full-width product per cell, G =
    ((Xr dx^2) M dy^2) Yr' with M = Sx T Sy and d^2 = 1 / (s^2 + gamma).
    ``workers`` grid rows run at once (None: a default thread pool).
    """
    return _path("tikhonov", problem, val_images, val_captions, grid_x,
                 grid_y, metric, pair_index, similarity, workers)


@dataclass(frozen=True)
class GuidedTikhonovResult:
    """Per-task Tikhonov fits at the penalties chosen by the T-SVD path."""

    search_model: CcaModel
    annotation_model: CcaModel
    tsvd_selection: SelectionResult
    tsvd_grid: PathGrid


def guided_tikhonov(problem: CcaProblem, val_images, val_captions,
                    grid_x=None, grid_y=None, metric: str = "r1",
                    pair_index=None, similarity: str = "cosine",
                    workers: int | None = 1) -> GuidedTikhonovResult:
    """T-SVD path first, then one Tikhonov fit per task at mapped penalties.

    The winning ranks (k*_x, k*_y) become (gamma_x, gamma_y) =
    (s_x[k*_x - 1]^2, s_y[k*_y - 1]^2); each returned model is exactly
    ``solve(prepare(x, y), tikhonov(gamma_x, gamma_y))`` and carries its
    penalties in ``model.reg``.
    """
    grid, selection = tsvd_path(problem, val_images, val_captions, grid_x,
                                grid_y, metric, pair_index, similarity,
                                workers)
    search_spec, annotation_spec = (
        RegularizationSpec.tikhonov(*_penalties(problem, best.k_x, best.k_y))
        for best in (selection.best_search, selection.best_annotation))
    search_model = solve(problem, search_spec)
    annotation_model = (search_model if annotation_spec == search_spec
                        else solve(problem, annotation_spec))
    return GuidedTikhonovResult(search_model, annotation_model,
                                tsvd_selection=selection, tsvd_grid=grid)


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


def measure_path_timing(problem: CcaProblem, val_images, val_captions,
                        grid_x=None, grid_y=None, pair_index=None,
                        repeats: int = 3) -> PathTimingReport:
    """Time both paths' grids on rank axes and on the penalties
    :func:`_rank_penalties` maps them to, so both visit the same cells.

    The pairing check and the rotation of the validation set are paid
    once, before timing starts, as is the factorisation in ``problem``.  A
    run times one grid, one row at a time, on that shared rotation: the
    grid's own ``total_seconds``.  One unmeasured warm-up run of each path,
    then the median over ``repeats`` runs of each.
    """
    ranks = path_axes(problem, "tsvd", grid_x, grid_y)
    axes = {"tsvd": ranks, "tikhonov": path_axes(problem, "tikhonov",
                                                 *_penalties(problem, *ranks))}
    rotated = _rotate(problem, val_images, val_captions, pair_index)

    def runs(kind: str, count: int) -> tuple[float, ...]:
        return tuple(_run_grid(problem, *axes[kind], kind, *rotated,
                               "cosine", 1).total_seconds
                     for _ in range(count))

    runs("tsvd", 1), runs("tikhonov", 1)  # warm-up, excluded
    tsvd_runs, tikhonov_runs = runs("tsvd", repeats), runs("tikhonov", repeats)
    return PathTimingReport(
        tsvd_seconds=float(np.median(tsvd_runs)),
        tikhonov_seconds=float(np.median(tikhonov_runs)),
        tsvd_runs=tsvd_runs,
        tikhonov_runs=tikhonov_runs,
        cells=len(ranks[0]) * len(ranks[1]),
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
