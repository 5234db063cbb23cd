"""Independent brute-force references the library is checked against.

Nothing here goes through the SVD solver path: canonical correlations come
from generalized eigenproblems on explicit covariance matrices, and the
retrieval evaluator is a from-scratch loop over queries.  The full-sort
protocol (``rank`` then ``evaluate``) is the route the library's counting
protocol replaced; it orders every item of every query and is kept here as
the reference that route is checked against.  Likewise the per-vector HKSE
route (``embed_sentence_gemv``), the sorting median (``bandwidth_sorted``)
and the ``float()`` table parser (``table_values_float``) are the routes
that the blocked kernel, the partition median and the ``loadtxt`` parser
replaced.  ``read_table_lines`` checks and parses a table one line at a
time, the reference for the windows of ``io.load_embedding_table`` and
the first bad line it reports.  The list-of-lists ground truth
(``pairing_to_ground_truth``) is the route that
``evaluate_bidirectional``'s flat ground truth replaced.
``evaluate_blocks_loop`` slices ``eval --blocks``'s image blocks, ranks
each by ``two_gemm_ranks`` and counts its reports itself.
``project`` centers and projects a whole view at once, the route that
``retrieval._project``'s row blocks replaced.  ``evaluate_branches`` is
the protocol before its one bilinear scoring kernel: each task projects
both views by its own weighted branches (``task_projections_branches``)
and ranks them by ``count_ranks``, the counting route on normalized
vectors.
``one_task_ranks`` is that kernel as it first was, scoring one task from
its own product, and ``two_gemm_ranks`` the protocol on it, forming G
once per task: the route that ``retrieval._rank_tasks``, which scores
both tasks from each block of one G, replaced.  ``best_ranks`` runs
``count_ranks`` on list-of-lists ground truth.  Centering and a full thin
SVD of each view (``center_columns``, ``thin_svd``, ``prepare_svd``) is
the route the chunked joint QR of ``cca.prepare`` replaced, and
``prepare_qr``, which refactors a copy of each chunk's stack by
``np.linalg.qr``, the route its in-place ``dgeqrf`` replaced.
The elementwise spectral filters and ``verify_filter_forms`` check the
paper's identity that Tikhonov and T-SVD are diagonal filters on T, which
``cca.solve`` applies directly.  ``generate_latent_pairs`` is the 1:1
generator that the one-caption case of ``synthetic.generate_caption_like``
replaced.  ``path_cells`` scores
each path cell by a full model (``cca.solve``) and ranks
(``evaluate_branches``), and ``rotated_path_cells`` by the SVD of its
filtered operator (``filter_then_svd``, a copy of the filter in
``cca.solve``) and each query's first-best item in the rotated
validation space (``first_best``, ``top1_recalls``): the two routes that
the SVD-free bilinear scoring of ``selection._run_grid`` replaced.
``matrix_to_bytes`` builds an FMAT1 record as one ``bytes``, the
payload-sized copy that ``io.MatrixWriter`` replaced.  Two helpers write
and collect what no command does: ``save_embedding_table`` writes the
text tables the tests read, and ``embed_corpus`` collects the blocks of
``hkse.embed_blocks`` into one matrix.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD of a centered data matrix, cut at numerical rank."""

    u_left: np.ndarray   # (n, r)
    s: np.ndarray        # (r,) nonincreasing, positive
    v_right: np.ndarray  # (m, r)

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def center_columns(m):
    """Subtract column means; returns the centered matrix and the means."""
    from ccax.io import FeatureMatrix

    means = m.values.mean(axis=0)
    return FeatureMatrix(m.values - means), means


def thin_svd(m, rank_tol: float | None = None,
             uncentered=None) -> SvdFactors:
    """Thin SVD with singular values below rank_tol * max(s_max, ||X||_F)
    discarded, X being ``uncentered`` (the data m was centered from) or m.

    The default rank_tol is ``cca.default_rank_tol``, the cutoff of
    ``cca.prepare``.
    """
    from ccax.cca import default_rank_tol

    if rank_tol is None:
        rank_tol = default_rank_tol(*m.values.shape)
    norm = np.linalg.norm((m if uncentered is None else uncentered).values)
    u, s, vt = np.linalg.svd(m.values, full_matrices=False)
    if s.size and s[0] > 0:
        r = int(np.count_nonzero(s >= rank_tol * max(s[0], norm)))
    else:
        r = 0
    return SvdFactors(u[:, :r], s[:r], vt[:r].T)


def prepare_svd(x, y, rank_tol: float | None = None):
    """(s_x, s_y, T = Ux' Uy) from the thin SVDs of the centered views."""
    fx = thin_svd(center_columns(x)[0], rank_tol, x)
    fy = thin_svd(center_columns(y)[0], rank_tol, y)
    return fx.s, fy.s, fx.u_left.T @ fy.u_left


def prepare_qr(x, y):
    """``cca.prepare`` as it was before it factored its buffer in place:
    each centered chunk is stacked under R in a row-major buffer and
    ``np.linalg.qr(..., mode="r")`` refactors a copy of the stack."""
    from ccax import cca

    cca._validate_pair(x, y)
    n, m_x, p = x.rows, x.cols, x.cols + y.cols
    c = max(cca._CHUNK_ROWS, p)
    mean_x, mean_y = cca._column_mean(x, c), cca._column_mean(y, c)
    buf = np.empty((p + c, p))
    k = 0
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
        norm = math.hypot(*s, *(math.sqrt(n) * mean))
        tol = cca.default_rank_tol(n, block.shape[1]) * max(s[0], norm)
        rank = int(np.count_nonzero((s > 0) & (s >= tol)))
        if rank == 0:
            raise ValueError("zero numerical rank after centering")
        factors.append((w[:, :rank], s[:rank], vt[:rank].T))
    (w_x, s_x, v_x), (w_y, s_y, v_y) = factors
    return cca.CcaProblem(mean_x, mean_y, s_x, s_y, v_x, v_y,
                          w_x.T @ w_y[:w_x.shape[0]], n=n)


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


def verify_filter_forms(x, y, spec) -> float:
    """Max |difference| between the two constructions of the operator.

    Route one builds the regularized correlation operator from its closed
    form (explicit diagonal matrix products for Tikhonov; the leading
    submatrix of T for T-SVD).  Route two applies the equivalent
    elementwise spectral filter to the singular values.  The two agree to
    rounding error (and exactly, for T-SVD).
    """
    from ccax.cca import prepare

    problem = prepare(x, y)
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


def generate_latent_pairs(cfg):
    """One row per sample in each view, paired 1:1, plus split indices.

    Both views observe shared latent factors z through column-normalized
    random loadings plus independent noise, drawn in this order from one
    generator seeded by ``cfg.seed``.
    """
    from ccax.io import FeatureMatrix

    def loadings(out_dim):
        a = rng.standard_normal((out_dim, cfg.latent_dim))
        return cfg.loading_scale * a / np.linalg.norm(a, axis=0)

    rng = np.random.default_rng(cfg.seed)
    a = loadings(cfg.image_dim)
    b = loadings(cfg.text_dim)
    z = rng.standard_normal((cfg.n_total, cfg.latent_dim))
    x = z @ a.T + cfg.noise_x * rng.standard_normal((cfg.n_total, cfg.image_dim))
    y = z @ b.T + cfg.noise_y * rng.standard_normal((cfg.n_total, cfg.text_dim))
    edges = np.cumsum([0, cfg.n_train, cfg.n_val, cfg.n_test])
    splits = {name: np.arange(edges[i], edges[i + 1], dtype=np.int64)
              for i, name in enumerate(("train", "val", "test"))}
    return FeatureMatrix(x), FeatureMatrix(y), splits


def cca_correlations_eig(x: np.ndarray, y: np.ndarray,
                         gamma_x: float = 0.0,
                         gamma_y: float = 0.0) -> np.ndarray:
    """Canonical correlations via the generalized eigenproblem.

    Solves C_xy (C_yy + g_y I)^-1 C_yx u = s^2 (C_xx + g_x I) u on the
    explicitly formed covariances of column-centered data, and returns the
    descending square roots of the eigenvalues.
    """
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cxx = xc.T @ xc + gamma_x * np.eye(x.shape[1])
    cyy = yc.T @ yc + gamma_y * np.eye(y.shape[1])
    cxy = xc.T @ yc
    lhs = cxy @ np.linalg.solve(cyy, cxy.T)
    vals = scipy.linalg.eigh(lhs, cxx, eigvals_only=True)[::-1]
    return np.sqrt(np.clip(vals, 0.0, None))


def constraint_residual(model, x, y):
    """Max residual of the metric-orthonormality constraints of a fit.

    Rebuilds the appropriate metric (plain covariance, ridge-shifted, or
    rank-truncated) directly from the data and checks U' M U = I.
    """
    from ccax.io import FeatureMatrix

    xc = x.values - model.mean_x
    yc = y.values - model.mean_y
    if model.reg.kind == "tsvd":
        fx = thin_svd(FeatureMatrix(xc))
        fy = thin_svd(FeatureMatrix(yc))
        xc = (fx.u_left[:, :model.reg.k_x] * fx.s[:model.reg.k_x]) \
            @ fx.v_right[:, :model.reg.k_x].T
        yc = (fy.u_left[:, :model.reg.k_y] * fy.s[:model.reg.k_y]) \
            @ fy.v_right[:, :model.reg.k_y].T
    gx = model.reg.gamma_x if model.reg.kind == "tikhonov" else 0.0
    gy = model.reg.gamma_y if model.reg.kind == "tikhonov" else 0.0
    eye = np.eye(model.k)
    rx = model.u.T @ (xc.T @ xc + gx * np.eye(model.m_x)) @ model.u - eye
    ry = model.v.T @ (yc.T @ yc + gy * np.eye(model.m_y)) @ model.v - eye
    return max(np.abs(rx).max(), np.abs(ry).max())


def flatten_ground_truth(ground_truth, n_queries: int,
                         n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth sets as flat ``(items, starts)``.

    Query q owns ``items[starts[q]:starts[q + 1]]``.
    """
    if len(ground_truth) != n_queries:
        raise ValueError(
            f"{len(ground_truth)} ground-truth sets for {n_queries} queries"
        )
    lengths = np.fromiter((len(g) for g in ground_truth), dtype=np.int64,
                          count=n_queries)
    if np.any(lengths == 0):
        bad = int(np.flatnonzero(lengths == 0)[0])
        raise ValueError(f"query {bad} has no ground-truth items")
    items = np.fromiter(itertools.chain.from_iterable(ground_truth),
                        dtype=np.int64, count=int(lengths.sum()))
    starts = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    out_of_range = (items < 0) | (items >= n_items)
    if np.any(out_of_range):
        bad = int(np.searchsorted(starts, np.flatnonzero(out_of_range)[0],
                                  side="right")) - 1
        raise ValueError(
            f"query {bad}: ground-truth index out of range [0, {n_items})"
        )
    return items, starts


def count_ranks(queries: np.ndarray, items: np.ndarray, gt_items: np.ndarray,
                starts: np.ndarray, similarity: str) -> np.ndarray:
    """1-based rank of each query's best-placed ground-truth item.

    Cosine ranks items by descending inner product of normalized vectors,
    ``l2`` by ascending distance; ties go to the smaller item index, but
    only between bitwise-equal scores.  No list is sorted: with s* the
    query's best ground-truth score and i* the smallest ground-truth index
    reaching it, the rank is 1 + #(score better than s*) + #(score equal to
    s* at an index below i*).  Queries are float64 rows, scored
    ``retrieval.BLOCK_ROWS`` rows at a time; query q counts
    ``gt_items[starts[q]:starts[q + 1]]`` as correct.  A zero-norm vector
    under cosine is an error.
    """
    from ccax.retrieval import _row_blocks

    if queries.shape[1] != items.shape[1]:
        raise ValueError(
            f"query dim {queries.shape[1]} != item dim {items.shape[1]}"
        )
    # scores_of(lo, hi) scores query rows [lo, hi) against all items, lower
    # is better: negated cosines, or squared distances under l2
    if similarity == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        sn = np.linalg.norm(items, axis=1)
        for name, norms in (("query", qn), ("item", sn)):
            if np.any(norms == 0):
                offender = int(np.flatnonzero(norms == 0)[0])
                raise ValueError(
                    f"zero-norm {name} vector at index {offender} under cosine"
                )
        # negated once here, not per block: a @ (-b) equals -(a @ b)
        # exactly, as rounding is symmetric in sign
        neg_unit_items_t = -(items / sn[:, None]).T

        def scores_of(lo, hi):
            return (queries[lo:hi] / qn[lo:hi, None]) @ neg_unit_items_t
    elif similarity == "l2":
        item_sq = np.sum(items * items, axis=1)[None, :]

        def scores_of(lo, hi):
            # expanded ||q - s||^2; the -2 q.s term carries all the ordering
            block = queries[lo:hi]
            return (-2.0 * block @ items.T + item_sq
                    + np.sum(block * block, axis=1)[:, None])
    else:
        raise ValueError(f"unknown similarity {similarity!r}")
    n_queries, n_items = queries.shape[0], items.shape[0]
    ranks = np.empty(n_queries, dtype=np.int64)
    index = np.arange(n_items)
    for lo, hi in _row_blocks(n_queries):
        scores = scores_of(lo, hi)
        gt = gt_items[starts[lo]:starts[hi]]
        owner = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
        offsets = starts[lo:hi] - starts[lo]
        gt_scores = scores[owner, gt]
        s_star = np.minimum.reduceat(gt_scores, offsets)
        if np.isnan(s_star).any():
            bad = lo + int(np.flatnonzero(np.isnan(s_star))[0])
            raise ValueError(f"query {bad}: ground-truth score is NaN")
        i_star = np.minimum.reduceat(
            np.where(gt_scores == s_star[owner], gt, n_items), offsets)
        s_star, i_star = s_star[:, None], i_star[:, None]
        ahead = (scores < s_star) | ((scores == s_star) & (index < i_star))
        ranks[lo:hi] = 1 + np.count_nonzero(ahead, axis=1)
    return ranks


def best_ranks(queries, items, ground_truth,
               similarity: str = "cosine") -> np.ndarray:
    """``count_ranks`` with ``ground_truth[q]`` listing the items query q
    counts as correct."""
    queries = np.asarray(queries, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    gt_items, starts = flatten_ground_truth(ground_truth, queries.shape[0],
                                            items.shape[0])
    return count_ranks(queries, items, gt_items, starts, similarity)


def sign_fix_loops(u: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column sign convention: the largest-magnitude entry of each
    weight column u_j (the first, on ties) is made positive, flipping v_j
    alike."""
    signs = np.ones(u.shape[1])
    for j in range(u.shape[1]):
        lead = np.argmax(np.abs(u[:, j]))
        if u[lead, j] < 0:
            signs[j] = -1.0
    return u * signs, v * signs


def rank_by_cosine_loops(queries: np.ndarray, items: np.ndarray) -> list[list[int]]:
    """Plain double-loop cosine ranking, ties toward the smaller index."""
    out = []
    for q in queries:
        sims = []
        for j, s in enumerate(items):
            sims.append(
                float(np.dot(q, s))
                / (float(np.linalg.norm(q)) * float(np.linalg.norm(s)))
            )
        # sort by (-similarity, index)
        order = sorted(range(len(items)), key=lambda j: (-sims[j], j))
        out.append(order)
    return out


def recall_and_median_loops(order: list[list[int]],
                            ground_truth: list[list[int]],
                            ks=(1, 5, 10)) -> tuple[dict[int, float], float]:
    """Recall@k percentages and median best rank, by explicit counting."""
    best_ranks = []
    for q, gt in enumerate(ground_truth):
        ranks = [order[q].index(item) + 1 for item in gt]
        best_ranks.append(min(ranks))
    recalls = {}
    for k in ks:
        hits = sum(1 for r in best_ranks if r <= k)
        recalls[k] = 100.0 * hits / len(best_ranks)
    ranks_sorted = sorted(best_ranks)
    n = len(ranks_sorted)
    if n % 2 == 1:
        median = float(ranks_sorted[n // 2])
    else:
        median = (ranks_sorted[n // 2 - 1] + ranks_sorted[n // 2]) / 2.0
    return recalls, median


def rank(queries: np.ndarray, items: np.ndarray,
         similarity: str = "cosine") -> np.ndarray:
    """Order item indices for each query row.

    Returns an (n_queries, n_items) integer array whose rows are
    permutations: best item first.  Cosine ranks by descending inner
    product of normalized vectors, ``l2`` by ascending distance; ties break
    toward the smaller item index.
    """
    queries = np.asarray(queries, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    if similarity == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        sn = np.linalg.norm(items, axis=1)
        scores = -((queries / qn[:, None]) @ (items / sn[:, None]).T)
    elif similarity == "l2":
        scores = (
            -2.0 * queries @ items.T
            + np.sum(items * items, axis=1)[None, :]
            + np.sum(queries * queries, axis=1)[:, None]
        )
    else:
        raise ValueError(f"unknown similarity {similarity!r}")
    return np.argsort(scores, axis=1, kind="stable")


def sorted_best_ranks(ranked: np.ndarray, ground_truth) -> np.ndarray:
    """1-based position of each query's best ground-truth item in its list."""
    ranked = np.asarray(ranked)
    n_queries, n_items = ranked.shape
    # positions[q, item] = 0-based rank of item in query q's list
    positions = np.empty_like(ranked)
    rows = np.arange(n_queries)[:, None]
    positions[rows, ranked] = np.arange(n_items)[None, :]
    return np.array([int(positions[q, list(gt)].min()) + 1
                     for q, gt in enumerate(ground_truth)], dtype=np.int64)


def evaluate(ranked: np.ndarray, ground_truth, ks=(1, 5, 10), task: str = ""):
    """Recall@k and median best rank of ranked lists, as an EvalReport."""
    from ccax.retrieval import EvalReport

    best = sorted_best_ranks(ranked, ground_truth).astype(np.float64)
    return EvalReport(
        task=task,
        recalls={int(k): 100.0 * int(np.sum(best <= k)) / best.shape[0]
                 for k in ks},
        median_rank=float(np.median(best)),
        n_queries=best.shape[0],
        n_items=np.asarray(ranked).shape[1],
    )


def embed_sentence_gemv(hkse_map, token_vectors) -> np.ndarray:
    """HKSE one vector at a time: a GEMV per token, mean, a GEMV per sentence.

    rbf layers are sqrt(2/out) * cos(W x + b); lin layers pass x through.
    """

    def layer(w, b, x):
        if w is None:
            return x
        return math.sqrt(2.0 / w.shape[0]) * np.cos(w @ x + b)

    words = [layer(hkse_map.w_word, hkse_map.b_word,
                   np.asarray(a, dtype=np.float64)) for a in token_vectors]
    return layer(hkse_map.w_sent, hkse_map.b_sent, np.mean(words, axis=0))


def bandwidth_sorted(table, sample_size: int = 2000, seed: int = 0) -> float:
    """1 / median pairwise distance^2 by a full sort of every distance.

    Draws the same word sample as ``hkse.bandwidth_heuristic`` and takes the
    lower middle of the sorted upper-triangle distances; inf when that
    median is 0.
    """
    if sample_size >= table.vocab_size:
        sample = table.vectors
    else:
        rng = np.random.default_rng(seed)
        rows = rng.choice(table.vocab_size, size=sample_size, replace=False)
        sample = table.vectors[np.sort(rows)]
    sq = (
        np.sum(sample * sample, axis=1)[:, None]
        + np.sum(sample * sample, axis=1)[None, :]
        - 2.0 * sample @ sample.T
    )
    iu = np.triu_indices(sample.shape[0], k=1)
    dists = np.sqrt(np.maximum(sq[iu], 0.0))
    dists.sort()
    median = dists[(dists.shape[0] - 1) // 2]
    return math.inf if median == 0.0 else float(1.0 / median**2)


def table_values_float(text: str) -> tuple[list[str], np.ndarray]:
    """Tokens and values of embedding-table text, each value by ``float()``."""
    lines = text.splitlines()[1:]
    tokens = [line.split()[0] for line in lines]
    values = np.array([[float(v) for v in line.split()[1:]] for line in lines])
    return tokens, values


def read_table_lines(data: bytes, keep=None):
    """Embedding-table bytes read one line at a time, the route the windows
    of ``io.load_embedding_table`` are checked against.

    Each line (ended by ``\\n`` only) is decoded and split; a kept line's
    fields are each parsed by ``float()`` (one holding ``_``, which
    ``loadtxt`` refuses, is not a number) and checked finite.  ``keep`` is
    as the library's.  Returns (tokens, values) of the kept rows, or the
    first bad line's error as ``"<line>: <reason>"``.  The header must be
    valid, and no value text may hold a CR, whose error text is numpy's.
    """
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    count, dim = (int(f) for f in lines[0].split())
    wanted = keep(count) if keep else None
    tokens, rows, first_line = [], [], {}
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            fields = raw.decode("utf-8").split()
        except UnicodeDecodeError as exc:
            return f"{lineno}: not UTF-8 ({exc.reason})"
        if lineno > count + 1:
            if fields:
                return f"{lineno}: more entries than header declares"
            continue
        bad_count = (f"{lineno}: expected token + {dim} values, "
                     f"got {len(fields)} fields")
        if len(fields) < 2:
            return bad_count
        token = fields[0]
        if token in first_line:
            return (f"{lineno}: duplicate token {token!r} "
                    f"(first on line {first_line[token]})")
        first_line[token] = lineno
        if len(fields) != dim + 1:
            return bad_count
        if wanted is not None and not wanted(lineno - 2, token):
            continue
        row = []
        for col, field in enumerate(fields[1:], start=1):
            try:
                row.append(float(field.replace("_", "!")))
            except ValueError:
                return f"{lineno}: value {col} is not a number: {field!r}"
        for col, value in enumerate(row, start=1):
            if not math.isfinite(value):
                return f"{lineno}: value {col} is not finite: {value}"
        tokens.append(token)
        rows.append(row)
    if len(lines) - 1 < count:
        return (f"{len(lines) + 1}: header declares {count} entries, "
                f"found {len(lines) - 1}")
    return tokens, np.array(rows, dtype=np.float64).reshape(-1, dim)


def pairing_to_ground_truth(pair_index, n_items: int,
                            direction: str) -> list[list[int]]:
    """Ground-truth sets for either task from a valid caption->image pairing.

    ``search``: each caption query's single correct image.
    ``annotation``: each image query's set of captions, in caption order.
    """
    pair_index = np.asarray(pair_index, dtype=np.int64)
    if direction == "search":
        return pair_index[:, None].tolist()
    if direction == "annotation":
        counts = np.bincount(pair_index, minlength=n_items)
        captions = np.argsort(pair_index, kind="stable")
        return [group.tolist()
                for group in np.split(captions, np.cumsum(counts)[:-1])]
    raise ValueError(f"unknown direction {direction!r}")


def task_projections_branches(model, task: str, weighting: str,
                              alpha: float | None = None):
    """(image_proj, text_proj) written out branch by branch.

    Asymmetric search is (Sigma U', V'), asymmetric annotation (U', Sigma V'),
    symmetric (Sigma^alpha U', Sigma^alpha V') and sweep
    (Sigma^alpha U', Sigma^(1-alpha) V').
    """
    ut, vt = model.u.T, model.v.T
    sigma = model.sigma
    if weighting == "asymmetric":
        if task == "search":
            return sigma[:, None] * ut, vt
        return ut, sigma[:, None] * vt
    if weighting == "symmetric":
        w = np.power(sigma, alpha)[:, None]
        return w * ut, w * vt
    if weighting == "sweep":
        return (np.power(sigma, alpha)[:, None] * ut,
                np.power(sigma, 1.0 - alpha)[:, None] * vt)
    raise ValueError(f"unknown weighting {weighting!r}")


def task_views(model, images, captions, task: str,
               weighting: str = "asymmetric", alpha: float | None = None):
    """Both views of one task, centered and projected by its branches."""
    image_proj, text_proj = task_projections_branches(model, task, weighting,
                                                      alpha)
    return ((images.values - model.mean_x) @ image_proj.T,
            (captions.values - model.mean_y) @ text_proj.T)


def evaluate_branches(model, images, captions, pair_index=None,
                      weighting: str = "asymmetric",
                      alpha: float | None = None,
                      similarity: str = "cosine", ks=(1, 5, 10)):
    """(search, annotation) reports, each task on its own projections.

    Each task projects both views by ``task_projections_branches`` and
    ranks them by ``count_ranks`` on flat ground truth: search asks for
    each caption's image, annotation for each image's captions.
    """
    from ccax.retrieval import _check_pairing, _report

    pair_index = _check_pairing(pair_index, images.rows, captions.rows)
    image_starts = np.zeros(images.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_index, minlength=images.rows),
              out=image_starts[1:])
    x, y = task_views(model, images, captions, "search", weighting, alpha)
    search = _report(count_ranks(y, x, pair_index,
                                 np.arange(captions.rows + 1), similarity),
                     ks, "search", images.rows)
    x, y = task_views(model, images, captions, "annotation", weighting,
                      alpha)
    annotation = _report(count_ranks(x, y,
                                     np.argsort(pair_index, kind="stable"),
                                     image_starts, similarity),
                         ks, "annotation", captions.rows)
    return search, annotation


def one_task_ranks(g_rows, n_queries: int, item_sqs, task: str,
                   similarity: str, rank_one: bool = False,
                   truth=None) -> np.ndarray:
    """Score one task from its own G: the protocol's kernel before it
    scored both tasks from one.

    ``g_rows(lo, hi)`` returns the bilinear scores of query rows [lo, hi)
    against every item; ``item_sqs`` holds the squared item norms of each
    weighting that shares G.  Cosine ranks by G over the item norm (by the
    sign of G in a one-dimensional model), ``l2`` by G - ||item||^2 / 2.
    Returns one row per weighting: with ``truth`` = (gt_items, starts),
    each query's 1-based rank of its best ground-truth item, counted as
    ``count_ranks`` counts it; without, its first-best item.  A non-finite
    squared norm, a zero norm under cosine and a non-finite best score are
    errors naming the view and row.
    """
    from ccax.retrieval import _row_blocks

    if similarity not in ("cosine", "l2"):
        raise ValueError(f"unknown similarity {similarity!r}")
    query_view, item_view = {"search": ("caption", "image"),
                             "annotation": ("image", "caption")}[task]
    for sq in item_sqs:
        bad = np.flatnonzero(~np.isfinite(sq))
        if bad.size:
            raise ValueError(f"{item_view} {bad[0]}: squared norm is not "
                             "finite")
        if similarity == "cosine" and not sq.all():
            raise ValueError(f"zero-norm {item_view} vector at index "
                             f"{int(np.flatnonzero(sq == 0)[0])} under cosine")
    terms = [np.sqrt(sq) if similarity == "cosine" else 0.5 * sq
             for sq in item_sqs]
    out = np.empty((len(item_sqs), n_queries), dtype=np.int64)
    for lo, hi in _row_blocks(n_queries):
        g = g_rows(lo, hi)
        if truth is not None:
            gt_items, starts = truth
            gt = gt_items[starts[lo]:starts[hi]]
            owner = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
            offsets = starts[lo:hi] - starts[lo]
        for w, term in enumerate(terms):
            if similarity == "l2":
                scores = g - term
            elif rank_one:
                scores = np.sign(g)
            else:
                scores = g / term
            best = scores.argmax(axis=1)
            bad = np.flatnonzero(~np.isfinite(scores[np.arange(hi - lo),
                                                     best]))
            if bad.size:
                raise ValueError(f"{query_view} {lo + bad[0]}: score is not "
                                 "finite")
            if truth is None:
                out[w, lo:hi] = best
                continue
            gt_scores = scores[owner, gt]
            s_star = np.maximum.reduceat(gt_scores, offsets)
            i_star = np.minimum.reduceat(
                np.where(gt_scores == s_star[owner], gt, len(term)), offsets)
            s_star, i_star = s_star[:, None], i_star[:, None]
            out[w, lo:hi] = 1 + np.count_nonzero(
                (scores > s_star)
                | ((scores == s_star) & (np.arange(len(term)) < i_star)),
                axis=1)
    return out


def two_gemm_ranks(model, images, captions, pair_index, image_exps,
                   caption_exps, total: float, similarity: str):
    """(search, annotation) ranks, one row per weighting, each task scored
    by ``one_task_ranks`` from its own product: search from Y~ X~', with
    captions as rows, annotation from X~ Y~', with images as rows.  The
    arguments are those of ``retrieval._protocol_ranks``."""
    from ccax.retrieval import _check_pairing

    pair_index = _check_pairing(pair_index, images.rows, captions.rows)
    x = (images.values - model.mean_x) @ model.u
    y = (captions.values - model.mean_y) @ model.v

    def squared_norms(view, exponent):
        weighted = view * np.power(model.sigma, exponent)
        return np.einsum("ij,ij->i", weighted, weighted)

    image_sqs = [squared_norms(x, e) for e in image_exps]
    caption_sqs = [squared_norms(y, e) for e in caption_exps]
    x *= np.power(model.sigma, total)
    rank_one = model.k == 1
    image_starts = np.zeros(images.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_index, minlength=images.rows),
              out=image_starts[1:])
    search = one_task_ranks(lambda lo, hi: y[lo:hi] @ x.T, captions.rows,
                            image_sqs, "search", similarity, rank_one,
                            (pair_index, np.arange(captions.rows + 1)))
    annotation = one_task_ranks(lambda lo, hi: x[lo:hi] @ y.T, images.rows,
                                caption_sqs, "annotation", similarity,
                                rank_one,
                                (np.argsort(pair_index, kind="stable"),
                                 image_starts))
    return search, annotation


def evaluate_blocks_loop(model, images, captions, pair_index, blocks: int,
                         weighting: str = "asymmetric",
                         alpha: float | None = None,
                         similarity: str = "cosine"):
    """Per-block and mean reports of ``blocks`` >= 2 contiguous image blocks.

    Slices the images, the captions paired into each block and their
    renumbered pairing, ranks each slice by ``two_gemm_ranks``, and appends
    a ``<task>_block<b>`` report per block and task, then ``<task>_mean``,
    each counted here from the ranks.
    """
    from ccax.io import FeatureMatrix
    from ccax.retrieval import EvalReport

    if weighting == "asymmetric":
        image_exp, caption_exp, total = 1.0, 1.0, 1.0
    elif weighting == "symmetric":
        image_exp, caption_exp, total = alpha, alpha, 2 * alpha
    else:
        image_exp, caption_exp, total = alpha, 1 - alpha, 1.0
    pair_index = np.asarray(pair_index, dtype=np.int64)
    edges = np.linspace(0, images.rows, blocks + 1).astype(int)
    per_task = {"search": [], "annotation": []}
    for b in range(blocks):
        lo, hi = edges[b], edges[b + 1]
        keep = (pair_index >= lo) & (pair_index < hi)
        ranks = two_gemm_ranks(
            model, FeatureMatrix(images.values[lo:hi]),
            FeatureMatrix(captions.values[keep]), pair_index[keep] - lo,
            [image_exp], [caption_exp], total, similarity)
        for task, task_ranks, n_items in zip(
                per_task, ranks, (hi - lo, int(keep.sum()))):
            ordered = sorted(task_ranks[0].tolist())
            n = len(ordered)
            per_task[task].append(EvalReport(
                task=f"{task}_block{b}",
                recalls={k: 100.0 * sum(r <= k for r in ordered) / n
                         for k in (1, 5, 10)},
                median_rank=(ordered[(n - 1) // 2] + ordered[n // 2]) / 2,
                n_queries=n, n_items=n_items))
    reports = [rep for b in range(blocks) for rep in
               (per_task["search"][b], per_task["annotation"][b])]
    for task, reps in per_task.items():
        reports.append(EvalReport(
            task=f"{task}_mean",
            recalls={k: float(np.mean([r.recalls[k] for r in reps]))
                     for k in (1, 5, 10)},
            median_rank=float(np.mean([r.median_rank for r in reps])),
            n_queries=int(np.mean([r.n_queries for r in reps])),
            n_items=int(np.mean([r.n_items for r in reps])),
        ))
    return reports


def path_cells(problem, axis_x, axis_y, kind: str, val_images, val_captions,
               pair_index, similarity: str = "cosine"):
    """(search r@1, annotation r@1) of every cell of a path grid.

    Each cell is ``solve(problem, spec)`` evaluated by
    ``evaluate_branches`` at k = 1; ``kind`` is ``tsvd`` or
    ``tikhonov`` and a cell's spec is built from (axis_x[i], axis_y[j]).
    """
    from ccax.cca import RegularizationSpec, solve

    make = getattr(RegularizationSpec, kind)
    search = np.zeros((len(axis_x), len(axis_y)))
    annotation = np.zeros_like(search)
    for i, px in enumerate(axis_x):
        for j, py in enumerate(axis_y):
            s, a = evaluate_branches(solve(problem, make(px, py)), val_images,
                                     val_captions, pair_index,
                                     similarity=similarity, ks=(1,))
            search[i, j] = s.recalls[1]
            annotation[i, j] = a.recalls[1]
    return search, annotation


def first_best(queries: np.ndarray, items: np.ndarray,
               similarity: str) -> np.ndarray:
    """Index of each query's best-scoring item, on the block scores of
    ``count_ranks``, so an item is first-best exactly where its
    rank there would be 1.

    Ties go to the smaller index only between bitwise-equal scores.  A NaN
    at a query's chosen position is an error.
    """
    from ccax.retrieval import _row_blocks

    if similarity == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        sn = np.linalg.norm(items, axis=1)
        for name, norms in (("query", qn), ("item", sn)):
            if np.any(norms == 0):
                raise ValueError(f"zero-norm {name} vector at index "
                                 f"{int(np.flatnonzero(norms == 0)[0])} "
                                 "under cosine")
        neg_unit_items_t = -(items / sn[:, None]).T

        def scores_of(lo, hi):
            return (queries[lo:hi] / qn[lo:hi, None]) @ neg_unit_items_t
    else:
        item_sq = np.sum(items * items, axis=1)[None, :]

        def scores_of(lo, hi):
            block = queries[lo:hi]
            return (-2.0 * block @ items.T + item_sq
                    + np.sum(block * block, axis=1)[:, None])
    best = np.empty(queries.shape[0], dtype=np.int64)
    for lo, hi in _row_blocks(queries.shape[0]):
        scores = scores_of(lo, hi)
        chosen = np.argmin(scores, axis=1)
        nan = np.isnan(scores[np.arange(hi - lo), chosen])
        if nan.any():
            raise ValueError(
                f"query {lo + int(np.flatnonzero(nan)[0])}: score is NaN")
        best[lo:hi] = chosen
    return best


def top1_recalls(images: np.ndarray, captions: np.ndarray, sigma: np.ndarray,
                 pair_index: np.ndarray, similarity: str) -> tuple[float, float]:
    """(search, annotation) r@1 percentages of canonical-space views.

    ``images`` holds U'x rows and ``captions`` V'y rows; Sigma goes on the
    search side, as in the asymmetric embedding: captions query Sigma U'x
    in search, images query Sigma V'y in annotation.  A caption hits at its
    own image, an image at one of its own captions.
    """
    found = first_best(captions, images * sigma, similarity)
    search = int(np.count_nonzero(found == pair_index))
    found = first_best(images, captions * sigma, similarity)
    annotation = int(np.count_nonzero(pair_index[found]
                                      == np.arange(images.shape[0])))
    return (100.0 * search / captions.shape[0],
            100.0 * annotation / images.shape[0])


def filter_then_svd(problem, spec):
    """(scale_x, scale_y, p_x, sigma, p_y) of the filtered operator.

    ``scale_x`` maps an array whose columns follow Vx to the filtered
    columns the rotation p_x acts on: the leading k_x columns divided by
    s_x for ``tsvd`` and ``none``, every column times 1/sqrt(s_x^2+gamma_x)
    for ``tikhonov``.  sigma is clamped to [0, 1].  The same filter as
    ``cca.solve``, kept apart so the per-cell reference does not share
    the solver's code.
    """
    s_x, s_y = problem.s_x, problem.s_y
    if spec.kind == "tikhonov":
        t0 = (s_x[:, None] * problem.t) * s_y[None, :]
        dx = 1.0 / np.sqrt(s_x**2 + spec.gamma_x)
        dy = 1.0 / np.sqrt(s_y**2 + spec.gamma_y)
        op = (dx[:, None] * t0) * dy[None, :]
        scale_x, scale_y = (lambda a: a * dx), (lambda a: a * dy)
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
        scale_x, scale_y = ((lambda a: a[:, :k_x] / s_x[:k_x]),
                            (lambda a: a[:, :k_y] / s_y[:k_y]))
    p_x, sigma, p_yt = np.linalg.svd(op, full_matrices=False)
    return scale_x, scale_y, p_x, np.clip(sigma, 0.0, 1.0), p_yt.T


def rotated_path_cells(problem, axis_x, axis_y, kind: str, val_images,
                       val_captions, pair_index, similarity: str = "cosine"):
    """(search r@1, annotation r@1) of every cell of a path grid, each cell
    scored in its own canonical space: the SVD of the filtered operator
    (``filter_then_svd``), its column scale and rotation applied to the
    rotated validation views, and ``top1_recalls``."""
    from ccax.cca import RegularizationSpec

    make = getattr(RegularizationSpec, kind)
    x_rot = (val_images.values - problem.mean_x) @ problem.v_x
    y_rot = (val_captions.values - problem.mean_y) @ problem.v_y
    search = np.zeros((len(axis_x), len(axis_y)))
    annotation = np.zeros_like(search)
    for i, px in enumerate(axis_x):
        for j, py in enumerate(axis_y):
            scale_x, scale_y, p_x, sigma, p_y = filter_then_svd(
                problem, make(px, py))
            search[i, j], annotation[i, j] = top1_recalls(
                scale_x(x_rot) @ p_x, scale_y(y_rot) @ p_y, sigma,
                pair_index, similarity)
    return search, annotation


def matrix_to_bytes(m) -> bytes:
    """One FMAT1 record built as one ``bytes``: the reference for the
    writes ``io.MatrixWriter`` makes from the array's own buffer."""
    from ccax.io import FMAT1_MAGIC

    header = FMAT1_MAGIC + struct.pack("<QQ", m.rows, m.cols)
    payload = np.ascontiguousarray(m.values, dtype="<f8").tobytes()
    return header + payload


def project(view, mean, basis) -> np.ndarray:
    """(view - mean) @ basis.T over the whole view at once: the route
    ``retrieval._project``, which centers and projects a block of rows at a
    time, replaced."""
    return (view.values - mean) @ basis.T


def embed_corpus(maps, corpus, table):
    """The blocks of ``hkse.embed_blocks`` collected into one
    ``FeatureMatrix``: one embedded row per sentence, the maps' outputs
    side by side.  ``maps`` is one map or a list."""
    from ccax import hkse
    from ccax.io import FeatureMatrix

    if isinstance(maps, hkse.HkseMap):
        maps = [maps]
    return FeatureMatrix(np.vstack(
        [block.copy() for block in hkse.embed_blocks(maps, corpus, table)]))


def save_embedding_table(table, path) -> None:
    """Write ``table`` as a text embedding table, the format
    ``io.load_embedding_table`` reads; 17 significant digits round-trip any
    float64 exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.vocab_size} {table.dim}\n")
        for token, vec in zip(table.tokens, table.vectors):
            fh.write(token + " " + " ".join(f"{v:.17g}" for v in vec) + "\n")
