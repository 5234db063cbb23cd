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
replaced.  The list-of-lists ground truth (``pairing_to_ground_truth``),
the per-weighting projection branches (``task_projections_branches``) and
the block-slicing loop of ``eval --blocks`` (``evaluate_blocks_loop``) are
the routes that ``evaluate_bidirectional``'s flat ground truth, the
single (Sigma^a U', Sigma^b V') formula and ``evaluate_blocks`` replaced.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


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
    from ccax import cca
    from ccax.io import FeatureMatrix

    xc = x.values - model.mean_x
    yc = y.values - model.mean_y
    if model.reg.kind == "tsvd":
        fx = cca.thin_svd(FeatureMatrix(xc))
        fy = cca.thin_svd(FeatureMatrix(yc))
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


def sign_fix_loops(p_x: np.ndarray,
                   p_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column sign convention: the largest-magnitude entry of each
    p_x column (the first, on ties) is made positive, flipping p_y alike."""
    signs = np.ones(p_x.shape[1])
    for j in range(p_x.shape[1]):
        lead = np.argmax(np.abs(p_x[:, j]))
        if p_x[lead, j] < 0:
            signs[j] = -1.0
    return p_x * signs, p_y * signs


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


def evaluate_blocks_loop(model, images, captions, pair_index, blocks: int,
                         weighting: str = "asymmetric",
                         alpha: float | None = None,
                         similarity: str = "cosine"):
    """Per-block and mean reports of ``blocks`` >= 2 contiguous image blocks.

    Slices the images, the captions paired into each block and their
    renumbered pairing, evaluates each slice, and appends a
    ``<task>_block<b>`` report per block and task, then ``<task>_mean``.
    """
    from ccax.io import FeatureMatrix
    from ccax.retrieval import EvalReport, evaluate_bidirectional

    pair_index = np.asarray(pair_index, dtype=np.int64)
    edges = np.linspace(0, images.rows, blocks + 1).astype(int)
    reports = []
    per_task = {"search": [], "annotation": []}
    for b in range(blocks):
        lo, hi = edges[b], edges[b + 1]
        keep = (pair_index >= lo) & (pair_index < hi)
        search, annotation = evaluate_bidirectional(
            model, FeatureMatrix(images.values[lo:hi]),
            FeatureMatrix(captions.values[keep]), pair_index[keep] - lo,
            weighting=weighting, alpha=alpha, similarity=similarity)
        for rep in (search, annotation):
            per_task[rep.task].append(rep)
            reports.append(EvalReport(
                task=f"{rep.task}_block{b}", recalls=rep.recalls,
                median_rank=rep.median_rank, n_queries=rep.n_queries,
                n_items=rep.n_items))
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
