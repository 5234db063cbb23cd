"""Retrieval in a model's canonical space: one scoring kernel, and the
recall@k / median-rank protocol.

Both views are projected once, unweighted: x~ = U'(x - mean_x), y~ =
V'(y - mean_y).  With Sigma^a on the images and Sigma^b on the captions,
every task scores the bilinear form x~' Sigma^(a+b) y~; a query's own norm
is common to all its items, so where Sigma sits acts only through the item
norm.  A weighting is thus a pair of item exponents and their total
(:func:`_exponents`): ``asymmetric`` (Sigma on the search side only) has
search items Sigma x~, annotation items Sigma y~ and total 1;
``symmetric`` has Sigma^alpha on both sides, total 2 alpha; ``sweep`` has
Sigma^alpha x~ and Sigma^(1-alpha) y~, total exactly 1.  Search queries
are captions and its items images; annotation the reverse.  So both tasks
score one matrix G = Y~ (Sigma^total X~)', captions by images, and
:func:`_rank_tasks` forms each block of its caption rows once and scores
both from it: search along the rows, annotation down the columns.  It is
the one kernel of the protocol, the alpha sweep (one G for every alpha)
and the path cells of :mod:`ccax.selection`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cca import CcaModel
from .io import FeatureMatrix

TASKS = ("search", "annotation")


@dataclass(frozen=True)
class TaskEmbedding:
    """A model's unweighted projection U'(x - mean_x), V'(y - mean_y), which
    every weighting scores: an evaluation projects each view once."""

    image_proj: np.ndarray  # (k, m_x)
    text_proj: np.ndarray   # (k, m_y)
    mean_x: np.ndarray
    mean_y: np.ndarray

    def embed_images(self, x) -> np.ndarray:
        return _project(x, self.mean_x, self.image_proj)

    def embed_texts(self, y) -> np.ndarray:
        return _project(y, self.mean_y, self.text_proj)


def _exponents(weighting: str,
               alpha: float | None) -> tuple[float, float, float]:
    """(image, caption, total) exponents of Sigma: search items Sigma^image
    x~, annotation items Sigma^caption y~, both scoring x~' Sigma^total y~.
    Sigma^0 = I, zero correlations included."""
    if weighting == "asymmetric":
        return 1.0, 1.0, 1.0
    if weighting == "symmetric":
        if alpha is None or not 0 <= alpha < np.inf:
            raise ValueError("symmetric weighting needs a finite alpha >= 0")
        return alpha, alpha, 2.0 * alpha
    if weighting == "sweep":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("sweep weighting needs alpha in [0, 1]")
        return alpha, 1.0 - alpha, 1.0
    raise ValueError(f"unknown weighting {weighting!r}")


#: Caption rows of G scored at a time.  Both tasks read one block, so the
#: kernel holds O(BLOCK_ROWS x images) whatever the number of captions.  192
#: is a multiple of the 8- and 12-row tiles of OpenBLAS's x86 kernels: on one
#: BLAS thread a block's scores then equal, bit for bit, the same rows of a
#: single product over all captions.
BLOCK_ROWS = 192


@dataclass(frozen=True)
class EvalReport:
    """Recall percentages and median rank for one retrieval task."""

    task: str
    recalls: dict[int, float]  # k -> percent of queries hit within top k
    median_rank: float
    n_queries: int
    n_items: int


def _row_blocks(n_rows: int, rows: int = BLOCK_ROWS) -> list[tuple[int, int]]:
    """[lo, hi) ranges of ``rows`` rows; the last one takes the tail.

    No block is shorter than ``rows`` unless all rows are: BLAS rounds a
    product of a few rows differently from the same rows inside a larger one.
    """
    starts = list(range(0, n_rows - rows + 1, rows)) or [0]
    return list(zip(starts, starts[1:] + [n_rows]))


#: Multiply-adds up to which OpenBLAS's SkylakeX DGEMM takes its small-matrix
#: kernel, which rounds otherwise than the kernel of a larger product.
_SMALL_GEMM = 100**3


def _project(view, mean: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(view - mean) @ basis.T of a ``FeatureMatrix``, whose rows are read
    by ``view.block(lo, hi)``, centered and projected a block of rows at a
    time into one output: no centered copy of the whole view is held.  A
    block is the fewest whole BLOCK_ROWS tiles whose product is past the
    small-matrix size, as a taller view's is, so on one BLAS thread its
    rows equal, bit for bit, those of one product over the whole view."""
    out = np.empty((view.rows, basis.shape[0]))
    tiles = _SMALL_GEMM // (BLOCK_ROWS * basis.size) + 1
    for lo, hi in _row_blocks(view.rows, tiles * BLOCK_ROWS):
        np.matmul(view.block(lo, hi) - mean, basis.T, out=out[lo:hi])
    return out


def _rank_tasks(g_rows, image_sqs, caption_sqs, similarity: str,
                rank_one: bool = False,
                truth=None) -> tuple[np.ndarray, np.ndarray]:
    """Score both tasks from each block of G: the kernel of the protocol,
    the sweep and path cells.

    ``g_rows(lo, hi)`` returns the bilinear scores G of caption rows [lo,
    hi) against every image.  Weighting w has the squared image norms
    ``image_sqs[w]`` (the search items) and caption norms
    ``caption_sqs[w]`` (the annotation items), all over one G.  Cosine
    ranks by G over the item norm (by the sign of G in a one-dimensional
    model, where every cosine is exactly +-1), ``l2`` by G - ||item||^2 /
    2, whose order and ties are those of the distance.  Search reads a
    block along its rows, annotation down its columns.  Returns (search,
    annotation), one row per weighting.

    With ``truth`` = (pair_index, g_true), where caption c belongs to image
    pair_index[c] and g_true[c] is its entry of G formed before the sweep,
    each caption's and each image's 1-based rank of its best ground-truth
    item.  ``g_rows`` must then return a fresh block: g_true is written
    into it at the ground-truth positions, so every entry has one value and
    both tasks' s* are entries of the G they count.  A rank is counted, not
    sorted: with s* the best ground-truth score and i* the smallest
    ground-truth index reaching it, it is 1 + #(score above s*) + #(score
    equal to s* at an index below i*).  So ties go to the smaller index,
    but only between bitwise-equal scores: OpenBLAS rounds the edge tiles
    of a product differently, so duplicated rows can score apart.  Without
    ``truth``, each caption's first-best image and each image's first-best
    caption, ties to the smaller index.

    A non-finite squared norm, a zero norm under cosine and a non-finite
    best score are errors naming the view and row: image norms first and
    caption norms next, before the sweep, then each caption's best score
    and each image's, after it.
    """
    if similarity not in ("cosine", "l2"):
        raise ValueError(f"unknown similarity {similarity!r}")
    for view, sqs in (("image", image_sqs), ("caption", caption_sqs)):
        for sq in sqs:
            bad = np.flatnonzero(~np.isfinite(sq))
            if bad.size:
                raise ValueError(f"{view} {bad[0]}: squared norm is not "
                                 "finite")
            if similarity == "cosine" and not sq.all():
                raise ValueError(f"zero-norm {view} vector at index "
                                 f"{int(np.flatnonzero(sq == 0)[0])} under "
                                 "cosine")

    def score(g, term, out=None):
        if similarity == "l2":
            return np.subtract(g, term, out=out)
        if rank_one:
            return np.sign(g, out=out)
        return np.divide(g, term, out=out)

    # what each weighting divides G by, or subtracts from it
    image_terms, caption_terms = (
        [np.sqrt(sq) if similarity == "cosine" else 0.5 * sq for sq in sqs]
        for sqs in (image_sqs, caption_sqs))
    n_images, n_captions = len(image_terms[0]), len(caption_terms[0])
    if truth is not None:
        pair_index, g_true = truth
        search_star = [score(g_true, term[pair_index])
                       for term in image_terms]
        # each image's captions, in caption order
        own = np.argsort(pair_index, kind="stable")
        owner = pair_index[own]
        starts = np.searchsorted(owner, np.arange(n_images))
        annotation_star, annotation_first = [], []
        for term in caption_terms:
            own_scores = score(g_true, term)[own]
            s_star = np.maximum.reduceat(own_scores, starts)
            annotation_star.append(s_star)
            annotation_first.append(np.minimum.reduceat(
                np.where(own_scores == s_star[owner], own, n_captions),
                starts))
    search = np.empty((len(image_terms), n_captions), dtype=np.int64)
    annotation = np.ones((len(image_terms), n_images), dtype=np.int64)
    # each caption's and each image's best score; max and argmax keep NaN
    caption_best = np.empty(search.shape)
    image_best = np.full(annotation.shape, -np.inf)
    images = np.arange(n_images)
    scores = down = np.empty(0)
    for lo, hi in _row_blocks(n_captions):
        g = g_rows(lo, hi)
        rows = np.arange(hi - lo)
        if scores.shape != g.shape:
            # one score buffer per task, kept while blocks keep their shape
            # (only the last can be taller: its old pair goes first).  Down
            # the columns reads fastest in G's own layout, and a path cell's
            # blocks are column-major views
            del scores, down
            scores, down = np.empty(g.shape), np.empty_like(g)
        if truth is not None:
            g[rows, pair_index[lo:hi]] = g_true[lo:hi]
        for w, (image_term, caption_term) in enumerate(zip(image_terms,
                                                           caption_terms)):
            score(g, image_term, scores)
            if truth is None:
                best = scores.argmax(axis=1)
                search[w, lo:hi] = best
                caption_best[w, lo:hi] = scores[rows, best]
            else:
                caption_best[w, lo:hi] = scores.max(axis=1)
                s_star = search_star[w][lo:hi, None]
                row, image = np.divmod(np.flatnonzero(scores == s_star),
                                       n_images)
                ahead = image < pair_index[lo + row]
                search[w, lo:hi] = (
                    1 + np.count_nonzero(scores > s_star, axis=1)
                    + np.bincount(row[ahead], minlength=hi - lo))
            score(g, caption_term[lo:hi, None], down)
            if truth is None:
                best = down.argmax(axis=0)
                top = down[best, images]
                # strictly better: an earlier block keeps its ties
                better = top > image_best[w]
                annotation[w, better] = lo + best[better]
            else:
                top = down.max(axis=0)
                s_star = annotation_star[w]
                row, image = np.divmod(np.flatnonzero(down == s_star),
                                       n_images)
                ahead = lo + row < annotation_first[w][image]
                annotation[w] += np.count_nonzero(down > s_star, axis=0)
                annotation[w] += np.bincount(image[ahead],
                                             minlength=n_images)
            np.maximum(image_best[w], top, out=image_best[w])
    for view, best in (("caption", caption_best), ("image", image_best)):
        bad = np.flatnonzero(~np.isfinite(best).all(axis=0))
        if bad.size:
            raise ValueError(f"{view} {bad[0]}: score is not finite")
    return search, annotation


def _report(ranks: np.ndarray, ks, task: str, n_items: int) -> EvalReport:
    """Recall@k percentages and median of best ranks (1-indexed)."""
    n_queries = ranks.shape[0]
    return EvalReport(
        task=task,
        recalls={
            int(k): 100.0 * int(np.sum(ranks <= k)) / n_queries for k in ks
        },
        median_rank=float(np.median(ranks)),
        n_queries=n_queries,
        n_items=n_items,
    )


def _check_pairing(pair_index, n_images: int, n_captions: int,
                   name: str = "pair_index") -> np.ndarray:
    """Validated caption->image rows; ``None`` means the identity pairing.

    Every caption must name an image, and every image needs a caption.
    Messages call the pairing ``name`` (the CLI passes its flag).
    """
    if pair_index is None:
        if n_captions != n_images:
            raise ValueError(f"{name} required when row counts differ "
                             f"({n_images} images, {n_captions} captions)")
        return np.arange(n_images, dtype=np.int64)
    pair_index = np.asarray(pair_index, dtype=np.int64)
    if pair_index.shape[0] != n_captions:
        raise ValueError(f"{name} length must match caption count "
                         f"({len(pair_index)} rows, {n_captions} captions)")
    outside = np.flatnonzero((pair_index < 0) | (pair_index >= n_images))
    if outside.size:
        raise ValueError(f"{name} row {outside[0]} names image "
                         f"{pair_index[outside[0]]}, out of range for "
                         f"{n_images} images")
    captionless = np.flatnonzero(np.bincount(pair_index, minlength=n_images)
                                 == 0)
    if captionless.size:
        raise ValueError(f"image {captionless[0]} has no paired captions")
    return pair_index


def _protocol_ranks(model: CcaModel, images: FeatureMatrix,
                    captions: FeatureMatrix, pair_index, image_exps,
                    caption_exps, total: float,
                    similarity: str) -> tuple[np.ndarray, np.ndarray]:
    """(search, annotation) ranks, one row per weighting.

    Weighting w has the item exponents ``image_exps[w]`` and
    ``caption_exps[w]``; all share ``total``, so one G serves them all.
    """
    pair_index = _check_pairing(pair_index, images.rows, captions.rows)
    proj = TaskEmbedding(model.u.T, model.v.T, model.mean_x, model.mean_y)
    x, y = proj.embed_images(images), proj.embed_texts(captions)

    def squared_norms(view, exponent):
        weighted = view * np.power(model.sigma, exponent)
        return np.einsum("ij,ij->i", weighted, weighted)

    image_sqs = [squared_norms(x, e) for e in image_exps]
    caption_sqs = [squared_norms(y, e) for e in caption_exps]
    # Sigma^total goes on the image side of both tasks' G, in place: the
    # images are the smaller view and are not needed unscaled any more
    x *= np.power(model.sigma, total)
    # each caption's entry at its own image, formed once for every block to
    # hold; the image rows are gathered a block at a time
    g_true = np.concatenate([
        np.einsum("ij,ij->i", y[lo:hi], x[pair_index[lo:hi]])
        for lo, hi in _row_blocks(captions.rows)])
    return _rank_tasks(lambda lo, hi: y[lo:hi] @ x.T, image_sqs, caption_sqs,
                       similarity, model.k == 1, (pair_index, g_true))


def evaluate_bidirectional(model: CcaModel, images: FeatureMatrix,
                           captions: FeatureMatrix,
                           pair_index: np.ndarray | None = None,
                           weighting: str = "asymmetric",
                           alpha: float | None = None,
                           similarity: str = "cosine",
                           ks=(1, 5, 10)) -> tuple[EvalReport, EvalReport]:
    """Run both retrieval tasks; returns (search, annotation) reports.

    ``pair_index`` maps caption rows to image rows and defaults to the
    identity (requires equally many captions and images).  ``weighting``
    is ``asymmetric``, ``symmetric`` (with ``alpha`` >= 0) or ``sweep``
    (with ``alpha`` in [0, 1]), as the module docstring sets out.
    """
    image_exp, caption_exp, total = _exponents(weighting, alpha)
    search, annotation = _protocol_ranks(model, images, captions, pair_index,
                                         [image_exp], [caption_exp], total,
                                         similarity)
    return (_report(search[0], ks, "search", images.rows),
            _report(annotation[0], ks, "annotation", captions.rows))


def evaluate_blocks(model: CcaModel, images: FeatureMatrix,
                    captions: FeatureMatrix, pair_index: np.ndarray | None,
                    blocks: int, weighting: str = "asymmetric",
                    alpha: float | None = None,
                    similarity: str = "cosine") -> list[EvalReport]:
    """Both tasks on ``blocks`` contiguous image blocks and their captions.

    The whole pairing is checked first, as :func:`evaluate_bidirectional`
    checks it.  One block gives that function's (search, annotation)
    reports.  More give a ``<task>_block<b>`` report per block and task,
    then a ``<task>_mean`` report per task averaging the blocks (the
    five-1K-split MSCOCO protocol).
    """
    pair_index = _check_pairing(pair_index, images.rows, captions.rows)
    if not 1 <= blocks <= images.rows:
        raise ValueError(f"blocks must be between 1 and the {images.rows} "
                         f"images, got {blocks}")
    if blocks == 1:
        return list(evaluate_bidirectional(
            model, images, captions, pair_index, weighting=weighting,
            alpha=alpha, similarity=similarity))
    edges = np.linspace(0, images.rows, blocks + 1).astype(int)
    reports = []
    per_task: dict[str, list[EvalReport]] = {task: [] for task in TASKS}
    for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        keep = (pair_index >= lo) & (pair_index < hi)
        for rep in evaluate_bidirectional(
                model, FeatureMatrix(images.values[lo:hi]),
                FeatureMatrix(captions.values[keep]), pair_index[keep] - lo,
                weighting=weighting, alpha=alpha, similarity=similarity):
            per_task[rep.task].append(rep)
            reports.append(replace(rep, task=f"{rep.task}_block{b}"))
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


@dataclass(frozen=True)
class SweepCurve:
    """Per-alpha r@k of both tasks under (Sigma^alpha, Sigma^(1-alpha))."""

    alphas: np.ndarray
    search_scores: np.ndarray
    annotation_scores: np.ndarray
    k: int


def alpha_sweep(model: CcaModel, images: FeatureMatrix,
                captions: FeatureMatrix,
                alphas, pair_index: np.ndarray | None = None,
                k: int = 10, similarity: str = "cosine") -> SweepCurve:
    """r@k of both tasks under the sweep weighting at each alpha.

    The endpoints recover the asymmetric weighting: alpha = 1 is
    asymmetric search, alpha = 0 asymmetric annotation.  Every alpha has
    total exponent 1, so each block of G is formed once and scored for
    every alpha; only the item norms change.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if alphas.size == 0 or not np.all((alphas >= 0) & (alphas <= 1)):
        raise ValueError("alpha grid must lie in [0, 1]")
    search, annotation = _protocol_ranks(model, images, captions, pair_index,
                                         alphas, 1.0 - alphas, 1.0,
                                         similarity)
    return SweepCurve(alphas,
                      100.0 * np.count_nonzero(search <= k, axis=1)
                      / captions.rows,
                      100.0 * np.count_nonzero(annotation <= k, axis=1)
                      / images.rows, k)


# ---------------------------------------------------------------------------
# TSV export
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(v, ".6g")


def reports_to_tsv(reports) -> str:
    lines = ["task\tr1\tr5\tr10\tmedr\tn_queries\tn_items"]
    for rep in reports:
        lines.append(
            f"{rep.task}\t{_fmt(rep.recalls[1])}\t{_fmt(rep.recalls[5])}\t"
            f"{_fmt(rep.recalls[10])}\t{_fmt(rep.median_rank)}\t"
            f"{rep.n_queries}\t{rep.n_items}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_tsv(curve: SweepCurve) -> str:
    lines = [f"alpha\tr{curve.k}_search\tr{curve.k}_annotation"]
    for alpha, s, a in zip(curve.alphas, curve.search_scores,
                           curve.annotation_scores):
        lines.append(f"{_fmt(alpha)}\t{_fmt(s)}\t{_fmt(a)}")
    return "\n".join(lines) + "\n"
