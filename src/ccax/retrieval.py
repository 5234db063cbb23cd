"""Task-dependent embeddings, ranking, and the recall@k / median-rank protocol.

Retrieval runs in the canonical space of a fitted model.  The query side
keeps plain canonical weights while the search side is weighted by the
canonical correlations -- which directions to trust -- so the effective
projections depend on the task:

    search      images -> Sigma U'x,  captions -> V'y
    annotation  images -> U'x,        captions -> Sigma V'y

The symmetric alternative scales both sides by Sigma^alpha, and the sweep
family (Sigma^alpha U', Sigma^(1-alpha) V') interpolates between the two
asymmetric placements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cca import CcaModel
from .io import FeatureMatrix

TASKS = ("search", "annotation")


@dataclass(frozen=True)
class TaskEmbedding:
    """Effective projections applied to train-mean-centered test vectors."""

    image_proj: np.ndarray  # (k, m_x)
    text_proj: np.ndarray   # (k, m_y)
    mean_x: np.ndarray
    mean_y: np.ndarray

    def embed_images(self, x) -> np.ndarray:
        values = x.values if isinstance(x, FeatureMatrix) else np.asarray(x)
        return (values - self.mean_x) @ self.image_proj.T

    def embed_texts(self, y) -> np.ndarray:
        values = y.values if isinstance(y, FeatureMatrix) else np.asarray(y)
        return (values - self.mean_y) @ self.text_proj.T


def _sigma_power(sigma: np.ndarray, alpha: float) -> np.ndarray:
    # 0^0 = 1 so alpha = 0 is exactly the unweighted CCA baseline
    return np.power(sigma, alpha)


def make_task_embedding(model: CcaModel, task: str, weighting: str = "asymmetric",
                        alpha: float | None = None) -> TaskEmbedding:
    """Build the projections (Sigma^a U', Sigma^b V') of one retrieval task.

    ``weighting`` picks (a, b): ``asymmetric`` is (1, 0) for search and
    (0, 1) for annotation (canonical correlations on the search side only),
    ``symmetric`` is (alpha, alpha) with alpha >= 0, and ``sweep`` is
    (alpha, 1 - alpha) with alpha in [0, 1], where the task only labels
    which side is queried.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if weighting == "asymmetric":
        a, b = (1.0, 0.0) if task == "search" else (0.0, 1.0)
    elif weighting == "symmetric":
        if alpha is None or not 0 <= alpha < np.inf:
            raise ValueError("symmetric weighting needs a finite alpha >= 0")
        a, b = alpha, alpha
    elif weighting == "sweep":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("sweep weighting needs alpha in [0, 1]")
        a, b = alpha, 1.0 - alpha
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    def weighted(power, weights_t):
        # Sigma^0 = I: the unscaled side keeps the weights, not a copy
        if power == 0:
            return weights_t
        return _sigma_power(model.sigma, power)[:, None] * weights_t

    return TaskEmbedding(image_proj=weighted(a, model.u.T),
                         text_proj=weighted(b, model.v.T),
                         mean_x=model.mean_x, mean_y=model.mean_y)


#: Query rows scored at a time.  The protocol holds one block of scores, so
#: its memory is O(BLOCK_ROWS x items) whatever the number of queries.  192
#: is a multiple of the 8- and 12-row tiles of OpenBLAS's x86 kernels: on one
#: BLAS thread a block's scores then equal, bit for bit, the same rows of a
#: single product over all queries.
BLOCK_ROWS = 192


@dataclass(frozen=True)
class EvalReport:
    """Recall percentages and median rank for one retrieval task."""

    task: str
    recalls: dict[int, float]  # k -> percent of queries hit within top k
    median_rank: float
    n_queries: int
    n_items: int


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """[lo, hi) row ranges of BLOCK_ROWS rows; the last one takes the tail.

    No block is shorter than BLOCK_ROWS unless all rows are: BLAS rounds a
    product of a few rows differently from the same rows inside a larger one.
    """
    starts = list(range(0, n_rows - BLOCK_ROWS + 1, BLOCK_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n_rows]))


def _count_ranks(queries: np.ndarray, items: np.ndarray, gt_items: np.ndarray,
                 starts: np.ndarray, similarity: str) -> np.ndarray:
    """1-based rank of each query's best-placed ground-truth item.

    Cosine ranks items by descending inner product of normalized vectors,
    ``l2`` by ascending distance; ties go to the smaller item index, but
    only between bitwise-equal scores: duplicated items can score
    differently, as OpenBLAS rounds the edge tiles of the item axis
    differently.  No list is sorted: with s* the query's best ground-truth
    score and i* the smallest ground-truth index reaching it, the rank is
    1 + #(score better than s*) + #(score equal to s* at an index below i*).
    Queries are float64 rows, scored BLOCK_ROWS rows at a time; query q
    counts ``gt_items[starts[q]:starts[q + 1]]`` as correct.  A zero-norm
    vector under cosine is an error.
    """
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


def evaluate_bidirectional(model: CcaModel, images: FeatureMatrix,
                           captions: FeatureMatrix,
                           pair_index: np.ndarray | None = None,
                           weighting: str = "asymmetric",
                           alpha: float | None = None,
                           similarity: str = "cosine",
                           ks=(1, 5, 10)) -> tuple[EvalReport, EvalReport]:
    """Run both retrieval tasks; returns (search, annotation) reports.

    ``pair_index`` maps caption rows to image rows and defaults to the
    identity (requires equally many captions and images).
    """
    pair_index = _check_pairing(pair_index, images.rows, captions.rows)
    # ground truth as flat (items, starts): search asks for each caption's
    # one image, annotation for each image's captions in caption order
    image_starts = np.zeros(images.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_index, minlength=images.rows),
              out=image_starts[1:])
    emb = make_task_embedding(model, "search", weighting, alpha)
    search = _report(
        _count_ranks(emb.embed_texts(captions), emb.embed_images(images),
                     pair_index, np.arange(captions.rows + 1), similarity),
        ks, "search", images.rows,
    )
    emb = make_task_embedding(model, "annotation", weighting, alpha)
    annotation = _report(
        _count_ranks(emb.embed_images(images), emb.embed_texts(captions),
                     np.argsort(pair_index, kind="stable"), image_starts,
                     similarity),
        ks, "annotation", captions.rows,
    )
    return search, annotation


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
    """Per-alpha r@k for both tasks over one shared sweep embedding."""

    alphas: np.ndarray
    search_scores: np.ndarray
    annotation_scores: np.ndarray
    k: int


def alpha_sweep(model: CcaModel, images: FeatureMatrix,
                captions: FeatureMatrix,
                alphas, pair_index: np.ndarray | None = None,
                k: int = 10, similarity: str = "cosine") -> SweepCurve:
    """Evaluate both tasks under (Sigma^a U', Sigma^(1-a) V') for each a.

    The endpoints recover the asymmetric embeddings: a = 1 is asymmetric
    search, a = 0 is asymmetric annotation.
    """
    alphas = np.asarray(list(alphas), dtype=np.float64)
    if alphas.size == 0 or not np.all((alphas >= 0) & (alphas <= 1)):
        raise ValueError("alpha grid must lie in [0, 1]")
    search_scores = np.empty_like(alphas)
    annotation_scores = np.empty_like(alphas)
    for i, alpha in enumerate(alphas):
        search, annotation = evaluate_bidirectional(
            model, images, captions, pair_index,
            weighting="sweep", alpha=float(alpha),
            similarity=similarity, ks=(k,),
        )
        search_scores[i] = search.recalls[k]
        annotation_scores[i] = annotation.recalls[k]
    return SweepCurve(alphas, search_scores, annotation_scores, k)


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
