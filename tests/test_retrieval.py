"""The scoring kernel, weightings, ranks and the recall/median protocol."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from blas_threads import run_under_blas_threads
from ccax import cca, io, retrieval, selection, synthetic
from ccax.cca import RegularizationSpec, prepare, solve
from oracles import rank_by_cosine_loops, recall_and_median_loops


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    x = io.FeatureMatrix(rng.standard_normal((60, 6)))
    y = io.FeatureMatrix(rng.standard_normal((60, 5)))
    return solve(prepare(x, y), RegularizationSpec.none())


@pytest.fixture(scope="module")
def views(model):
    """23 images with 1-4 captions each, pairing shuffled."""
    rng = np.random.default_rng(11)
    pair_index = rng.permutation(
        np.repeat(np.arange(23), rng.integers(1, 5, size=23)))
    return (*random_views(model, pair_index, 12), pair_index)


class TestTaskEmbedding:
    """Weightings through ``evaluate_bidirectional``, against the reference
    route that projects each task by its own weighted branches."""

    def test_asymmetric_search_projections(self, model, views):
        for similarity in ("cosine", "l2"):
            got = retrieval.evaluate_bidirectional(model, *views,
                                                   similarity=similarity)
            want = oracles.evaluate_branches(model, *views,
                                             similarity=similarity)
            assert got[0] == want[0]

    def test_asymmetric_annotation_projections(self, model, views):
        for similarity in ("cosine", "l2"):
            got = retrieval.evaluate_bidirectional(model, *views,
                                                   similarity=similarity)
            want = oracles.evaluate_branches(model, *views,
                                             similarity=similarity)
            assert got[1] == want[1]

    def test_symmetric_zero_is_plain_cca(self, model, views):
        # Sigma^0 = I even for zero correlations: the unit-correlation model
        # under the asymmetric weighting scores the same plain projections
        sigma = model.sigma.copy()
        sigma[-2:] = 0.0
        zeroed = replace(model, sigma=sigma)
        plain = replace(model, sigma=np.ones_like(sigma))
        for similarity in ("cosine", "l2"):
            got = retrieval.evaluate_bidirectional(
                zeroed, *views, weighting="symmetric", alpha=0.0,
                similarity=similarity)
            assert got == retrieval.evaluate_bidirectional(
                plain, *views, similarity=similarity)

    def test_sweep_endpoints_match_asymmetric(self, model, views):
        for similarity in ("cosine", "l2"):
            asym = retrieval.evaluate_bidirectional(model, *views,
                                                    similarity=similarity)
            one = retrieval.evaluate_bidirectional(
                model, *views, weighting="sweep", alpha=1.0,
                similarity=similarity)
            zero = retrieval.evaluate_bidirectional(
                model, *views, weighting="sweep", alpha=0.0,
                similarity=similarity)
            assert one[0] == asym[0] and zero[1] == asym[1]

    def test_sigma_power_zero_convention(self, model, views):
        # all correlations zero: Sigma^0 = I scores, Sigma^0.5 = 0 does not
        dead = replace(model, sigma=np.zeros_like(model.sigma))
        plain = replace(model, sigma=np.ones_like(model.sigma))
        assert retrieval.evaluate_bidirectional(
            dead, *views, weighting="symmetric", alpha=0.0
        ) == retrieval.evaluate_bidirectional(plain, *views)
        with pytest.raises(ValueError, match="zero-norm image vector at "
                                             "index 0 under cosine"):
            retrieval.evaluate_bidirectional(dead, *views,
                                             weighting="symmetric", alpha=0.5)

    def test_centering_uses_training_means(self, model, views):
        # an image equal to the training mean projects to the zero vector
        images, captions, pair_index = views
        values = images.values.copy()
        values[4] = model.mean_x
        with pytest.raises(ValueError, match="zero-norm image vector at "
                                             "index 4 under cosine"):
            retrieval.evaluate_bidirectional(model, io.FeatureMatrix(values),
                                             captions, pair_index)

    @pytest.mark.parametrize("task,weighting,alpha", [
        ("search", "asymmetric", None), ("annotation", "asymmetric", None),
        *[(task, "symmetric", a) for task in retrieval.TASKS
          for a in (0.0, 0.5, 2.0)],
        *[(task, "sweep", a) for task in retrieval.TASKS
          for a in (0.0, 0.3, 1.0)],
    ])
    def test_one_formula_equals_branches_bitwise(self, model, views, task,
                                                 weighting, alpha):
        sigma = model.sigma.copy()
        sigma[-2:] = 0.0
        zeroed = replace(model, sigma=sigma)
        at = retrieval.TASKS.index(task)
        for similarity in ("cosine", "l2"):
            got = retrieval.evaluate_bidirectional(zeroed, *views, weighting,
                                                   alpha, similarity)
            want = oracles.evaluate_branches(zeroed, *views, weighting,
                                             alpha, similarity)
            assert got[at] == want[at]

    def test_invalid_alpha_rejected(self, model, views):
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite alpha >= 0"):
                retrieval.evaluate_bidirectional(model, *views, "symmetric",
                                                 alpha)
        for alpha in (1.5, np.nan):
            with pytest.raises(ValueError, match=r"alpha in \[0, 1\]"):
                retrieval.evaluate_bidirectional(model, *views, "sweep",
                                                 alpha)


@settings(max_examples=60, deadline=None)
@given(rows=st.sampled_from([1, 191, 192, 193, 383, 384, 385])
       | st.integers(386, 5000),
       width=st.sampled_from([1, 7, 8, 300]), rank=st.integers(1, 300),
       order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
# shapes where 192-row blocks alone take OpenBLAS's small-matrix kernel
@example(rows=385, width=300, rank=4, order="C", seed=0)
@example(rows=1000, width=300, rank=10, order="F", seed=0)
def project_matches_whole_view(rows, width, rank, order, seed):
    """``retrieval._project`` equals the one product over the whole view,
    bit for bit: a property of one BLAS thread, so it is run by
    :func:`test_project_matches_whole_view_under_one_blas_thread`."""
    rng = np.random.default_rng(seed)
    view = io.FeatureMatrix(rng.standard_normal((rows, width)) + 3.0)
    mean = rng.standard_normal(width)
    basis = np.asarray(rng.standard_normal((min(rank, width), width)),
                       order=order)
    assert np.array_equal(retrieval._project(view, mean, basis),
                          oracles.project(view, mean, basis))


def test_project_matches_whole_view_under_one_blas_thread(tmp_path):
    proc = run_under_blas_threads(
        1, ["-c", "import test_retrieval as t; "
                  "t.project_matches_whole_view()"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]


def ranks_of_each_item(queries, items, similarity="cosine"):
    """Library rank of every item for every query, shape (queries, items)."""
    n_queries, n_items = len(queries), len(items)
    repeated = np.repeat(np.asarray(queries, dtype=np.float64), n_items,
                         axis=0)
    gt = [[j] for _ in range(n_queries) for j in range(n_items)]
    return oracles.best_ranks(repeated, items, gt, similarity).reshape(
        n_queries, n_items)


class TestRank:
    def test_scaled_copy_ranks_first_under_cosine(self):
        rng = np.random.default_rng(1)
        items = rng.standard_normal((5, 4))
        queries = (7.0 * items[3])[None, :]
        assert oracles.best_ranks(queries, items, [[3]], "cosine")[0] == 1
        assert oracles.rank(queries, items, "cosine")[0, 0] == 3

    def test_global_item_scaling_invariance(self):
        rng = np.random.default_rng(2)
        items = rng.standard_normal((8, 4))
        queries = rng.standard_normal((3, 4))
        base = ranks_of_each_item(queries, items)
        scaled = ranks_of_each_item(queries, 0.37 * items)
        np.testing.assert_array_equal(base, scaled)

    def test_matches_brute_force_loops(self):
        rng = np.random.default_rng(3)
        items = rng.standard_normal((5, 3))
        queries = rng.standard_normal((2, 3))
        expected = rank_by_cosine_loops(queries, items)
        np.testing.assert_array_equal(oracles.rank(queries, items, "cosine"),
                                      expected)
        # item expected[q][p] sits at rank p + 1
        np.testing.assert_array_equal(
            np.argsort(ranks_of_each_item(queries, items), axis=1), expected)

    def test_tie_break_ascending_index(self):
        items = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        queries = np.array([[2.0, 0.0]])
        order = oracles.rank(queries, items, "cosine")
        np.testing.assert_array_equal(order[0], [0, 2, 1])
        np.testing.assert_array_equal(ranks_of_each_item(queries, items),
                                      [[1, 3, 2]])
        # of two tied ground-truth items, the smaller index is the best one
        assert oracles.best_ranks(queries, items, [[2, 0]])[0] == 1
        assert oracles.best_ranks(queries, items, [[1, 2]])[0] == 2

    def test_l2_ordering(self):
        items = np.array([[0.0], [2.0], [4.0]])
        queries = np.array([[2.5]])
        np.testing.assert_array_equal(
            ranks_of_each_item(queries, items, "l2"), [[3, 1, 2]])
        np.testing.assert_array_equal(oracles.rank(queries, items, "l2")[0],
                                      [1, 2, 0])

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_nan_ground_truth_score_rejected(self, similarity):
        # NaN compares false with every score: the query would rank first
        queries = np.array([[1.0, 0.5], [np.nan, 1.0]])
        items = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError,
                           match="query 1: ground-truth score is NaN"):
            oracles.best_ranks(queries, items, [[0], [1]], similarity)

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_nan_first_best_rejected(self, similarity):
        queries = np.array([[1.0, 0.5], [np.nan, 1.0]])
        items = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="query 1: score is NaN"):
            oracles.first_best(queries, items, similarity)

    def test_zero_norm_reported_with_index(self):
        items = np.array([[1.0, 0.0], [0.0, 0.0]])
        queries = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="item vector at index 1"):
            oracles.best_ranks(queries, items, [[0]], "cosine")
        with pytest.raises(ValueError, match="query vector at index 0"):
            oracles.best_ranks(np.zeros((1, 2)), items, [[0]], "cosine")

    def test_rows_are_permutations(self):
        rng = np.random.default_rng(4)
        ranks = ranks_of_each_item(rng.standard_normal((6, 3)),
                                   rng.standard_normal((9, 3)))
        for row in ranks:
            assert sorted(row) == list(range(1, 10))


class TestEvaluate:
    """Recall and median arithmetic of the reference, and input checks."""

    def test_all_first(self):
        ranked = np.tile(np.arange(4), (4, 1))
        gt = [[0], [0], [0], [0]]
        report = oracles.evaluate(ranked, gt)
        assert report.recalls == {1: 100.0, 5: 100.0, 10: 100.0}
        assert report.median_rank == 1.0

    def test_hand_computed_ranks(self):
        # best ground-truth ranks 1, 2, 7, 11
        n_items = 12
        ranked = np.tile(np.arange(n_items), (4, 1))
        gt = [[0], [1], [6], [10]]
        for report in (
            oracles.evaluate(ranked, gt),
            # items on a line, queried from below: the library sees the
            # same identity order
            retrieval._report(oracles.best_ranks(
                np.full((4, 1), -1.0), np.arange(12.0)[:, None], gt, "l2"),
                (1, 5, 10), "", n_items),
        ):
            assert report.recalls[1] == 25.0
            assert report.recalls[5] == 50.0
            assert report.recalls[10] == 75.0
            assert report.median_rank == 4.5

    def test_annotation_style_set_of_five(self):
        # five ground-truth captions, best at rank 3
        ranked = np.arange(20)[None, :]
        gt = [[2, 7, 11, 15, 19]]
        report = oracles.evaluate(ranked, gt)
        assert report.recalls[1] == 0.0
        assert report.recalls[5] == 100.0
        assert report.recalls[10] == 100.0
        assert report.median_rank == 3.0
        assert oracles.best_ranks(np.full((1, 1), -1.0),
                                  np.arange(20.0)[:, None], gt, "l2")[0] == 3

    def test_monotone_recall(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_items = int(rng.integers(3, 30))
            n_queries = int(rng.integers(1, 10))
            gt = [
                list(rng.choice(n_items, size=rng.integers(1, 4),
                                replace=False))
                for _ in range(n_queries)
            ]
            ranks = oracles.best_ranks(rng.standard_normal((n_queries, 3)),
                                       rng.standard_normal((n_items, 3)), gt)
            rep = retrieval._report(ranks, (1, 5, 10), "", n_items)
            assert rep.recalls[1] <= rep.recalls[5] <= rep.recalls[10]

    def test_depends_only_on_order(self):
        ranked = np.array([[2, 0, 1]])
        gt = [[0]]
        assert oracles.evaluate(ranked, gt).recalls[1] == 0.0
        assert oracles.evaluate(ranked, gt).median_rank == 2.0

    def test_out_of_range_ground_truth(self):
        with pytest.raises(ValueError, match="query 1: ground-truth index out "
                                             r"of range \[0, 2\)"):
            oracles.best_ranks(np.ones((2, 1)), np.ones((2, 1)), [[0], [5]])
        with pytest.raises(ValueError, match="out of range"):
            oracles.best_ranks(np.ones((1, 1)), np.ones((2, 1)), [[-1]])

    def test_empty_ground_truth(self):
        with pytest.raises(ValueError, match="query 0 has no ground-truth"):
            oracles.best_ranks(np.ones((1, 1)), np.ones((2, 1)), [[]])
        with pytest.raises(ValueError, match="2 ground-truth sets for 1"):
            oracles.best_ranks(np.ones((1, 1)), np.ones((2, 1)), [[0], [1]])


def exact_vectors(draw, n, dim):
    """Integer vectors whose norms are powers of two.

    Normalized entries are then 0, +-1/2 or +-1, so every cosine and l2
    score is exact under any summation order: ties are true ties whatever
    the BLAS blocking, and the two routes must agree bit for bit.
    """
    rows = []
    for _ in range(n):
        scale = 2 ** draw(st.integers(0, 2))
        if draw(st.booleans()):
            entries = [0] * dim
            entries[draw(st.integers(0, dim - 1))] = draw(
                st.sampled_from((-1, 1)))
        else:
            entries = [draw(st.sampled_from((-1, 1))) for _ in range(4)]
            entries += [0] * (dim - 4)
        rows.append([scale * e for e in entries])
    return np.array(rows, dtype=np.float64)


BLOCK_EDGES = (1, 7, retrieval.BLOCK_ROWS - 1, retrieval.BLOCK_ROWS,
               retrieval.BLOCK_ROWS + 1, 2 * retrieval.BLOCK_ROWS - 1,
               2 * retrieval.BLOCK_ROWS, 3 * retrieval.BLOCK_ROWS + 5)


@st.composite
def tied_problems(draw, query_counts=BLOCK_EDGES):
    """Queries, items and multi-item ground truth with forced exact ties."""
    n_queries = draw(st.sampled_from(query_counts))
    n_distinct = draw(st.integers(1, 12))
    dim = draw(st.integers(4, 6))
    items = exact_vectors(draw, n_distinct, dim)
    # duplicated item rows: each item is a copy of one of the distinct rows
    copies = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1,
                           max_size=24))
    items = items[copies]
    # few distinct query rows, so most queries are duplicates
    pool = exact_vectors(draw, draw(st.integers(1, 6)), dim)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    queries = pool[rng.integers(0, len(pool), size=n_queries)]
    sizes = rng.integers(1, min(len(items), 5) + 1, size=n_queries)
    gt = [sorted(rng.choice(len(items), size=int(k), replace=False).tolist())
          for k in sizes]
    return queries, items, gt


def draw_pairing(draw, caption_counts):
    """A shuffled pairing with 1-7 captions per image, and a generator
    seeded from the draw."""
    n_captions = draw(st.sampled_from(caption_counts))
    n_images = draw(st.integers(-(-n_captions // 7), n_captions))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.ones(n_images, dtype=np.int64)
    for _ in range(n_captions - n_images):
        counts[rng.choice(np.flatnonzero(counts < 7))] += 1
    return rng.permutation(np.repeat(np.arange(n_images), counts)), rng


@st.composite
def tied_pairings(draw, caption_counts=BLOCK_EDGES):
    """Captions, images and a shuffled pairing, both views built from a few
    exact rows, so most rows are duplicates and ties are exact."""
    pair_index, rng = draw_pairing(draw, caption_counts)
    dim = draw(st.integers(4, 6))
    images = exact_vectors(draw, draw(st.integers(1, 12)), dim)
    captions = exact_vectors(draw, draw(st.integers(1, 6)), dim)
    images = images[rng.integers(0, len(images), size=pair_index.max() + 1)]
    captions = captions[rng.integers(0, len(captions),
                                     size=len(pair_index))]
    return captions, images, pair_index


def squared_norms(rows):
    return np.einsum("ij,ij->i", rows, rows)


def first_best(g, image_sq, caption_sq, similarity, rank_one=False):
    """``selection._first_best`` on the caption-by-image scores ``g``: G is
    its transpose, images by captions in C order."""
    g = np.ascontiguousarray(np.asarray(g, dtype=np.float64).T)
    return selection._first_best(g, np.asarray(image_sq, dtype=float),
                                 np.asarray(caption_sq, dtype=float),
                                 similarity, rank_one, np.empty_like(g))


def kernel(g, ground_truth, image_sq, caption_sq, similarity):
    """The kernels on the caption-by-image scores ``g``.

    ``ground_truth[c]`` lists caption c's one image, so it is a pairing,
    and ``retrieval._rank_tasks``'s (search, annotation) ranks are
    returned; with None, each caption's first-best image and each image's
    first-best caption by ``selection._first_best``.
    """
    g = np.asarray(g, dtype=np.float64)
    if ground_truth is None:
        return first_best(g, image_sq, caption_sq, similarity)
    pair_index = np.asarray(ground_truth, dtype=np.int64)[:, 0]
    search, annotation = retrieval._rank_tasks(
        lambda lo, hi: g[lo:hi].copy(), [np.asarray(image_sq, dtype=float)],
        [np.asarray(caption_sq, dtype=float)], similarity, False,
        (pair_index, g[np.arange(len(g)), pair_index]))
    return search[0], annotation[0]


def own_norms_kernel(captions, images, ground_truth, similarity):
    """``kernel`` on G = captions images', each view with its own norms."""
    return kernel(captions @ images.T, ground_truth, squared_norms(images),
                  squared_norms(captions), similarity)


class TestKernelChecks:
    """Values the kernel refuses, each named by its view and row."""

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    @pytest.mark.parametrize("gt", [[[0], [1]], None])
    def test_nan_ground_truth_score_rejected(self, similarity, gt):
        # NaN compares false with every score: the caption would rank
        # first.  Its norm is given finite, so the score check must fire
        captions = np.array([[1.0, 0.5], [np.nan, 1.0]])
        images = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError,
                           match="caption 1: score is not finite"):
            kernel(captions @ images.T, gt, squared_norms(images),
                   np.ones(2), similarity)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("gt", [[[0], [1], [2]], None])
    def test_non_finite_score_of_another_item_rejected(self, bad, gt):
        # the ground-truth scores are finite; image 1 of caption 2 is not,
        # and caption rows are checked before image columns
        g = np.arange(9.0).reshape(3, 3)
        g[2, 1] = bad
        with pytest.raises(ValueError,
                           match="caption 2: score is not finite"):
            kernel(g, gt, np.ones(3), np.ones(3), "l2")

    @pytest.mark.parametrize("similarity,caption_sq,g_0", [
        # G - ||y||^2 / 2 overflows to -inf down column 0
        ("l2", 1e308, -1.5e308),
        # G / ||y|| overflows to +inf down column 0
        ("cosine", 1e-300, 1e200)])
    @pytest.mark.parametrize("gt", [[[0], [1]], None])
    def test_non_finite_best_of_an_image_rejected(self, similarity,
                                                  caption_sq, g_0, gt):
        # every caption's best image score is finite; image 0's best
        # caption score is not
        g = np.array([[g_0, 1.0], [g_0, 2.0]])
        with pytest.raises(ValueError, match="image 0: score is not finite"):
            with np.errstate(over="ignore"):
                kernel(g, gt, np.ones(2), np.full(2, caption_sq),
                       similarity)

    @pytest.mark.parametrize("gt", [[[0], [1]], None])
    def test_zero_norm_reported_with_index(self, gt):
        zero_second = np.array([[1.0, 0.0], [0.0, 0.0]])
        ones = np.ones((2, 2))
        with pytest.raises(ValueError, match="zero-norm image vector at "
                                             "index 1 under cosine"):
            own_norms_kernel(ones, zero_second, gt, "cosine")
        with pytest.raises(ValueError, match="zero-norm caption vector at "
                                             "index 1 under cosine"):
            own_norms_kernel(zero_second, ones, gt, "cosine")
        # l2 ranks a zero item like any other: each view's one-entry vector
        # scores 1 - 1/2 against a ones vector, the zero vector 0
        search, _ = own_norms_kernel(ones, zero_second, [[1], [0]], "l2")
        _, annotation = own_norms_kernel(zero_second, ones, [[1], [0]], "l2")
        assert search[0] == annotation[0] == 2

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_squared_norm_rejected(self, similarity, bad):
        # 1e200 squares to inf: every cosine would read 0
        sq = np.array([1.0, bad, 1.0])
        with pytest.raises(ValueError,
                           match="image 1: squared norm is not finite"):
            kernel(np.ones((3, 3)), None, sq, np.ones(3), similarity)
        with pytest.raises(ValueError,
                           match="caption 1: squared norm is not finite"):
            kernel(np.ones((3, 3)), None, np.ones(3), sq, similarity)

    def test_caption_norms_checked_before_any_score(self):
        # caption 0's scores and caption 1's norm are both not finite: the
        # norms are checked before the sweep, so the norm is reported
        g = np.ones((2, 2))
        g[0, 1] = np.inf
        with pytest.raises(ValueError,
                           match="caption 1: squared norm is not finite"):
            kernel(g, [[0], [1]], np.ones(2), np.array([1.0, np.inf]), "l2")

    def test_unknown_similarity_rejected(self):
        with pytest.raises(ValueError, match="unknown similarity 'dot'"):
            own_norms_kernel(np.ones((2, 2)), np.ones((2, 2)), [[0], [1]],
                             "dot")


#: Where each block's ``>=`` mask sits against the kernel's sparse/dense
#: switch at 1/_SPARSE of the block: under it, exactly at it (the densest
#: listed mask) and past it (counted along the axis).
ROUTES = ("below", "at", "above")


@st.composite
def planted_masks(draw):
    """Scores S in {-2, -1, 0, 1} planted in G, and a shuffled pairing.

    Each caption's own image scores 0, so both tasks' s* is 0 and their
    masks are the same, {S >= 0}: ties at S = 0 on either side of the
    ground truth, and wins at S = 1.  Each block of BLOCK_ROWS captions
    gets a mask count drawn below, at or above the switch.  G is made so
    that scores are S exactly: under cosine S times powers of two, so a
    norm's root divides exactly, under l2 S plus the whole half-norms,
    and for a rank-one model S times a positive draw, whose sign is S.
    Returns (g, image_sq, caption_sq, pair_index, kind, routes).
    """
    kind = draw(st.sampled_from(("cosine", "l2", "rank_one")))
    n_captions = draw(st.sampled_from(BLOCK_EDGES[2:]))
    n_images = draw(st.integers(16, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair_index = rng.permutation(np.concatenate([
        np.arange(n_images),
        rng.integers(0, n_images, n_captions - n_images)]))
    lowest = -1 if kind == "rank_one" else -2
    s = rng.integers(lowest, 0, (n_captions, n_images)).astype(float)
    s[np.arange(n_captions), pair_index] = 0.0
    routes = []
    for lo, hi in retrieval._row_blocks(n_captions):
        size = (hi - lo) * n_images
        limit = size // retrieval._SPARSE  # the densest listed mask
        route = draw(st.sampled_from(ROUTES))
        count = {"below": rng.integers(hi - lo, limit),
                 "at": limit,
                 "above": rng.integers(limit + 1, size + 1)}[route]
        free = np.flatnonzero(s[lo:hi] < 0)
        planted = rng.choice(free, size=count - (hi - lo), replace=False)
        s[lo:hi].flat[planted] = rng.integers(0, 2, planted.size)
        routes.append(route)
    if kind == "cosine":
        a, b = (2.0 ** rng.integers(-3, 4, n) for n in (n_images,
                                                         n_captions))
        g, image_sq, caption_sq = s * a * b[:, None], a * a, b * b
    elif kind == "l2":
        a, b = (rng.integers(0, 6, n).astype(float) for n in (n_images,
                                                             n_captions))
        g, image_sq, caption_sq = s + a + b[:, None], 2 * a, 2 * b
    else:
        g = s * rng.uniform(0.5, 2.0, s.shape)
        image_sq, caption_sq = np.ones(n_images), np.ones(n_captions)
    return g, image_sq, caption_sq, pair_index, kind, routes


class TestSparseAndDenseRoutes:
    """The kernel's one ``>=`` mask per task, listed when sparse and
    counted along its axis when dense, against ``oracles.one_task_ranks``,
    which compares every score with s* twice, on both sides of the
    switch and at it."""

    @staticmethod
    def oracle_ranks(g, image_sq, caption_sq, pair_index, similarity,
                     rank_one):
        n_captions, n_images = g.shape
        starts = np.zeros(n_images + 1, dtype=np.int64)
        np.cumsum(np.bincount(pair_index, minlength=n_images),
                  out=starts[1:])
        search = oracles.one_task_ranks(
            lambda lo, hi: g[lo:hi], n_captions, [image_sq], "search",
            similarity, rank_one, (pair_index, np.arange(n_captions + 1)))
        annotation = oracles.one_task_ranks(
            lambda lo, hi: g.T[lo:hi], n_images, [caption_sq],
            "annotation", similarity, rank_one,
            (np.argsort(pair_index, kind="stable"), starts))
        return search[0], annotation[0]

    @settings(max_examples=60, deadline=None)
    @given(problem=planted_masks())
    def test_planted_ties_on_both_routes(self, problem):
        g, image_sq, caption_sq, pair_index, kind, routes = problem
        similarity = "l2" if kind == "l2" else "cosine"
        rank_one = kind == "rank_one"
        # each block's search mask sits where it was planted
        scores = (g - image_sq / 2 if kind == "l2" else np.sign(g)
                  if rank_one else g / np.sqrt(image_sq))
        s_star = scores[np.arange(len(g)), pair_index][:, None]
        for (lo, hi), route in zip(retrieval._row_blocks(len(g)), routes):
            count = np.count_nonzero(scores[lo:hi] >= s_star[lo:hi])
            limit = (hi - lo) * g.shape[1] // retrieval._SPARSE
            assert {"below": count < limit, "at": count == limit,
                    "above": count > limit}[route]
        got = retrieval._rank_tasks(
            lambda lo, hi: g[lo:hi].copy(), [image_sq], [caption_sq],
            similarity, rank_one,
            (pair_index, g[np.arange(len(g)), pair_index]))
        want = self.oracle_ranks(g, image_sq, caption_sq, pair_index,
                                 similarity, rank_one)
        np.testing.assert_array_equal(got[0][0], want[0])
        np.testing.assert_array_equal(got[1][0], want[1])

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_finite_scores_whose_sum_overflows(self, similarity):
        # every score is finite, but each block's sum overflows to inf, so
        # the kernel takes each best score by the max pass: all finite, no
        # error, no warning, and the ranks are the oracle's
        rng = np.random.default_rng(12)
        n_captions, n_images = retrieval.BLOCK_ROWS + 9, 30
        pair_index = rng.permutation(np.arange(n_captions) % n_images)
        g = rng.choice([1e308, 1.5e308, 1.7e308], (n_captions, n_images))
        ones = np.ones(n_images), np.ones(n_captions)
        with np.errstate(over="ignore"):
            assert np.isinf(np.sum(g[:retrieval.BLOCK_ROWS]))
        got = retrieval._rank_tasks(
            lambda lo, hi: g[lo:hi].copy(), [ones[0]], [ones[1]], similarity,
            False, (pair_index, g[np.arange(n_captions), pair_index]))
        want = self.oracle_ranks(g, *ones, pair_index, similarity, False)
        np.testing.assert_array_equal(got[0][0], want[0])
        np.testing.assert_array_equal(got[1][0], want[1])


class TestCountingMatchesSorting:
    """The blocked counting route against the full argsort reference."""

    @pytest.mark.parametrize("extra", [-1, 0, 1, 5])
    @pytest.mark.parametrize("multiple", [0, 1, 2, 3])
    def test_row_blocks_tile_without_short_tail(self, multiple, extra):
        block = retrieval.BLOCK_ROWS
        n_rows = max(multiple * block + extra, 1)
        blocks = retrieval._row_blocks(n_rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(min(n_rows, block) <= hi - lo < 2 * block
                   for lo, hi in blocks)
        assert all(hi - lo == block for lo, hi in blocks[:-1])

    @settings(max_examples=60, deadline=None)
    @given(problem=tied_problems(),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_exact_ties_and_block_edges(self, problem, similarity):
        queries, items, gt = problem
        ranked = oracles.rank(queries, items, similarity)
        got = oracles.best_ranks(queries, items, gt, similarity)
        np.testing.assert_array_equal(got,
                                      oracles.sorted_best_ranks(ranked, gt))
        ks = (1, 2, 5, 10)
        want = oracles.evaluate(ranked, gt, ks, task="t")
        assert retrieval._report(got, ks, "t", len(items)) == want

    @settings(max_examples=60, deadline=None)
    @given(problem=tied_problems((1, retrieval.BLOCK_ROWS - 1,
                                  retrieval.BLOCK_ROWS,
                                  retrieval.BLOCK_ROWS + 1,
                                  2 * retrieval.BLOCK_ROWS + 3)),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_first_best_is_rank_one(self, problem, similarity):
        queries, items, gt = problem
        best = oracles.first_best(queries, items, similarity)
        ranks = oracles.best_ranks(queries, items, gt, similarity)
        np.testing.assert_array_equal(
            [b in g for b, g in zip(best, gt)], ranks == 1)

    @settings(max_examples=60, deadline=None)
    @given(problem=tied_pairings(),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_kernel_exact_ties_and_block_edges(self, problem, similarity):
        captions, images, pair_index = problem
        search, annotation = own_norms_kernel(captions, images,
                                              pair_index[:, None], similarity)
        np.testing.assert_array_equal(search, oracles.sorted_best_ranks(
            oracles.rank(captions, images, similarity),
            [[i] for i in pair_index]))
        np.testing.assert_array_equal(annotation, oracles.sorted_best_ranks(
            oracles.rank(images, captions, similarity),
            oracles.pairing_to_ground_truth(pair_index, len(images),
                                            "annotation")))

    @settings(max_examples=60, deadline=None)
    @given(problem=tied_pairings((1, retrieval.BLOCK_ROWS - 1,
                                  retrieval.BLOCK_ROWS,
                                  retrieval.BLOCK_ROWS + 1,
                                  2 * retrieval.BLOCK_ROWS + 3)),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_kernel_first_best_is_rank_one(self, problem, similarity):
        captions, images, pair_index = problem
        image_of, caption_of = own_norms_kernel(captions, images, None,
                                                similarity)
        search, annotation = own_norms_kernel(captions, images,
                                              pair_index[:, None], similarity)
        np.testing.assert_array_equal(image_of == pair_index, search == 1)
        np.testing.assert_array_equal(
            pair_index[caption_of] == np.arange(len(images)),
            annotation == 1)

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_random_floats_across_blocks(self, similarity):
        rng = np.random.default_rng(8)
        n_queries = 3 * retrieval.BLOCK_ROWS + 17
        queries = rng.standard_normal((n_queries, 9))
        items = rng.standard_normal((250, 9))
        gt = [rng.choice(250, size=rng.integers(1, 6), replace=False).tolist()
              for _ in range(n_queries)]
        ranked = oracles.rank(queries, items, similarity)
        np.testing.assert_array_equal(
            oracles.best_ranks(queries, items, gt, similarity),
            oracles.sorted_best_ranks(ranked, gt))


@st.composite
def reference_problems(draw):
    """An identity model with one of the three weightings, its two views
    and a shuffled pairing, at caption counts on BLOCK_EDGES.

    An ``exact`` problem builds each view from a few exact rows, with
    correlations 4^-j and alphas in {0, 1/2, 1}: every entry of G and
    every squared norm is then exact, and duplicated rows tie exactly.
    Otherwise the views are Gaussian.  A quarter of the models are rank
    one, where every cosine is +-1.
    """
    pair_index, rng = draw_pairing(draw, BLOCK_EDGES)
    n_images, n_captions = int(pair_index.max()) + 1, len(pair_index)
    k = draw(st.sampled_from((1, 4, 5, 6)))
    exact = draw(st.booleans())
    if exact:
        alpha = st.sampled_from((0.0, 0.5, 1.0))
        sigma = 4.0 ** -np.sort(draw(st.lists(st.integers(0, 2), min_size=k,
                                              max_size=k)))
        views = []
        for n, distinct in ((n_images, 12), (n_captions, 6)):
            count = draw(st.integers(1, distinct))
            if k == 1:
                rows = np.array([[draw(st.sampled_from((-4, -2, -1, 1, 2,
                                                        4)))]
                                 for _ in range(count)], dtype=np.float64)
            else:
                rows = exact_vectors(draw, count, k)
            views.append(rows[rng.integers(0, count, size=n)])
        images, captions = views
    else:
        alpha = st.floats(0.0, 1.0)
        sigma = np.sort(rng.uniform(0.05, 1.0, size=k))[::-1]
        images = rng.standard_normal((n_images, k))
        captions = rng.standard_normal((n_captions, k))
    weighting = draw(st.sampled_from(("asymmetric", "symmetric", "sweep")))
    if weighting == "sweep":
        alphas = np.array(draw(st.lists(alpha, min_size=1, max_size=3)))
        exponents = (alphas, 1.0 - alphas, 1.0)
    else:
        image_exp, caption_exp, total = retrieval._exponents(
            weighting, draw(alpha) if weighting == "symmetric" else None)
        exponents = ([image_exp], [caption_exp], total)
    model = cca.CcaModel(np.eye(k), np.eye(k), sigma, np.zeros(k),
                         np.zeros(k), RegularizationSpec.none(), n_captions)
    return (model, io.FeatureMatrix(images), io.FeatureMatrix(captions),
            pair_index, exponents)


class TestOneKernelMatchesTwoGemmRoute:
    """Both tasks from one G against each task from its own, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(problem=reference_problems(),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_protocol_ranks(self, problem, similarity):
        # the kernel ranks the library's projections of the views
        model, images, captions, pair_index, exponents = problem
        proj = retrieval.TaskEmbedding(model.u.T, model.v.T, model.mean_x,
                                       model.mean_y)
        got = retrieval._protocol_ranks(
            model, proj.embed_images(images), proj.embed_texts(captions),
            pair_index, *exponents, similarity)
        want = oracles.two_gemm_ranks(model, images, captions, pair_index,
                                      *exponents, similarity)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @settings(max_examples=60, deadline=None)
    @given(problem=reference_problems(),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_first_best(self, problem, similarity):
        # a path cell's G, held whole with images as rows
        model, images, captions, pair_index, exponents = problem
        image_exps, caption_exps, total = exponents
        x, y, sigma = images.values, captions.values, model.sigma
        image_sqs = [squared_norms(x * sigma ** e) for e in image_exps]
        caption_sqs = [squared_norms(y * sigma ** e) for e in caption_exps]
        g = (x * sigma ** total) @ y.T
        rank_one = model.k == 1
        # one call per weighting: a path cell has one
        got = [np.array(task) for task in zip(*(
            first_best(g.T, image_sq, caption_sq, similarity, rank_one)
            for image_sq, caption_sq in zip(image_sqs, caption_sqs)))]
        np.testing.assert_array_equal(got[0], oracles.one_task_ranks(
            lambda lo, hi: g.T[lo:hi], captions.rows, image_sqs, "search",
            similarity, rank_one))
        np.testing.assert_array_equal(got[1], oracles.one_task_ranks(
            lambda lo, hi: g[lo:hi], images.rows, caption_sqs, "annotation",
            similarity, rank_one))


def list_route(model, images, captions, pair_index, similarity):
    """Asymmetric (search, annotation) reports through list ground truth."""
    ks = (1, 5, 10)
    x, y = oracles.task_views(model, images, captions, "search")
    search = retrieval._report(oracles.best_ranks(
        y, x,
        oracles.pairing_to_ground_truth(pair_index, images.rows, "search"),
        similarity), ks, "search", images.rows)
    x, y = oracles.task_views(model, images, captions, "annotation")
    annotation = retrieval._report(oracles.best_ranks(
        x, y,
        oracles.pairing_to_ground_truth(pair_index, images.rows,
                                        "annotation"),
        similarity), ks, "annotation", captions.rows)
    return search, annotation


@st.composite
def shuffled_pairings(draw):
    """Unsorted pairings, 1-7 captions per image, around BLOCK_ROWS captions.

    Returns the pairing and a seed for the feature rows.
    """
    block = retrieval.BLOCK_ROWS
    pair_index, rng = draw_pairing(draw, (1, 7, block - 1, block, block + 1,
                                          2 * block + 3))
    return pair_index, int(rng.integers(2**32))


def random_views(model, pair_index, seed):
    rng = np.random.default_rng(seed)
    images = io.FeatureMatrix(
        rng.standard_normal((int(pair_index.max()) + 1, model.m_x)))
    captions = io.FeatureMatrix(
        rng.standard_normal((pair_index.shape[0], model.m_y)))
    return images, captions


class TestFlatGroundTruth:
    """Ground truth built straight from the pairing, against list sets."""

    @settings(max_examples=40, deadline=None)
    @given(problem=shuffled_pairings(),
           similarity=st.sampled_from(("cosine", "l2")))
    def test_matches_list_route(self, model, problem, similarity):
        pair_index, seed = problem
        images, captions = random_views(model, pair_index, seed)
        got = retrieval.evaluate_bidirectional(model, images, captions,
                                               pair_index,
                                               similarity=similarity)
        assert got == list_route(model, images, captions, pair_index,
                                 similarity)


class TestEvaluateBlocks:
    """Contiguous image blocks against a loop that ranks each block by the
    two-GEMM route and counts its own reports."""

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_one_block_is_evaluate_bidirectional(self, model, views,
                                                 similarity):
        images, captions, pair_index = views
        got = retrieval.evaluate_blocks(model, images, captions, pair_index,
                                        1, similarity=similarity)
        assert got == list(retrieval.evaluate_bidirectional(
            model, images, captions, pair_index, similarity=similarity))

    @pytest.mark.parametrize("blocks", [2, 3, 5, 23])
    @pytest.mark.parametrize("weighting,alpha,similarity", [
        ("asymmetric", None, "cosine"), ("symmetric", 0.5, "l2")])
    def test_rows_equal_block_loop(self, model, views, blocks, weighting,
                                   alpha, similarity):
        images, captions, pair_index = views
        got = retrieval.evaluate_blocks(model, images, captions, pair_index,
                                        blocks, weighting, alpha, similarity)
        assert got == oracles.evaluate_blocks_loop(
            model, images, captions, pair_index, blocks, weighting, alpha,
            similarity)
        assert len(got) == 2 * blocks + 2


class TestViewsReadFromFiles:
    """The protocol on views read from their FMAT1 files a block of rows at
    a time, against the same calls on in-memory views and, for image
    blocks, the loop that ranks each block by the two-GEMM route."""

    @pytest.fixture
    def files(self, views, tmp_path):
        images, captions, _ = views
        io.save_matrix(images, tmp_path / "images.fmat")
        io.save_matrix(captions, tmp_path / "captions.fmat")
        with io.open_matrix(tmp_path / "images.fmat") as opened_images, \
                io.open_matrix(tmp_path / "captions.fmat") as opened_captions:
            yield opened_images, opened_captions

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("weighting,alpha,similarity", [
        ("asymmetric", None, "cosine"), ("symmetric", 0.5, "l2")])
    def test_evaluate_blocks(self, model, views, files, blocks, weighting,
                             alpha, similarity):
        images, captions, pair_index = views
        got = retrieval.evaluate_blocks(model, *files, pair_index, blocks,
                                        weighting, alpha, similarity)
        assert got == retrieval.evaluate_blocks(
            model, images, captions, pair_index, blocks, weighting, alpha,
            similarity)
        want = oracles.evaluate_blocks_loop(model, images, captions,
                                            pair_index, blocks, weighting,
                                            alpha, similarity)
        if blocks == 1:  # the one block's reports, named by their task
            want = [replace(rep, task=task)
                    for rep, task in zip(want, retrieval.TASKS)]
        assert got == want

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_alpha_sweep(self, model, views, files, similarity):
        images, captions, pair_index = views
        alphas = np.linspace(0.0, 1.0, 6)
        got = retrieval.alpha_sweep(model, *files, alphas, pair_index, k=1,
                                    similarity=similarity)
        want = retrieval.alpha_sweep(model, images, captions, alphas,
                                     pair_index, k=1, similarity=similarity)
        for field in ("alphas", "search_scores", "annotation_scores"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))


class TestProtocolOracle:
    """Full pipeline vs an independently written evaluator, exactly."""

    def test_six_images_thirty_captions(self):
        rng = np.random.default_rng(99)
        cfg = synthetic.LatentModelConfig(
            n_train=80, n_val=6, n_test=6, latent_dim=3,
            image_dim=10, text_dim=8, noise_x=0.4, noise_y=0.4, seed=17,
        )
        data = synthetic.generate_caption_like(cfg, 5)
        train_x, train_y = data.paired_training_views()
        model = solve(prepare(train_x, train_y), RegularizationSpec.none())
        images, captions, pair_index = data.split_views("test")
        assert images.rows == 6 and captions.rows == 30

        search, annotation = retrieval.evaluate_bidirectional(
            model, images, captions, pair_index)

        # independent path: loops all the way down
        x, y = oracles.task_views(model, images, captions, "search")
        order = rank_by_cosine_loops(y, x)
        gt = [[int(i)] for i in pair_index]
        recalls, median = recall_and_median_loops(order, gt)
        assert search.recalls == recalls
        assert search.median_rank == median

        x, y = oracles.task_views(model, images, captions, "annotation")
        order = rank_by_cosine_loops(x, y)
        gt = [
            [j for j in range(captions.rows) if pair_index[j] == i]
            for i in range(images.rows)
        ]
        recalls, median = recall_and_median_loops(order, gt)
        assert annotation.recalls == recalls
        assert annotation.median_rank == median


@pytest.fixture(scope="module")
def sweep_data():
    """A plain CCA model and 40 validation images with 3 captions each."""
    cfg = synthetic.LatentModelConfig(
        n_train=150, n_val=40, n_test=40, latent_dim=4,
        image_dim=16, text_dim=12, noise_x=0.5, noise_y=0.5, seed=2,
    )
    data = synthetic.generate_caption_like(cfg, 3)
    train_x, train_y = data.paired_training_views()
    model = solve(prepare(train_x, train_y), RegularizationSpec.none())
    return (model, *data.split_views("val"))


class TestAlphaSweep:
    def test_endpoints_equal_asymmetric_evaluations(self, sweep_data):
        model, images, captions, pairs = sweep_data
        curve = retrieval.alpha_sweep(model, images, captions, [0.0, 1.0],
                                      pair_index=pairs)
        search, annotation = retrieval.evaluate_bidirectional(
            model, images, captions, pairs, ks=(10,))
        assert curve.search_scores[1] == search.recalls[10]
        assert curve.annotation_scores[0] == annotation.recalls[10]

    def test_single_point_shares_embeddings(self, model):
        rng = np.random.default_rng(6)
        images = io.FeatureMatrix(rng.standard_normal((7, model.m_x)))
        captions = io.FeatureMatrix(rng.standard_normal((7, model.m_y)))
        curve = retrieval.alpha_sweep(model, images, captions, [0.5], k=1)
        assert curve.alphas.shape == (1,)
        # both sides weighted by Sigma^(1/2): the symmetric weighting
        search, annotation = oracles.evaluate_branches(
            model, images, captions, weighting="symmetric", alpha=0.5,
            ks=(1,))
        assert curve.search_scores[0] == search.recalls[1]
        assert curve.annotation_scores[0] == annotation.recalls[1]

    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_interior_alphas_equal_reference_route(self, sweep_data,
                                                   similarity):
        model, images, captions, pairs = sweep_data
        curve = retrieval.alpha_sweep(model, images, captions, [0.3, 0.7],
                                      pairs, k=5, similarity=similarity)
        for i, alpha in enumerate((0.3, 0.7)):
            search, annotation = oracles.evaluate_branches(
                model, images, captions, pairs, "sweep", alpha, similarity,
                ks=(5,))
            assert curve.search_scores[i] == search.recalls[5]
            assert curve.annotation_scores[i] == annotation.recalls[5]

    def test_grid_outside_unit_interval_rejected(self, model):
        rng = np.random.default_rng(7)
        images = io.FeatureMatrix(rng.standard_normal((4, model.m_x)))
        captions = io.FeatureMatrix(rng.standard_normal((4, model.m_y)))
        for grid in ([0.0, 1.2], [0.0, np.nan]):
            with pytest.raises(ValueError, match="alpha grid"):
                retrieval.alpha_sweep(model, images, captions, grid)


class TestOneKernel:
    """Cases only the kernel's own arithmetic could get wrong."""

    @pytest.mark.parametrize("weighting,alpha", [
        ("asymmetric", None), ("symmetric", 0.5), ("sweep", 0.3)])
    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_rank_one_model_equals_reference_route(self, sweep_data,
                                                   weighting, alpha,
                                                   similarity):
        # every cosine of a one-dimensional model is exactly +-1, so ties
        # decide the ranks and the sign of G must reproduce them
        model, images, captions, pairs = sweep_data
        tiny = replace(model, u=model.u[:, :1], v=model.v[:, :1],
                       sigma=model.sigma[:1])
        got = retrieval.evaluate_bidirectional(tiny, images, captions, pairs,
                                               weighting, alpha, similarity)
        assert got == oracles.evaluate_branches(tiny, images, captions, pairs,
                                                weighting, alpha, similarity)

    def test_tsvd_rank_one_fit_equals_reference_route(self):
        cfg = synthetic.LatentModelConfig(
            n_train=200, n_val=60, n_test=1, latent_dim=3, image_dim=10,
            text_dim=8, noise_x=0.5, noise_y=0.5, seed=23)
        data = synthetic.generate_caption_like(cfg, 4)
        model = solve(prepare(*data.paired_training_views()),
                      RegularizationSpec.tsvd(1, 1))
        views = data.split_views("val")
        assert model.k == 1
        for similarity in ("cosine", "l2"):
            got = retrieval.evaluate_bidirectional(model, *views,
                                                   similarity=similarity)
            assert got == oracles.evaluate_branches(model, *views,
                                                    similarity=similarity)

    @pytest.mark.parametrize("view", ["images", "captions"])
    def test_overflowing_views_rejected(self, sweep_data, view):
        # every squared item norm of a 1e200-scaled view is inf; the
        # protocol read a median rank near half the items, with no error
        model, images, captions, pairs = sweep_data
        if view == "images":
            images = io.FeatureMatrix(images.values * 1e200)
        else:
            captions = io.FeatureMatrix(captions.values * 1e200)
        named = f"{view[:-1]} 0: squared norm is not finite"
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=named):
                retrieval.evaluate_bidirectional(model, images, captions,
                                                 pairs)
            with pytest.raises(ValueError, match=named):
                retrieval.alpha_sweep(model, images, captions, [0.0, 0.5],
                                      pairs)


class TestTsvFormats:
    def test_report_columns(self):
        rep = retrieval.EvalReport(task="search",
                                   recalls={1: 25.0, 5: 50.0, 10: 75.0},
                                   median_rank=4.5, n_queries=4, n_items=12)
        text = retrieval.reports_to_tsv([rep])
        lines = text.strip().split("\n")
        assert lines[0] == "task\tr1\tr5\tr10\tmedr\tn_queries\tn_items"
        assert lines[1] == "search\t25\t50\t75\t4.5\t4\t12"

    def test_sweep_columns(self):
        curve = retrieval.SweepCurve(np.array([0.0, 1.0]),
                                     np.array([10.0, 20.0]),
                                     np.array([30.0, 40.0]), k=10)
        lines = retrieval.sweep_to_tsv(curve).strip().split("\n")
        assert lines[0] == "alpha\tr10_search\tr10_annotation"
        assert lines[1] == "0\t10\t30"
