"""Task embeddings, ranking, and the recall/median-rank protocol."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ccax import cca, io, retrieval, synthetic
from oracles import rank_by_cosine_loops, recall_and_median_loops


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    x = io.FeatureMatrix(rng.standard_normal((60, 6)))
    y = io.FeatureMatrix(rng.standard_normal((60, 5)))
    return cca.cca_fit(x, y)


class TestTaskEmbedding:
    def test_asymmetric_search_projections(self, model):
        emb = retrieval.make_task_embedding(model, "search", "asymmetric")
        np.testing.assert_array_equal(emb.image_proj,
                                      model.sigma[:, None] * model.u.T)
        np.testing.assert_array_equal(emb.text_proj, model.v.T)

    def test_asymmetric_annotation_projections(self, model):
        emb = retrieval.make_task_embedding(model, "annotation", "asymmetric")
        np.testing.assert_array_equal(emb.image_proj, model.u.T)
        np.testing.assert_array_equal(emb.text_proj,
                                      model.sigma[:, None] * model.v.T)

    def test_symmetric_zero_is_plain_cca(self, model):
        emb = retrieval.make_task_embedding(model, "search", "symmetric",
                                            alpha=0.0)
        np.testing.assert_array_equal(emb.image_proj, model.u.T)
        np.testing.assert_array_equal(emb.text_proj, model.v.T)

    def test_sweep_endpoints_match_asymmetric(self, model):
        sweep1 = retrieval.make_task_embedding(model, "search", "sweep",
                                               alpha=1.0)
        asym_s = retrieval.make_task_embedding(model, "search", "asymmetric")
        np.testing.assert_allclose(sweep1.image_proj, asym_s.image_proj)
        np.testing.assert_allclose(sweep1.text_proj, asym_s.text_proj)
        sweep0 = retrieval.make_task_embedding(model, "annotation", "sweep",
                                               alpha=0.0)
        asym_a = retrieval.make_task_embedding(model, "annotation",
                                               "asymmetric")
        np.testing.assert_allclose(sweep0.image_proj, asym_a.image_proj)
        np.testing.assert_allclose(sweep0.text_proj, asym_a.text_proj)

    def test_sigma_power_zero_convention(self, model):
        # sigma^0 must be exactly 1 even for zero correlations
        sigma = np.array([0.9, 0.0])
        np.testing.assert_array_equal(retrieval._sigma_power(sigma, 0.0),
                                      [1.0, 1.0])
        np.testing.assert_array_equal(retrieval._sigma_power(sigma, 0.5),
                                      [np.sqrt(0.9), 0.0])

    def test_centering_uses_training_means(self, model):
        emb = retrieval.make_task_embedding(model, "search", "asymmetric")
        x = np.outer(np.ones(3), model.mean_x)  # rows equal to the mean
        np.testing.assert_allclose(emb.embed_images(x), 0.0, atol=1e-14)

    @pytest.mark.parametrize("task,weighting,alpha", [
        ("search", "asymmetric", None), ("annotation", "asymmetric", None),
        *[(task, "symmetric", a) for task in retrieval.TASKS
          for a in (0.0, 0.5, 2.0)],
        *[(task, "sweep", a) for task in retrieval.TASKS
          for a in (0.0, 0.3, 1.0)],
    ])
    def test_one_formula_equals_branches_bitwise(self, model, task,
                                                 weighting, alpha):
        sigma = model.sigma.copy()
        sigma[-2:] = 0.0
        zeroed = replace(model, sigma=sigma)
        emb = retrieval.make_task_embedding(zeroed, task, weighting, alpha)
        want = oracles.task_projections_branches(zeroed, task, weighting,
                                                 alpha)
        for got, ref in zip((emb.image_proj, emb.text_proj), want):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_invalid_alpha_rejected(self, model):
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite alpha >= 0"):
                retrieval.make_task_embedding(model, "search", "symmetric",
                                              alpha=alpha)
        for alpha in (1.5, np.nan):
            with pytest.raises(ValueError):
                retrieval.make_task_embedding(model, "search", "sweep",
                                              alpha=alpha)


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


@st.composite
def tied_problems(draw):
    """Queries, items and multi-item ground truth with forced exact ties."""
    block = retrieval.BLOCK_ROWS
    n_queries = draw(st.sampled_from((1, 7, block - 1, block, block + 1,
                                      2 * block - 1, 2 * block,
                                      3 * block + 5)))
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


def list_route(model, images, captions, pair_index, similarity):
    """Asymmetric (search, annotation) reports through list ground truth."""
    ks = (1, 5, 10)
    emb = retrieval.make_task_embedding(model, "search")
    search = retrieval._report(oracles.best_ranks(
        emb.embed_texts(captions), emb.embed_images(images),
        oracles.pairing_to_ground_truth(pair_index, images.rows, "search"),
        similarity), ks, "search", images.rows)
    emb = retrieval.make_task_embedding(model, "annotation")
    annotation = retrieval._report(oracles.best_ranks(
        emb.embed_images(images), emb.embed_texts(captions),
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
    n_captions = draw(st.sampled_from((1, 7, block - 1, block, block + 1,
                                       2 * block + 3)))
    n_images = draw(st.integers(-(-n_captions // 7), n_captions))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.ones(n_images, dtype=np.int64)
    for _ in range(n_captions - n_images):
        counts[rng.choice(np.flatnonzero(counts < 7))] += 1
    pair_index = rng.permutation(np.repeat(np.arange(n_images), counts))
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
    """Contiguous image blocks against the block-slicing loop."""

    @pytest.fixture(scope="class")
    def views(self, model):
        # 23 images with 1-4 captions each, pairing shuffled
        rng = np.random.default_rng(11)
        pair_index = rng.permutation(
            np.repeat(np.arange(23), rng.integers(1, 5, size=23)))
        return (*random_views(model, pair_index, 12), pair_index)

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
        model = cca.cca_fit(train_x, train_y)
        images, captions, pair_index = data.split_views("test")
        assert images.rows == 6 and captions.rows == 30

        search, annotation = retrieval.evaluate_bidirectional(
            model, images, captions, pair_index)

        # independent path: loops all the way down
        emb_s = retrieval.make_task_embedding(model, "search", "asymmetric")
        order = rank_by_cosine_loops(emb_s.embed_texts(captions),
                                     emb_s.embed_images(images))
        gt = [[int(i)] for i in pair_index]
        recalls, median = recall_and_median_loops(order, gt)
        assert search.recalls == recalls
        assert search.median_rank == median

        emb_a = retrieval.make_task_embedding(model, "annotation",
                                              "asymmetric")
        order = rank_by_cosine_loops(emb_a.embed_images(images),
                                     emb_a.embed_texts(captions))
        gt = [
            [j for j in range(captions.rows) if pair_index[j] == i]
            for i in range(images.rows)
        ]
        recalls, median = recall_and_median_loops(order, gt)
        assert annotation.recalls == recalls
        assert annotation.median_rank == median


class TestAlphaSweep:
    def test_endpoints_equal_asymmetric_evaluations(self):
        cfg = synthetic.LatentModelConfig(
            n_train=150, n_val=40, n_test=40, latent_dim=4,
            image_dim=16, text_dim=12, noise_x=0.5, noise_y=0.5, seed=2,
        )
        data = synthetic.generate_caption_like(cfg, 3)
        train_x, train_y = data.paired_training_views()
        model = cca.cca_fit(train_x, train_y)
        images, captions, pairs = data.split_views("val")
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
        curve = retrieval.alpha_sweep(model, images, captions, [0.5])
        assert curve.alphas.shape == (1,)
        emb = retrieval.make_task_embedding(model, "search", "sweep",
                                            alpha=0.5)
        half = np.sqrt(model.sigma)
        np.testing.assert_allclose(emb.image_proj, half[:, None] * model.u.T)
        np.testing.assert_allclose(emb.text_proj, half[:, None] * model.v.T)

    def test_grid_outside_unit_interval_rejected(self, model):
        rng = np.random.default_rng(7)
        images = io.FeatureMatrix(rng.standard_normal((4, model.m_x)))
        captions = io.FeatureMatrix(rng.standard_normal((4, model.m_y)))
        for grid in ([0.0, 1.2], [0.0, np.nan]):
            with pytest.raises(ValueError, match="alpha grid"):
                retrieval.alpha_sweep(model, images, captions, grid)


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
