"""Path searches: equivalence with standalone fits, selection, timing."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blas_threads import run_under_blas_threads
from ccax import cca, io, retrieval, selection, synthetic
from ccax.cca import RegularizationSpec, prepare, solve
from oracles import CountingView, center_columns, thin_svd


@pytest.fixture(scope="module")
def dataset():
    cfg = synthetic.LatentModelConfig(
        n_train=250, n_val=80, n_test=80, latent_dim=5,
        image_dim=20, text_dim=14, noise_x=0.4, noise_y=0.4, seed=12,
    )
    data = synthetic.generate_caption_like(cfg, 2)
    train_x, train_y = data.paired_training_views()
    val_images, val_captions, val_pairs = data.split_views("val")
    return train_x, train_y, val_images, val_captions, val_pairs


class TestDefaultGrids:
    def test_rank_grid_index_spacing(self):
        grid = selection.default_rank_grid(100, 20)
        np.testing.assert_array_equal(grid, np.arange(5, 105, 5))

    def test_rank_grid_dedupes_small_ranks(self):
        grid = selection.default_rank_grid(8, 20)
        np.testing.assert_array_equal(grid, np.arange(1, 9))

    def test_penalty_grid_is_squared_singular_values(self):
        s = np.linspace(10.0, 0.5, 40)
        grid = selection.default_penalty_grid(s, 20)
        expected = np.unique(s[np.arange(2, 41, 2) - 1] ** 2)[::-1]
        np.testing.assert_array_equal(grid, expected)
        assert len(grid) == 20

    @pytest.mark.parametrize("kind", ["tsvd", "tikhonov"])
    def test_path_axes_default_per_view(self, dataset, kind):
        train_x, train_y = dataset[:2]
        problem = cca.prepare(train_x, train_y)
        axis_x, axis_y = selection.path_axes(problem, kind, counts=(4, 6))
        if kind == "tsvd":
            want_x = selection.default_rank_grid(problem.rank_x, 4)
            want_y = selection.default_rank_grid(problem.rank_y, 6)
        else:
            want_x = selection.default_penalty_grid(problem.s_x, 4)
            want_y = selection.default_penalty_grid(problem.s_y, 6)
        np.testing.assert_array_equal(axis_x, want_x)
        np.testing.assert_array_equal(axis_y, want_y)
        # a given axis is kept, the other still defaults
        axis_x, axis_y = selection.path_axes(problem, kind, grid_y=[3],
                                             counts=(4, 6))
        np.testing.assert_array_equal(axis_x, want_x)
        np.testing.assert_array_equal(axis_y, [3])


class TestTsvdPath:
    def test_full_rank_cell_equals_plain_cca_score(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        xc, _ = center_columns(train_x)
        yc, _ = center_columns(train_y)
        rx, ry = thin_svd(xc).rank, thin_svd(yc).rank
        grid, sel = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                        [rx], [ry], pair_index=vp)
        model = solve(prepare(train_x, train_y), RegularizationSpec.none())
        search, annotation = retrieval.evaluate_bidirectional(
            model, vi, vc, vp, ks=(1,))
        assert grid.search_scores[0, 0] == search.recalls[1]
        assert grid.annotation_scores[0, 0] == annotation.recalls[1]

    def test_cells_match_standalone_fits(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid_x = [2, 5, 9, 14]
        grid_y = [2, 4, 8, 12]
        problem = cca.prepare(train_x, train_y)
        grid, _ = selection.tsvd_path(problem, vi, vc,
                                      grid_x, grid_y, pair_index=vp)
        for i, k_x in enumerate(grid_x):
            for j, k_y in enumerate(grid_y):
                standalone = solve(prepare(train_x, train_y),
                                   RegularizationSpec.tsvd(k_x, k_y))
                s, a = retrieval.evaluate_bidirectional(standalone, vi, vc, vp,
                                                        ks=(1,))
                assert abs(grid.search_scores[i, j] - s.recalls[1]) <= 1e-10
                assert (abs(grid.annotation_scores[i, j] - a.recalls[1])
                        <= 1e-10)
                # per-cell sigma agreement, via a recomputed cell model
                np.testing.assert_allclose(
                    np.linalg.svd(problem.t[:k_x, :k_y], compute_uv=False),
                    standalone.sigma, atol=1e-10)

    def test_selection_is_exhaustive_argmax(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid_x = [2, 5, 9]
        grid_y = [2, 4, 8]
        grid, sel = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                        grid_x, grid_y, pair_index=vp)
        i, j = np.unravel_index(np.argmax(grid.search_scores),
                                grid.search_scores.shape)
        assert sel.best_search_score == grid.search_scores.max()
        assert grid.search_scores[
            grid_x.index(sel.best_search.k_x),
            grid_y.index(sel.best_search.k_y)] == grid.search_scores.max()
        assert sel.best_annotation_score == grid.annotation_scores.max()

    def test_grid_order_does_not_change_selection(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        a = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                [2, 5, 9], [2, 8], pair_index=vp)[1]
        b = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                [9, 2, 5], [8, 2], pair_index=vp)[1]
        assert a.best_search == b.best_search
        assert a.best_annotation == b.best_annotation

    def test_parallel_equals_sequential(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        seq, _ = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                     [2, 5, 9], [2, 4, 8],
                                     pair_index=vp, workers=1)
        par, _ = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                     [2, 5, 9], [2, 4, 8],
                                     pair_index=vp, workers=4)
        np.testing.assert_array_equal(seq.search_scores, par.search_scores)
        np.testing.assert_array_equal(seq.annotation_scores,
                                      par.annotation_scores)

    def test_invalid_grid_rejected(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        with pytest.raises(ValueError, match="k_x grid"):
            selection.tsvd_path(problem, vi, vc, [0, 2], [2], pair_index=vp)
        with pytest.raises(ValueError, match="k_x grid is empty"):
            selection.tsvd_path(problem, vi, vc, [], [2], pair_index=vp)
        with pytest.raises(ValueError, match="k_y grid outside the whole"):
            selection.tsvd_path(problem, vi, vc, [2], [2.5], pair_index=vp)


class TestPairingChecks:
    """A pairing that does not fit the validation captions fails up front.

    The library paths raise before any cell is scored; the CLI checks the
    pairing before it prepares the problem (``tests/test_cli.py``).
    """

    @pytest.mark.parametrize("change", [-3, 3])
    @pytest.mark.parametrize("path", [selection.tsvd_path,
                                      selection.tikhonov_path])
    def test_wrong_length_fails_before_any_svd(self, dataset, monkeypatch,
                                               change, path):
        train_x, train_y, vi, vc, vp = dataset
        pairs = (vp[:change] if change < 0
                 else np.concatenate([vp, vp[:change]]))

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was scored before the pairing "
                                 "check")

        monkeypatch.setattr(selection, "_first_best", no_cell)
        with pytest.raises(ValueError,
                           match="pair_index length must match caption count"):
            path(cca.prepare(train_x, train_y), vi, vc, [2], [2],
                 pair_index=pairs)

    def test_image_without_captions_fails_before_any_svd(self, dataset,
                                                         monkeypatch):
        train_x, train_y, vi, vc, vp = dataset
        pairs = np.where(vp == 19, 18, vp)

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was scored before the pairing "
                                 "check")

        monkeypatch.setattr(selection, "_first_best", no_cell)
        with pytest.raises(ValueError, match="image 19 has no paired captions"):
            selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                [2], [2], pair_index=pairs)


class TestTikhonovPath:
    def test_zero_grid_equals_plain_cca_score(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid, _ = selection.tikhonov_path(cca.prepare(train_x, train_y),
                                          vi, vc, [0.0], [0.0], pair_index=vp)
        model = solve(prepare(train_x, train_y), RegularizationSpec.none())
        search, annotation = retrieval.evaluate_bidirectional(
            model, vi, vc, vp, ks=(1,))
        assert abs(grid.search_scores[0, 0] - search.recalls[1]) <= 1e-9
        assert abs(grid.annotation_scores[0, 0] - annotation.recalls[1]) <= 1e-9

    def test_cells_match_standalone_fits(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid_x = [0.5, 4.0, 30.0]
        grid_y = [0.1, 2.0, 10.0]
        grid, _ = selection.tikhonov_path(cca.prepare(train_x, train_y),
                                          vi, vc, grid_x, grid_y,
                                          pair_index=vp)
        for i, g_x in enumerate(grid_x):
            for j, g_y in enumerate(grid_y):
                standalone = solve(prepare(train_x, train_y),
                                   RegularizationSpec.tikhonov(g_x, g_y))
                s, a = retrieval.evaluate_bidirectional(standalone, vi, vc, vp,
                                                        ks=(1,))
                assert abs(grid.search_scores[i, j] - s.recalls[1]) <= 1e-10
                assert (abs(grid.annotation_scores[i, j] - a.recalls[1])
                        <= 1e-10)

    def test_negative_penalty_rejected(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        with pytest.raises(ValueError, match="penalties"):
            selection.tikhonov_path(problem, vi, vc,
                                    [-0.5], [1.0], pair_index=vp)
        with pytest.raises(ValueError, match="gamma_y grid is empty"):
            selection.tikhonov_path(problem, vi, vc,
                                    [1.0], [], pair_index=vp)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_non_finite_penalty_rejected_before_any_cell(self, dataset,
                                                         monkeypatch, bad):
        train_x, train_y, vi, vc, vp = dataset

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was scored before the axis check")

        monkeypatch.setattr(selection, "_first_best", no_cell)
        with pytest.raises(ValueError, match="gamma_x grid must hold finite "
                                             "penalties >= 0"):
            selection.tikhonov_path(cca.prepare(train_x, train_y), vi, vc,
                                    [1.0, bad], [1.0], pair_index=vp)


class TestGuidedTikhonov:
    def test_model_bitwise_equals_standalone_at_mapped_penalties(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        result = selection.guided_tikhonov(cca.prepare(train_x, train_y),
                                           vi, vc, [2, 5, 9, 14], [2, 4, 8, 12],
                                           pair_index=vp)
        for model in (result.search_model, result.annotation_model):
            assert model.reg.kind == "tikhonov"
            reference = solve(prepare(train_x, train_y), model.reg)
            np.testing.assert_array_equal(model.sigma, reference.sigma)
            np.testing.assert_array_equal(model.u, reference.u)
            np.testing.assert_array_equal(model.v, reference.v)

    def test_penalties_are_squared_singular_values(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        result = selection.guided_tikhonov(cca.prepare(train_x, train_y),
                                           vi, vc, [2, 5, 9], [2, 4, 8],
                                           pair_index=vp)
        problem = cca.prepare(train_x, train_y)
        sq_x = set((problem.s_x ** 2).tolist())
        sq_y = set((problem.s_y ** 2).tolist())
        for model in (result.search_model, result.annotation_model):
            assert model.reg.gamma_x in sq_x and model.reg.gamma_y in sq_y

    def test_full_rank_winner_maps_to_smallest_retained(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        s_x, s_y = problem.s_x, problem.s_y
        result = selection.guided_tikhonov(
            problem, vi, vc, [len(s_x)], [len(s_y)], pair_index=vp)
        reg = result.search_model.reg
        assert (reg.gamma_x, reg.gamma_y) == (s_x[-1] ** 2, s_y[-1] ** 2)


class TestSelect:
    @pytest.mark.parametrize("kind", ["tsvd", "tikhonov"])
    def test_mean_r1_shares_the_winner_of_the_averaged_grid(self, dataset,
                                                           kind):
        train_x, train_y, vi, vc, vp = dataset
        path = getattr(selection, f"{kind}_path")
        grid, sel = path(cca.prepare(train_x, train_y), vi, vc,
                         metric="mean-r1", pair_index=vp)
        mean = 0.5 * (grid.search_scores + grid.annotation_scores)
        i, j = np.unravel_index(np.argmax(mean), mean.shape)
        assert sel.best_search == sel.best_annotation
        assert mean[i, j] == 0.5 * (sel.best_search_score
                                    + sel.best_annotation_score)

    def test_unknown_metric_rejected_before_any_cell(self, dataset,
                                                     monkeypatch):
        train_x, train_y, vi, vc, vp = dataset

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell was scored before the metric "
                                 "check")

        monkeypatch.setattr(selection, "_first_best", no_cell)
        with pytest.raises(ValueError, match="unknown metric 'r5'"):
            selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                [2], [2], metric="r5", pair_index=vp)


class TestGuidedOnPar:
    def test_guided_within_two_points_of_full_path(self):
        # well-separated signal/noise spectra, where the hard-threshold
        # winner and the soft-shrinkage optimum land in the same region
        from ccax import retrieval

        for seed in range(5):
            cfg = synthetic.LatentModelConfig(
                n_train=1000, n_val=400, n_test=1, latent_dim=12,
                image_dim=48, text_dim=32, noise_x=0.6, noise_y=0.6,
                loading_scale=2.0, seed=seed,
            )
            data = synthetic.generate_caption_like(cfg, 4)
            tx, ty = data.paired_training_views()
            vi, vc, vp = data.split_views("val")
            xc, _ = center_columns(tx)
            yc, _ = center_columns(ty)
            fx, fy = thin_svd(xc), thin_svd(yc)
            guided = selection.guided_tikhonov(
                cca.prepare(tx, ty), vi, vc,
                selection.default_rank_grid(fx.rank, 6),
                selection.default_rank_grid(fy.rank, 6), pair_index=vp)
            _, full = selection.tikhonov_path(
                cca.prepare(tx, ty), vi, vc,
                selection.default_penalty_grid(fx.s, 6),
                selection.default_penalty_grid(fy.s, 6), pair_index=vp)
            search, _ = retrieval.evaluate_bidirectional(
                guided.search_model, vi, vc, vp, ks=(1,))
            _, annotation = retrieval.evaluate_bidirectional(
                guided.annotation_model, vi, vc, vp, ks=(1,))
            assert search.recalls[1] >= full.best_search_score - 2.0
            assert annotation.recalls[1] >= full.best_annotation_score - 2.0


class TestTimingMachinery:
    def test_degenerate_single_cell_ratio_near_one(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        report = selection.measure_path_timing(
            cca.prepare(train_x, train_y), vi, vc, [10], [8],
            pair_index=vp, repeats=3)
        assert report.cells == 1
        # both sides do one small SVD; allow generous scheduler noise
        assert 1 / 5 < report.speedup < 5

    def test_report_contents(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        report = selection.measure_path_timing(
            cca.prepare(train_x, train_y), vi, vc, [2, 10], [2, 8],
            pair_index=vp, repeats=2)
        assert report.repeats == 2
        assert len(report.tsvd_runs) == 2
        assert len(report.tikhonov_runs) == 2
        assert report.tsvd_seconds > 0 and report.tikhonov_seconds > 0

    def test_each_validation_row_read_once(self, dataset):
        # the warm-up and every timed run score one shared rotation
        train_x, train_y, vi, vc, vp = dataset
        views = [CountingView(view) for view in (vi, vc)]
        selection.measure_path_timing(
            cca.prepare(train_x, train_y), *views, [2, 10], [2, 8],
            pair_index=vp, repeats=2)
        for view in views:
            np.testing.assert_array_equal(view.reads, 1)

    def test_speedup_grows_with_text_dimension(self, tmp_path):
        # no cell takes an SVD: both paths score the same cells, but a
        # Tikhonov cell forms its scores by a product over every text
        # rank, while a T-SVD grid row grows its scores over ascending
        # ranks once.  Widening the text view grows the Tikhonov product
        # per cell against the scoring both paths share, so the gap widens.
        # Timed in a fresh interpreter under one BLAS thread, as criterion
        # 6 is, so that a neighbour's load cannot stall one side's threads
        proc = run_under_blas_threads(
            1, ["-c", "import test_selection as t; "
                      "print(t.path_speedup(256), t.path_speedup(64))"],
            tmp_path)
        assert proc.returncode == 0, proc.stderr[-3000:]
        speedup = dict(zip((256, 64), map(float, proc.stdout.split())))
        assert speedup[256] > speedup[64]


def path_speedup(text_dim: int) -> float:
    """T-SVD over Tikhonov path speedup on a 10 x 10 grid of a synthetic
    pair with 256 image and ``text_dim`` text dimensions."""
    cfg = synthetic.LatentModelConfig(
        n_train=800, n_val=150, n_test=1, latent_dim=10,
        image_dim=256, text_dim=text_dim,
        noise_x=0.5, noise_y=0.5, seed=0,
    )
    data = synthetic.generate_caption_like(cfg, 1)
    x, y, splits = data.images, data.captions, data.image_splits
    tx = io.FeatureMatrix(x.values[splits["train"]])
    ty = io.FeatureMatrix(y.values[splits["train"]])
    vi = io.FeatureMatrix(x.values[splits["val"]])
    vc = io.FeatureMatrix(y.values[splits["val"]])
    report = selection.measure_path_timing(
        cca.prepare(tx, ty), vi, vc,
        selection.default_rank_grid(256, 10),
        selection.default_rank_grid(text_dim, 10), repeats=3)
    return report.speedup


class TestGridTsv:
    def test_columns_and_cells(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid, _ = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                      [2, 5], [3], pair_index=vp)
        lines = selection.grid_to_tsv(grid).strip().split("\n")
        assert lines[0] == "param_x\tparam_y\tr1_search\tr1_annotation\tcell_seconds"
        assert len(lines) == 3
        first = lines[1].split("\t")
        assert first[0] == "2" and first[1] == "3"


@st.composite
def path_problems(draw):
    """A random training pair, a shuffled validation pairing and a grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image_dim, text_dim = draw(st.integers(3, 16)), draw(st.integers(3, 12))
    cfg = synthetic.LatentModelConfig(
        n_train=draw(st.integers(20, 120)), n_val=draw(st.integers(1, 40)),
        n_test=1, latent_dim=draw(st.integers(1, min(image_dim, text_dim))),
        image_dim=image_dim, text_dim=text_dim,
        noise_x=draw(st.floats(0.1, 2.0)), noise_y=draw(st.floats(0.1, 2.0)),
        seed=int(rng.integers(2**32)))
    data = synthetic.generate_caption_like(cfg, draw(st.integers(1, 4)))
    vi, vc, vp = data.split_views("val")
    order = rng.permutation(vc.rows)
    problem = cca.prepare(*data.paired_training_views())
    kind = draw(st.sampled_from(("tsvd", "tikhonov")))
    if kind == "tsvd":
        axes = [rng.choice(np.arange(1, rank + 1),
                           size=min(rank, draw(st.integers(1, 3))),
                           replace=False)
                for rank in (problem.rank_x, problem.rank_y)]
    else:
        axes = [rng.choice(np.append(s ** 2, 0.0),
                           size=draw(st.integers(1, 3)))
                for s in (problem.s_x, problem.s_y)]
    return (problem, *axes, kind, vi, io.FeatureMatrix(vc.values[order]),
            vp[order])


class TestRotatedCells:
    """Top-1 cells in the rotated space against full models and ranks."""

    @settings(max_examples=40, deadline=None)
    @given(case=path_problems(), similarity=st.sampled_from(("cosine", "l2")),
           workers=st.sampled_from((1, 3)))
    def test_equals_solve_and_ranks(self, case, similarity, workers):
        problem, axis_x, axis_y, kind, vi, vc, vp = case
        grid = selection._run_grid(problem, axis_x, axis_y, kind,
                                   *selection._rotate(problem, vi, vc, vp),
                                   similarity, workers)
        search, annotation = oracles.path_cells(
            problem, axis_x, axis_y, kind, vi, vc, vp, similarity)
        np.testing.assert_array_equal(grid.search_scores, search)
        np.testing.assert_array_equal(grid.annotation_scores, annotation)

    @pytest.mark.parametrize("kind", ["tsvd", "tikhonov"])
    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_equals_rotated_route_on_a_wide_set(self, kind, similarity):
        # 150 images x 5 captions on a 7x6 grid (a rank-1 row for tsvd):
        # the bilinear scores against the SVD of every cell
        cfg = synthetic.LatentModelConfig(
            n_train=400, n_val=150, n_test=1, latent_dim=12, image_dim=48,
            text_dim=32, noise_x=0.1, noise_y=2.0, seed=41)
        data = synthetic.generate_caption_like(cfg, 5)
        vi, vc, vp = data.split_views("val")
        problem = cca.prepare(*data.paired_training_views())
        axis_x, axis_y = selection.path_axes(problem, kind, counts=(6, 6))
        if kind == "tsvd":
            axis_x = np.r_[1, axis_x]
        grid = selection._run_grid(problem, axis_x, axis_y, kind,
                                   *selection._rotate(problem, vi, vc, vp),
                                   similarity, 1)
        search, annotation = oracles.rotated_path_cells(
            problem, axis_x, axis_y, kind, vi, vc, vp, similarity)
        np.testing.assert_array_equal(grid.search_scores, search)
        np.testing.assert_array_equal(grid.annotation_scores, annotation)


#: axes given unsorted and with a repeated value
UNSORTED_AXES = [("tsvd", [9, 2, 5, 2], [8, 3, 8]),
                 ("tikhonov", [30.0, 0.5, 4.0, 0.5], [10.0, 0.1, 10.0])]


class TestSvdFreeCells:
    """Rows on sorted, distinct axis values, whatever the worker count."""

    @pytest.mark.parametrize("kind,axis_x,axis_y", UNSORTED_AXES)
    def test_cells_bitwise_equal_across_workers_and_axis_order(
            self, dataset, monkeypatch, kind, axis_x, axis_y):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        score = selection._first_best
        runs = []

        def recording(g, image_sq, caption_sq, *args):
            runs[-1].append(g.tobytes() + image_sq.tobytes()
                            + caption_sq.tobytes())
            return score(g, image_sq, caption_sq, *args)

        monkeypatch.setattr(selection, "_first_best", recording)
        grids = []
        for axes, workers in (((axis_x, axis_y), 1), ((axis_x, axis_y), 3),
                              ((sorted(set(axis_x)), sorted(set(axis_y))),
                               3)):
            runs.append([])
            grids.append(selection._run_grid(
                problem, *axes, kind, *selection._rotate(problem, vi, vc, vp),
                "cosine", workers))
        # each distinct cell's scores and item norms once, both tasks in
        # one call, bit for bit
        assert len(runs[0]) == 6
        assert sorted(runs[0]) == sorted(runs[1]) == sorted(runs[2])
        for name in ("search_scores", "annotation_scores"):
            assert (getattr(grids[0], name).tobytes()
                    == getattr(grids[1], name).tobytes())


#: caption counts at and across the 192-caption blocks the blocked route
#: read a path cell's G in
CAPTION_COUNTS = (1, 2, retrieval.BLOCK_ROWS - 1, retrieval.BLOCK_ROWS,
                  retrieval.BLOCK_ROWS + 1, 2 * retrieval.BLOCK_ROWS + 3)


@st.composite
def planted_cells(draw):
    """(g, image_sq, caption_sq, similarity, rank_one): a path cell's G,
    images by captions, whose scores are planted exactly.

    Scores S are drawn from {-2, -1, 0, 1, 2}, so most columns and rows
    hold bitwise ties of their best, and some are copied down a column,
    along a row or from one 192-caption block to the next.  Under cosine G
    is S times powers of two, the norms' squares, so a norm divides
    exactly; under ``l2`` S plus whole half-norms; a rank-one cell has S
    times a positive draw, whose sign is S.  A few entries may be +-inf
    or NaN, so that the kernels' errors are compared too.
    """
    kind = draw(st.sampled_from(("cosine", "l2", "rank_one")))
    n_images = draw(st.integers(1, 24))
    n_captions = draw(st.sampled_from(CAPTION_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.integers(-2, 3, (n_images, n_captions)).astype(float)
    tie = draw(st.sampled_from(("column", "row", "block", "none")))
    if tie == "column":  # one caption's best image, again further down
        s[rng.integers(0, n_images, n_images), :] = s.max(axis=0)
    elif tie == "row":   # one image's best caption, again further along
        s[:, rng.integers(0, n_captions, n_captions)] = s.max(
            axis=1)[:, None]
    elif tie == "block" and n_captions > retrieval.BLOCK_ROWS:
        s[:, retrieval.BLOCK_ROWS:] = s[:, :n_captions
                                         - retrieval.BLOCK_ROWS]
    if kind == "cosine":
        a, b = (2.0 ** rng.integers(-3, 4, n) for n in (n_images,
                                                         n_captions))
        g, image_sq, caption_sq = s * a[:, None] * b, a * a, b * b
    elif kind == "l2":
        a, b = (rng.integers(0, 6, n).astype(float) for n in (n_images,
                                                             n_captions))
        g, image_sq, caption_sq = s + a[:, None] + b, 2 * a, 2 * b
    else:
        g = s * rng.uniform(0.5, 2.0, s.shape)
        image_sq, caption_sq = np.ones(n_images), np.ones(n_captions)
    for value in draw(st.lists(st.sampled_from((np.inf, -np.inf, np.nan)),
                               max_size=3)):
        g[rng.integers(0, n_images), rng.integers(0, n_captions)] = value
    return (np.ascontiguousarray(g), image_sq, caption_sq,
            "l2" if kind == "l2" else "cosine", kind == "rank_one")


def outcome(route):
    """What ``route()`` returns as lists, or the message it raises."""
    try:
        return [np.asarray(task).tolist() for task in route()]
    except ValueError as exc:
        return str(exc)


class TestFirstBestKernel:
    """``selection._first_best``, which scores a path cell's G where it
    lies, against the blocked route it replaced
    (``oracles.first_best_blocked``) and the one-task kernel
    (``oracles.one_task_ranks``): the same first-best items, ties to the
    smaller index, or the same message naming the same caption or image."""

    @settings(max_examples=150, deadline=None)
    @given(cell=planted_cells())
    def test_planted_ties_and_non_finite_scores(self, cell):
        g, image_sq, caption_sq, similarity, rank_one = cell
        n_images, n_captions = g.shape

        def kernel():
            return selection._first_best(
                g, image_sq, caption_sq, similarity, rank_one,
                np.empty_like(g))

        def blocked():
            search, annotation = oracles.first_best_blocked(
                lambda lo, hi: g.T[lo:hi], [image_sq], [caption_sq],
                similarity, rank_one)
            return search[0], annotation[0]

        def one_task():
            return (oracles.one_task_ranks(
                lambda lo, hi: g.T[lo:hi], n_captions, [image_sq], "search",
                similarity, rank_one)[0],
                oracles.one_task_ranks(
                    lambda lo, hi: g[lo:hi], n_images, [caption_sq],
                    "annotation", similarity, rank_one)[0])

        assert outcome(kernel) == outcome(blocked) == outcome(one_task)

    def test_g_is_left_as_it_is(self):
        # both tasks score into the scratch buffer; G itself is not written
        rng = np.random.default_rng(3)
        g = rng.standard_normal((7, 300))
        kept = g.copy()
        selection._first_best(g, np.ones(7), np.ones(300), "cosine", False,
                              np.empty_like(g))
        np.testing.assert_array_equal(g, kept)


class TestPathKernelMatchesOracleRoute:
    """Path TSVs, less ``cell_seconds``, of the kernel and of the blocked
    route it replaced, on the same cells: identical text.  Run at 1 and 2
    OpenBLAS threads by ``test_two_blas_threads``."""

    @staticmethod
    def blocked_route(g, image_sq, caption_sq, similarity, rank_one,
                      scratch):
        search, annotation = oracles.first_best_blocked(
            lambda lo, hi: g.T[lo:hi], [image_sq], [caption_sq], similarity,
            rank_one)
        return search[0], annotation[0]

    @pytest.mark.parametrize("kind", ["tsvd", "tikhonov"])
    @pytest.mark.parametrize("similarity", ["cosine", "l2"])
    def test_path_tsvs_identical(self, dataset, monkeypatch, kind,
                                 similarity):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        axis_x, axis_y = selection.path_axes(problem, kind, counts=(6, 6))
        if kind == "tsvd":
            axis_x = np.r_[1, axis_x]  # rank-one cells too
        rotated = selection._rotate(problem, vi, vc, vp)

        def tsv():
            grid = selection._run_grid(problem, axis_x, axis_y, kind,
                                       *rotated, similarity, 2)
            return [line.rsplit("\t", 1)[0] for line in
                    selection.grid_to_tsv(grid).splitlines()]

        got = tsv()
        monkeypatch.setattr(selection, "_first_best", self.blocked_route)
        assert got == tsv()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_blas_threads(self, threads, tmp_path):
        test = (f"{Path(__file__).resolve()}::TestPathKernelMatchesOracleRoute"
                "::test_path_tsvs_identical")
        proc = run_under_blas_threads(
            threads, ["-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
