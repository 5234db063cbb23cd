"""Path searches: equivalence with standalone fits, selection, timing."""

import numpy as np
import pytest

from ccax import cca, io, retrieval, selection, synthetic
from oracles import center_columns, thin_svd


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


class TestTsvdPath:
    def test_full_rank_cell_equals_plain_cca_score(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        xc, _ = center_columns(train_x)
        yc, _ = center_columns(train_y)
        rx, ry = thin_svd(xc).rank, thin_svd(yc).rank
        grid, sel = selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                        [rx], [ry], pair_index=vp)
        model = cca.cca_fit(train_x, train_y)
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
                standalone = cca.cca_fit_tsvd(train_x, train_y, k_x, k_y)
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


class TestPairingChecks:
    """A pairing that does not fit the validation captions fails up front.

    The library paths raise before any cell is solved; the CLI checks the
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

        def no_solve(*args, **kwargs):
            raise AssertionError("a cell was solved before the pairing check")

        monkeypatch.setattr(selection, "solve", no_solve)
        with pytest.raises(ValueError,
                           match="pair_index length must match caption count"):
            path(cca.prepare(train_x, train_y), vi, vc, [2], [2],
                 pair_index=pairs)

    def test_image_without_captions_fails_before_any_svd(self, dataset,
                                                         monkeypatch):
        train_x, train_y, vi, vc, vp = dataset
        pairs = np.where(vp == 19, 18, vp)

        def no_solve(*args, **kwargs):
            raise AssertionError("a cell was solved before the pairing check")

        monkeypatch.setattr(selection, "solve", no_solve)
        with pytest.raises(ValueError, match="image 19 has no paired captions"):
            selection.tsvd_path(cca.prepare(train_x, train_y), vi, vc,
                                [2], [2], pair_index=pairs)


class TestTikhonovPath:
    def test_zero_grid_equals_plain_cca_score(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        grid, _ = selection.tikhonov_path(cca.prepare(train_x, train_y),
                                          vi, vc, [0.0], [0.0], pair_index=vp)
        model = cca.cca_fit(train_x, train_y)
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
                standalone = cca.cca_fit_tikhonov(train_x, train_y, g_x, g_y)
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


class TestGuidedTikhonov:
    def test_model_bitwise_equals_standalone_at_mapped_penalties(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        result = selection.guided_tikhonov(cca.prepare(train_x, train_y),
                                           vi, vc, [2, 5, 9, 14], [2, 4, 8, 12],
                                           pair_index=vp)
        for model, penalties in (
            (result.search_model, result.search_penalties),
            (result.annotation_model, result.annotation_penalties),
        ):
            reference = cca.cca_fit_tikhonov(train_x, train_y, *penalties)
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
        for gx, gy in (result.search_penalties, result.annotation_penalties):
            assert gx in sq_x and gy in sq_y

    def test_full_rank_winner_maps_to_smallest_retained(self, dataset):
        train_x, train_y, vi, vc, vp = dataset
        problem = cca.prepare(train_x, train_y)
        s_x, s_y = problem.s_x, problem.s_y
        result = selection.guided_tikhonov(
            problem, vi, vc, [len(s_x)], [len(s_y)], pair_index=vp)
        assert result.search_penalties == (s_x[-1] ** 2, s_y[-1] ** 2)


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

    def test_speedup_grows_with_text_dimension(self):
        # per cell the full-size SVD scales with m_x m_y^2 while the
        # truncated one scales with the (smaller) grid ranks, so widening
        # one view at a fixed grid widens the gap
        def speedup(text_dim):
            cfg = synthetic.LatentModelConfig(
                n_train=800, n_val=150, n_test=1, latent_dim=10,
                image_dim=256, text_dim=text_dim,
                noise_x=0.5, noise_y=0.5, seed=0,
            )
            x, y, splits = synthetic.generate_latent_pairs(cfg)
            tx = io.FeatureMatrix(x.values[splits["train"]])
            ty = io.FeatureMatrix(y.values[splits["train"]])
            vi = io.FeatureMatrix(x.values[splits["val"]])
            vc = io.FeatureMatrix(y.values[splits["val"]])
            report = selection.measure_path_timing(
                cca.prepare(tx, ty), vi, vc,
                selection.default_rank_grid(256, 10),
                selection.default_rank_grid(text_dim, 10), repeats=3)
            return report.speedup

        assert speedup(256) > speedup(64)


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
