"""Solver correctness against brute-force oracles and closed-form identities."""

import numpy as np
import pytest

from ccax import cca, io
from oracles import (cca_correlations_eig, constraint_residual,
                     sign_fix_loops)


def random_views(seed, n=50, mx=4, my=3, scale=1.0):
    rng = np.random.default_rng(seed)
    x = io.FeatureMatrix(scale * rng.standard_normal((n, mx)))
    y = io.FeatureMatrix(scale * rng.standard_normal((n, my)))
    return x, y


class TestCenterColumns:
    def test_hand_example(self):
        m = io.FeatureMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        centered, means = cca.center_columns(m)
        np.testing.assert_array_equal(means, [3.0, 4.0])
        np.testing.assert_array_equal(
            centered.values, [[-2, -2], [0, 0], [2, 2]]
        )

    def test_already_centered(self):
        m = io.FeatureMatrix([[-1.0, 2.0], [1.0, -2.0]])
        centered, means = cca.center_columns(m)
        np.testing.assert_allclose(means, 0.0, atol=1e-15)
        np.testing.assert_allclose(centered.values, m.values, atol=1e-15)

    def test_identical_rows_vanish(self):
        m = io.FeatureMatrix([[2.0, 3.0]] * 4)
        centered, means = cca.center_columns(m)
        np.testing.assert_array_equal(means, [2.0, 3.0])
        np.testing.assert_array_equal(centered.values, np.zeros((4, 2)))

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        m = io.FeatureMatrix(rng.standard_normal((40, 6)) * 100)
        centered, _ = cca.center_columns(m)
        bound = 1e-10 * m.rows * np.abs(m.values).max()
        assert np.abs(centered.values.sum(axis=0)).max() <= bound


class TestThinSvd:
    def test_diagonal(self):
        m = io.FeatureMatrix(np.diag([3.0, 2.0, 1.0]))
        f = cca.thin_svd(m)
        np.testing.assert_allclose(f.s, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        a = np.array([1.0, 2.0, 2.0])
        b = np.array([3.0, 4.0])
        f = cca.thin_svd(io.FeatureMatrix(np.outer(a, b)))
        assert f.rank == 1
        np.testing.assert_allclose(
            f.s[0], np.linalg.norm(a) * np.linalg.norm(b), rtol=1e-12
        )

    def test_factor_properties(self):
        rng = np.random.default_rng(2)
        m = io.FeatureMatrix(rng.standard_normal((50, 8)))
        f = cca.thin_svd(m)
        np.testing.assert_allclose(f.u_left.T @ f.u_left, np.eye(f.rank),
                                   atol=1e-10)
        np.testing.assert_allclose(f.v_right.T @ f.v_right, np.eye(f.rank),
                                   atol=1e-10)
        recon = (f.u_left * f.s) @ f.v_right.T
        assert np.abs(m.values - recon).max() <= 1e-8 * f.s[0]
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s > 0)

    def test_rank_tol_truncates(self):
        m = io.FeatureMatrix(np.diag([1.0, 1e-3, 1e-12]))
        f = cca.thin_svd(m, rank_tol=1e-6)
        assert f.rank == 2


class TestCcaFit:
    def test_identical_views_give_unit_correlations(self):
        rng = np.random.default_rng(3)
        x = io.FeatureMatrix(rng.standard_normal((100, 10)))
        model = cca.cca_fit(x, x)
        np.testing.assert_allclose(model.sigma, 1.0, atol=1e-8)

    def test_invariance_to_invertible_map(self):
        rng = np.random.default_rng(4)
        x = io.FeatureMatrix(rng.standard_normal((100, 10)))
        a = rng.standard_normal((10, 10)) + 3 * np.eye(10)
        y = io.FeatureMatrix(x.values @ a)
        model = cca.cca_fit(x, y)
        np.testing.assert_allclose(model.sigma, 1.0, atol=1e-8)

    def test_matches_eigenvalue_oracle(self):
        x, y = random_views(5)
        model = cca.cca_fit(x, y)
        expected = cca_correlations_eig(x.values, y.values)[: model.k]
        np.testing.assert_allclose(model.sigma, expected, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(6, n=40, mx=6, my=5)
        model = cca.cca_fit(x, y)
        assert constraint_residual(model, x, y) <= 1e-8

    def test_row_mismatch_rejected(self):
        x, _ = random_views(7, n=10)
        _, y = random_views(7, n=11)
        with pytest.raises(ValueError, match="row counts"):
            cca.cca_fit(x, y)

    def test_zero_rank_rejected(self):
        x = io.FeatureMatrix([[1.0, 1.0]] * 5)  # constant rows center to zero
        _, y = random_views(8, n=5, my=2)
        with pytest.raises(ValueError, match="zero numerical rank"):
            cca.cca_fit(x, y)

    def test_degenerate_n_warns(self):
        x, y = random_views(9, n=4, mx=6, my=3)
        with pytest.warns(UserWarning, match="singular"):
            model = cca.cca_fit(x, y)
        assert model.k >= 1

    def test_deterministic_and_sign_fixed(self):
        x, y = random_views(10)
        a = cca.cca_fit(x, y)
        b = cca.cca_fit(x, y)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)

    def test_sigma_sorted_and_clamped(self):
        x, y = random_views(11, n=30, mx=8, my=6)
        model = cca.cca_fit(x, y)
        assert np.all(np.diff(model.sigma) <= 0)
        assert model.sigma.min() >= 0.0 and model.sigma.max() <= 1.0

    def test_cross_view_normal_equations(self):
        # the optimal map from view X onto view Y's shared-space embedding
        # is U diag(sigma); symmetrically for view Y
        for seed in range(10):
            x, y = random_views(100 + seed, n=45, mx=6, my=4)
            model = cca.cca_fit(x, y)
            xc = x.values - model.mean_x
            yc = y.values - model.mean_y
            target_x = xc.T @ yc @ model.v
            res_x = (xc.T @ xc) @ (model.u * model.sigma) - target_x
            assert np.abs(res_x).max() <= 1e-8 * np.abs(target_x).max()
            target_y = yc.T @ xc @ model.u
            res_y = (yc.T @ yc) @ (model.v * model.sigma) - target_y
            assert np.abs(res_y).max() <= 1e-8 * np.abs(target_y).max()


class TestPrepareSolve:
    def test_problem_is_read_only_and_keeps_no_rows(self):
        x, y = random_views(12, n=50, mx=4, my=3)
        problem = cca.prepare(x, y)
        arrays = (problem.mean_x, problem.mean_y, problem.s_x, problem.s_y,
                  problem.v_x, problem.v_y, problem.t)
        assert not any(arr.flags.writeable for arr in arrays)
        assert all(50 not in arr.shape for arr in arrays)
        assert (problem.rank_x, problem.rank_y, problem.n) == (4, 3, 50)

    def test_sign_fix_matches_loop(self):
        rng = np.random.default_rng(13)
        tied = np.array([[0.5, -0.5, 0.0],
                         [-0.5, 0.5, -0.0],
                         [0.1, -0.2, 0.0]])
        cases = [(tied, rng.standard_normal((4, 3)))]
        for rows, cols in [(1, 1), (5, 3), (3, 5), (8, 8)]:
            cases.append((rng.standard_normal((rows, cols)),
                          rng.standard_normal((cols + 2, cols))))
        for p_x, p_y in cases:
            got = cca._sign_fix(p_x, p_y)
            want = sign_fix_loops(p_x, p_y)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestTikhonov:
    def test_zero_penalty_equals_plain(self):
        x, y = random_views(20, n=60, mx=6, my=5)
        plain = cca.cca_fit(x, y)
        tikh = cca.cca_fit_tikhonov(x, y, 0.0, 0.0)
        np.testing.assert_allclose(tikh.sigma, plain.sigma, atol=1e-10)
        # same subspaces: principal angles between span(U_plain), span(U_tikh)
        qa, _ = np.linalg.qr(plain.u)
        qb, _ = np.linalg.qr(tikh.u)
        cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
        assert np.arccos(np.clip(cosines, -1, 1)).max() <= 1e-6

    def test_top_correlation_monotone_in_gamma(self):
        x, y = random_views(21, n=40, mx=6, my=5)
        tops = [
            cca.cca_fit_tikhonov(x, y, g, 0.7).sigma[0]
            for g in np.linspace(0.0, 50.0, 10)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(tops, tops[1:]))

    def test_matches_shifted_eigenvalue_oracle(self):
        rng = np.random.default_rng(22)
        x = io.FeatureMatrix(rng.standard_normal((40, 6)))
        y = io.FeatureMatrix(rng.standard_normal((40, 5)))
        model = cca.cca_fit_tikhonov(x, y, 0.5, 0.5)
        expected = cca_correlations_eig(x.values, y.values, 0.5, 0.5)[: model.k]
        np.testing.assert_allclose(model.sigma, expected, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(23, n=40, mx=6, my=5)
        model = cca.cca_fit_tikhonov(x, y, 1.3, 0.2)
        assert constraint_residual(model, x, y) <= 1e-8

    def test_negative_penalty_rejected(self):
        x, y = random_views(24)
        with pytest.raises(ValueError):
            cca.cca_fit_tikhonov(x, y, -1.0, 0.0)


class TestTsvd:
    def test_full_rank_equals_plain(self):
        x, y = random_views(30, n=60, mx=6, my=5)
        plain = cca.cca_fit(x, y)
        full = cca.cca_fit_tsvd(x, y, 6, 5)
        np.testing.assert_allclose(full.sigma, plain.sigma, atol=1e-10)

    def test_rank_one_operator(self):
        x, y = random_views(31, n=60, mx=6, my=5)
        xc, _ = cca.center_columns(x)
        yc, _ = cca.center_columns(y)
        fx, fy = cca.thin_svd(xc), cca.thin_svd(yc)
        model = cca.cca_fit_tsvd(x, y, 1, 1)
        assert model.k == 1
        expected = abs(float(fx.u_left[:, 0] @ fy.u_left[:, 0]))
        np.testing.assert_allclose(model.sigma[0], expected, atol=1e-12)

    @pytest.mark.parametrize("k_x,k_y", [(2, 2), (4, 3), (6, 2), (3, 5)])
    def test_matches_explicit_truncation(self, k_x, k_y):
        x, y = random_views(32, n=60, mx=6, my=5)
        model = cca.cca_fit_tsvd(x, y, k_x, k_y)
        xc, _ = cca.center_columns(x)
        yc, _ = cca.center_columns(y)
        fx, fy = cca.thin_svd(xc), cca.thin_svd(yc)
        x_trunc = io.FeatureMatrix(
            (fx.u_left[:, :k_x] * fx.s[:k_x]) @ fx.v_right[:, :k_x].T
        )
        y_trunc = io.FeatureMatrix(
            (fy.u_left[:, :k_y] * fy.s[:k_y]) @ fy.v_right[:, :k_y].T
        )
        reference = cca.cca_fit(x_trunc, y_trunc)
        np.testing.assert_allclose(model.sigma, reference.sigma, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(33, n=40, mx=6, my=5)
        model = cca.cca_fit_tsvd(x, y, 4, 3)
        assert constraint_residual(model, x, y) <= 1e-8

    def test_rank_beyond_numerical_rank_rejected(self):
        x, y = random_views(34, n=30, mx=5, my=4)
        with pytest.raises(ValueError, match="k_x"):
            cca.cca_fit_tsvd(x, y, 6, 2)


class TestSpectralFilters:
    def test_soft_at_alpha(self):
        assert cca.spectral_filter_soft(1.0, 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0)
        )

    def test_soft_at_zero(self):
        assert cca.spectral_filter_soft(0.0, 2.0) == 0.0

    def test_soft_three_four_five(self):
        assert cca.spectral_filter_soft(3.0, 4.0) == pytest.approx(0.6)

    def test_hard_boundary_is_one(self):
        assert cca.spectral_filter_hard(2.5, 2.5) == 1.0

    def test_hard_below(self):
        assert cca.spectral_filter_hard(2.4999, 2.5) == 0.0

    def test_hard_zero_threshold(self):
        s = np.array([0.0, 1.0, 7.0])
        np.testing.assert_array_equal(cca.spectral_filter_hard(s, 0.0), 1.0)


class TestVerifyFilterForms:
    def test_tikhonov_forms_agree(self):
        x, y = random_views(40, n=30, mx=5, my=4)
        for gx, gy in [(0.3, 0.7), (2.0, 0.01), (10.0, 10.0)]:
            spec = cca.RegularizationSpec.tikhonov(gx, gy)
            assert cca.verify_filter_forms(x, y, spec) <= 1e-10

    def test_tsvd_is_exact_submatrix(self):
        x, y = random_views(41, n=30, mx=5, my=4)
        for k_x, k_y in [(1, 1), (3, 2), (5, 4)]:
            spec = cca.RegularizationSpec.tsvd(k_x, k_y)
            assert cca.verify_filter_forms(x, y, spec) == 0.0

    def test_zero_penalties(self):
        x, y = random_views(42, n=30, mx=5, my=4)
        spec = cca.RegularizationSpec.tikhonov(0.0, 0.0)
        assert cca.verify_filter_forms(x, y, spec) <= 1e-10


class TestModelArchive:
    def test_pinned_blob_names_and_manifest_keys(self):
        x, y = random_views(49)
        archive = cca.model_to_archive(cca.cca_fit(x, y))
        assert set(archive.blobs) == {"U", "V", "SIGMA", "MEAN_X", "MEAN_Y"}
        assert set(archive.manifest) == {
            "kind", "gamma_x", "gamma_y", "k_x", "k_y", "n", "m_x", "m_y",
        }

    def test_round_trip(self, tmp_path):
        x, y = random_views(50, n=40, mx=6, my=5)
        model = cca.cca_fit_tikhonov(x, y, 0.25, 4.0)
        path = tmp_path / "model.arc"
        io.save_archive(cca.model_to_archive(model), path)
        loaded = cca.model_from_archive(io.load_archive(path))
        np.testing.assert_array_equal(loaded.u, model.u)
        np.testing.assert_array_equal(loaded.v, model.v)
        np.testing.assert_array_equal(loaded.sigma, model.sigma)
        np.testing.assert_array_equal(loaded.mean_x, model.mean_x)
        np.testing.assert_array_equal(loaded.mean_y, model.mean_y)
        assert loaded.reg == model.reg
        assert loaded.n == model.n

    def test_manifest_mismatch_detected(self, tmp_path):
        x, y = random_views(51)
        archive = cca.model_to_archive(cca.cca_fit(x, y))
        archive.manifest["m_x"] = "999"
        path = tmp_path / "model.arc"
        io.save_archive(archive, path)
        with pytest.raises(ValueError, match="disagree"):
            cca.model_from_archive(io.load_archive(path))
