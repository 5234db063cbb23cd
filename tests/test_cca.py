"""Solver correctness against brute-force oracles and closed-form identities."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccax import cca, io
from ccax.cca import RegularizationSpec, prepare, solve
from oracles import (cca_correlations_eig, center_columns,
                     constraint_residual, prepare_svd, sign_fix_loops,
                     spectral_filter_hard, spectral_filter_soft, thin_svd,
                     verify_filter_forms)


def random_views(seed, n=50, mx=4, my=3, scale=1.0):
    rng = np.random.default_rng(seed)
    x = io.FeatureMatrix(scale * rng.standard_normal((n, mx)))
    y = io.FeatureMatrix(scale * rng.standard_normal((n, my)))
    return x, y


class TestCenterColumns:
    def test_hand_example(self):
        m = io.FeatureMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        centered, means = center_columns(m)
        np.testing.assert_array_equal(means, [3.0, 4.0])
        np.testing.assert_array_equal(
            centered.values, [[-2, -2], [0, 0], [2, 2]]
        )

    def test_already_centered(self):
        m = io.FeatureMatrix([[-1.0, 2.0], [1.0, -2.0]])
        centered, means = center_columns(m)
        np.testing.assert_allclose(means, 0.0, atol=1e-15)
        np.testing.assert_allclose(centered.values, m.values, atol=1e-15)

    def test_identical_rows_vanish(self):
        m = io.FeatureMatrix([[2.0, 3.0]] * 4)
        centered, means = center_columns(m)
        np.testing.assert_array_equal(means, [2.0, 3.0])
        np.testing.assert_array_equal(centered.values, np.zeros((4, 2)))

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        m = io.FeatureMatrix(rng.standard_normal((40, 6)) * 100)
        centered, _ = center_columns(m)
        bound = 1e-10 * m.rows * np.abs(m.values).max()
        assert np.abs(centered.values.sum(axis=0)).max() <= bound


class TestThinSvd:
    def test_diagonal(self):
        m = io.FeatureMatrix(np.diag([3.0, 2.0, 1.0]))
        f = thin_svd(m)
        np.testing.assert_allclose(f.s, [3.0, 2.0, 1.0])

    def test_rank_one(self):
        a = np.array([1.0, 2.0, 2.0])
        b = np.array([3.0, 4.0])
        f = thin_svd(io.FeatureMatrix(np.outer(a, b)))
        assert f.rank == 1
        np.testing.assert_allclose(
            f.s[0], np.linalg.norm(a) * np.linalg.norm(b), rtol=1e-12
        )

    def test_factor_properties(self):
        rng = np.random.default_rng(2)
        m = io.FeatureMatrix(rng.standard_normal((50, 8)))
        f = thin_svd(m)
        np.testing.assert_allclose(f.u_left.T @ f.u_left, np.eye(f.rank),
                                   atol=1e-10)
        np.testing.assert_allclose(f.v_right.T @ f.v_right, np.eye(f.rank),
                                   atol=1e-10)
        recon = (f.u_left * f.s) @ f.v_right.T
        assert np.abs(m.values - recon).max() <= 1e-8 * f.s[0]
        assert np.all(np.diff(f.s) <= 0) and np.all(f.s > 0)

    def test_rank_tol_truncates(self):
        m = io.FeatureMatrix(np.diag([1.0, 1e-3, 1e-12]))
        f = thin_svd(m, rank_tol=1e-6)
        assert f.rank == 2


class TestCcaFit:
    def test_identical_views_give_unit_correlations(self):
        rng = np.random.default_rng(3)
        x = io.FeatureMatrix(rng.standard_normal((100, 10)))
        model = solve(prepare(x, x), RegularizationSpec.none())
        np.testing.assert_allclose(model.sigma, 1.0, atol=1e-8)

    def test_invariance_to_invertible_map(self):
        rng = np.random.default_rng(4)
        x = io.FeatureMatrix(rng.standard_normal((100, 10)))
        a = rng.standard_normal((10, 10)) + 3 * np.eye(10)
        y = io.FeatureMatrix(x.values @ a)
        model = solve(prepare(x, y), RegularizationSpec.none())
        np.testing.assert_allclose(model.sigma, 1.0, atol=1e-8)

    def test_matches_eigenvalue_oracle(self):
        x, y = random_views(5)
        model = solve(prepare(x, y), RegularizationSpec.none())
        expected = cca_correlations_eig(x.values, y.values)[: model.k]
        np.testing.assert_allclose(model.sigma, expected, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(6, n=40, mx=6, my=5)
        model = solve(prepare(x, y), RegularizationSpec.none())
        assert constraint_residual(model, x, y) <= 1e-8

    def test_row_mismatch_rejected(self):
        x, _ = random_views(7, n=10)
        _, y = random_views(7, n=11)
        with pytest.raises(ValueError, match="row counts"):
            solve(prepare(x, y), RegularizationSpec.none())

    def test_zero_rank_rejected(self):
        x = io.FeatureMatrix([[1.0, 1.0]] * 5)  # constant rows center to zero
        _, y = random_views(8, n=5, my=2)
        with pytest.raises(ValueError, match="zero numerical rank"):
            solve(prepare(x, y), RegularizationSpec.none())

    def test_degenerate_n_warns(self):
        x, y = random_views(9, n=4, mx=6, my=3)
        with pytest.warns(UserWarning, match="singular"):
            model = solve(prepare(x, y), RegularizationSpec.none())
        assert model.k >= 1

    def test_degenerate_n_warning_names_the_caller(self):
        # stacklevel points past _validate_pair and prepare to this file
        x, y = random_views(9, n=4, mx=6, my=3)
        with pytest.warns(UserWarning, match="singular") as record:
            prepare(x, y)
        assert record[0].filename == __file__

    def test_deterministic_and_sign_fixed(self):
        x, y = random_views(10)
        a = solve(prepare(x, y), RegularizationSpec.none())
        b = solve(prepare(x, y), RegularizationSpec.none())
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        # the weights already follow the convention: nothing flips
        fixed_u, fixed_v = sign_fix_loops(a.u, a.v)
        np.testing.assert_array_equal(fixed_u, a.u)
        np.testing.assert_array_equal(fixed_v, a.v)

    def test_sigma_sorted_and_clamped(self):
        x, y = random_views(11, n=30, mx=8, my=6)
        model = solve(prepare(x, y), RegularizationSpec.none())
        assert np.all(np.diff(model.sigma) <= 0)
        assert model.sigma.min() >= 0.0 and model.sigma.max() <= 1.0

    def test_cross_view_normal_equations(self):
        # the optimal map from view X onto view Y's shared-space embedding
        # is U diag(sigma); symmetrically for view Y
        for seed in range(10):
            x, y = random_views(100 + seed, n=45, mx=6, my=4)
            model = solve(prepare(x, y), RegularizationSpec.none())
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
        for u, v in cases:
            got = cca._sign_fix(u, v)
            want = sign_fix_loops(u, v)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


    @pytest.mark.parametrize("spec", [
        RegularizationSpec.none(), RegularizationSpec.tsvd(5, 3),
        RegularizationSpec.tikhonov(2.5, 0.7)])
    def test_archive_independent_of_factor_signs(self, spec, tmp_path):
        # prepare's thin SVDs pick the sign of each right singular vector;
        # negating v_x[:, j] with T[j] (or v_y[:, j] with T[:, j]) is the
        # same problem factored with the other sign.  Copies keep each
        # array's memory order, so every product sums in the same order.
        x, y = random_views(14, n=120, mx=9, my=7)
        problem = prepare(x, y)

        def archive_bytes(p, name):
            io.save_archive(cca.model_to_archive(solve(p, spec)),
                            tmp_path / name)
            return (tmp_path / name).read_bytes()

        want = archive_bytes(problem, "base.arc")
        for j in range(problem.rank_x):
            v_x, t = problem.v_x.copy(order="K"), problem.t.copy(order="K")
            v_x[:, j] *= -1
            t[j] *= -1
            assert archive_bytes(replace(problem, v_x=v_x, t=t),
                                 f"x{j}.arc") == want
        for j in range(problem.rank_y):
            v_y, t = problem.v_y.copy(order="K"), problem.t.copy(order="K")
            v_y[:, j] *= -1
            t[:, j] *= -1
            assert archive_bytes(replace(problem, v_y=v_y, t=t),
                                 f"y{j}.arc") == want

    def test_prepare_stays_finite_on_huge_values(self):
        # 1e200-scaled features overflow a squared norm, but the QR, the
        # R-block SVDs and T stay finite, so prepare has nothing to refuse
        x, y = random_views(15, n=80, mx=6, my=5)
        problem = prepare(io.FeatureMatrix(1e200 * x.values), y)
        for arr in (problem.mean_x, problem.s_x, problem.v_x, problem.t):
            assert np.isfinite(arr).all()
        assert 1e199 < problem.s_x[0] < 1e203
        np.testing.assert_allclose(problem.s_x, 1e200 * prepare(x, y).s_x,
                                   rtol=1e-12)


def _pair(rng, n, m_x, m_y, rank_x, rank_y, duplicate=False):
    """Two views of n rows whose centred column spaces share a direction.

    A view has rank min(rank, m, n - 1), its centred singular values lie in
    [1, 4] and its columns are shifted by random means; ``duplicate``
    appends a copy of its first column.  The shared direction makes the top
    canonical correlation 1, so "relative to the largest" is a fixed scale.
    """
    centred = rng.standard_normal((n, n))
    q = np.linalg.qr(centred - centred.mean(axis=0))[0][:, :n - 1]
    views = []
    for m, rank in ((m_x, rank_x), (m_y, rank_y)):
        r = min(rank, m, n - 1)
        u = np.linalg.qr(np.column_stack(
            [q[:, 0], q @ rng.standard_normal((n - 1, r - 1))]))[0]
        v = np.linalg.qr(rng.standard_normal((m, r)))[0]
        values = (u * rng.uniform(1, 4, r)) @ v.T + rng.standard_normal(m)
        if duplicate:
            values = np.column_stack([values, values[:, 0]])
        views.append(io.FeatureMatrix(values))
    return views


@pytest.mark.filterwarnings("ignore:n=.*covariances are singular")
class TestPrepareMatchesSvdRoute:
    """The chunked joint QR of ``prepare`` against centred thin SVDs.

    Ranks are equal; s_x, s_y and the singular values of T (the canonical
    correlations) agree within 1e-12 of the largest.  The same pair read
    block by block from FMAT1 files gives every array bit for bit.
    """

    @staticmethod
    def check(x, y, tmp_dir):
        problem = cca.prepare(x, y)
        s_x, s_y, t = prepare_svd(x, y)
        assert (problem.rank_x, problem.rank_y) == (len(s_x), len(s_y))
        corr = np.linalg.svd(t, compute_uv=False)
        for got, want in ((problem.s_x, s_x), (problem.s_y, s_y),
                          (np.linalg.svd(problem.t, compute_uv=False), corr)):
            assert np.abs(got - want).max() <= 1e-12 * want[0]
        io.save_matrix(x, tmp_dir / "x.fmat")
        io.save_matrix(y, tmp_dir / "y.fmat")
        with io.open_matrix(tmp_dir / "x.fmat") as fx, \
                io.open_matrix(tmp_dir / "y.fmat") as fy:
            streamed = cca.prepare(fx, fy)
        for field in fields(problem):
            np.testing.assert_array_equal(getattr(streamed, field.name),
                                          getattr(problem, field.name))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
           m_x=st.integers(1, 9), m_y=st.integers(1, 9),
           rank_x=st.integers(1, 9), rank_y=st.integers(1, 9),
           duplicate=st.booleans(), chunk=st.sampled_from([2048, 1, 7]))
    # centering a view of rank 1 leaves a 2.5e-15 noise direction that a
    # cutoff on s_max alone (2.2e-15) kept as rank
    @example(seed=830171, n=9, m_x=9, m_y=9, rank_x=8, rank_y=1,
             duplicate=False, chunk=2048)
    def test_random_shapes(self, seed, n, m_x, m_y, rank_x, rank_y,
                           duplicate, chunk, tmp_path_factory):
        # n < m_x + m_y, rank-deficient views, a duplicated column, and
        # several QR steps (a chunk under m_x + m_y rounds up to it)
        rng = np.random.default_rng(seed)
        x, y = _pair(rng, n, m_x, m_y, rank_x, rank_y, duplicate)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cca, "_CHUNK_ROWS", chunk)
            self.check(x, y, tmp_path_factory.mktemp("pair"))

    @pytest.mark.parametrize("rows", ["c-1", "c", "c+1", "2c+1"])
    @pytest.mark.parametrize("m_x,m_y", [(5, 4), (9, 7)])
    def test_chunk_boundaries(self, rows, m_x, m_y, monkeypatch, tmp_path):
        # c = max(_CHUNK_ROWS, m_x + m_y): 12 for the first shape, 16 for
        # the second, whose chunk rounds up to its m_x + m_y columns
        monkeypatch.setattr(cca, "_CHUNK_ROWS", 12)
        c = max(12, m_x + m_y)
        n = {"c-1": c - 1, "c": c, "c+1": c + 1, "2c+1": 2 * c + 1}[rows]
        rng = np.random.default_rng(n)
        self.check(*_pair(rng, n, m_x, m_y, m_x, m_y), tmp_path)

    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_means_are_numpy_means(self, chunk, monkeypatch):
        # rows are added in order across blocks, as numpy adds them down a
        # column of a matrix with two or more columns
        monkeypatch.setattr(cca, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(16)
        x, y = (io.FeatureMatrix(rng.standard_normal((3000, m))
                                 * 10.0 ** rng.integers(-6, 6, m) + 1e3)
                for m in (2, 5))
        problem = cca.prepare(x, y)
        np.testing.assert_array_equal(problem.mean_x, x.values.mean(axis=0))
        np.testing.assert_array_equal(problem.mean_y, y.values.mean(axis=0))


class TestTikhonov:
    def test_zero_penalty_equals_plain(self):
        x, y = random_views(20, n=60, mx=6, my=5)
        plain = solve(prepare(x, y), RegularizationSpec.none())
        tikh = solve(prepare(x, y), RegularizationSpec.tikhonov(0.0, 0.0))
        np.testing.assert_allclose(tikh.sigma, plain.sigma, atol=1e-10)
        # same subspaces: principal angles between span(U_plain), span(U_tikh)
        qa, _ = np.linalg.qr(plain.u)
        qb, _ = np.linalg.qr(tikh.u)
        cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
        assert np.arccos(np.clip(cosines, -1, 1)).max() <= 1e-6

    def test_top_correlation_monotone_in_gamma(self):
        x, y = random_views(21, n=40, mx=6, my=5)
        tops = [
            solve(prepare(x, y), RegularizationSpec.tikhonov(g, 0.7)).sigma[0]
            for g in np.linspace(0.0, 50.0, 10)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(tops, tops[1:]))

    def test_matches_shifted_eigenvalue_oracle(self):
        rng = np.random.default_rng(22)
        x = io.FeatureMatrix(rng.standard_normal((40, 6)))
        y = io.FeatureMatrix(rng.standard_normal((40, 5)))
        model = solve(prepare(x, y), RegularizationSpec.tikhonov(0.5, 0.5))
        expected = cca_correlations_eig(x.values, y.values, 0.5, 0.5)[: model.k]
        np.testing.assert_allclose(model.sigma, expected, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(23, n=40, mx=6, my=5)
        model = solve(prepare(x, y), RegularizationSpec.tikhonov(1.3, 0.2))
        assert constraint_residual(model, x, y) <= 1e-8

    def test_negative_penalty_rejected(self):
        x, y = random_views(24)
        with pytest.raises(ValueError):
            solve(prepare(x, y), RegularizationSpec.tikhonov(-1.0, 0.0))

    @pytest.mark.parametrize("gammas,named", [
        ((np.nan, 0.0), "gamma_x"), ((np.inf, 0.0), "gamma_x"),
        ((0.0, np.nan), "gamma_y"), ((1.0, -np.inf), "gamma_y"),
        ((1.0, -1.0), "gamma_y"),
    ])
    def test_non_finite_penalty_named(self, gammas, named):
        with pytest.raises(ValueError,
                           match=f"{named} must be a finite penalty >= 0"):
            RegularizationSpec.tikhonov(*gammas)


class TestTsvd:
    def test_full_rank_equals_plain(self):
        x, y = random_views(30, n=60, mx=6, my=5)
        plain = solve(prepare(x, y), RegularizationSpec.none())
        full = solve(prepare(x, y), RegularizationSpec.tsvd(6, 5))
        np.testing.assert_allclose(full.sigma, plain.sigma, atol=1e-10)

    def test_rank_one_operator(self):
        x, y = random_views(31, n=60, mx=6, my=5)
        xc, _ = center_columns(x)
        yc, _ = center_columns(y)
        fx, fy = thin_svd(xc), thin_svd(yc)
        model = solve(prepare(x, y), RegularizationSpec.tsvd(1, 1))
        assert model.k == 1
        expected = abs(float(fx.u_left[:, 0] @ fy.u_left[:, 0]))
        np.testing.assert_allclose(model.sigma[0], expected, atol=1e-12)

    @pytest.mark.parametrize("k_x,k_y", [(2, 2), (4, 3), (6, 2), (3, 5)])
    def test_matches_explicit_truncation(self, k_x, k_y):
        x, y = random_views(32, n=60, mx=6, my=5)
        model = solve(prepare(x, y), RegularizationSpec.tsvd(k_x, k_y))
        xc, _ = center_columns(x)
        yc, _ = center_columns(y)
        fx, fy = thin_svd(xc), thin_svd(yc)
        x_trunc = io.FeatureMatrix(
            (fx.u_left[:, :k_x] * fx.s[:k_x]) @ fx.v_right[:, :k_x].T
        )
        y_trunc = io.FeatureMatrix(
            (fy.u_left[:, :k_y] * fy.s[:k_y]) @ fy.v_right[:, :k_y].T
        )
        reference = solve(prepare(x_trunc, y_trunc), RegularizationSpec.none())
        np.testing.assert_allclose(model.sigma, reference.sigma, atol=1e-8)

    def test_constraint_orthonormality(self):
        x, y = random_views(33, n=40, mx=6, my=5)
        model = solve(prepare(x, y), RegularizationSpec.tsvd(4, 3))
        assert constraint_residual(model, x, y) <= 1e-8

    def test_rank_beyond_numerical_rank_rejected(self):
        x, y = random_views(34, n=30, mx=5, my=4)
        with pytest.raises(ValueError, match="k_x"):
            solve(prepare(x, y), RegularizationSpec.tsvd(6, 2))


class TestSpectralFilters:
    def test_soft_at_alpha(self):
        assert spectral_filter_soft(1.0, 1.0) == pytest.approx(
            1.0 / np.sqrt(2.0)
        )

    def test_soft_at_zero(self):
        assert spectral_filter_soft(0.0, 2.0) == 0.0

    def test_soft_three_four_five(self):
        assert spectral_filter_soft(3.0, 4.0) == pytest.approx(0.6)

    def test_hard_boundary_is_one(self):
        assert spectral_filter_hard(2.5, 2.5) == 1.0

    def test_hard_below(self):
        assert spectral_filter_hard(2.4999, 2.5) == 0.0

    def test_hard_zero_threshold(self):
        s = np.array([0.0, 1.0, 7.0])
        np.testing.assert_array_equal(spectral_filter_hard(s, 0.0), 1.0)


class TestVerifyFilterForms:
    def test_tikhonov_forms_agree(self):
        x, y = random_views(40, n=30, mx=5, my=4)
        for gx, gy in [(0.3, 0.7), (2.0, 0.01), (10.0, 10.0)]:
            spec = cca.RegularizationSpec.tikhonov(gx, gy)
            assert verify_filter_forms(x, y, spec) <= 1e-10

    def test_tsvd_is_exact_submatrix(self):
        x, y = random_views(41, n=30, mx=5, my=4)
        for k_x, k_y in [(1, 1), (3, 2), (5, 4)]:
            spec = cca.RegularizationSpec.tsvd(k_x, k_y)
            assert verify_filter_forms(x, y, spec) == 0.0

    def test_zero_penalties(self):
        x, y = random_views(42, n=30, mx=5, my=4)
        spec = cca.RegularizationSpec.tikhonov(0.0, 0.0)
        assert verify_filter_forms(x, y, spec) <= 1e-10


class TestModelArchive:
    def test_pinned_blob_names_and_manifest_keys(self):
        x, y = random_views(49)
        archive = cca.model_to_archive(
            solve(prepare(x, y), RegularizationSpec.none()))
        assert set(archive.blobs) == {"U", "V", "SIGMA", "MEAN_X", "MEAN_Y"}
        assert set(archive.manifest) == {
            "kind", "gamma_x", "gamma_y", "k_x", "k_y", "n", "m_x", "m_y",
        }

    def test_round_trip(self, tmp_path):
        x, y = random_views(50, n=40, mx=6, my=5)
        model = solve(prepare(x, y), RegularizationSpec.tikhonov(0.25, 4.0))
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
        archive = cca.model_to_archive(
            solve(prepare(x, y), RegularizationSpec.none()))
        archive.manifest["m_x"] = "999"
        path = tmp_path / "model.arc"
        io.save_archive(archive, path)
        with pytest.raises(ValueError, match="disagree"):
            cca.model_from_archive(io.load_archive(path))
