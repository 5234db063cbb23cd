"""Solver correctness against brute-force oracles and closed-form identities."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blas_threads import run_under_blas_threads
from ccax import cca, io, selection, synthetic
from ccax.cca import RegularizationSpec, prepare, solve
from oracles import (CountingView, cca_correlations_eig, center_columns,
                     constraint_residual, prepare_exact, prepare_qr,
                     prepare_two_pass, sign_fix_loops,
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


#: Common offsets added to a pair.  A mean rounded at the offset's scale,
#: as the two-pass route's is, is past 1e-12 of the largest at 1e8.
OFFSETS = (0.0, 1e4, 1e8)


@pytest.mark.filterwarnings("ignore:n=.*covariances are singular")
class TestPrepareMatchesSvdRoute:
    """The chunked joint QR of ``prepare`` against the thin SVDs of the
    pair centered exactly (``oracles.prepare_exact``), at common offsets
    0, 1e4 and 1e8.

    Ranks are equal; s_x, s_y and the singular values of T (the canonical
    correlations) agree within 1e-12 of the largest.  The same pair read
    block by block from FMAT1 files gives every array bit for bit.
    """

    @staticmethod
    def check(x, y, tmp_dir):
        problem = cca.prepare(x, y)
        s_x, s_y, t = prepare_exact(x, y)
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
           duplicate=st.booleans(), chunk=st.sampled_from([2048, 1, 7]),
           offset=st.sampled_from(OFFSETS))
    # centering a view of rank 1 leaves a 2.5e-15 noise direction that a
    # cutoff on s_max alone (2.2e-15) kept as rank
    @example(seed=830171, n=9, m_x=9, m_y=9, rank_x=8, rank_y=1,
             duplicate=False, chunk=2048, offset=0.0)
    # a common offset that the one pass needs its shifts for: factored
    # without them, this pair is past the tolerance
    @example(seed=26, n=40, m_x=9, m_y=7, rank_x=9, rank_y=7,
             duplicate=False, chunk=7, offset=1e4)
    def test_random_shapes(self, seed, n, m_x, m_y, rank_x, rank_y,
                           duplicate, chunk, offset, tmp_path_factory):
        # n < m_x + m_y, rank-deficient views, a duplicated column, and
        # several QR steps (a chunk under m_x + m_y rounds up to it)
        rng = np.random.default_rng(seed)
        x, y = (io.FeatureMatrix(view.values + offset) for view in
                _pair(rng, n, m_x, m_y, rank_x, rank_y, duplicate))
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


@pytest.mark.filterwarnings("ignore:n=.*covariances are singular")
class TestPrepareMatchesExactCentering:
    """``prepare`` and the two-pass route (``oracles.prepare_two_pass``)
    against the pair centered in exact arithmetic
    (``oracles.prepare_exact``), a common offset added to every value:
    equal ranks, and s_x, s_y and the canonical correlations within a
    gate of the largest.  ``prepare``'s shifts are means of rows, so
    X - s is exact where the offset dominates, and the ones column
    centers the rest: 1e-14 holds at every offset.  The two-pass route
    subtracts means rounded by about eps times the offset, which 1e-14
    covers up to 1e4; at 1e8 it was 4.7e-14 off on these pairs, and up
    to 1.1e-12 on seeded pairs of up to 300 rows."""

    GATES = {"one-pass": {0.0: 1e-14, 1e4: 1e-14, 1e8: 1e-14},
             "two-pass": {0.0: 1e-14, 1e4: 1e-14, 1e8: 1e-11}}

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("seed,n,m_x,m_y,rank_x,rank_y", [
        (0, 60, 5, 4, 5, 4), (1, 150, 8, 6, 3, 6), (2, 9, 6, 5, 6, 5)])
    @pytest.mark.parametrize("atypical", [False, True])
    def test_offsets(self, offset, seed, n, m_x, m_y, rank_x, rank_y,
                     atypical, monkeypatch):
        rng = np.random.default_rng(seed)
        x, y = _pair(rng, n, m_x, m_y, rank_x, rank_y)
        if atypical:  # sorted rows: the first chunk's means are far off
            order = np.argsort(x.values[:, 0])
            x, y = (io.FeatureMatrix(v.values[order]) for v in (x, y))
        x, y = (io.FeatureMatrix(v.values + offset) for v in (x, y))
        s_x, s_y, t = prepare_exact(x, y)
        corr = np.linalg.svd(t, compute_uv=False)
        for chunk in (1, 7, 2048):
            monkeypatch.setattr(cca, "_CHUNK_ROWS", chunk)
            for route, problem in (("one-pass", cca.prepare(x, y)),
                                   ("two-pass", prepare_two_pass(x, y))):
                assert (problem.rank_x, problem.rank_y) == (len(s_x),
                                                            len(s_y))
                got = np.linalg.svd(problem.t, compute_uv=False)
                for a, b in ((problem.s_x, s_x), (problem.s_y, s_y),
                             (got, corr)):
                    assert (np.abs(a - b).max()
                            <= self.GATES[route][offset] * b[0]), route


@st.composite
def chunked_pairs(draw):
    """(x, y, chunk): views of rank up to their width, some deficient, with
    n under p = m_x + m_y, at c or c + 1, or one row past whole chunks."""
    chunk = draw(st.sampled_from([1, 5, 12, 40]))
    m_x, m_y = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    c = max(chunk, m_x + m_y)
    n = draw(st.sampled_from([c, c + 1, 2 * c + 1, 3 * c + 1])
             | st.integers(2, min(3 * c + 1, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = _pair(rng, n, m_x, m_y, draw(st.integers(1, 9)),
                 draw(st.integers(1, 9)), draw(st.booleans()))
    return x, y, chunk


def assert_same_problem(got, want, gate=1e-12):
    """Equal ranks, the same means bit for bit, and s_x, s_y and the
    canonical correlations within ``gate`` of the largest."""
    np.testing.assert_array_equal(got.mean_x, want.mean_x)
    np.testing.assert_array_equal(got.mean_y, want.mean_y)
    assert (got.rank_x, got.rank_y) == (want.rank_x, want.rank_y)
    corr = [np.linalg.svd(p.t, compute_uv=False) for p in (got, want)]
    for a, b in ((got.s_x, want.s_x), (got.s_y, want.s_y), corr):
        assert np.abs(a - b).max() <= gate * b[0]


@pytest.mark.filterwarnings("ignore:n=.*covariances are singular")
class TestPrepareMatchesNumpyQr:
    """``prepare``'s in-place ``dgeqrf`` against ``np.linalg.qr`` on a copy
    of each shifted stack (``oracles.prepare_qr``): every array bit for
    bit; and against the two-pass route that factors the centered pair
    (``oracles.prepare_two_pass``) as ``assert_same_problem``."""

    @staticmethod
    def check(x, y, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cca, "_CHUNK_ROWS", chunk)
            want = prepare_qr(x, y)
            got = cca.prepare(x, y)
            two_pass = prepare_two_pass(x, y)
        for field in fields(got):
            np.testing.assert_array_equal(getattr(got, field.name),
                                          getattr(want, field.name))
        assert_same_problem(got, two_pass)

    @settings(max_examples=80, deadline=None)
    @given(pair=chunked_pairs())
    def test_random_shapes(self, pair):
        self.check(*pair)

    @pytest.mark.parametrize("n,m_x,m_y,chunk", [
        (700, 120, 60, 256),    # blocked dgeqrf (p > 128) over three chunks
        (401, 150, 100, 200),   # a one-row last chunk after a blocked one
        (90, 120, 60, 256),     # n < p, so R is trapezoidal
    ])
    def test_blocked_shapes(self, n, m_x, m_y, chunk):
        rng = np.random.default_rng(n)
        x = io.FeatureMatrix(rng.standard_normal((n, m_x)) + 3.0)
        y = io.FeatureMatrix(x.values[:, :m_y // 2] @ rng.standard_normal(
            (m_y // 2, m_y)) + rng.standard_normal((n, m_y)))
        self.check(x, y, chunk)

    def test_one_row(self):
        # centering leaves nothing: every route refuses it alike
        x, y = io.FeatureMatrix([[1.0, 2.0, 3.0]]), io.FeatureMatrix([[4.0]])
        for route in (prepare_qr, prepare_two_pass, cca.prepare):
            with pytest.raises(ValueError, match="zero numerical rank"):
                route(x, y)

    def test_two_blas_threads(self, tmp_path):
        # the same arrays where OpenBLAS splits each product over threads
        proc = run_under_blas_threads(
            2, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                f"{Path(__file__).resolve()}::TestPrepareMatchesNumpyQr"
                "::test_random_shapes",
                f"{Path(__file__).resolve()}::TestPrepareMatchesNumpyQr"
                "::test_blocked_shapes",
                f"{Path(__file__).resolve()}::TestPrepareFoldsRuns"],
            tmp_path)
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert "11 passed" in proc.stdout


def _repeated_pair(rng, g, m_x, m_y, rank_x, rank_y, rank_w):
    """Image i of a ``_pair`` of len(g) images repeated g[i] times in a
    row, as each image sits beside its g[i] captions.  A caption is its
    image's y row plus noise of rank up to ``rank_w``: orthonormal columns
    that sum to zero over each image's captions, scaled by [1, 4] along
    feature directions orthogonal to the images' centred y rows.  So the
    centred caption view keeps ``_pair``'s scale, and a group of captions
    spans at most rank_w directions about its mean."""
    images, captions = _pair(rng, len(g), m_x, m_y, rank_x, rank_y)
    s, vt = np.linalg.svd(captions.values - captions.values.mean(axis=0))[1:]
    r = int(np.count_nonzero(s > 1e-9 * s[0]))
    w = min(rank_w, m_y - r, sum(g) - len(g))
    z = rng.standard_normal((sum(g), w))
    means = np.add.reduceat(z, np.cumsum(g) - g) / np.array(g)[:, None]
    z -= np.repeat(means, g, axis=0)
    y = np.repeat(captions.values, g, axis=0) + (
        np.linalg.qr(z)[0] * rng.uniform(1, 4, w)) @ vt[r:r + w]
    return io.FeatureMatrix(np.repeat(images.values, g, axis=0)), \
        io.FeatureMatrix(y)


@st.composite
def repeated_pairs(draw):
    """(x, y, chunk): ``_repeated_pair`` with 2 to 30 images of 1 to 5
    captions each, so that runs of unequal length, some of one row, cross
    the edges of chunks of c = max(chunk, m_x + m_y) rows."""
    g = draw(st.lists(st.integers(1, 5), min_size=2, max_size=30))
    m_x, m_y = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = _repeated_pair(rng, g, m_x, m_y, draw(st.integers(1, 9)),
                          draw(st.integers(1, 9)), draw(st.integers(0, m_y)))
    return x, y, draw(st.sampled_from([1, 7, 2048]))


@pytest.mark.filterwarnings("ignore:n=.*covariances are singular")
class TestPrepareFoldsRuns:
    """``prepare`` on pairs whose x rows repeat in runs, which it folds
    into one row per run and a y-only QR of the rows about each run's
    caption mean, against the thin SVDs of the pair centered exactly
    (``oracles.prepare_exact``), the unfolded shifted QR
    (``oracles.prepare_qr``) and the two-pass QR of the centered pair
    (``oracles.prepare_two_pass``): equal ranks, the same means bit for
    bit, and s_x, s_y and the canonical correlations within 1e-12 of the
    largest, at common offsets 0, 1e4 and 1e8.  The two-pass route's own
    rounded means hold it to its gate in
    ``TestPrepareMatchesExactCentering``, 1e-11 at 1e8.  Streamed from
    FMAT1 files, every array is the in-memory one bit for bit."""

    @staticmethod
    def check(x, y, chunk, tmp_dir, offset=0.0):
        x, y = (io.FeatureMatrix(v.values + offset) for v in (x, y))
        gates = TestPrepareMatchesExactCentering.GATES["two-pass"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cca, "_CHUNK_ROWS", chunk)
            TestPrepareMatchesSvdRoute.check(x, y, tmp_dir)
            got = cca.prepare(x, y)
            assert_same_problem(got, prepare_qr(x, y))
            assert_same_problem(got, prepare_two_pass(x, y),
                                max(1e-12, gates[offset]))

    @settings(max_examples=80, deadline=None)
    @given(pair=repeated_pairs(), offset=st.sampled_from(OFFSETS))
    # 3 images under m_x = 6: R has no y-only rows below m_x to merge
    @example(pair=(*_repeated_pair(np.random.default_rng(3), [4, 1, 3], 6,
                                   5, 6, 5, 5), 2048), offset=0.0)
    # every group's captions equal: the within-run rows are rounding only
    @example(pair=(*_repeated_pair(np.random.default_rng(4), [5] * 12, 3,
                                   4, 3, 4, 0), 1), offset=1e8)
    # two runs in the first chunk of c = 7 rows, seven in the second: the
    # joint stack's room, sized from the first chunk, takes more rows
    @example(pair=(*_repeated_pair(np.random.default_rng(6),
                                   [5, 2] + [1] * 7, 3, 4, 3, 4, 2), 7),
             offset=0.0)
    def test_random_runs(self, pair, offset, tmp_path_factory):
        self.check(*pair, tmp_path_factory.mktemp("pair"), offset)

    def test_constant_x_has_no_rank(self):
        rng = np.random.default_rng(5)
        x = io.FeatureMatrix(np.full((40, 3), 0.1))
        y = io.FeatureMatrix(rng.standard_normal((40, 2)))
        with pytest.raises(ValueError, match="zero numerical rank"):
            cca.prepare(x, y)

    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_repeats_apart_are_not_folded(self, chunk):
        # each image row again after all the others: no two equal rows in
        # a row, so every array is the unfolded route's bit for bit
        rng = np.random.default_rng(chunk)
        images, captions = _pair(rng, 12, 5, 4, 5, 4)
        x = io.FeatureMatrix(np.tile(images.values, (3, 1)))
        y = io.FeatureMatrix(np.tile(captions.values, (3, 1))
                             + rng.standard_normal((36, 4)))
        TestPrepareMatchesNumpyQr.check(x, y, chunk)

    @staticmethod
    def geqrf_calls(x, y, monkeypatch):
        """(rows, columns) of each ``dgeqrf`` factoring, not sizing, a
        stack while ``prepare`` runs."""
        calls, geqrf = [], cca._geqrf

        def spy(m, n, a, tau, work, lwork):
            if lwork != -1:
                calls.append((m, n))
            geqrf(m, n, a, tau, work, lwork)

        monkeypatch.setattr(cca, "_geqrf", spy)
        cca.prepare(x, y)
        return calls

    def test_one_joint_row_per_image(self, monkeypatch):
        # a synth pair, 5 captions per image, in one chunk: the joint
        # stream factors one row per image, once, and the y-only stream
        # every caption's row about its mean, then the merge
        data = synthetic.generate_caption_like(synthetic.LatentModelConfig(
            n_train=150, n_val=1, n_test=1, latent_dim=5, image_dim=20,
            text_dim=12, seed=9), captions_per_item=5)
        x, y = data.paired_training_views()
        assert self.geqrf_calls(x, y, monkeypatch) == [
            (150, 33), (750, 12), (12 + 12, 12)]

    def test_run_free_calls_unchanged(self, monkeypatch):
        # 2c + 1 rows without runs, c = 40: one dgeqrf per chunk of rows
        # under R, as before runs were folded
        monkeypatch.setattr(cca, "_CHUNK_ROWS", 40)
        x, y = random_views(17, n=81, mx=6, my=4)
        assert self.geqrf_calls(x, y, monkeypatch) == [
            (40, 11), (11 + 40, 11), (11 + 1, 11)]


class TestPrepareReadsOnce:
    """``prepare`` reads each training row of each view once: the means,
    the shifts, the runs and the rows under R all come from that read."""

    @pytest.mark.parametrize("runs", [False, True])
    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_each_training_row_read_once(self, chunk, runs, monkeypatch):
        monkeypatch.setattr(cca, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(chunk)
        pair = (_repeated_pair(rng, [3, 1, 4, 2, 5] * 4, 5, 4, 5, 4, 4)
                if runs else _pair(rng, 60, 5, 4, 5, 4))
        views = [CountingView(view) for view in pair]
        cca.prepare(*views)
        for view in views:
            np.testing.assert_array_equal(view.reads, 1)


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

    def test_singular_values_whose_squares_overflow(self):
        # s_x is about 1e157, past sqrt(float64 max), but the penalty of
        # rank 3 (1.88e302) is held, and so is each filter in units of s_max
        rng = np.random.default_rng(0)
        x, scale = rng.standard_normal((200, 3)), np.array([1e156, 1e152,
                                                             1e150])
        y = io.FeatureMatrix(rng.standard_normal((200, 3)))
        problem = prepare(io.FeatureMatrix(x * scale), y)
        gamma_x, gamma_y = selection._penalties(problem, 3, 3)
        assert problem.s_x[0] > 1e157 and gamma_x > 1e302
        model = solve(problem, RegularizationSpec.tikhonov(gamma_x, gamma_y))
        want = solve(prepare(io.FeatureMatrix(x * (scale / 1e150)), y),
                     RegularizationSpec.tikhonov(gamma_x / 1e300, gamma_y))
        np.testing.assert_allclose(model.sigma, want.sigma, atol=1e-12)
        np.testing.assert_allclose(model.u * 1e150, want.u, rtol=1e-10)
        np.testing.assert_allclose(model.v, want.v, rtol=1e-10)

    # 2^510 takes s^2 past float64's range, where the filters were once
    # formed; 2^-400 and 2^400 keep the penalties' squares normal
    @pytest.mark.parametrize("j", [-400, 0, 400, 510])
    @pytest.mark.parametrize("view", ["x", "y"])
    def test_power_of_two_scale(self, j, view):
        x, y = random_views(25, n=60, mx=6, my=5)
        c = 2.0 ** j
        want = solve(prepare(x, y), RegularizationSpec.tikhonov(1.3, 0.2))
        if view == "x":
            x, gammas = io.FeatureMatrix(x.values * c), (1.3 * c * c, 0.2)
        else:
            y, gammas = io.FeatureMatrix(y.values * c), (1.3, 0.2 * c * c)
        model = solve(prepare(x, y), RegularizationSpec.tikhonov(*gammas))
        np.testing.assert_allclose(model.sigma, want.sigma, atol=1e-12)
        got, want = ((model.u, want.u) if view == "x"
                     else (model.v, want.v))
        np.testing.assert_allclose(got * c, want,
                                   atol=1e-12 * np.abs(want).max())

    def test_penalty_past_float64_in_units_of_s_max(self):
        # s_x is about 1e-199: a penalty of 1 is 1e398 times s_x^2
        x, y = random_views(26, n=60, mx=6, my=5)
        problem = prepare(io.FeatureMatrix(x.values * 1e-200), y)
        with pytest.raises(io.DataFormatError, match=(
                r"^training view x: the penalty 1 over s_max\^2 = \(.*\)\^2 "
                "overflows float64; rescale the view$")):
            solve(problem, RegularizationSpec.tikhonov(1.0, 0.0))

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
