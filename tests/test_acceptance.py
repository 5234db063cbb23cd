"""Acceptance suite: one test per exit criterion, one printed line each.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines inline.  Every tolerance is pinned here; nothing is
calibrated at runtime.
"""

import time

import numpy as np
import pytest

from blas_threads import run_under_blas_threads
from ccax import cca, hkse, io, retrieval, selection, synthetic
from ccax.cca import RegularizationSpec, prepare, solve
from ccax.cli import main
from oracles import (
    cca_correlations_eig,
    center_columns,
    constraint_residual,
    path_cells,
    rank_by_cosine_loops,
    recall_and_median_loops,
    save_embedding_table,
    task_views,
    thin_svd,
    verify_filter_forms,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"[ACCEPTANCE] criterion {num:>2} {status}: {name}{suffix}"
    print("\n" + line, flush=True)
    assert ok, line


def random_views(rng, n, mx, my):
    return (
        io.FeatureMatrix(rng.standard_normal((n, mx))),
        io.FeatureMatrix(rng.standard_normal((n, my))),
    )


def test_criterion_01_oracle_equivalence():
    """Unregularized fits vs the generalized-eigenvalue oracle, 20 random
    instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(30, 61))
        mx = int(rng.integers(2, 9))
        my = int(rng.integers(2, 7))
        x, y = random_views(rng, n, mx, my)
        model = solve(prepare(x, y), RegularizationSpec.none())
        expected = cca_correlations_eig(x.values, y.values)[: model.k]
        worst = max(worst, float(np.abs(model.sigma - expected).max()))
    elapsed = time.perf_counter() - start
    report(1, "oracle equivalence of canonical correlations",
           worst <= 1e-8 and elapsed < 5.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_regularizer_consistency():
    """Limits of both regularizers and their constraint residuals."""
    rng = np.random.default_rng(102)
    x, y = random_views(rng, 60, 8, 6)
    plain = solve(prepare(x, y), RegularizationSpec.none())

    tikh0 = solve(prepare(x, y), RegularizationSpec.tikhonov(0.0, 0.0))
    dev_tikh = float(np.abs(tikh0.sigma - plain.sigma).max())

    full = solve(prepare(x, y), RegularizationSpec.tsvd(8, 6))
    dev_full = float(np.abs(full.sigma - plain.sigma).max())

    dev_trunc = 0.0
    for k_x, k_y in [(2, 2), (5, 3), (8, 4), (3, 6)]:
        model = solve(prepare(x, y), RegularizationSpec.tsvd(k_x, k_y))
        fx = thin_svd(center_columns(x)[0])
        fy = thin_svd(center_columns(y)[0])
        x_trunc = io.FeatureMatrix(
            (fx.u_left[:, :k_x] * fx.s[:k_x]) @ fx.v_right[:, :k_x].T)
        y_trunc = io.FeatureMatrix(
            (fy.u_left[:, :k_y] * fy.s[:k_y]) @ fy.v_right[:, :k_y].T)
        reference = solve(prepare(x_trunc, y_trunc), RegularizationSpec.none())
        dev_trunc = max(dev_trunc,
                        float(np.abs(model.sigma - reference.sigma).max()))

    residual = max(
        constraint_residual(plain, x, y),
        constraint_residual(
            solve(prepare(x, y), RegularizationSpec.tikhonov(2.0, 0.5)), x, y),
        constraint_residual(
            solve(prepare(x, y), RegularizationSpec.tsvd(5, 4)), x, y),
    )
    ok = (dev_tikh <= 1e-10 and dev_full <= 1e-10
          and dev_trunc <= 1e-8 and residual <= 1e-8)
    report(2, "regularizer consistency and constraint residuals", ok,
           f"tikh0 {dev_tikh:.2e}, full {dev_full:.2e}, "
           f"trunc {dev_trunc:.2e}, resid {residual:.2e}")


def test_criterion_03_spectral_filter_identities():
    """Closed-form vs elementwise-filter operator, 5x5 parameter sample."""
    rng = np.random.default_rng(103)
    x, y = random_views(rng, 40, 7, 5)
    worst = 0.0
    gammas = np.logspace(-3, 2, 5)
    for g_x in gammas:
        for g_y in gammas:
            spec = cca.RegularizationSpec.tikhonov(float(g_x), float(g_y))
            worst = max(worst, verify_filter_forms(x, y, spec))
    for k_x in (1, 2, 3, 5, 7):
        for k_y in (1, 2, 3, 4, 5):
            spec = cca.RegularizationSpec.tsvd(k_x, k_y)
            worst = max(worst, verify_filter_forms(x, y, spec))
    report(3, "spectral-filter identities", worst <= 1e-10,
           f"max discrepancy {worst:.2e}")


def test_criterion_04_cross_view_optimality():
    """Normal equations of the cross-view maps on 10 random instances."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        x, y = random_views(rng, int(rng.integers(40, 70)),
                            int(rng.integers(3, 8)), int(rng.integers(3, 7)))
        model = solve(prepare(x, y), RegularizationSpec.none())
        xc = x.values - model.mean_x
        yc = y.values - model.mean_y
        target_x = xc.T @ yc @ model.v
        rel_x = (np.abs((xc.T @ xc) @ (model.u * model.sigma) - target_x).max()
                 / np.abs(target_x).max())
        target_y = yc.T @ xc @ model.u
        rel_y = (np.abs((yc.T @ yc) @ (model.v * model.sigma) - target_y).max()
                 / np.abs(target_y).max())
        worst = max(worst, float(rel_x), float(rel_y))
    report(4, "cross-view optimality normal equations", worst <= 1e-8,
           f"max relative residual {worst:.2e}")


def test_criterion_05_path_standalone_equivalence():
    """Path cell r@1 vs standalone fits; guided Tikhonov bitwise equality."""
    cfg = synthetic.LatentModelConfig(
        n_train=300, n_val=100, n_test=1, latent_dim=6,
        image_dim=24, text_dim=16, noise_x=0.5, noise_y=0.5, seed=105,
    )
    data = synthetic.generate_caption_like(cfg, 2)
    tx, ty = data.paired_training_views()
    vi, vc, vp = data.split_views("val")

    rank_x, rank_y = [3, 8, 15, 24], [2, 6, 10, 16]
    pen_x, pen_y = [0.5, 10.0, 200.0], [0.1, 5.0, 80.0]
    cells = 0
    for kind, axis_x, axis_y in (("tsvd", rank_x, rank_y),
                                 ("tikhonov", pen_x, pen_y)):
        grid, _ = getattr(selection, f"{kind}_path")(
            cca.prepare(tx, ty), vi, vc, axis_x, axis_y, pair_index=vp)
        # every cell reports the r@1 of a standalone fit under the protocol
        search, annotation = path_cells(
            prepare(tx, ty), axis_x, axis_y, kind, vi, vc, vp)
        np.testing.assert_array_equal(grid.search_scores, search)
        np.testing.assert_array_equal(grid.annotation_scores, annotation)
        cells += search.size

    guided = selection.guided_tikhonov(cca.prepare(tx, ty), vi, vc,
                                       rank_x, rank_y, pair_index=vp)
    bitwise = True
    for model in (guided.search_model, guided.annotation_model):
        # a standalone fit at the penalties the model records
        reference = solve(prepare(tx, ty), model.reg)
        bitwise &= (np.array_equal(model.u, reference.u)
                    and np.array_equal(model.v, reference.v)
                    and np.array_equal(model.sigma, reference.sigma))
    report(5, "path/standalone equivalence and guided bitwise identity",
           bitwise,
           f"{cells} cells equal standalone r@1, guided bitwise {bitwise}")


def path_timing() -> tuple[float, float]:
    """Median seconds of the T-SVD and the Tikhonov path over a 20x20 grid
    at desk scale."""
    cfg = synthetic.LatentModelConfig(
        n_train=2000, n_val=250, n_test=1, latent_dim=30,
        image_dim=512, text_dim=256, noise_x=0.5, noise_y=0.5, seed=106,
    )
    data = synthetic.generate_caption_like(cfg, 1)
    x, y, splits = data.images, data.captions, data.image_splits
    tx = io.FeatureMatrix(x.values[splits["train"]])
    ty = io.FeatureMatrix(y.values[splits["train"]])
    vi = io.FeatureMatrix(x.values[splits["val"]])
    vc = io.FeatureMatrix(y.values[splits["val"]])
    timing = selection.measure_path_timing(cca.prepare(tx, ty), vi, vc,
                                           repeats=3)
    return timing.tsvd_seconds, timing.tikhonov_seconds


def test_criterion_06_path_timing(tmp_path):
    """T-SVD path at least 1.5x faster than Tikhonov at desk scale.

    Both paths are timed in a fresh interpreter under one BLAS thread, the
    benchmark's setting, so that a neighbour on a shared machine cannot
    stall a second BLAS thread of one path but not the other.
    """
    start = time.perf_counter()
    proc = run_under_blas_threads(
        1, ["-c", "import test_acceptance as t; print(*t.path_timing())"],
        tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    tsvd, tikhonov = (float(v) for v in proc.stdout.split())
    elapsed = time.perf_counter() - start
    ok = tsvd <= tikhonov / 1.5 and elapsed < 600
    report(6, "T-SVD path timing advantage (20x20 grid, median of 3, "
              "1 BLAS thread)", ok,
           f"tsvd {tsvd:.1f}s vs tikhonov {tikhonov:.1f}s = "
           f"{tikhonov / tsvd:.2f}x, total {elapsed:.0f}s")


def test_criterion_07_hkse_approximation():
    """RFF accuracy at the pinned widths, and the exact lin,lin identity."""
    d = 8
    word_map = hkse.build_map("rbf", "lin", 1.0, 1.0, 8192, 0, d, seed=3)
    rng = np.random.default_rng(4)
    worst_word = 0.0
    for _ in range(100):
        a = rng.standard_normal(d); a /= np.linalg.norm(a)
        b = rng.standard_normal(d); b /= np.linalg.norm(b)
        approx = hkse.word_feature(word_map, a) @ hkse.word_feature(word_map, b)
        exact = np.exp(-0.5 * np.sum((a - b) ** 2))
        worst_word = max(worst_word, abs(float(approx - exact)))

    gamma, eta = 1.0, 0.5
    two_layer = hkse.build_map("rbf", "rbf", gamma, eta, 2048, 4096, d, seed=1)
    rng = np.random.default_rng(10)
    hits = 0
    for _ in range(50):
        s1 = rng.standard_normal((int(rng.integers(1, 11)), d))
        s2 = rng.standard_normal((int(rng.integers(1, 11)), d))
        approx = (hkse.embed_sentence(two_layer, s1)
                  @ hkse.embed_sentence(two_layer, s2))
        exact = hkse.exact_kernel(s1, s2, gamma, eta)
        hits += abs(float(approx - exact)) <= 0.1

    lin = hkse.build_map("lin", "lin", 1.0, 1.0, 0, 0, 5, seed=0)
    tokens = [rng.standard_normal(5) for _ in range(7)]
    bitwise = np.array_equal(hkse.embed_sentence(lin, tokens),
                             np.mean(tokens, axis=0))
    ok = worst_word <= 0.05 and hits >= int(0.95 * 50) and bitwise
    report(7, "HKSE kernel approximation", ok,
           f"word max err {worst_word:.3f}, two-layer hits {hits}/50, "
           f"lin,lin bitwise {bitwise}")


def test_criterion_08_asymmetric_weighting_direction():
    """Asymmetric beats unweighted CCA and the sweep peaks at the ends."""
    start = time.perf_counter()
    asym_wins_search = asym_wins_annotation = 0
    argmax_high = argmax_low = 0
    alphas = np.round(np.arange(0.0, 1.01, 0.1), 10)
    for seed in range(5):
        cfg = synthetic.LatentModelConfig(
            n_train=2000, n_val=500, n_test=500, latent_dim=20,
            image_dim=128, text_dim=64, noise_x=0.5, noise_y=0.5, seed=seed,
        )
        data = synthetic.generate_caption_like(cfg, 5)
        tx, ty = data.paired_training_views()
        model = solve(prepare(tx, ty), RegularizationSpec.none())
        vi, vc, vp = data.split_views("val")
        asym_s, asym_a = retrieval.evaluate_bidirectional(
            model, vi, vc, vp, weighting="asymmetric", ks=(1,))
        sym_s, sym_a = retrieval.evaluate_bidirectional(
            model, vi, vc, vp, weighting="symmetric", alpha=0.0, ks=(1,))
        asym_wins_search += asym_s.recalls[1] >= sym_s.recalls[1]
        asym_wins_annotation += asym_a.recalls[1] >= sym_a.recalls[1]
        curve = retrieval.alpha_sweep(model, vi, vc, alphas, pair_index=vp)
        argmax_high += alphas[int(np.argmax(curve.search_scores))] >= 0.8
        argmax_low += alphas[int(np.argmax(curve.annotation_scores))] <= 0.2
    elapsed = time.perf_counter() - start
    ok = (asym_wins_search >= 4 and asym_wins_annotation >= 4
          and argmax_high >= 4 and argmax_low >= 4 and elapsed < 300)
    report(8, "asymmetric-weighting direction (5 seeds)", ok,
           f"asym>=sym search {asym_wins_search}/5, annotation "
           f"{asym_wins_annotation}/5; argmax alpha>=0.8 {argmax_high}/5, "
           f"<=0.2 {argmax_low}/5; {elapsed:.0f}s")


def test_criterion_09_protocol_oracle():
    """Pipeline vs independently written evaluator on 6 images/30 captions."""
    cfg = synthetic.LatentModelConfig(
        n_train=80, n_val=6, n_test=6, latent_dim=3,
        image_dim=10, text_dim=8, noise_x=0.4, noise_y=0.4, seed=17,
    )
    data = synthetic.generate_caption_like(cfg, 5)
    model = solve(prepare(*data.paired_training_views()),
                  RegularizationSpec.none())
    images, captions, pair_index = data.split_views("test")
    search, annotation = retrieval.evaluate_bidirectional(
        model, images, captions, pair_index)

    x, y = task_views(model, images, captions, "search")
    order = rank_by_cosine_loops(y, x)
    recalls_s, median_s = recall_and_median_loops(
        order, [[int(i)] for i in pair_index])

    x, y = task_views(model, images, captions, "annotation")
    order = rank_by_cosine_loops(x, y)
    recalls_a, median_a = recall_and_median_loops(
        order,
        [[j for j in range(captions.rows) if pair_index[j] == i]
         for i in range(images.rows)],
    )
    ok = (search.recalls == recalls_s and search.median_rank == median_s
          and annotation.recalls == recalls_a
          and annotation.median_rank == median_a)
    report(9, "evaluation-protocol oracle (exact match)", ok,
           f"search r@1 {search.recalls[1]:.1f}, "
           f"annotation r@1 {annotation.recalls[1]:.1f}")


def test_criterion_10_cli_determinism(tmp_path):
    """Identical flags and seed give bitwise-identical output files.

    The one documented exception is the wall-clock cell_seconds column of
    path TSVs, which is a measurement; it is stripped before comparing.
    """
    rng = np.random.default_rng(110)
    words_dir = tmp_path / "words"
    words_dir.mkdir()
    vocab = tuple(f"w{i}" for i in range(12))
    save_embedding_table(
        io.EmbeddingTable(vocab, rng.standard_normal((12, 6))),
        words_dir / "vectors.txt")
    (words_dir / "caps.txt").write_text("".join(
        " ".join(rng.choice(vocab, size=4)) + "\n" for _ in range(10)
    ))

    def run_all(base):
        base.mkdir()
        assert main([
            "synth", "--out-dir", str(base / "data"), "--n-train", "150",
            "--n-val", "40", "--n-test", "40", "--latent", "4",
            "--mx", "16", "--my", "12", "--captions", "2", "--seed", "9",
        ]) == 0
        assert main([
            "embed", "--corpus", str(words_dir / "caps.txt"),
            "--vectors", str(words_dir / "vectors.txt"),
            "--variant", "rbf,rbf", "--m", "32", "--mprime", "24",
            "--gamma", "median", "--seed", "9",
            "--out", str(base / "sent.fmat"),
            "--map-out", str(base / "map.arc"),
        ]) == 0
        assert main([
            "fit", "--x", str(base / "data" / "train_x.fmat"),
            "--y", str(base / "data" / "train_y.fmat"),
            "--reg", "tsvd", "--kx", "4", "--ky", "4",
            "--out", str(base / "model.arc"),
        ]) == 0
        assert main([
            "path", "--x", str(base / "data" / "train_x.fmat"),
            "--y", str(base / "data" / "train_y.fmat"),
            "--val-x", str(base / "data" / "val_images.fmat"),
            "--val-y", str(base / "data" / "val_captions.fmat"),
            "--val-pairing", str(base / "data" / "val_pairing.txt"),
            "--reg", "tsvd", "--grid", "3x3",
            "--out", str(base / "path.tsv"),
        ]) == 0
        assert main([
            "eval", "--model", str(base / "model.arc"),
            "--images", str(base / "data" / "test_images.fmat"),
            "--captions", str(base / "data" / "test_captions.fmat"),
            "--pairing", str(base / "data" / "test_pairing.txt"),
            "--out", str(base / "report.tsv"),
        ]) == 0
        assert main([
            "sweep", "--model", str(base / "model.arc"),
            "--images", str(base / "data" / "val_images.fmat"),
            "--captions", str(base / "data" / "val_captions.fmat"),
            "--pairing", str(base / "data" / "val_pairing.txt"),
            "--alphas", "0,0.5,1", "--out", str(base / "sweep.tsv"),
        ]) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")

    identical = []
    for rel in ("data/images.fmat", "data/captions.fmat",
                "data/train_x.fmat", "data/train_y.fmat",
                "data/val_images.fmat", "data/val_captions.fmat",
                "data/val_pairing.txt", "data/splits.tsv",
                "sent.fmat", "map.arc", "model.arc",
                "report.tsv", "sweep.tsv"):
        identical.append((tmp_path / "a" / rel).read_bytes()
                         == (tmp_path / "b" / rel).read_bytes())

    def strip_timing(path):
        return [line.rsplit("\t", 1)[0]
                for line in path.read_text().splitlines()]

    identical.append(strip_timing(tmp_path / "a" / "path.tsv")
                     == strip_timing(tmp_path / "b" / "path.tsv"))
    report(10, "CLI determinism (bitwise outputs)", all(identical),
           f"{sum(identical)}/{len(identical)} artifacts identical")


def test_criterion_11_full_reproduction_path_documented():
    """Real-benchmark reproduction needs user-supplied deep features.

    The README documents the exact command pipeline and the reference
    targets (e.g. Flickr30K guided-Tikhonov mean-vector search r@1 = 22.40
    plus or minus 1.5 absolute points).  Not CI-gated: the deep image
    features and the pretrained word vectors are not shipped.
    """
    report(11, "full-benchmark reproduction path (documented, not CI-gated)",
           True, "see README, section 'Reproducing the published benchmarks'")
    pytest.skip("requires user-supplied precomputed features; "
                "pipeline documented in README")
