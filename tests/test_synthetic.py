"""Generator determinism and the correlation structure it promises."""

import numpy as np
import pytest

from ccax import synthetic
from ccax.cca import RegularizationSpec, prepare, solve
from oracles import generate_latent_pairs


def config(**overrides):
    base = dict(n_train=4000, n_val=500, n_test=500, latent_dim=5,
                image_dim=12, text_dim=10, noise_x=0.3, noise_y=0.3, seed=0)
    base.update(overrides)
    return synthetic.LatentModelConfig(**base)


class TestGenerateLatentPairs:
    """The one-caption draw: images and captions paired 1:1."""

    def test_shapes_and_splits(self):
        cfg = config(n_train=30, n_val=10, n_test=5)
        data = synthetic.generate_caption_like(cfg, 1)
        assert data.images.values.shape == (45, 12)
        assert data.captions.values.shape == (45, 10)
        splits = data.image_splits
        np.testing.assert_array_equal(splits["train"], np.arange(30))
        np.testing.assert_array_equal(splits["val"], np.arange(30, 40))
        np.testing.assert_array_equal(splits["test"], np.arange(40, 45))

    def test_same_seed_bitwise(self):
        cfg = config(n_train=20, n_val=5, n_test=5)
        a = synthetic.generate_caption_like(cfg, 1)
        b = synthetic.generate_caption_like(cfg, 1)
        np.testing.assert_array_equal(a.images.values, b.images.values)
        np.testing.assert_array_equal(a.captions.values, b.captions.values)

    def test_distinct_seeds_differ(self):
        a = synthetic.generate_caption_like(
            config(seed=1, n_train=20, n_val=5, n_test=5), 1)
        b = synthetic.generate_caption_like(
            config(seed=2, n_train=20, n_val=5, n_test=5), 1)
        assert np.abs(a.images.values - b.images.values).max() > 0

    def test_vanishing_noise_gives_unit_correlations(self):
        cfg = config(n_train=5000, n_val=1, n_test=1,
                     noise_x=1e-4, noise_y=1e-4)
        data = synthetic.generate_caption_like(cfg, 1)
        model = solve(prepare(*data.paired_training_views()),
                      RegularizationSpec.none())
        assert np.all(model.sigma[: cfg.latent_dim] > 0.98)

    def test_huge_noise_decorrelates(self):
        cfg = config(n_train=5000, n_val=1, n_test=1,
                     noise_x=100.0, noise_y=100.0)
        data = synthetic.generate_caption_like(cfg, 1)
        model = solve(prepare(*data.paired_training_views()),
                      RegularizationSpec.none())
        assert model.sigma[0] < 0.3

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dims", [(12, 10, 5), (128, 64, 20), (7, 9, 3)])
    def test_equals_reference_generator(self, seed, dims):
        image_dim, text_dim, latent_dim = dims
        cfg = config(n_train=37, n_val=6, n_test=4, image_dim=image_dim,
                     text_dim=text_dim, latent_dim=latent_dim, seed=seed,
                     noise_x=0.4, noise_y=0.7, loading_scale=1.5)
        got = synthetic.generate_caption_like(cfg, 1)
        want = generate_latent_pairs(cfg)
        assert got.images.values.tobytes() == want[0].values.tobytes()
        assert got.captions.values.tobytes() == want[1].values.tobytes()
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(got.image_splits[name],
                                          want[2][name])
        assert set(got.image_splits) == set(want[2])

    # a latent of 100 over 512 and 128 columns makes blocks of 192 rows
    # or more, which are cut where a split ends; 16 columns make one block
    # of every row, one piece per split
    @pytest.mark.parametrize("captions", [1, 3])
    @pytest.mark.parametrize("dims", [(512, 128, 100), (16, 12, 4)])
    def test_blocks_equal_the_whole_draw(self, captions, dims):
        image_dim, text_dim, latent_dim = dims
        cfg = config(n_train=450, n_val=70, n_test=61, image_dim=image_dim,
                     text_dim=text_dim, latent_dim=latent_dim, seed=3)
        got = synthetic.generate_caption_like(cfg, captions)
        want = generate_latent_pairs(cfg, captions)
        assert got.images.values.tobytes() == want[0].values.tobytes()
        assert got.captions.values.tobytes() == want[1].values.tobytes()
        pieces = [(view, split, len(rows)) for view, split, rows in
                  synthetic.caption_like_blocks(cfg, captions)]
        assert len(pieces) > 6 if image_dim == 512 else len(pieces) == 6
        for view, per_image in (("images", 1), ("captions", captions)):
            for split, count in (("train", 450), ("val", 70), ("test", 61)):
                assert sum(n for v, s, n in pieces
                           if (v, s) == (view, split)) == count * per_image

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            config(latent_dim=11, text_dim=10)
        with pytest.raises(ValueError):
            config(n_val=0)
        with pytest.raises(ValueError):
            config(noise_x=-1.0)

    @pytest.mark.parametrize("name,value", [
        ("noise_x", np.nan), ("noise_x", np.inf), ("noise_y", np.nan),
        ("noise_y", -np.inf), ("loading_scale", np.nan),
        ("loading_scale", np.inf), ("loading_scale", 0.0),
    ])
    def test_non_finite_scale_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            config(**{name: value})


class TestGenerateCaptionLike:
    def test_counting(self):
        cfg = config(n_train=80, n_val=10, n_test=10)
        data = synthetic.generate_caption_like(cfg, 5)
        assert data.images.rows == 100
        assert data.captions.rows == 500
        counts = np.bincount(data.pair_index, minlength=100)
        np.testing.assert_array_equal(counts, 5)

    def test_single_caption_is_bijective(self):
        cfg = config(n_train=20, n_val=5, n_test=5)
        data = synthetic.generate_caption_like(cfg, 1)
        np.testing.assert_array_equal(data.pair_index, np.arange(30))

    def test_same_seed_bitwise(self):
        cfg = config(n_train=20, n_val=5, n_test=5)
        a = synthetic.generate_caption_like(cfg, 3)
        b = synthetic.generate_caption_like(cfg, 3)
        np.testing.assert_array_equal(a.images.values, b.images.values)
        np.testing.assert_array_equal(a.captions.values, b.captions.values)

    def test_sibling_captions_are_closer(self):
        # captions of one image should be mutually closer (mean cosine)
        # than to other images' captions, on average over seeds
        margins = []
        for seed in range(5):
            cfg = config(n_train=40, n_val=5, n_test=5, seed=seed,
                         noise_y=0.5)
            data = synthetic.generate_caption_like(cfg, 4)
            caps = data.captions.values
            caps = caps / np.linalg.norm(caps, axis=1, keepdims=True)
            sims = caps @ caps.T
            same = data.pair_index[:, None] == data.pair_index[None, :]
            off_diag = ~np.eye(caps.shape[0], dtype=bool)
            margins.append(
                sims[same & off_diag].mean() - sims[~same].mean()
            )
        assert np.mean(margins) > 0.1

    def test_paired_training_views_align(self):
        cfg = config(n_train=10, n_val=2, n_test=2)
        data = synthetic.generate_caption_like(cfg, 3)
        tx, ty = data.paired_training_views()
        assert tx.rows == ty.rows == 30
        np.testing.assert_array_equal(tx.values[0], data.images.values[0])
        np.testing.assert_array_equal(tx.values[3], data.images.values[1])

    def test_split_views_renumber_pairs(self):
        cfg = config(n_train=10, n_val=4, n_test=2)
        data = synthetic.generate_caption_like(cfg, 2)
        images, captions, pairs = data.split_views("val")
        assert images.rows == 4 and captions.rows == 8
        np.testing.assert_array_equal(pairs, np.repeat(np.arange(4), 2))
        np.testing.assert_array_equal(
            images.values, data.images.values[10:14]
        )
