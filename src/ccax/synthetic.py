"""Seeded generators of correlated two-view data for desk-scale checks.

Both views observe the same latent Gaussian factors through fixed random
loadings plus independent noise, which is exactly the generative picture
behind the task-dependent weighting: the caption-side projection of a test
pair is a noisy Gaussian around the image's latent position.  Noise levels
control how correlated the views are, so every retrieval claim can be
exercised from easy to hopeless.  ``ccax synth`` writes the rows a block
at a time as one generator draws them; tests and demos hold the whole draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .io import FeatureMatrix
from .retrieval import BLOCK_ROWS, _SMALL_GEMM, _row_blocks


@dataclass(frozen=True)
class LatentModelConfig:
    """Sizes, noise scales, and seed of one synthetic draw."""

    n_train: int
    n_val: int
    n_test: int
    latent_dim: int
    image_dim: int
    text_dim: int
    noise_x: float = 0.25
    noise_y: float = 0.25
    loading_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ValueError("all split sizes must be >= 1")
        if self.latent_dim < 1 or self.latent_dim > min(self.image_dim,
                                                        self.text_dim):
            raise ValueError(
                "latent_dim must be in [1, min(image_dim, text_dim)]"
            )
        # written so that NaN fails each comparison
        for name, value in (("noise_x", self.noise_x),
                            ("noise_y", self.noise_y)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {value}")
        if not 0 < self.loading_scale < np.inf:
            raise ValueError(f"loading_scale must be finite and > 0, "
                             f"got {self.loading_scale}")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_val + self.n_test


def _loadings(rng: np.random.Generator, out_dim: int, latent_dim: int,
              scale: float) -> np.ndarray:
    a = rng.standard_normal((out_dim, latent_dim))
    # column-normalize so per-factor signal strength is set by scale alone
    return scale * a / np.linalg.norm(a, axis=0)


def _splits(cfg: LatentModelConfig, per_image: int = 1) -> dict:
    # split -> its rows [lo, hi): contiguous, not shuffled, so reproducible
    edges = np.cumsum([0, cfg.n_train, cfg.n_val, cfg.n_test]) * per_image
    return dict(zip(("train", "val", "test"), pairwise(edges.tolist())))


@dataclass(frozen=True)
class CaptionedData:
    """Images with several captions each, plus the caption->image pairing."""

    images: FeatureMatrix
    captions: FeatureMatrix
    pair_index: np.ndarray          # caption row -> image row
    image_splits: dict[str, np.ndarray]

    def caption_rows(self, split: str) -> np.ndarray:
        """Caption rows whose paired image falls in the given split."""
        return np.flatnonzero(np.isin(self.pair_index,
                                      self.image_splits[split]))

    def paired_training_views(self) -> tuple[FeatureMatrix, FeatureMatrix]:
        """Row-paired (image, caption) matrices over the train split."""
        rows = self.caption_rows("train")
        return (
            FeatureMatrix(self.images.values[self.pair_index[rows]]),
            FeatureMatrix(self.captions.values[rows]),
        )

    def split_views(
        self, split: str
    ) -> tuple[FeatureMatrix, FeatureMatrix, np.ndarray]:
        """(images, captions, pair_index) of one split, rows renumbered."""
        image_rows = self.image_splits[split]  # ascending
        caption_rows = self.caption_rows(split)
        return (
            FeatureMatrix(self.images.values[image_rows]),
            FeatureMatrix(self.captions.values[caption_rows]),
            np.searchsorted(image_rows, self.pair_index[caption_rows]),
        )


def caption_like_blocks(cfg: LatentModelConfig, captions_per_item: int):
    """Yield ``(view, split, rows)``: the ``"images"``, then the
    ``"captions"``, each image's ``captions_per_item`` in a run, a block of
    rows at a time, cut where a split ends.  One draw order (the loadings,
    z, then each view's noise); only z, each row's row of z and a block are
    held.
    """
    if captions_per_item < 1:
        raise ValueError("captions_per_item must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    a = _loadings(rng, cfg.image_dim, cfg.latent_dim, cfg.loading_scale)
    b = _loadings(rng, cfg.text_dim, cfg.latent_dim, cfg.loading_scale)
    z = rng.standard_normal((cfg.n_total, cfg.latent_dim))
    for view, loadings, noise, per_image in (
            ("images", a, cfg.noise_x, 1),
            ("captions", b, cfg.noise_y, captions_per_item)):
        rows_z = np.arange(cfg.n_total).repeat(per_image)  # z row of each
        # retrieval._project's blocks: bit for bit one product's rows
        tiles = _SMALL_GEMM // (BLOCK_ROWS * loadings.size) + 1
        for lo, hi in _row_blocks(len(rows_z), tiles * BLOCK_ROWS):
            block = rng.standard_normal((hi - lo, len(loadings)))
            block *= noise
            block += z[rows_z[lo:hi]] @ loadings.T
            for split, (s_lo, s_hi) in _splits(cfg, per_image).items():
                if max(lo, s_lo) < min(hi, s_hi):
                    yield view, split, block[max(lo, s_lo) - lo:
                                             min(hi, s_hi) - lo]


def generate_caption_like(cfg: LatentModelConfig,
                          captions_per_item: int) -> CaptionedData:
    """The whole draw of :func:`caption_like_blocks`: each view's rows in
    one matrix, the pairing over all images, and each split's image rows."""
    views = {"images": [], "captions": []}
    for view, _, rows in caption_like_blocks(cfg, captions_per_item):
        views[view].append(rows)
    return CaptionedData(
        *(FeatureMatrix(np.concatenate(rows)) for rows in views.values()),
        np.repeat(np.arange(cfg.n_total, dtype=np.int64), captions_per_item),
        {split: np.arange(*ends, dtype=np.int64)
         for split, ends in _splits(cfg).items()})
