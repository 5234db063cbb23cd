"""Seeded generators of correlated two-view data for desk-scale checks.

Both views observe the same latent Gaussian factors through fixed random
loadings plus independent noise, which is exactly the generative picture
behind the task-dependent weighting: the caption-side projection of a test
pair is a noisy Gaussian around the image's latent position.  Noise levels
control how correlated the views are, so every retrieval claim can be
exercised from easy to hopeless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import FeatureMatrix


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


def _split_indices(cfg: LatentModelConfig) -> dict[str, np.ndarray]:
    # contiguous blocks, not shuffled: reported numbers stay reproducible
    edges = np.cumsum([0, cfg.n_train, cfg.n_val, cfg.n_test])
    names = ("train", "val", "test")
    return {
        name: np.arange(edges[i], edges[i + 1], dtype=np.int64)
        for i, name in enumerate(names)
    }


@dataclass(frozen=True)
class CaptionedData:
    """Images with several captions each, plus the caption->image pairing."""

    images: FeatureMatrix
    captions: FeatureMatrix
    pair_index: np.ndarray          # caption row -> image row
    image_splits: dict[str, np.ndarray]

    def caption_rows(self, split: str) -> np.ndarray:
        """Caption rows whose paired image falls in the given split."""
        wanted = np.zeros(self.images.rows, dtype=bool)
        wanted[self.image_splits[split]] = True
        return np.flatnonzero(wanted[self.pair_index])

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
        image_rows = self.image_splits[split]
        caption_rows = self.caption_rows(split)
        renumber = np.full(self.images.rows, -1, dtype=np.int64)
        renumber[image_rows] = np.arange(image_rows.shape[0])
        return (
            FeatureMatrix(self.images.values[image_rows]),
            FeatureMatrix(self.captions.values[caption_rows]),
            renumber[self.pair_index[caption_rows]],
        )


def generate_caption_like(cfg: LatentModelConfig,
                          captions_per_item: int) -> CaptionedData:
    """Each image gets ``captions_per_item`` captions sharing its latent z.

    Caption rows are grouped by image (captions of image i occupy rows
    i * captions_per_item ... (i+1) * captions_per_item - 1).
    """
    if captions_per_item < 1:
        raise ValueError("captions_per_item must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    a = _loadings(rng, cfg.image_dim, cfg.latent_dim, cfg.loading_scale)
    b = _loadings(rng, cfg.text_dim, cfg.latent_dim, cfg.loading_scale)
    z = rng.standard_normal((cfg.n_total, cfg.latent_dim))
    x = z @ a.T + cfg.noise_x * rng.standard_normal((cfg.n_total, cfg.image_dim))
    n_captions = cfg.n_total * captions_per_item
    pair_index = np.repeat(np.arange(cfg.n_total, dtype=np.int64),
                           captions_per_item)
    y = (
        z[pair_index] @ b.T
        + cfg.noise_y * rng.standard_normal((n_captions, cfg.text_dim))
    )
    return CaptionedData(
        images=FeatureMatrix(x),
        captions=FeatureMatrix(y),
        pair_index=pair_index,
        image_splits=_split_indices(cfg),
    )
