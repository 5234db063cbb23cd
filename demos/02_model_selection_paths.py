"""Regularization-path search and the guided-Tikhonov shortcut.

No path cell takes an SVD: each scores both retrieval tasks from one
bilinear score of the validation views through its filtered operator.  A
T-SVD operator is a leading block of the precomputed correlation
operator, so a grid row grows one score matrix over its ranks, while each
Tikhonov cell needs a full-width product of its own; sweeping the T-SVD
grid is therefore cheaper than sweeping Tikhonov penalties, the more so
the wider the views, and mapping the T-SVD winner to gamma = sigma_k^2
then buys Tikhonov-quality models at T-SVD-path prices.
"""

import numpy as np

from ccax import (
    LatentModelConfig,
    default_penalty_grid,
    default_rank_grid,
    generate_caption_like,
    guided_tikhonov,
    measure_path_timing,
    prepare,
    tikhonov_path,
    tsvd_path,
)

cfg = LatentModelConfig(n_train=1200, n_val=250, n_test=250, latent_dim=12,
                        image_dim=256, text_dim=128, noise_x=0.6, noise_y=0.6,
                        loading_scale=2.0, seed=7)
data = generate_caption_like(cfg, captions_per_item=2)
x_train, y_train = data.paired_training_views()
val_images, val_captions, val_pairs = data.split_views("val")

# center and factorise each training view once; every path below reuses it
problem = prepare(x_train, y_train)
s_x, s_y = problem.s_x, problem.s_y
rank_x = default_rank_grid(len(s_x), 8)
rank_y = default_rank_grid(len(s_y), 8)

print("=== T-SVD path (8x8 rank grid) ===")
grid, sel = tsvd_path(problem, val_images, val_captions,
                      rank_x, rank_y, pair_index=val_pairs)
print("search r@1 by (k_x rows, k_y cols):")
print(np.round(grid.search_scores, 1))
print(f"best search cell: k_x={sel.best_search.k_x}, "
      f"k_y={sel.best_search.k_y} -> r@1 {sel.best_search_score:.2f}")
print(f"best annotation:  k_x={sel.best_annotation.k_x}, "
      f"k_y={sel.best_annotation.k_y} -> r@1 {sel.best_annotation_score:.2f}")
print(f"total {grid.total_seconds:.2f}s\n")

print("=== full Tikhonov path over squared singular values ===")
tikh_grid, tikh_sel = tikhonov_path(
    problem, val_images, val_captions,
    default_penalty_grid(s_x, 8), default_penalty_grid(s_y, 8),
    pair_index=val_pairs)
print(f"best search gamma = ({tikh_sel.best_search.gamma_x:.1f}, "
      f"{tikh_sel.best_search.gamma_y:.1f}) -> r@1 "
      f"{tikh_sel.best_search_score:.2f}")
print(f"total {tikh_grid.total_seconds:.2f}s\n")

print("=== guided Tikhonov: T-SVD path + one fit per task ===")
guided = guided_tikhonov(problem, val_images, val_captions,
                         rank_x, rank_y, pair_index=val_pairs)
winner = guided.tsvd_selection.best_search
reg = guided.search_model.reg  # the penalties the search model was fit at
print(f"search winner (k_x={winner.k_x}, k_y={winner.k_y}) maps to "
      f"gamma = ({reg.gamma_x:.1f}, {reg.gamma_y:.1f})")
print(f"(these are exactly sigma_k^2: {s_x[winner.k_x - 1] ** 2:.1f}, "
      f"{s_y[winner.k_y - 1] ** 2:.1f})\n")

print("=== timing: T-SVD path vs Tikhonov path, matched grids ===")
timing = measure_path_timing(problem, val_images, val_captions,
                             rank_x, rank_y, pair_index=val_pairs, repeats=3)
print(f"T-SVD    median {timing.tsvd_seconds:.2f}s")
print(f"Tikhonov median {timing.tikhonov_seconds:.2f}s")
print(f"speedup  {timing.speedup:.2f}x over {timing.cells} cells")
