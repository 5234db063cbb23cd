"""Why the canonical correlations belong on the search side.

On caption-like synthetic data, compares unweighted CCA, symmetric
weighting, and the task-dependent asymmetric weighting; then sweeps the
exponent alpha in (Sigma^alpha U', Sigma^(1-alpha) V') and prints the
r@10 curves, whose ends are the two asymmetric placements.
"""

import numpy as np

from ccax import (
    LatentModelConfig,
    RegularizationSpec,
    alpha_sweep,
    evaluate_bidirectional,
    generate_caption_like,
    prepare,
    solve,
)

cfg = LatentModelConfig(n_train=2000, n_val=500, n_test=500, latent_dim=20,
                        image_dim=128, text_dim=64, noise_x=0.5, noise_y=0.5,
                        seed=3)
data = generate_caption_like(cfg, captions_per_item=5)
model = solve(prepare(*data.paired_training_views()),
              RegularizationSpec.none())
images, captions, pairs = data.split_views("test")

print("=== weighting schemes, r@1 on the test split ===")
rows = [("asymmetric (task-dependent)", "asymmetric", None),
        ("symmetric alpha=0 (plain CCA)", "symmetric", 0.0),
        ("symmetric alpha=1", "symmetric", 1.0),
        ("symmetric alpha=2", "symmetric", 2.0)]
print(f"{'scheme':<32}{'search r@1':>12}{'annotation r@1':>16}")
for label, weighting, alpha in rows:
    search, annotation = evaluate_bidirectional(
        model, images, captions, pairs, weighting=weighting, alpha=alpha,
        ks=(1,))
    print(f"{label:<32}{search.recalls[1]:>12.2f}"
          f"{annotation.recalls[1]:>16.2f}")
print()

print("=== sweep of (Sigma^a U', Sigma^(1-a) V'), r@10 ===")
alphas = np.round(np.arange(0.0, 1.01, 0.1), 10)
curve = alpha_sweep(model, images, captions, alphas, pair_index=pairs)
print(f"{'alpha':>6}{'search':>10}{'annotation':>12}")
for alpha, s, a in zip(curve.alphas, curve.search_scores,
                       curve.annotation_scores):
    bar = "#" * int(s / 2)
    print(f"{alpha:>6.1f}{s:>10.2f}{a:>12.2f}  {bar}")
print()
print("search peaks at alpha = 1 (weights on the image items) and")
print("annotation at alpha = 0 (weights on the caption items): the")
print("correlations always belong on the side being searched.")
