#!/usr/bin/env bash
# End-to-end pipeline through the ccax command line:
# generate -> fit (guided T-SVD selection) -> evaluate -> alpha sweep.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working under $work"

echo "== 1. seeded synthetic captioned data =="
ccax synth --out-dir "$work/data" \
    --n-train 1000 --n-val 250 --n-test 250 \
    --latent 12 --mx 192 --my 96 --captions 2 \
    --noise-x 0.5 --noise-y 0.5 --seed 7

echo "== 2. guided Tikhonov fit (T-SVD path on an 8x8 grid) =="
ccax fit --x "$work/data/train_x.fmat" --y "$work/data/train_y.fmat" \
    --reg guided-tsvd --grid 8x8 \
    --val-x "$work/data/val_images.fmat" \
    --val-y "$work/data/val_captions.fmat" \
    --val-pairing "$work/data/val_pairing.txt" \
    --metric r1 --path-out "$work/path.tsv" \
    --out "$work/model.arc"

echo "== 3. inspect the search-task archive =="
ccax inspect --model "$work/model_search.arc"

echo "== 4. evaluate both tasks on five 50-image blocks of the test split =="
ccax eval --model "$work/model_search.arc" \
    --images "$work/data/test_images.fmat" \
    --captions "$work/data/test_captions.fmat" \
    --pairing "$work/data/test_pairing.txt" \
    --blocks 5 --out "$work/report.tsv"

echo "== 5. alpha sweep on the validation split =="
ccax sweep --model "$work/model_search.arc" \
    --images "$work/data/val_images.fmat" \
    --captions "$work/data/val_captions.fmat" \
    --pairing "$work/data/val_pairing.txt" \
    --out "$work/sweep.tsv"

echo "== 6. path timing comparison (small grid to stay quick) =="
ccax timing --x "$work/data/train_x.fmat" --y "$work/data/train_y.fmat" \
    --val-x "$work/data/val_images.fmat" \
    --val-y "$work/data/val_captions.fmat" \
    --val-pairing "$work/data/val_pairing.txt" \
    --grid 8x8 --repeats 3 --out "$work/timing.tsv"
cat "$work/timing.tsv"
echo "(the T-SVD advantage grows with feature dimension: at 512x256 it"
echo " exceeds 1.5x -- see tests/test_acceptance.py, criterion 6)"
