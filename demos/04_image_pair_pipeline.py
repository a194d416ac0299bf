#!/usr/bin/env python3
"""Binary image-pair pipeline, end to end through IDX files.

Writes a synthetic two-class image set in the big-endian IDX format,
reads it back, builds a balanced 0/1 regression dataset, perturbs the
pixels at increasing noise levels, and compares the layered ensemble
against the flat random-feature baseline. Point real FMNIST files at
this pipeline by replacing the synthetic directory with your data
directory (train-images-idx3-ubyte etc.).
"""

import os
import tempfile

import numpy as np

from deepridge import dataio
from deepridge.network import (DEFAULT_LAMBDA_GRID, NetConfig, evaluate,
                               flat_random_feature_baseline, predict, train)


def synthetic_images(n_per_class, seed):
    # class = which quadrant pair lights up (diagonal vs adjacent)
    rng = np.random.default_rng((seed, 77))
    images, labels = [], []
    for cls in (0, 1):
        for _ in range(n_per_class):
            q = rng.uniform(0.0, 1.0, size=4)
            pair = ((0, 3), (1, 2))[rng.integers(0, 2)] if cls else \
                   ((0, 1), (2, 3))[rng.integers(0, 2)]
            q[list(pair)] += 1.0
            img = np.empty((28, 28))
            img[:14, :14], img[:14, 14:] = q[0], q[1]
            img[14:, :14], img[14:, 14:] = q[2], q[3]
            img += rng.normal(0, 0.15, size=(28, 28))
            images.append(np.clip(img * 100, 0, 255).astype(np.uint8))
            labels.append(cls)
    order = rng.permutation(len(labels))
    return np.array(images)[order], np.array(labels, dtype=np.uint8)[order]


with tempfile.TemporaryDirectory() as data_dir:
    for tag, n_per, seed in (("train", 1200, 0), ("t10k", 400, 1)):
        x, y = synthetic_images(n_per, seed)
        dataio.write_idx_images(os.path.join(data_dir, f"{tag}-images-idx3-ubyte"), x)
        dataio.write_idx_labels(os.path.join(data_dir, f"{tag}-labels-idx1-ubyte"), y)

    train_pool = dataio.load_idx_pair(
        os.path.join(data_dir, "train-images-idx3-ubyte"),
        os.path.join(data_dir, "train-labels-idx1-ubyte"))
    test_pool = dataio.load_idx_pair(
        os.path.join(data_dir, "t10k-images-idx3-ubyte"),
        os.path.join(data_dir, "t10k-labels-idx1-ubyte"))
    base = dataio.make_binary_pair(*train_pool, *test_pool, pair_index=0,
                                   per_class_cap=1000, seed=0)
    print(f"pair dataset: {base.x_train.shape[0]} train / "
          f"{base.x_valid.shape[0]} valid / {base.x_test.shape[0]} test, "
          f"d={base.d}")

    cfg = NetConfig(depth=2, blocks=40, features_per_block=40, seed=0)
    print(f"\n{'noise':>5}  {'net mse':>8}  {'net acc':>7}  "
          f"{'flat mse':>8}  {'flat acc':>8}")
    for level in (0, 1, 2):
        split = dataio.add_feature_noise(base, level, seed=0)
        model = train(split, cfg, n_threads=2)
        m = evaluate(predict(model, split.x_test), split.y_test,
                     float(np.mean(split.y_train)))
        b = flat_random_feature_baseline(split, cfg.layer_width,
                                         DEFAULT_LAMBDA_GRID, seed=0)
        print(f"{level:>5}  {m.mse:8.4f}  {m.accuracy:7.3f}  "
              f"{b.metrics.mse:8.4f}  {b.metrics.accuracy:8.3f}")
