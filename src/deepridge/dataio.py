"""Datasets: simulated single-neuron regression, IDX image files, noise.

Everything here is a pure function of its inputs plus an explicit seed, so
any dataset can be regenerated exactly from its configuration. The module
also holds :func:`atomic_path`, through which every output file is written,
and :func:`write_csv`, the one CSV writer.
"""

import contextlib
import csv
import gzip
import os
import struct
from dataclasses import dataclass

import numpy as np

from .seeding import (TAG_NOISE, TAG_PAIR, TAG_SIM, check_count, check_real,
                      stream_rng)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# share of each class's drawn training rows that a binary pair validates on
VALID_FRACTION = 0.2


@dataclass(frozen=True)
class DataSplit:
    """Train/validation/test features and labels; the unit of all experiments."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_valid: np.ndarray
    y_valid: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        for name in ("x_train", "x_valid", "x_test"):
            x = getattr(self, name)
            if x.ndim != 2:
                raise ValueError(f"{name} must be 2-d")
            if x.shape[1] != self.x_train.shape[1]:
                raise ValueError("feature matrices must share column count")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"non-finite entries in {name}")
        for xn, yn in (("x_train", "y_train"), ("x_valid", "y_valid"),
                       ("x_test", "y_test")):
            x, y = getattr(self, xn), getattr(self, yn)
            if y.ndim != 1 or y.shape[0] != x.shape[0]:
                raise ValueError(f"{yn} length does not match {xn} rows")
            if not np.all(np.isfinite(y)):
                raise ValueError(f"non-finite entries in {yn}")

    @property
    def d(self) -> int:
        return self.x_train.shape[1]


@dataclass(frozen=True)
class SimConfig:
    """Single-neuron generator settings: y = activation(X w) + noise."""

    n: int
    d: int
    noise_std: float
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if check_count("n", self.n) % 3 != 0:
            raise ValueError("n must be a positive multiple of 3")
        check_count("d", self.d)
        check_real("noise_std", self.noise_std, 0, strict=False, many=False)
        if self.activation not in ("relu", "sigmoid"):
            raise ValueError(f"unknown activation {self.activation!r}")


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-np.clip(t, -500, 500)))


def simulate_single_neuron(cfg: SimConfig) -> DataSplit:
    """Draw a dataset from a single noisy neuron.

    X is i.i.d. standard normal, the weight vector is standard normal with
    each coordinate redrawn until |w_i| < 3, and rows go to the three splits
    in draw order (equal thirds).
    """
    rng = stream_rng(cfg.seed, TAG_SIM)
    x = rng.standard_normal((cfg.n, cfg.d))
    w = rng.standard_normal(cfg.d)
    out = np.abs(w) >= 3.0
    while out.any():
        w[out] = rng.standard_normal(int(out.sum()))
        out = np.abs(w) >= 3.0
    signal = x @ w
    if cfg.activation == "relu":
        clean = np.maximum(signal, 0.0)
    else:
        clean = _sigmoid(signal)
    y = clean + cfg.noise_std * rng.standard_normal(cfg.n)
    third = cfg.n // 3
    return DataSplit(
        x_train=x[:third], y_train=y[:third],
        x_valid=x[third:2 * third], y_valid=y[third:2 * third],
        x_test=x[2 * third:], y_test=y[2 * third:],
    )


def _read_idx_bytes(path) -> bytes:
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] == b"\x1f\x8b":  # gzipped distribution files
        data = gzip.decompress(data)
    return data


def load_idx(path) -> np.ndarray:
    """Read one big-endian IDX file.

    Image files (magic 0x00000803) give a (count, rows*cols) float matrix
    with bytes scaled to [0, 1]; label files (magic 0x00000801) give a
    (count,) integer vector.
    """
    data = _read_idx_bytes(path)
    magic = int.from_bytes(data[:4], "big")
    header = 16 if magic == IDX_IMAGE_MAGIC else 8
    if len(data) < header:
        raise ValueError(f"{path}: inconsistent length (truncated header)")
    if magic == IDX_IMAGE_MAGIC:
        count, rows, cols = struct.unpack(">III", data[4:16])
        width = rows * cols
    elif magic == IDX_LABEL_MAGIC:
        (count,), width = struct.unpack(">I", data[4:8]), 1
    else:
        raise ValueError(f"{path}: unrecognized IDX magic {magic:#010x}")
    expected = header + count * width
    if len(data) != expected:
        raise ValueError(f"{path}: inconsistent length ({len(data)} bytes, "
                         f"header declares {expected})")
    values = np.frombuffer(data, dtype=np.uint8, offset=header)
    if magic == IDX_LABEL_MAGIC:
        return values.astype(np.int64)
    return values.reshape(count, width).astype(float) / 255.0


def load_idx_pair(images_path, labels_path):
    """Read matching image and label files, enforcing equal counts."""
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 2:
        raise ValueError(f"{images_path} is not an image file")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path} is not a label file")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}"
        )
    return images, labels


def write_idx_images(path, images_uint8) -> None:
    """Write a (count, rows, cols) uint8 array as an IDX image file."""
    arr = np.ascontiguousarray(images_uint8, dtype=np.uint8)
    if arr.ndim != 3:
        raise ValueError("expected a (count, rows, cols) array")
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels) -> None:
    """Write a label vector as an IDX label file."""
    arr = np.ascontiguousarray(labels, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d label vector")
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, arr.shape[0]))
        f.write(arr.tobytes())


def make_binary_pair(train_images, train_labels, test_images, test_labels,
                     pair_index: int, per_class_cap: int | None = None,
                     seed: int = 0) -> DataSplit:
    """Build a binary regression dataset from class ``pair_index`` vs the next.

    The pair is (pair_index, pair_index+1 mod 10), relabeled 0/1. From the
    training pool, an equal number of rows per class (at most
    ``per_class_cap``) is drawn without replacement and split into train and
    validation (:data:`VALID_FRACTION`) per class, so both stay exactly
    balanced. Test rows are all
    rows of the pair in the given test set.
    """
    check_count("pair_index", pair_index, 0, 9)
    cls_a, cls_b = pair_index, (pair_index + 1) % 10
    train_labels = np.asarray(train_labels).ravel()
    test_labels = np.asarray(test_labels).ravel()
    rng = stream_rng(seed, TAG_PAIR, pair_index)

    idx_a = np.flatnonzero(train_labels == cls_a)
    idx_b = np.flatnonzero(train_labels == cls_b)
    if idx_a.size == 0 or idx_b.size == 0:
        raise ValueError(f"empty class after filtering pair {cls_a}/{cls_b}")
    take = min(idx_a.size, idx_b.size)
    if per_class_cap is not None:
        take = min(take, check_count("per_class_cap", per_class_cap))
    if take < 2:
        raise ValueError("too few rows per class to split train/validation")

    n_valid = int(round(take * VALID_FRACTION))
    n_valid = min(max(n_valid, 1), take - 1)
    tr_parts, va_parts = [], []
    for idx, label in ((idx_a, 0.0), (idx_b, 1.0)):
        chosen = rng.choice(idx, size=take, replace=False)
        tr_parts.append((chosen[n_valid:], label))
        va_parts.append((chosen[:n_valid], label))

    def _assemble(parts):
        rows = np.concatenate([p[0] for p in parts])
        ys = np.concatenate([np.full(p[0].size, p[1]) for p in parts])
        order = rng.permutation(rows.size)  # interleave the two classes
        return np.asarray(train_images, dtype=float)[rows[order]], ys[order]

    x_tr, y_tr = _assemble(tr_parts)
    x_va, y_va = _assemble(va_parts)

    test_mask = (test_labels == cls_a) | (test_labels == cls_b)
    if not test_mask.any():
        raise ValueError(f"empty class after filtering pair {cls_a}/{cls_b} in test set")
    x_te = np.asarray(test_images, dtype=float)[test_mask]
    y_te = (test_labels[test_mask] == cls_b).astype(float)

    return DataSplit(x_train=x_tr, y_train=y_tr, x_valid=x_va, y_valid=y_va,
                     x_test=x_te, y_test=y_te)


def add_feature_noise(split: DataSplit, level: int, seed: int = 0) -> DataSplit:
    """Add isotropic Gaussian feature noise scaled by the training pixels.

    Noise std is ``level`` times the pooled per-feature standard deviation
    of x_train (fallback 1.0 when the features are constant). Level 0
    returns the input unchanged; labels are never touched.
    """
    level = check_real("level", level, 0, strict=False, many=False)
    if level == 0:
        return split
    pooled = float(np.sqrt(np.mean(np.var(split.x_train, axis=0))))
    if pooled == 0.0:
        pooled = 1.0
    scale = level * pooled
    noisy = {}
    # the stream ignores the level, so level 2 adds exactly twice the level-1
    # perturbation for a given seed; splits draw independently
    for i, name in enumerate(("x_train", "x_valid", "x_test")):
        x = getattr(split, name)
        rng = stream_rng(seed, TAG_NOISE, i)
        noisy[name] = x + scale * rng.standard_normal(x.shape)
    return DataSplit(
        x_train=noisy["x_train"], y_train=split.y_train,
        x_valid=noisy["x_valid"], y_valid=split.y_valid,
        x_test=noisy["x_test"], y_test=split.y_test,
    )


@contextlib.contextmanager
def atomic_path(path):
    """Yield a temporary path to write; move it onto ``path`` on success.

    The temporary file is removed whatever happens, so a failed write
    leaves no partial file behind and any file already at ``path`` intact.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_csv(path, columns, rows) -> None:
    """Write a header row then ``rows`` as CSV, through :func:`atomic_path`."""
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)
