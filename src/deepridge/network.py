"""Deep networks of random-feature ridge ensembles.

A model stacks ``depth`` layers. Each layer draws ``blocks`` random relu
feature blocks (each with its own weight variance), fits every block
against the training labels across the whole penalty grid, and normalizes
each of the blocks*penalties prediction columns by its training-set
uncentered standard deviation. The normalized columns feed the next layer.
After every layer a final ridge over that layer's representation, with its
penalty picked on the validation split, turns the network up to that depth
into a predictor, so one training pass yields every depth and depth can be
selected afterwards at no extra cost.

A layer's output is carried compressed. Block k's L columns are its
features times the (P, L) map M_k = betas[k] / scales[k] of its ridge
coefficients over its column scales, and on a penalty grid those columns
are nearly collinear: M_k has numerical rank r_k, about 11 of L = 29 on
the default grid. So each block's columns are kept as r_k coordinates on
an orthonormal basis C_k of M_k's row space, and a layer's output is one
(n, sum r_k) array; :func:`forward` returns it. Training takes each
block's map by one small SVD (signed canonically), once, and a trained
layer is that :class:`LayerBasis`: one stacked (sum r_k, P) array of the
maps that turn features into coordinates. The C_k are not kept, since
the next layer and the final ridge read only the coordinates, and the
betas and scales live only while their transform group is fit.

Input weights and biases are never stored: block k of layer m is drawn
from the keyed stream (seed, m, k), so training and prediction redraw it
on demand. Both share one chunked transform: blocks are cut into fixed
groups, and each group's blocks are drawn into one weight buffer, applied
to the rows one row block at a time (one GEMM each) and dropped after the
last. Training transforms the train rows and then the validation rows, so
its block fits hold the train rows' features only; prediction takes all
its rows as one block and reads each group's rows of the stored basis.
Groups may run on a thread pool; the caller copies their output in order.

The next layer reads only the coordinates: block k of layer m >= 2 draws
its (sum r_j, P) weights from (seed, m, k) and computes
relu(coords W_k / sqrt(K*L) + b_k). The coordinates keep the norms of the
dense rows, so the sqrt(K*L) scaling is that of the dense layer, and for
orthonormal C the layer is the dense-input network in distribution; but
its realization depends on the basis itself, so the ranks r_k are fixed
in training and stored with the model. The final ridge is fit and stored
on the coordinates; C times its coefficients is the ridge on the dense
columns, and no (n, K*L) dense array is ever formed.

Training never backpropagates: input weights are drawn, output weights are
closed-form ridge solutions.
"""

import ctypes
import dataclasses
import functools
import io
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dataio import DataSplit, atomic_path
from .features import FeatureBlock, apply_block, draw_block
from .ridge import (RidgeGridFit, column_scales, fit_floats, fit_grid,
                    penalty_grid, solve_grid)
from .ridge import predict as ridge_predict
from .seeding import KEY_MAX, map_ordered, stream_rng

# 29-point default penalty grid used throughout the experiments
DEFAULT_LAMBDA_GRID = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)

MODEL_FORMAT = "deepridge-model"
MODEL_FORMAT_VERSION = 7

# feature columns per transform GEMM: narrow enough that each worker's
# (D, columns) weight buffer and (rows, columns) features stay small, wide
# enough for BLAS to run near its rate on wider GEMMs. On 1000 rows of 1219
# inputs (many-narrow's layer 2), 500 columns ran at 93 GFLOP/s against 104
# at 1000 (2 BLAS threads; 61 against 67 at one). The width sets the GEMM
# shapes, so it also sets the last digits of the features
GROUP_COLUMNS = 512

# a block keeps the singular directions of its (P, L) grid map above this
# fraction of the largest singular value. On the default grid (K=100,
# P=100, n=3000) that keeps 10-13 of 29, and depth-1 test predictions moved
# by at most 5e-11 of their scale against the dense columns. The rank also
# sets how many rows of normals each block of the next layer draws, so
# training fixes it and the model stores it: a singular value near the cut
# is known only to about eps times the largest, and a re-cut on another
# LAPACK could change every later block's draw
RANK_TOLERANCE = 1e-14

# stream tags. A tagged key puts its tag where a block's key (seed, layer,
# block) puts the layer, and SeedSequence zero-pads a key, so (seed, 101)
# draws what (seed, 101, 0) draws. So every tag (dataio's 101-103, these,
# theory's 301) exceeds MAX_DEPTH, the deepest layer a NetConfig takes, and
# each tag keys streams of one length only
MAX_DEPTH = 100
_TAG_GAMMA = 201
_TAG_BASELINE = 202


class ModelFormatError(ValueError):
    """Raised for corrupt or incompatible serialized models."""


def _checked_draws(gamma_low, gamma_high, gamma_grid, bias_range):
    """``gamma_grid`` as a tuple of floats, or None; refuses weight
    variances and a bias range that are not positive and finite, which
    would fail only at the first draw."""
    if gamma_grid is not None:
        gamma_grid = tuple(float(v) for v in gamma_grid)
        if not gamma_grid or not all(0 < v < math.inf for v in gamma_grid):
            raise ValueError("gamma_grid must be non-empty and positive "
                             "and finite")
    elif not 0 < gamma_low < gamma_high < math.inf:
        raise ValueError("need 0 < gamma_low < gamma_high < inf")
    if not 0 < bias_range < math.inf:
        raise ValueError("bias_range must be positive and finite")
    return gamma_grid


@dataclass(frozen=True)
class NetConfig:
    """Architecture and randomness settings for one network.

    ``depth`` counts feature layers before the final ridge, at most
    ``MAX_DEPTH``. Block weight variances come either from ``gamma_grid``
    (one entry per block) or are drawn uniformly from (gamma_low,
    gamma_high) per block and layer. ``seed`` keys every stream, so it
    lies in 0..``KEY_MAX``.
    """

    depth: int = 2
    blocks: int = 500
    features_per_block: int = 100
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    gamma_low: float = 0.25
    gamma_high: float = 1.25
    gamma_grid: tuple | None = None
    bias_range: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("depth", "blocks", "features_per_block", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(
                    value, bool):
                raise ValueError(f"{name} must be an integer")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_DEPTH}")
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.features_per_block < 1:
            raise ValueError("features_per_block must be at least 1")
        if not 0 <= self.seed <= KEY_MAX:
            raise ValueError(f"seed must be in 0..{KEY_MAX}")
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) == 0 or not all(0 < v < math.inf for v in grid):
            raise ValueError("lambda_grid must be non-empty, positive and "
                             "finite")
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("lambda_grid must be strictly increasing")
        object.__setattr__(self, "lambda_grid", grid)
        gg = _checked_draws(self.gamma_low, self.gamma_high, self.gamma_grid,
                            self.bias_range)
        if gg is not None and len(gg) != self.blocks:
            raise ValueError("gamma_grid must have one entry per block")
        object.__setattr__(self, "gamma_grid", gg)

    @property
    def n_penalties(self) -> int:
        return len(self.lambda_grid)

    @property
    def layer_width(self) -> int:
        """Columns produced by one layer: blocks * penalties."""
        return self.blocks * self.n_penalties


@dataclass(frozen=True)
class LayerBasis:
    """The numerical-rank maps of a layer's blocks, stacked; a trained
    layer.

    Block k's L unit-scale columns are X_k = Z_k M_k for its features Z_k
    and M_k = betas[k] / scales[k] (P, L). With the thin SVD M_k = U S V'
    cut to the r_k singular values above ``RANK_TOLERANCE`` times the
    largest, X_k = (Z_k (U S)[:, :r_k]) C_k' with C_k = V[:, :r_k]
    orthonormal. Rows offsets[k]:offsets[k + 1] of ``maps`` are block k's
    ((U S)[:, :r_k])', which turns its features into its r_k coordinates;
    C_k is not kept, as nothing reads the dense columns. Block k's input
    weights and biases are not stored either: they are redrawn from the
    keyed stream (seed, layer, k) with the weight variance
    ``_block_gammas(config, layer)[k]``.
    """

    maps: np.ndarray      # (sum r_k, P)
    offsets: np.ndarray   # (K + 1,) ints, offsets[0] == 0

    @property
    def ranks(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def width(self) -> int:
        """Compressed width, sum r_k."""
        return int(self.offsets[-1])

    def _rows(self):
        """Each block's rows of ``maps``, as slices."""
        o = self.offsets
        return [slice(o[k], o[k + 1]) for k in range(len(o) - 1)]

    def blocks(self, a: int, b: int) -> "LayerBasis":
        """Blocks a..b-1's basis, as a view of this one's rows."""
        return LayerBasis(maps=self.maps[self.offsets[a]:self.offsets[b]],
                          offsets=self.offsets[a:b + 1] - self.offsets[a])

    @staticmethod
    def join(parts) -> "LayerBasis":
        """Consecutive blocks' bases as one."""
        ranks = np.concatenate([part.ranks for part in parts])
        return LayerBasis(maps=np.concatenate([part.maps for part in parts]),
                          offsets=np.concatenate([[0], np.cumsum(ranks)]))


def layer_basis(betas, scales) -> LayerBasis:
    """The :class:`LayerBasis` of blocks with coefficients ``betas``
    (K, P, L) and column scales ``scales`` (K, L).

    Block k keeps the directions above the cut. A block whose columns are
    all zero keeps one (zero) coordinate, so no array is ever empty. Each
    singular pair is signed so that the largest-magnitude entry of its
    right vector is positive, so the basis does not depend on the signs
    LAPACK picks; the right vectors are then dropped.
    """
    maps = []
    for beta, scale in zip(betas, scales):
        u, s, vt = np.linalg.svd(beta / scale, full_matrices=False)
        r = max(1, int(np.count_nonzero(s > RANK_TOLERANCE * s[0])))
        sign = np.sign(vt[np.arange(r), np.argmax(np.abs(vt[:r]), axis=1)])
        maps.append((u[:, :r] * (s[:r] * sign)).T)
    return LayerBasis(maps=np.concatenate(maps),
                      offsets=np.cumsum([0] + [len(m) for m in maps]))


@dataclass(frozen=True)
class FinalFit:
    """Final ridge for one depth, with its validation-selected penalty; its
    (sum r_k, L) coefficients act on that layer's coordinates."""

    fit: RidgeGridFit
    lambda_star_index: int
    valid_mse: np.ndarray  # per-penalty validation MSE

    @property
    def lambda_star(self) -> float:
        return float(self.fit.lambdas[self.lambda_star_index])


@dataclass
class DeepRidgeModel:
    """A trained network: layers plus one final ridge per depth."""

    config: NetConfig
    layers: tuple                       # depth LayerBases
    final_fits: tuple                   # final_fits[m - 1] serves depth m
    input_dim: int

    @property
    def depth(self) -> int:
        return self.config.depth

    @property
    def final(self) -> FinalFit:
        return self.final_fits[-1]

    @property
    def lambda_star_index(self) -> int:
        return self.final.lambda_star_index


@dataclass(frozen=True)
class Metrics:
    """Test metrics; ``accuracy`` is None unless the labels are binary 0/1."""

    mse: float
    one_minus_r2: float
    accuracy: float | None = None


@dataclass(frozen=True)
class BaselineResult:
    """Flat random-feature ridge baseline outcome."""

    metrics: Metrics
    lambda_star: float
    lambda_star_index: int


def _block_gammas(cfg: NetConfig, layer_index: int) -> np.ndarray:
    if cfg.gamma_grid is not None:
        return np.asarray(cfg.gamma_grid, dtype=float)
    return np.array([
        stream_rng(cfg.seed, _TAG_GAMMA, layer_index, k).uniform(
            cfg.gamma_low, cfg.gamma_high)
        for k in range(cfg.blocks)
    ])


def group_bounds(blocks: int, p: int) -> list:
    """Block ranges ``(a, b)`` that share one feature-transform GEMM.

    The groups depend only on the layer shape, never on the thread count,
    so the arithmetic is the same for any ``n_threads``.
    """
    size = max(1, GROUP_COLUMNS // p)
    return [(a, min(a + size, blocks)) for a in range(0, blocks, size)]


def peak_floats(cfg: NetConfig, n_total: int, n_train: int, d: int,
                n_threads: int = 1, baseline: bool = False) -> int:
    """Floats held at the peak of training and scoring one network.

    The data has ``n_total`` rows of ``d`` inputs, ``n_train`` of them
    training rows. Each of the ``n_threads`` workers holds one transform
    group's weight buffer, its features on one row block (the train rows,
    the validation rows or the rows to predict, so at most
    max(n_train, n_total - n_train) rows), and one block's ridge fit and
    train-row grid predictions, and the group's coefficients, scales and
    coordinates, and one more group's coordinates may wait to be copied;
    input weights are redrawn per group and never kept. Layer outputs and
    weight buffers are counted at the dense width K*L, and stored layers
    (each row P map and L final-ridge floats) and coordinates at min(P, L)
    rows per block; either bounds the compressed width sum r_k. With
    ``baseline``, the flat baseline over ``cfg.layer_width`` features runs
    after the network, so the larger of the two counts (with tiny n, wide
    d and small P the baseline can be): one column group's weights, weight
    variances, their square roots and biases, and its features on one row
    block, one ridge fit and its validation and test predictions.
    """
    n_pen = cfg.n_penalties
    kl, p = cfg.layer_width, cfg.features_per_block
    top = cfg.blocks * min(p, n_pen)
    groups = group_bounds(cfg.blocks, p)
    group_blocks = groups[0][1] - groups[0][0]
    workers = min(max(n_threads, 1), len(groups))
    widest_input = kl if cfg.depth > 1 else d
    most_rows = max(n_train, n_total - n_train)
    network_floats = (
        n_total * (d + 2 * kl)   # stacked inputs; a layer's input, output
        # stored layers (a layer's input among them) and final ridges; the
        # output's maps in parts before they are joined
        + cfg.depth * top * (p + n_pen) + top * p
        + (workers + 1) * group_blocks * min(p, n_pen) * n_total   # coords
        + workers * (widest_input * (group_blocks + 1) * p   # weight buffer,
                     # one block's draw; one group's features on one row
                     # block, coefficients and scales; one block's fit and
                     # grid predictions
                     + most_rows * group_blocks * p
                     + group_blocks * (p + 1) * n_pen
                     + fit_floats(n_train, p, n_pen) + n_train * n_pen)
        + fit_floats(n_train, kl, n_pen))   # final ridge
    baseline_floats = 0
    if baseline:
        feature_cols = min(kl, GROUP_COLUMNS) if kl > n_train else kl
        baseline_floats = (
            (d + 3 + most_rows) * feature_cols
            + fit_floats(n_train, kl, n_pen)
            + 2 * (n_total - n_train) * n_pen)
    return n_total * d + max(network_floats, baseline_floats)


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS; changes no value.

    glibc keeps freed memory below its trim threshold, which grows with the
    largest block it has freed, so a layer pass's freed features and fits
    stayed resident and added to the next pass's peak.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _group_block(cfg: NetConfig, layer_index: int, gammas, d: int, a, b):
    """Blocks a..b-1 of a layer side by side, drawn for a ``d``-wide input.

    Each block is redrawn from its keyed stream into one (d, group columns)
    weight buffer; one block's draw is held at a time.
    """
    p = cfg.features_per_block
    weights = np.empty((d, (b - a) * p))
    biases = np.empty((b - a) * p)
    for k in range(a, b):
        block = draw_block((cfg.seed, layer_index, k), float(gammas[k]), p, d,
                           cfg.bias_range)
        cols = slice((k - a) * p, (k - a + 1) * p)
        weights[:, cols] = block.weights
        biases[cols] = block.biases
        del block   # peak_floats counts one (D, P) draw per worker
    return FeatureBlock(weights=weights, biases=biases)


def _layer_coords(cfg: NetConfig, layer_index: int, x, row_blocks, basis,
                  n_threads: int):
    """Layer ``layer_index``'s (n, sum r_k) coordinates on the rows of
    ``x``, and its groups' bases, computed group by group and, within a
    group, row block by row block.

    ``x`` is the raw input or the previous layer's output, and
    ``row_blocks`` are consecutive row slices that cover it. Each group
    draws its weight buffer once, then for each row block in turn computes
    that block's features (one GEMM), writes their coordinates into the
    group's own (width, n) array and drops them before the next block's.
    ``basis(a, b, z)`` returns the :class:`LayerBasis` of blocks a..b-1;
    it is called once per group, with the features z of the first row
    block only.

    Groups may run on ``n_threads`` workers. The calling thread takes
    their results in group order from :func:`map_ordered` and copies each
    into the next rows of one buffer, so the layout is the same for any
    thread count. The buffer is sized for rank min(P, L) per block and
    then cut in place to the rows taken; rows past them are never written,
    so never resident. Then, with every group's weights, features and fits
    freed, the free heap is returned to the OS (:func:`_release_free_heap`).
    """
    x = np.asarray(x, dtype=float)
    # a later layer reads coordinates that keep the norms of K*L columns
    fan_in = x.shape[1] if layer_index == 1 else cfg.layer_width
    p = cfg.features_per_block
    gammas = _block_gammas(cfg, layer_index)

    def group_coords(group):
        block = _group_block(cfg, layer_index, gammas, x.shape[1], *group)
        for i, rows in enumerate(row_blocks):
            z = apply_block(block, x[rows], fan_in)
            if i == 0:
                part = basis(*group, z)
                out = np.empty((part.width, x.shape[0]))
            for j, comp in enumerate(part._rows()):
                np.matmul(part.maps[comp], z[:, j * p:(j + 1) * p].T,
                          out=out[comp, rows])
            del z   # before the next row block's features
        return part, out

    buf = np.empty((cfg.blocks * min(p, cfg.n_penalties), x.shape[0]))
    parts, top = [], 0
    for part, out in map_ordered(group_coords,
                                 group_bounds(cfg.blocks, p), n_threads):
        buf[top:top + part.width] = out
        top += part.width
        parts.append(part)
    del out   # the last group's copy, freed before the heap is trimmed
    buf.resize((top, x.shape[0]), refcheck=False)   # no view of buf left
    _release_free_heap()
    return buf.T, parts


def train_layer(x, n_train: int, y_train, cfg: NetConfig, layer_index: int,
                n_threads: int = 1):
    """Train one layer and return it, as the :class:`LayerBasis` of its
    blocks, plus its (n, sum r_k) coordinates on the rows of ``x``.

    ``x`` stacks the train rows (the first ``n_train``) and the validation
    rows, as raw inputs or as the previous layer's output. Each block is
    drawn from its own keyed stream, transformed with the rest of its
    group, fit on the train rows over the whole penalty grid, and its grid
    predictions normalized by their train-row scales; its coordinates are
    taken on the basis that :func:`layer_basis` gives for its group's fits,
    which are then dropped. The train rows and the validation rows are
    transformed as two row blocks, so the fits hold only the train rows'
    features. Groups are independent, so they may run on ``n_threads``
    workers; results are identical for any thread count.
    """
    y_train = np.asarray(y_train, dtype=float).ravel()
    p, n_pen = cfg.features_per_block, cfg.n_penalties

    def fit_group(a, b, z):
        betas = np.empty((b - a, p, n_pen))
        scales = np.empty((b - a, n_pen))
        grid = np.empty((n_train, n_pen))   # one block's train-row columns
        for j in range(b - a):
            zj = z[:, j * p:(j + 1) * p]
            betas[j] = fit_grid(zj, y_train, cfg.lambda_grid).betas
            scales[j] = column_scales(np.matmul(zj, betas[j], out=grid))
        # freed before the SVDs: held through them, it left few-wide's
        # worker heaps fragmented and its peak RSS 205-221 MB, not 190 MB
        del grid
        return layer_basis(betas, scales)

    coords, parts = _layer_coords(cfg, layer_index, x,
                                  (slice(0, n_train), slice(n_train, None)),
                                  fit_group, n_threads)
    return LayerBasis.join(parts), coords


def _selected(valid_pred, y_valid):
    """The index of the penalty with the smallest validation MSE (ties go
    to the smaller penalty), and the MSEs of (rows, L) ``valid_pred``."""
    valid_mse = np.mean((valid_pred - y_valid[:, None]) ** 2, axis=0)
    return int(np.argmin(valid_mse)), valid_mse


def _fit_final(coords, n_train: int, y_train, y_valid, lambdas) -> FinalFit:
    # a ridge solution on X lies in X's row space, so the ridge on the
    # coordinates, times C, is the ridge on the dense columns
    fit = fit_grid(coords[:n_train], y_train, lambdas)
    star, valid_mse = _selected(ridge_predict(fit, coords[n_train:]),
                                y_valid)
    return FinalFit(fit=fit, lambda_star_index=star, valid_mse=valid_mse)


def train(split: DataSplit, cfg: NetConfig, n_threads: int = 1) -> DeepRidgeModel:
    """Train a full network on a data split.

    Layers are trained in sequence; after each layer a final ridge is fit
    on that depth's representation and its penalty picked by validation
    MSE.
    """
    n_train = split.x_train.shape[0]
    rep = np.vstack([split.x_train, split.x_valid])
    layers, finals = [], []
    for m in range(1, cfg.depth + 1):
        layer, rep = train_layer(rep, n_train, split.y_train, cfg, m,
                                 n_threads)
        layers.append(layer)
        finals.append(_fit_final(rep, n_train, split.y_train, split.y_valid,
                                 cfg.lambda_grid))
    return DeepRidgeModel(config=cfg, layers=tuple(layers),
                          final_fits=tuple(finals), input_dim=split.d)


def forward(model: DeepRidgeModel, x, depth: int | None = None,
            n_threads: int = 1) -> np.ndarray:
    """Representation after ``depth`` layers (the final ridge's input):
    the (n, sum r_k) coordinates of that layer's blocks.

    Each transform group reads its rows of the stored layer, so no SVD
    runs. Groups may run on ``n_threads`` workers; the result is the same
    for any thread count.
    """
    if depth is None:
        depth = model.depth
    if not 1 <= depth <= model.depth:
        raise ValueError(f"depth must be in 1..{model.depth}")
    rep = np.asarray(x, dtype=float)
    if rep.ndim != 2 or rep.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} input columns")
    if not np.all(np.isfinite(rep)):
        raise ValueError("input contains NaN or inf")
    for m, layer in enumerate(model.layers[:depth], start=1):
        rep, _ = _layer_coords(model.config, m, rep, (slice(None),),
                               lambda a, b, z: layer.blocks(a, b), n_threads)
    return rep


def predict(model: DeepRidgeModel, x, depth: int | None = None,
            n_threads: int = 1) -> np.ndarray:
    """Predict labels using the final ridge for ``depth``.

    Layers beyond ``depth`` are never touched, so a deep model evaluates
    any shallower architecture directly. ``n_threads`` is passed to
    :func:`forward`.
    """
    if depth is None:
        depth = model.depth
    rep = forward(model, x, depth, n_threads)
    ff = model.final_fits[depth - 1]
    return ridge_predict(ff.fit, rep)[:, ff.lambda_star_index]


def select_depth(model: DeepRidgeModel) -> int:
    """Depth with the lowest stored validation MSE; ties go to the smaller
    depth."""
    scores = [float(ff.valid_mse[ff.lambda_star_index])
              for ff in model.final_fits]
    return int(np.argmin(scores)) + 1


def evaluate(predictions, y_test, y_train_mean: float) -> Metrics:
    """MSE and normalized MSE (1 - R^2) against the train-mean benchmark.

    Accuracy is included only for 0/1 labels, thresholding at 0.5.
    """
    predictions = np.asarray(predictions, dtype=float).ravel()
    y_test = np.asarray(y_test, dtype=float).ravel()
    if predictions.shape != y_test.shape:
        raise ValueError("predictions and labels must have equal length")
    resid = y_test - predictions
    denom = float(np.sum((y_test - y_train_mean) ** 2))
    if denom == 0.0:
        raise ValueError("degenerate labels: zero variance around train mean")
    mse = float(np.mean(resid ** 2))
    one_minus_r2 = float(np.sum(resid ** 2) / denom)
    accuracy = None
    if np.isin(y_test, (0.0, 1.0)).all():
        accuracy = float(np.mean((predictions >= 0.5) == (y_test == 1.0)))
    return Metrics(mse=mse, one_minus_r2=one_minus_r2, accuracy=accuracy)


def flat_random_feature_baseline(split: DataSplit, p_total: int, lambdas,
                                 gamma_low: float = 0.25,
                                 gamma_high: float = 1.25,
                                 gamma_grid=None, bias_range: float = 1.0,
                                 seed: int = 0) -> BaselineResult:
    """Single giant random-feature block with one validation-tuned ridge.

    Each of the ``p_total`` features gets its own weight variance, drawn
    uniformly from (gamma_low, gamma_high) or cycled from ``gamma_grid``.
    The features come in keyed column groups, as a layer's blocks do:
    group g is drawn from the stream (seed, 202, g) and redrawn whenever it
    is needed again. With no more features than training rows there is one
    group, fit by :func:`fit_grid`; with more, the groups are the
    ``GROUP_COLUMNS``-wide ranges of :func:`group_bounds`, and the dual
    Gram ZZ'/n, the sum of their Z_g Z_g'/n, is solved once for the (n, L)
    dual solution alpha. Each group then adds its share of the validation
    and test predictions, its coefficients the fit's or Z_g' alpha / n.
    """
    if p_total < 1:
        raise ValueError("p_total must be at least 1")
    lam = penalty_grid(lambdas)
    gamma_grid = _checked_draws(gamma_low, gamma_high, gamma_grid, bias_range)
    if gamma_grid is not None:
        gamma_grid = np.array(gamma_grid)
    n = split.x_train.shape[0]
    dual = p_total > n
    groups = group_bounds(p_total, 1) if dual else [(0, p_total)]

    def draw(g):
        a, b = groups[g]
        rng = stream_rng(seed, _TAG_BASELINE, g)
        if gamma_grid is None:
            gammas = rng.uniform(gamma_low, gamma_high, size=b - a)
        else:
            gammas = gamma_grid[np.arange(a, b) % gamma_grid.size]
        weights = rng.standard_normal((split.d, b - a))
        weights *= np.sqrt(gammas)   # in place: one (d, columns) array
        biases = rng.uniform(-bias_range, bias_range, size=b - a)
        return FeatureBlock(weights=weights, biases=biases)

    # one split's features at a time: each is dropped once used
    if dual:
        # each Z_g Z_g'/n goes into one reused buffer, so no group maps in
        # a fresh Gram; the buffer is held through the next group's draw
        # only where the Gram outweighs that group's (d, columns) weights
        gram, part = np.zeros((n, n)), None
        for g in range(len(groups)):
            z = apply_block(draw(g), split.x_train)
            part = np.matmul(z, z.T, out=part)
            del z   # before the next group's draw
            part /= n
            gram += part
            if n * n < split.d * GROUP_COLUMNS:
                part = None
        del part
        alpha = solve_grid(gram, split.y_train, lam)
        del gram   # the solve overwrote it with its reduction
    else:
        coef = fit_grid(apply_block(draw(0), split.x_train), split.y_train,
                        lam).betas
    valid_pred = np.zeros((split.x_valid.shape[0], lam.size))
    test_pred = np.zeros((split.x_test.shape[0], lam.size))
    for g in range(len(groups)):
        block = draw(g)
        if dual:
            coef = apply_block(block, split.x_train).T @ alpha
            coef /= n
        valid_pred += apply_block(block, split.x_valid) @ coef
        test_pred += apply_block(block, split.x_test) @ coef
        del block   # before the next group's draw: peak_floats counts one
    star, _ = _selected(valid_pred, split.y_valid)
    _release_free_heap()   # else the next network's first layer counts it
    metrics = evaluate(test_pred[:, star], split.y_test,
                       float(np.mean(split.y_train)))
    return BaselineResult(metrics=metrics, lambda_star=float(lam[star]),
                          lambda_star_index=star)


# --- serialization ---------------------------------------------------------
#
# A model file is a zip archive of .npy payloads plus a JSON header. Entries
# are written in sorted order with fixed timestamps and no compression, so
# an identical model always produces identical bytes. Arrays are streamed
# into the archive one at a time, never copied into memory first.


def _write_npy(zf, info, arr) -> None:
    arr = np.ascontiguousarray(arr)
    # preset the exact .npy length: zipfile decides on zip64 from it
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(arr))
    info.file_size = header.tell() + arr.nbytes
    with zf.open(info, "w") as f:
        np.lib.format.write_array(f, arr, version=(1, 0))


def save_model(model: DeepRidgeModel, path) -> None:
    """Serialize a trained model: a header, one array per layer (its
    basis' ``maps``) and two per final ridge (its coefficients on the
    coordinates and its validation MSEs).

    Input weights, biases and weight variances are not written; they are
    redrawn from the keyed streams of the header config. Each layer's block
    ranks go in the header: they split its basis into blocks and set the
    shape of the next layer's draws.
    """
    header = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "config": dataclasses.asdict(model.config),
        "input_dim": model.input_dim,
        "final_fits": [{"lambda_star_index": ff.lambda_star_index}
                       for ff in model.final_fits],
        "ranks": [[int(r) for r in layer.ranks] for layer in model.layers],
    }
    entries = {
        "header.json": json.dumps(header, sort_keys=True, indent=1).encode(),
    }
    for m, layer in enumerate(model.layers, start=1):
        entries[f"layer{m}.maps.npy"] = layer.maps
    for m, ff in enumerate(model.final_fits, start=1):
        entries[f"final{m}.betas.npy"] = ff.fit.betas
        entries[f"final{m}.valid_mse.npy"] = ff.valid_mse
    with atomic_path(path) as tmp, zipfile.ZipFile(tmp, "w") as zf:
        for name in sorted(entries):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            if name == "header.json":
                zf.writestr(info, entries[name])
            else:
                _write_npy(zf, info, entries[name])


def _int_in(value, low: int, high: int) -> bool:
    # JSON booleans load as Python ints; they are not indices here
    return (isinstance(value, int) and not isinstance(value, bool)
            and low <= value < high)


def load_model(path) -> DeepRidgeModel:
    """Load a model written by :func:`save_model`.

    Every index and rank in the header is checked against the header
    config, and every array's shape against them; an array that is not
    float64 or holds a NaN or inf is refused too, so a damaged or
    inconsistent file raises :class:`ModelFormatError`.
    """
    def corrupt(what):
        return ModelFormatError(f"{path}: corrupt model file ({what})")

    try:
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
            if "header.json" not in names:
                raise corrupt("no header")
            header = json.loads(zf.read("header.json"))
            if header.get("format") != MODEL_FORMAT:
                raise ModelFormatError(f"{path}: not a {MODEL_FORMAT} file")
            if header.get("format_version") != MODEL_FORMAT_VERSION:
                raise ModelFormatError(
                    f"{path}: unsupported format version "
                    f"{header.get('format_version')!r} (expected "
                    f"{MODEL_FORMAT_VERSION})")

            def read_arr(name, shape):
                if name not in names:
                    raise corrupt(f"missing {name}")
                with zf.open(name) as f:
                    arr = np.lib.format.read_array(f)
                if arr.dtype != np.float64 or arr.shape != shape:
                    raise corrupt(f"{name} is {arr.dtype} {arr.shape}, "
                                  f"expected float64 {shape}")
                if not np.all(np.isfinite(arr)):
                    raise corrupt(f"{name} holds NaN or inf")
                return arr

            cfg = NetConfig(**header["config"])
            lam = np.asarray(cfg.lambda_grid, dtype=float)
            k_blocks, p = cfg.blocks, cfg.features_per_block
            n_pen = cfg.n_penalties
            input_dim = header["input_dim"]
            if not _int_in(input_dim, 1, 2 ** 63):
                raise corrupt(f"input_dim {input_dim!r}")
            ranks, top = header["ranks"], min(p, n_pen)
            if not (isinstance(ranks, list) and len(ranks) == cfg.depth
                    and all(isinstance(r, list) and len(r) == k_blocks
                            and all(_int_in(v, 1, top + 1) for v in r)
                            for r in ranks)):
                raise corrupt(f"ranks must be {cfg.depth} lists of "
                              f"{k_blocks} ints in 1..{top}")
            layers = []
            for m, layer_ranks in enumerate(ranks, start=1):
                offsets = np.cumsum([0] + layer_ranks)
                maps = read_arr(f"layer{m}.maps.npy", (int(offsets[-1]), p))
                layers.append(LayerBasis(maps=maps, offsets=offsets))
            if len(header["final_fits"]) != cfg.depth:
                raise corrupt("need one final_fits entry per layer")
            finals = []
            for d, spec in enumerate(header["final_fits"], start=1):
                star = spec["lambda_star_index"]
                if not _int_in(star, 0, n_pen):
                    raise corrupt(f"depth {d} lambda_star_index {star!r} "
                                  f"outside 0..{n_pen - 1}")
                finals.append(FinalFit(
                    fit=RidgeGridFit(
                        lambdas=lam,
                        betas=read_arr(f"final{d}.betas.npy",
                                       (layers[d - 1].width, n_pen))),
                    lambda_star_index=star,
                    valid_mse=read_arr(f"final{d}.valid_mse.npy", (n_pen,))))
            return DeepRidgeModel(config=cfg, layers=tuple(layers),
                                  final_fits=tuple(finals),
                                  input_dim=input_dim)
    except ModelFormatError:
        raise
    except (zipfile.BadZipFile, KeyError, json.JSONDecodeError, TypeError,
            ValueError) as exc:
        raise corrupt(exc) from exc
