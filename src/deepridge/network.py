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

A trained layer is two stacked arrays over its blocks: ridge coefficients
and column scales. Input weights and biases are never stored: block k of
layer m is drawn from the keyed stream (seed, m, k), so training and
prediction redraw it on demand. Both share one chunked transform: blocks
are cut into fixed groups, each group's blocks are drawn into one weight
buffer that costs one GEMM and is then dropped, and each block's grid
predictions are written straight into the layer output. Groups may run on
a thread pool. Training only ever transforms the train and validation
splits.

Training never backpropagates: input weights are drawn, output weights are
closed-form ridge solutions.
"""

import dataclasses
import io
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dataio import DataSplit, atomic_path
from .features import FeatureBlock, apply_block, draw_block
from .ridge import RidgeGridFit, column_scales, fit_floats, fit_grid
from .ridge import predict as ridge_predict
from .seeding import map_ordered, stream_rng

# 29-point default penalty grid used throughout the experiments
DEFAULT_LAMBDA_GRID = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)

MODEL_FORMAT = "deepridge-model"
MODEL_FORMAT_VERSION = 4

# feature columns per transform GEMM: wide enough for BLAS to run at the
# rate of 2000 columns, narrow enough that each worker's (D, columns) weight
# buffer and (rows, columns) features stay small
GROUP_COLUMNS = 1024

# sub-stream tags (must never collide with block stream keys, which are
# (seed, layer>=1, block) tuples of length 3)
_TAG_GAMMA = 201
_TAG_BASELINE = 202


class ModelFormatError(ValueError):
    """Raised for corrupt or incompatible serialized models."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and randomness settings for one network.

    ``depth`` counts feature layers before the final ridge. Block weight
    variances come either from ``gamma_grid`` (one entry per block) or are
    drawn uniformly from (gamma_low, gamma_high) per block and layer.
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
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.features_per_block < 1:
            raise ValueError("features_per_block must be at least 1")
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) == 0 or not all(v > 0 for v in grid):
            raise ValueError("lambda_grid must be non-empty and positive")
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("lambda_grid must be strictly increasing")
        object.__setattr__(self, "lambda_grid", grid)
        if self.gamma_grid is not None:
            gg = tuple(float(v) for v in self.gamma_grid)
            if len(gg) != self.blocks:
                raise ValueError("gamma_grid must have one entry per block")
            if not all(v > 0 for v in gg):
                raise ValueError("gamma_grid entries must be positive")
            object.__setattr__(self, "gamma_grid", gg)
        elif not 0 < self.gamma_low < self.gamma_high:
            raise ValueError("need 0 < gamma_low < gamma_high")
        if not self.bias_range > 0:
            raise ValueError("bias_range must be positive")

    @property
    def n_penalties(self) -> int:
        return len(self.lambda_grid)

    @property
    def layer_width(self) -> int:
        """Columns produced by one layer: blocks * penalties."""
        return self.blocks * self.n_penalties


@dataclass(frozen=True)
class LayerModel:
    """One trained layer of K blocks of P features, as stacked arrays.

    Block k owns the coefficients ``betas[k]`` of its ridge fit at every
    penalty and the column scales ``scales[k]`` that normalize its L grid
    predictions. Its input weights and biases are not stored: they are
    redrawn from the keyed stream (seed, layer, k) with the weight variance
    ``_block_gammas(config, layer)[k]``.
    """

    betas: np.ndarray      # (K, P, L)
    scales: np.ndarray     # (K, L), strictly positive


@dataclass(frozen=True)
class FinalFit:
    """Final ridge for one depth, with its validation-selected penalty."""

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
    layers: tuple                       # depth LayerModels
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
    group's weight buffer and features and one block's ridge fit; input
    weights are redrawn per group and never kept. With ``baseline``, the
    flat baseline over ``cfg.layer_width`` features runs after the
    network, so the larger of the two counts (with tiny n, wide d and
    small P the baseline can be).
    """
    n_pen = cfg.n_penalties
    kl, p = cfg.layer_width, cfg.features_per_block
    groups = group_bounds(cfg.blocks, p)
    group_columns = (groups[0][1] - groups[0][0]) * p
    workers = min(max(n_threads, 1), len(groups))
    widest_input = kl if cfg.depth > 1 else d
    network_floats = (
        n_total * (d + 2 * kl)   # stacked inputs; a layer's input, output
        + cfg.depth * (cfg.blocks * p + kl) * n_pen   # coefficients
        + workers * (widest_input * (group_columns + p)   # weight buffer,
                     # one block's draw; one group's features
                     + n_total * group_columns
                     + fit_floats(n_train, p, n_pen))
        + fit_floats(n_train, kl, n_pen))   # final ridge
    baseline_floats = 0
    if baseline:
        baseline_floats = (
            (n_total + 2 * d + n_pen) * kl   # features, weights, coefficients
            + fit_floats(n_train, kl, n_pen))
    return n_total * d + max(network_floats, baseline_floats)


def _group_features(cfg: NetConfig, layer_index: int, gammas, x, a, b):
    """Features of blocks a..b-1 of a layer on the rows of ``x``.

    Each block is redrawn from its keyed stream into one (D, group columns)
    weight buffer, which costs one GEMM and is dropped on return.
    """
    d, p = x.shape[1], cfg.features_per_block
    weights = np.empty((d, (b - a) * p))
    biases = np.empty((b - a) * p)
    for k in range(a, b):
        block = draw_block((cfg.seed, layer_index, k), float(gammas[k]), p, d,
                           cfg.bias_range)
        cols = slice((k - a) * p, (k - a + 1) * p)
        weights[:, cols] = block.weights
        biases[cols] = block.biases
        del block   # peak_floats counts one (D, P) draw per worker
    return apply_block(FeatureBlock(weights=weights, biases=biases), x)


def _grid_predictions(z, betas, out) -> None:
    """Grid predictions of c side-by-side blocks, written into ``out``.

    ``z`` (n, c*P) holds the blocks' features and ``betas`` (c, P, L) their
    coefficients; block j's matmul writes columns j*L:(j+1)*L of the
    (n, c*L) view ``out`` in place.
    """
    c, p, n_pen = betas.shape
    for j in range(c):
        np.matmul(z[:, j * p:(j + 1) * p], betas[j],
                  out=out[:, j * n_pen:(j + 1) * n_pen])


def train_layer(x, n_train: int, y_train, cfg: NetConfig, layer_index: int,
                n_threads: int = 1):
    """Train one layer and return it plus its representation of ``x``.

    ``x`` stacks the train rows (the first ``n_train``) and the validation
    rows. Each block is drawn from its own keyed stream, transformed with
    the rest of its group, fit on the train rows over the whole penalty
    grid, and its grid predictions normalized by their train-row scales.
    Groups are independent, so they may run on ``n_threads`` workers;
    results are identical for any thread count.
    """
    x = np.asarray(x, dtype=float)
    y_train = np.asarray(y_train, dtype=float).ravel()
    k_blocks, p, n_pen = cfg.blocks, cfg.features_per_block, cfg.n_penalties
    gammas = _block_gammas(cfg, layer_index)
    betas = np.empty((k_blocks, p, n_pen))
    scales = np.empty((k_blocks, n_pen))
    rep = np.empty((x.shape[0], cfg.layer_width))

    def build(bounds):
        a, b = bounds
        z = _group_features(cfg, layer_index, gammas, x, a, b)
        for k in range(a, b):
            j = (k - a) * p
            betas[k] = fit_grid(z[:n_train, j:j + p], y_train,
                                cfg.lambda_grid).betas
        out = rep[:, a * n_pen:b * n_pen]
        _grid_predictions(z, betas[a:b], out)
        group_scales = column_scales(out[:n_train])
        scales[a:b] = group_scales.reshape(b - a, n_pen)
        out /= group_scales

    map_ordered(build, group_bounds(k_blocks, p), n_threads)
    return LayerModel(betas=betas, scales=scales), rep


def _fit_final(rep_train, rep_valid, y_train, y_valid, lambdas):
    fit = fit_grid(rep_train, y_train, lambdas)
    valid_pred = ridge_predict(fit, rep_valid)
    valid_mse = np.mean((valid_pred - y_valid[:, None]) ** 2, axis=0)
    star = int(np.argmin(valid_mse))  # ties resolve to the smaller penalty
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
        finals.append(_fit_final(rep[:n_train], rep[n_train:], split.y_train,
                                 split.y_valid, cfg.lambda_grid))
    return DeepRidgeModel(config=cfg, layers=tuple(layers),
                          final_fits=tuple(finals), input_dim=split.d)


def forward(model: DeepRidgeModel, x, depth: int | None = None,
            n_threads: int = 1) -> np.ndarray:
    """Representation after ``depth`` layers (the final ridge's input).

    Transform groups may run on ``n_threads`` workers; the result is the
    same for any thread count.
    """
    if depth is None:
        depth = model.depth
    if not 1 <= depth <= model.depth:
        raise ValueError(f"depth must be in 1..{model.depth}")
    cur = np.asarray(x, dtype=float)
    if cur.ndim != 2 or cur.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} input columns")
    if not np.all(np.isfinite(cur)):
        raise ValueError("input contains NaN or inf")
    cfg = model.config
    for m, layer in enumerate(model.layers[:depth], start=1):
        gammas = _block_gammas(cfg, m)
        k_blocks, p, n_pen = layer.betas.shape
        nxt = np.empty((cur.shape[0], k_blocks * n_pen))

        def transform(bounds):
            a, b = bounds
            z = _group_features(cfg, m, gammas, cur, a, b)
            out = nxt[:, a * n_pen:b * n_pen]
            _grid_predictions(z, layer.betas[a:b], out)
            out /= layer.scales[a:b].ravel()

        map_ordered(transform, group_bounds(k_blocks, p), n_threads)
        cur = nxt
    return cur


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
    """
    if p_total < 1:
        raise ValueError("p_total must be at least 1")
    rng = stream_rng(seed, _TAG_BASELINE)
    if gamma_grid is not None:
        gammas = np.resize(np.asarray(gamma_grid, dtype=float), p_total)
        if not np.all(gammas > 0):
            raise ValueError("gamma_grid entries must be positive")
    else:
        gammas = rng.uniform(gamma_low, gamma_high, size=p_total)
    d = split.d
    weights = rng.standard_normal((d, p_total)) * np.sqrt(gammas)
    biases = rng.uniform(-bias_range, bias_range, size=p_total)
    block = FeatureBlock(weights=weights, biases=biases)

    ff = _fit_final(apply_block(block, split.x_train),
                    apply_block(block, split.x_valid), split.y_train,
                    split.y_valid, lambdas)
    test_pred = ridge_predict(
        ff.fit, apply_block(block, split.x_test))[:, ff.lambda_star_index]
    metrics = evaluate(test_pred, split.y_test, float(np.mean(split.y_train)))
    return BaselineResult(metrics=metrics, lambda_star=ff.lambda_star,
                          lambda_star_index=ff.lambda_star_index)


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
    """Serialize a trained model: a header, two arrays per layer and two
    per final ridge.

    Input weights, biases and weight variances are not written; they are
    redrawn from the keyed streams of the header config.
    """
    header = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "config": dataclasses.asdict(model.config),
        "input_dim": model.input_dim,
        "final_fits": [{"lambda_star_index": ff.lambda_star_index}
                       for ff in model.final_fits],
    }
    entries = {
        "header.json": json.dumps(header, sort_keys=True, indent=1).encode(),
    }
    for m, layer in enumerate(model.layers, start=1):
        entries[f"layer{m}.betas.npy"] = layer.betas
        entries[f"layer{m}.scales.npy"] = layer.scales
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

    Every array's shape and dtype and every index in the header are checked
    against the header config, so a damaged or inconsistent file raises
    :class:`ModelFormatError`.
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
                return arr

            cfg = NetConfig(**header["config"])
            lam = np.asarray(cfg.lambda_grid, dtype=float)
            k_blocks, p = cfg.blocks, cfg.features_per_block
            n_pen, width = cfg.n_penalties, cfg.layer_width
            input_dim = header["input_dim"]
            if not _int_in(input_dim, 1, 2 ** 63):
                raise corrupt(f"input_dim {input_dim!r}")
            layers = [
                LayerModel(
                    betas=read_arr(f"layer{m}.betas.npy", (k_blocks, p, n_pen)),
                    scales=read_arr(f"layer{m}.scales.npy", (k_blocks, n_pen)))
                for m in range(1, cfg.depth + 1)]
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
                        betas=read_arr(f"final{d}.betas.npy", (width, n_pen))),
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
