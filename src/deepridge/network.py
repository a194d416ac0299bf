"""Deep networks of random-feature ridge ensembles.

A model stacks ``depth`` layers. Each layer draws ``blocks`` random relu
feature blocks (each with its own weight variance), fits every block
against the training labels across the whole penalty grid, and normalizes
each of the blocks*penalties prediction columns by its training-set
uncentered standard deviation. The normalized columns feed the next layer.
A final ridge over the last representation, with its penalty picked on the
validation split, produces the usable predictor; when per-depth fits are
kept, every intermediate depth gets its own final ridge from the same
training pass, so depth can be selected afterwards at no extra cost.

A trained layer is a few stacked arrays over its blocks. Training and
prediction share one chunked transform: blocks are cut into fixed groups,
each group's features come from one GEMM on a column slice of the layer's
weights, and its grid predictions from one batched matmul. Training only
ever transforms the train and validation splits.

Training never backpropagates: input weights are drawn, output weights are
closed-form ridge solutions.
"""

import io
import json
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dataio import DataSplit
from .features import FeatureBlock, FeatureBlockSpec, apply_block, draw_block
from .ridge import RidgeGridFit, column_scales, fit_grid
from .ridge import predict as ridge_predict
from .seeding import stream_rng

# 29-point default penalty grid used throughout the experiments
DEFAULT_LAMBDA_GRID = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)

MODEL_FORMAT = "deepridge-model"
MODEL_FORMAT_VERSION = 2

# feature columns per transform GEMM: wide enough for BLAS to run near peak,
# narrow enough that one group's (rows, columns) features stay small
GROUP_COLUMNS = 2048

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
    per_depth_final: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.blocks < 1:
            raise ValueError("blocks must be at least 1")
        if self.features_per_block < 1:
            raise ValueError("features_per_block must be at least 1")
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) == 0 or any(v <= 0 for v in grid):
            raise ValueError("lambda_grid must be non-empty and positive")
        if sorted(grid) != list(grid) or len(set(grid)) != len(grid):
            raise ValueError("lambda_grid must be strictly increasing")
        object.__setattr__(self, "lambda_grid", grid)
        if self.gamma_grid is not None:
            gg = tuple(float(v) for v in self.gamma_grid)
            if len(gg) != self.blocks:
                raise ValueError("gamma_grid must have one entry per block")
            if any(v <= 0 for v in gg):
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

    Block k owns weight and bias columns k*P:(k+1)*P, the coefficients
    ``betas[k]`` of its ridge fit at every penalty and the column scales
    ``scales[k]`` that normalize its L grid predictions.
    """

    weights: np.ndarray    # (D, K*P)
    biases: np.ndarray     # (K*P,)
    gammas: np.ndarray     # (K,) weight variance of each block
    betas: np.ndarray      # (K, P, L)
    scales: np.ndarray     # (K, L), strictly positive
    modes: tuple           # K ridge fit modes, "primal" or "dual"


@dataclass(frozen=True)
class FinalFit:
    """Final ridge for one depth, with its validation-selected penalty."""

    depth: int
    fit: RidgeGridFit
    lambda_star_index: int
    valid_mse: np.ndarray  # per-penalty validation MSE

    @property
    def lambda_star(self) -> float:
        return float(self.fit.lambdas[self.lambda_star_index])


@dataclass
class DeepRidgeModel:
    """A trained network: layers plus one final ridge per stored depth."""

    config: NetConfig
    layers: tuple                       # depth LayerModels
    final_fits: tuple                   # FinalFits with ascending depth
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

    def final_at_depth(self, depth: int) -> FinalFit:
        for ff in self.final_fits:
            if ff.depth == depth:
                return ff
        raise ValueError(f"no final ridge stored for depth {depth}")


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


def _map_ordered(fn, items, n_threads: int):
    # results keyed by position, so scheduling never changes the output
    if n_threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, items))


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


def _group_features(weights, biases, x, a, b, p):
    # one GEMM for blocks a..b-1 on column-slice views of the layer arrays
    cols = slice(a * p, b * p)
    return apply_block(
        FeatureBlock(weights=weights[:, cols], biases=biases[cols]), x)


def _grid_predictions(z, betas) -> np.ndarray:
    """Grid predictions of c side-by-side blocks in one batched matmul.

    ``z`` (n, c*P) holds the blocks' features and ``betas`` (c, P, L) their
    coefficients; block j fills columns j*L:(j+1)*L of the (n, c*L) result.
    """
    n = z.shape[0]
    c, p, n_pen = betas.shape
    pred = np.matmul(z.reshape(n, c, p).transpose(1, 0, 2), betas)
    return pred.transpose(1, 0, 2).reshape(n, c * n_pen)


def train_layer(x_train, x_valid, y_train, cfg: NetConfig,
                layer_index: int, n_threads: int = 1):
    """Train one layer and return it plus the next-layer train/valid inputs.

    Each block is drawn from its own keyed stream, transformed with the
    rest of its group on the stacked train and validation rows, fit on the
    train rows over the whole penalty grid, and its grid predictions
    normalized by their train-row scales. Groups are independent, so they
    may run on ``n_threads`` workers; results are identical for any thread
    count.
    """
    x_train = np.asarray(x_train, dtype=float)
    x_valid = np.asarray(x_valid, dtype=float)
    d = x_train.shape[1]
    if x_valid.shape[1] != d:
        raise ValueError("train/valid must share column count")
    y_train = np.asarray(y_train, dtype=float).ravel()
    n_train = x_train.shape[0]
    x = np.vstack([x_train, x_valid])
    k_blocks, p, n_pen = cfg.blocks, cfg.features_per_block, cfg.n_penalties
    gammas = _block_gammas(cfg, layer_index)
    weights = np.empty((d, k_blocks * p))
    biases = np.empty(k_blocks * p)
    betas = np.empty((k_blocks, p, n_pen))
    scales = np.empty((k_blocks, n_pen))
    rep = np.empty((x.shape[0], cfg.layer_width))

    def build(bounds):
        a, b = bounds
        for k in range(a, b):
            block = draw_block(FeatureBlockSpec(
                gamma=float(gammas[k]), p=p, bias_range=cfg.bias_range,
                stream_key=(cfg.seed, layer_index, k)), d)
            weights[:, k * p:(k + 1) * p] = block.weights
            biases[k * p:(k + 1) * p] = block.biases
        z = _group_features(weights, biases, x, a, b, p)
        modes = []
        for k in range(a, b):
            j = (k - a) * p
            fit = fit_grid(z[:n_train, j:j + p], y_train, cfg.lambda_grid)
            betas[k] = fit.betas
            modes.append(fit.mode)
        out = rep[:, a * n_pen:b * n_pen]
        out[...] = _grid_predictions(z, betas[a:b])
        group_scales = column_scales(out[:n_train])
        scales[a:b] = group_scales.reshape(b - a, n_pen)
        out /= group_scales
        return modes

    built = _map_ordered(build, group_bounds(k_blocks, p), n_threads)
    layer = LayerModel(weights=weights, biases=biases, gammas=gammas,
                       betas=betas, scales=scales,
                       modes=tuple(mode for modes in built for mode in modes))
    return layer, (rep[:n_train], rep[n_train:])


def _fit_final(depth, rep_train, rep_valid, y_train, y_valid, cfg):
    fit = fit_grid(rep_train, y_train, cfg.lambda_grid)
    valid_pred = ridge_predict(fit, rep_valid)
    valid_mse = np.mean((valid_pred - y_valid[:, None]) ** 2, axis=0)
    star = int(np.argmin(valid_mse))  # ties resolve to the smaller penalty
    return FinalFit(depth=depth, fit=fit, lambda_star_index=star,
                    valid_mse=valid_mse)


def train(split: DataSplit, cfg: NetConfig, n_threads: int = 1) -> DeepRidgeModel:
    """Train a full network on a data split.

    Layers are trained in sequence; after each layer (or only the last,
    when ``cfg.per_depth_final`` is off) a final ridge is fit on that
    depth's representation and its penalty picked by validation MSE.
    """
    xs = (split.x_train, split.x_valid)
    layers, finals = [], []
    for m in range(1, cfg.depth + 1):
        layer, xs = train_layer(*xs, split.y_train, cfg, m, n_threads)
        layers.append(layer)
        if cfg.per_depth_final or m == cfg.depth:
            finals.append(_fit_final(m, xs[0], xs[1], split.y_train,
                                     split.y_valid, cfg))
    return DeepRidgeModel(config=cfg, layers=tuple(layers),
                          final_fits=tuple(finals), input_dim=split.d)


def forward(model: DeepRidgeModel, x, depth: int | None = None) -> np.ndarray:
    """Representation after ``depth`` layers (the final ridge's input)."""
    if depth is None:
        depth = model.depth
    if not 1 <= depth <= model.depth:
        raise ValueError(f"depth must be in 1..{model.depth}")
    cur = np.asarray(x, dtype=float)
    if cur.ndim != 2 or cur.shape[1] != model.input_dim:
        raise ValueError(f"expected {model.input_dim} input columns")
    for layer in model.layers[:depth]:
        k_blocks, p, n_pen = layer.betas.shape
        nxt = np.empty((cur.shape[0], k_blocks * n_pen))
        for a, b in group_bounds(k_blocks, p):
            z = _group_features(layer.weights, layer.biases, cur, a, b, p)
            np.divide(_grid_predictions(z, layer.betas[a:b]),
                      layer.scales[a:b].ravel(),
                      out=nxt[:, a * n_pen:b * n_pen])
        cur = nxt
    return cur


def predict(model: DeepRidgeModel, x, depth: int | None = None) -> np.ndarray:
    """Predict labels using the stored final ridge for ``depth``.

    Layers beyond ``depth`` are never touched, so a deep model evaluates
    any stored shallower architecture directly.
    """
    if depth is None:
        depth = model.depth
    ff = model.final_at_depth(depth)
    rep = forward(model, x, depth)
    return ridge_predict(ff.fit, rep)[:, ff.lambda_star_index]


def select_depth(model: DeepRidgeModel, split: DataSplit | None = None) -> int:
    """Depth with the lowest validation MSE; ties go to the smaller depth.

    With no ``split``, the validation scores stored at training time are
    compared; otherwise each stored depth is re-evaluated on the split's
    validation part.
    """
    if len(model.final_fits) < model.depth:
        raise ValueError("per-depth final fits absent; train with "
                         "per_depth_final=True")
    depths = [ff.depth for ff in model.final_fits]
    if split is None:
        scores = [float(ff.valid_mse[ff.lambda_star_index])
                  for ff in model.final_fits]
    else:
        scores = [
            float(np.mean((predict(model, split.x_valid, d) - split.y_valid) ** 2))
            for d in depths
        ]
    return depths[int(np.argmin(scores))]


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
        if np.any(gammas <= 0):
            raise ValueError("gamma_grid entries must be positive")
    else:
        gammas = rng.uniform(gamma_low, gamma_high, size=p_total)
    d = split.d
    weights = rng.standard_normal((d, p_total)) * np.sqrt(gammas)
    biases = rng.uniform(-bias_range, bias_range, size=p_total)
    block = FeatureBlock(weights=weights, biases=biases)

    z_train = apply_block(block, split.x_train)
    fit = fit_grid(z_train, split.y_train, lambdas)
    valid_mse = np.mean(
        (ridge_predict(fit, apply_block(block, split.x_valid))
         - split.y_valid[:, None]) ** 2, axis=0)
    star = int(np.argmin(valid_mse))
    test_pred = ridge_predict(fit, apply_block(block, split.x_test))[:, star]
    metrics = evaluate(test_pred, split.y_test, float(np.mean(split.y_train)))
    return BaselineResult(metrics=metrics,
                          lambda_star=float(fit.lambdas[star]),
                          lambda_star_index=star)


# --- serialization ---------------------------------------------------------
#
# A model file is a zip archive of .npy payloads plus a JSON header. Entries
# are written in sorted order with fixed timestamps and no compression, so
# an identical model always produces identical bytes.


def _npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
    return buf.getvalue()


def _write_deterministic_zip(path, entries: dict) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED) as zf:
            for name in sorted(entries):
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                zf.writestr(info, entries[name])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_model(model: DeepRidgeModel, path) -> None:
    """Serialize a trained model: a header plus five arrays per layer."""
    cfg = model.config
    header = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "library_version": __version__,
        "config": {
            "depth": cfg.depth, "blocks": cfg.blocks,
            "features_per_block": cfg.features_per_block,
            "lambda_grid": list(cfg.lambda_grid),
            "gamma_low": cfg.gamma_low, "gamma_high": cfg.gamma_high,
            "gamma_grid": list(cfg.gamma_grid) if cfg.gamma_grid else None,
            "bias_range": cfg.bias_range, "seed": cfg.seed,
            "per_depth_final": cfg.per_depth_final,
        },
        "input_dim": model.input_dim,
        "layer_modes": [list(layer.modes) for layer in model.layers],
        "final_fits": [
            {"depth": ff.depth, "lambda_star_index": ff.lambda_star_index,
             "mode": ff.fit.mode}
            for ff in model.final_fits
        ],
    }
    entries = {
        "header.json": json.dumps(header, sort_keys=True, indent=1).encode(),
    }
    for m, layer in enumerate(model.layers, start=1):
        for name in ("weights", "biases", "gammas", "betas", "scales"):
            entries[f"layer{m}.{name}.npy"] = _npy_bytes(getattr(layer, name))
    for ff in model.final_fits:
        entries[f"final{ff.depth}.betas.npy"] = _npy_bytes(ff.fit.betas)
        entries[f"final{ff.depth}.valid_mse.npy"] = _npy_bytes(ff.valid_mse)
    _write_deterministic_zip(path, entries)


def load_model(path) -> DeepRidgeModel:
    """Load a model written by :func:`save_model`.

    Every array's shape and dtype is checked against the header, so a
    damaged or inconsistent file raises :class:`ModelFormatError`.
    """
    try:
        with zipfile.ZipFile(path) as zf:
            names = set(zf.namelist())
            if "header.json" not in names:
                raise ModelFormatError(f"{path}: corrupt model file (no header)")
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
                    raise ModelFormatError(f"{path}: corrupt model file "
                                           f"(missing {name})")
                with zf.open(name) as f:
                    arr = np.lib.format.read_array(f)
                if arr.dtype != np.float64 or arr.shape != shape:
                    raise ModelFormatError(
                        f"{path}: corrupt model file ({name} is {arr.dtype} "
                        f"{arr.shape}, expected float64 {shape})")
                return arr

            cfg = NetConfig(**{
                **header["config"],
                "lambda_grid": tuple(header["config"]["lambda_grid"]),
                "gamma_grid": (tuple(header["config"]["gamma_grid"])
                               if header["config"]["gamma_grid"] else None),
            })
            lam = np.asarray(cfg.lambda_grid, dtype=float)
            k_blocks, p = cfg.blocks, cfg.features_per_block
            n_pen, width = cfg.n_penalties, cfg.layer_width
            input_dim = int(header["input_dim"])
            layers = []
            for m in range(1, cfg.depth + 1):
                shapes = {
                    "weights": (input_dim if m == 1 else width, k_blocks * p),
                    "biases": (k_blocks * p,),
                    "gammas": (k_blocks,),
                    "betas": (k_blocks, p, n_pen),
                    "scales": (k_blocks, n_pen),
                }
                modes = tuple(header["layer_modes"][m - 1])
                if (len(modes) != k_blocks
                        or not set(modes) <= {"primal", "dual"}):
                    raise ModelFormatError(
                        f"{path}: corrupt model file (layer {m} modes)")
                layers.append(LayerModel(
                    **{name: read_arr(f"layer{m}.{name}.npy", shape)
                       for name, shape in shapes.items()},
                    modes=modes))
            finals = []
            for spec in header["final_fits"]:
                d = spec["depth"]
                finals.append(FinalFit(
                    depth=d,
                    fit=RidgeGridFit(
                        lambdas=lam,
                        betas=read_arr(f"final{d}.betas.npy", (width, n_pen)),
                        mode=spec["mode"]),
                    lambda_star_index=spec["lambda_star_index"],
                    valid_mse=read_arr(f"final{d}.valid_mse.npy", (n_pen,))))
            return DeepRidgeModel(config=cfg, layers=tuple(layers),
                                  final_fits=tuple(finals),
                                  input_dim=input_dim)
    except ModelFormatError:
        raise
    except (zipfile.BadZipFile, KeyError, json.JSONDecodeError, TypeError,
            ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from exc
