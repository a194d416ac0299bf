"""Command-line driver: run experiments from a JSON config, inspect models.

Usage:
    deepridge run <config.json> [--seed-override 0,1,2] [--threads N]
                  [--output-dir DIR]
    deepridge inspect <model-file>

Every run writes results.csv (deterministic given config and seeds),
timings.csv (wall times, inherently not reproducible) and manifest.json
(config hash, seeds, library version). The FMNIST-style experiments read
IDX files from the directory named by $DEEPRIDGE_DATA_DIR or the config's
data.data_dir.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, dataio, network, theory

DATA_DIR_ENV = "DEEPRIDGE_DATA_DIR"

KINDS = ("simulate", "fmnist", "ablation_k", "ablation_depth",
         "theory_curves", "baseline")

RESULT_COLUMNS = ("seed", "method", "noise_level", "k", "m",
                  "mse", "one_minus_r2", "accuracy")
TIMING_COLUMNS = ("seed", "method", "noise_level", "k", "m", "wall_time_s")

# JSON type of every NetConfig field a config's "model" section may set; the
# defaults and the checks are NetConfig's own
MODEL_FIELDS = {
    "depth": int, "blocks": int, "features_per_block": int,
    "lambda_grid": list, "gamma_low": float, "gamma_high": float,
    "gamma_grid": list, "bias_range": float,
}
_NET_DEFAULTS = network.NetConfig()

IDX_BASENAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


def _field(mapping, name, kind, default=None, required=False):
    if name not in mapping or mapping[name] is None:
        if required:
            raise ConfigError(f"config field '{name}' is required")
        return default
    value = mapping[name]
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field '{name}' must be {kind.__name__}")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def validate_config(cfg: dict) -> dict:
    kind = _field(cfg, "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError(f"config field 'kind' must be one of {KINDS}")
    seeds = _field(cfg, "seeds", list, required=True)
    if len(seeds) == 0:
        raise ConfigError("config field 'seeds' must be a non-empty list")
    if not all(isinstance(s, int) for s in seeds):
        raise ConfigError("config field 'seeds' must contain integers")
    model = _field(cfg, "model", dict, default={})
    data = _field(cfg, "data", dict, default={})
    ablation = _field(cfg, "ablation", dict, default={})
    theory_cfg = _field(cfg, "theory", dict, default={})
    limits = _field(cfg, "limits", dict, default={})
    out = {
        "kind": kind,
        "seeds": [int(s) for s in seeds],
        "output_dir": _field(cfg, "output_dir", str, default="."),
        "save_models": bool(_field(cfg, "save_models", bool, default=False)),
        "baseline": bool(_field(cfg, "baseline", bool, default=True)),
        "model": {
            name: _field(model, name, json_type,
                         default=getattr(_NET_DEFAULTS, name))
            for name, json_type in MODEL_FIELDS.items()
        },
        "data": {
            "n": _field(data, "n", int, default=3000),
            "d": _field(data, "d", int, default=50),
            "activation": _field(data, "activation", str, default="relu"),
            "noise_levels": _field(data, "noise_levels", list,
                                   default=_default_noise_levels(kind)),
            "pair_index": _field(data, "pair_index", int, default=0),
            "per_class_cap": _field(data, "per_class_cap", int, default=2000),
            "data_dir": _field(data, "data_dir", str, default=None),
            "p_total": _field(data, "p_total", int, default=None),
        },
        "ablation": {
            "k_values": _field(ablation, "k_values", list,
                               default=[1, 50, 100, 200, 500]),
            "pk_total": _field(ablation, "pk_total", int, default=50000),
            "depths": _field(ablation, "depths", list,
                             default=[1, 2, 3, 4, 5]),
        },
        "theory": {
            "n_groups": _field(theory_cfg, "n_groups", int, default=10),
            "b_low": _field(theory_cfg, "b_low", float, default=0.5),
            "b_high": _field(theory_cfg, "b_high", float, default=1.5),
            "c_grid": _field(theory_cfg, "c_grid", list, default=None),
        },
        "limits": {
            "max_memory_gb": _field(limits, "max_memory_gb", float,
                                    default=4.0),
        },
    }
    for name in ("noise_levels", "k_values", "depths"):
        section = out["data"] if name == "noise_levels" else out["ablation"]
        values = section[name]
        if not values or not all(isinstance(v, int) and v >= 0 for v in values):
            raise ConfigError(
                f"config field '{name}' must be a non-empty list of "
                f"non-negative integers")
    if out["data"]["p_total"] is not None and out["data"]["p_total"] < 1:
        raise ConfigError("config field 'p_total' must be at least 1")
    if out["data"]["activation"] not in ("relu", "sigmoid"):
        raise ConfigError("config field 'activation' must be relu or sigmoid")
    return out


def _default_noise_levels(kind: str):
    return [0, 1, 2] if kind == "fmnist" else list(range(1, 10))


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _net_config(model_cfg: dict, seed: int, **overrides) -> network.NetConfig:
    try:
        return network.NetConfig(**{**model_cfg, **overrides}, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model config: {exc}")


def _ridge_fit_floats(rows: int, cols: int) -> int:
    # one ridge fit on a (rows, cols) Z: the Gram of its smaller side, the
    # Gram's eigenvectors, and one (cols, r) product (Z'V on the dual path)
    r = min(rows, cols)
    return 2 * r * r + cols * r


def _check_resources(n_total: int, n_train: int, d: int,
                     cfg: network.NetConfig, threads: int,
                     max_memory_gb: float, baseline_width: int = 0,
                     train_network: bool = True) -> float:
    """Estimated peak memory of a run, in GB.

    Aborts before any large allocation when the estimate exceeds the limit.
    The network (when ``train_network``) and the flat baseline over
    ``baseline_width`` features (when non-zero) run one after the other, so
    the larger of the two counts. Each of the ``threads`` workers holds one
    transform group's weight buffer and features and one block's ridge fit;
    input weights are redrawn per group and never kept.
    """
    n_pen = cfg.n_penalties
    network_floats = baseline_floats = 0
    if train_network:
        kl, p = cfg.layer_width, cfg.features_per_block
        groups = network.group_bounds(cfg.blocks, p)
        group_columns = (groups[0][1] - groups[0][0]) * p
        workers = min(max(threads, 1), len(groups))
        widest_input = kl if cfg.depth > 1 else d
        network_floats = (
            n_total * (d + 2 * kl)   # stacked inputs; a layer's input, output
            + cfg.depth * (cfg.blocks * p + kl) * n_pen   # coefficients
            + workers * (widest_input * (group_columns + 2 * p)   # weight
                         # buffer, one block's draw; one group's features
                         + n_total * group_columns
                         + _ridge_fit_floats(n_train, p))
            + _ridge_fit_floats(n_train, kl))   # final ridge
    if baseline_width:
        baseline_floats = (
            (n_total + 2 * d + n_pen) * baseline_width   # features, weights,
                                                         # coefficients
            + _ridge_fit_floats(n_train, baseline_width))
    floats = n_total * d + max(network_floats, baseline_floats)
    est_gb = 8.0 * floats / 1e9
    if est_gb > max_memory_gb:
        raise ConfigError(
            f"estimated memory {est_gb:.1f} GB exceeds limits.max_memory_gb="
            f"{max_memory_gb}; reduce blocks/features_per_block/depth, "
            f"p_total or per_class_cap, or raise the limit")
    return est_gb


def _write_csv(path, columns, rows) -> None:
    with dataio.atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _metric_cells(metrics: network.Metrics):
    return (_fmt(metrics.mse), _fmt(metrics.one_minus_r2),
            _fmt(metrics.accuracy))


def _sim_split(data_cfg: dict, level: int, seed: int) -> dataio.DataSplit:
    return dataio.simulate_single_neuron(dataio.SimConfig(
        n=data_cfg["n"], d=data_cfg["d"], noise_std=0.1 * level,
        activation=data_cfg["activation"], seed=seed))


def _load_fmnist(data_cfg: dict):
    data_dir = data_cfg["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise ConfigError(
            f"no data directory: set ${DATA_DIR_ENV} or config data.data_dir")
    paths = {}
    for key, base in IDX_BASENAMES.items():
        for candidate in (base, base + ".gz"):
            full = os.path.join(data_dir, candidate)
            if os.path.exists(full):
                paths[key] = full
                break
        else:
            raise ConfigError(f"missing data file {base}[.gz] in {data_dir}")
    train = dataio.load_idx_pair(paths["train_images"], paths["train_labels"])
    test = dataio.load_idx_pair(paths["test_images"], paths["test_labels"])
    return train, test


class _Run:
    """Accumulates result and timing rows for one experiment run."""

    def __init__(self, cfg, threads):
        self.cfg = cfg
        self.threads = threads
        self.rows = []
        self.timings = []
        self.outputs = []

    def add(self, seed, method, level, k, m, metrics, wall):
        key = (seed, method, level, "" if k is None else k,
               "" if m is None else m)
        self.rows.append(key + _metric_cells(metrics))
        self.timings.append(key + (f"{wall:.3f}",))

    def train_and_score(self, split, net_cfg, seed, level, save_tag=None):
        t0 = time.perf_counter()
        model = network.train(split, net_cfg, n_threads=self.threads)
        metrics = network.evaluate(
            network.predict(model, split.x_test, n_threads=self.threads),
            split.y_test, float(np.mean(split.y_train)))
        wall = time.perf_counter() - t0
        self.add(seed, "deepridge", level, net_cfg.blocks, net_cfg.depth,
                 metrics, wall)
        if save_tag and self.cfg["save_models"]:
            path = os.path.join(self.cfg["output_dir"], f"{save_tag}.drz")
            network.save_model(model, path)
            self.outputs.append(path)
        return model

    def baseline_width(self, net_cfg) -> int:
        """Features of the flat baseline this run fits; 0 if it fits none."""
        kind = self.cfg["kind"]
        if kind == "baseline":
            p_total = self.cfg["data"]["p_total"]
            return net_cfg.layer_width if p_total is None else p_total
        if kind in ("simulate", "fmnist") and self.cfg["baseline"]:
            return net_cfg.layer_width
        return 0

    def check_resources(self, net_cfg, n_total, n_train, d):
        _check_resources(
            n_total, n_train, d, net_cfg, self.threads,
            self.cfg["limits"]["max_memory_gb"],
            baseline_width=self.baseline_width(net_cfg),
            train_network=self.cfg["kind"] != "baseline")

    def baseline(self, split, net_cfg, seed, level):
        p_total = self.baseline_width(net_cfg)
        if not p_total:
            return
        t0 = time.perf_counter()
        res = network.flat_random_feature_baseline(
            split, p_total, net_cfg.lambda_grid,
            gamma_low=net_cfg.gamma_low, gamma_high=net_cfg.gamma_high,
            gamma_grid=net_cfg.gamma_grid, bias_range=net_cfg.bias_range,
            seed=seed)
        wall = time.perf_counter() - t0
        self.add(seed, "flat_rf", level, None, None, res.metrics, wall)


def run(config_path, seed_override=None, threads: int = 1,
        output_dir=None) -> dict:
    """Execute the experiment described by a config file; returns the manifest."""
    cfg = validate_config(load_config(config_path))
    if seed_override:
        cfg["seeds"] = list(seed_override)
    if output_dir:
        cfg["output_dir"] = output_dir
    os.makedirs(cfg["output_dir"], exist_ok=True)
    kind, data_cfg = cfg["kind"], cfg["data"]
    state = _Run(cfg, threads)

    def check_sim_resources(net_cfg):
        # a simulated split is three equal parts of data.n rows
        state.check_resources(net_cfg, data_cfg["n"], data_cfg["n"] // 3,
                              data_cfg["d"])

    if kind in ("simulate", "baseline"):
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed)
            check_sim_resources(net_cfg)
            for level in data_cfg["noise_levels"]:
                split = _sim_split(data_cfg, level, seed)
                if kind == "simulate":
                    state.train_and_score(split, net_cfg, seed, level,
                                          save_tag=f"model_seed{seed}_noise{level}")
                state.baseline(split, net_cfg, seed, level)

    elif kind == "fmnist":
        (train_x, train_y), (test_x, test_y) = _load_fmnist(data_cfg)
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed)
            base = dataio.make_binary_pair(
                train_x, train_y, test_x, test_y, data_cfg["pair_index"],
                per_class_cap=data_cfg["per_class_cap"], seed=seed)
            n_train = base.x_train.shape[0]
            n_total = n_train + base.x_valid.shape[0] + base.x_test.shape[0]
            state.check_resources(net_cfg, n_total, n_train, base.d)
            for level in data_cfg["noise_levels"]:
                split = dataio.add_feature_noise(base, level, seed)
                state.train_and_score(
                    split, net_cfg, seed, level,
                    save_tag=f"model_pair{data_cfg['pair_index']}"
                             f"_seed{seed}_noise{level}")
                state.baseline(split, net_cfg, seed, level)

    elif kind == "ablation_k":
        pk_total = cfg["ablation"]["pk_total"]
        for seed in cfg["seeds"]:
            for k in cfg["ablation"]["k_values"]:
                if k < 1 or pk_total % k != 0:
                    raise ConfigError(
                        f"config field 'k_values': pk_total={pk_total} is "
                        f"not divisible by K={k}")
                net_cfg = _net_config(cfg["model"], seed, blocks=k,
                                      features_per_block=pk_total // k)
                check_sim_resources(net_cfg)
                for level in data_cfg["noise_levels"]:
                    split = _sim_split(data_cfg, level, seed)
                    state.train_and_score(split, net_cfg, seed, level)

    elif kind == "ablation_depth":
        depths = sorted(cfg["ablation"]["depths"])
        if depths[0] < 1:
            raise ConfigError("config field 'depths' must be >= 1")
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed, depth=depths[-1])
            check_sim_resources(net_cfg)
            for level in data_cfg["noise_levels"]:
                split = _sim_split(data_cfg, level, seed)
                t0 = time.perf_counter()
                model = network.train(split, net_cfg, n_threads=threads)
                wall = time.perf_counter() - t0
                y_mean = float(np.mean(split.y_train))
                for depth in depths:
                    metrics = network.evaluate(
                        network.predict(model, split.x_test, depth,
                                        n_threads=threads),
                        split.y_test, y_mean)
                    state.add(seed, "deepridge", level, net_cfg.blocks,
                              depth, metrics, wall)

    elif kind == "theory_curves":
        tc = cfg["theory"]
        params = theory.default_curve_params(tc["n_groups"], tc["b_low"],
                                             tc["b_high"])
        c_grid = (np.asarray(tc["c_grid"], dtype=float) if tc["c_grid"]
                  else np.geomspace(0.1, 10.0, 25))
        table = theory.risk_curves(params, c_grid)
        path = os.path.join(cfg["output_dir"], "theory_curves.csv")
        theory.write_risk_curves_csv(table, path)
        state.outputs.append(path)

    if kind != "theory_curves":
        results_path = os.path.join(cfg["output_dir"], "results.csv")
        _write_csv(results_path, RESULT_COLUMNS, state.rows)
        state.outputs.append(results_path)
        timings_path = os.path.join(cfg["output_dir"], "timings.csv")
        _write_csv(timings_path, TIMING_COLUMNS, state.timings)
        state.outputs.append(timings_path)

    manifest = {
        "kind": kind,
        "config_hash": config_hash(cfg),
        "config": cfg,
        "seeds": cfg["seeds"],
        "library_version": __version__,
        "outputs": [os.path.basename(p) for p in sorted(state.outputs)],
    }
    manifest_path = os.path.join(cfg["output_dir"], "manifest.json")
    with dataio.atomic_path(manifest_path) as tmp, open(tmp, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
    return manifest


def inspect(model_path) -> str:
    """Summarize a serialized model as printable text."""
    model = network.load_model(model_path)
    cfg = model.config
    lines = [
        f"model file:      {model_path}",
        f"format:          {network.MODEL_FORMAT} v{network.MODEL_FORMAT_VERSION}",
        f"depth:           {cfg.depth} layers, a final ridge after each",
        f"input width:     {model.input_dim}",
        f"blocks/layer:    K={cfg.blocks}, P={cfg.features_per_block}, "
        f"L={cfg.n_penalties}",
        f"bias range:      {cfg.bias_range}",
        f"seed:            {cfg.seed}",
    ]
    for m in range(1, cfg.depth + 1):
        gammas = network._block_gammas(cfg, m)
        lines.append(
            f"layer {m} gammas: min={gammas.min():.4f} "
            f"mean={gammas.mean():.4f} max={gammas.max():.4f}")
    lines.append(f"final penalty:   lambda*={model.final.lambda_star:g} "
                 f"(index {model.lambda_star_index})")
    for m, ff in enumerate(model.final_fits, start=1):
        lines.append(
            f"depth {m} validation MSE at its lambda*: "
            f"{float(ff.valid_mse[ff.lambda_star_index]):.6g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deepridge",
        description="Train layered random-feature ridge ensembles and "
                    "evaluate their asymptotic risk formulas.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed-override", default=None,
                       help="comma-separated seeds replacing the config's")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--output-dir", default=None)
    p_ins = sub.add_parser("inspect", help="summarize a serialized model")
    p_ins.add_argument("model")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            seeds = None
            if args.seed_override:
                try:
                    seeds = [int(s) for s in args.seed_override.split(",")]
                except ValueError:
                    raise ConfigError("--seed-override must be "
                                      "comma-separated integers")
            manifest = run(args.config, seed_override=seeds,
                           threads=args.threads, output_dir=args.output_dir)
            print(f"wrote {', '.join(manifest['outputs'])} to "
                  f"{manifest['config']['output_dir']}")
        else:
            print(inspect(args.model))
    except (ConfigError, network.ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
