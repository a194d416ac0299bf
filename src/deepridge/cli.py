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
import io
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
            "depth": _field(model, "depth", int, default=2),
            "blocks": _field(model, "blocks", int, default=500),
            "features_per_block": _field(model, "features_per_block", int,
                                         default=100),
            "lambda_grid": _field(model, "lambda_grid", list,
                                  default=list(network.DEFAULT_LAMBDA_GRID)),
            "gamma_low": _field(model, "gamma_low", float, default=0.25),
            "gamma_high": _field(model, "gamma_high", float, default=1.25),
            "gamma_grid": _field(model, "gamma_grid", list, default=None),
            "bias_range": _field(model, "bias_range", float, default=1.0),
            "per_depth_final": bool(_field(model, "per_depth_final", bool,
                                           default=True)),
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
    if out["data"]["activation"] not in ("relu", "sigmoid"):
        raise ConfigError("config field 'activation' must be relu or sigmoid")
    return out


def _default_noise_levels(kind: str):
    return [0, 1, 2] if kind == "fmnist" else list(range(1, 10))


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _net_config(model_cfg: dict, seed: int, **overrides) -> network.NetConfig:
    kwargs = {
        "depth": model_cfg["depth"],
        "blocks": model_cfg["blocks"],
        "features_per_block": model_cfg["features_per_block"],
        "lambda_grid": tuple(model_cfg["lambda_grid"]),
        "gamma_low": model_cfg["gamma_low"],
        "gamma_high": model_cfg["gamma_high"],
        "gamma_grid": (tuple(model_cfg["gamma_grid"])
                       if model_cfg["gamma_grid"] else None),
        "bias_range": model_cfg["bias_range"],
        "per_depth_final": model_cfg["per_depth_final"],
        "seed": seed,
    }
    kwargs.update(overrides)
    try:
        return network.NetConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid model config: {exc}")


def _check_resources(n_total: int, d: int, cfg: network.NetConfig,
                     max_memory_gb: float) -> None:
    # rough peak-array estimate; abort before any large allocation
    kl = cfg.layer_width
    p = cfg.features_per_block
    weight_floats = (d + max(cfg.depth - 1, 0) * kl) * p * cfg.blocks
    first, stop = network.group_bounds(cfg.blocks, p)[0]
    floats = (
        2 * n_total * kl                 # current + next representations
        + n_total * (stop - first) * p   # one transform group's features
        + weight_floats                  # stored input weights
        + max(p, kl) ** 2                # largest Gram
        + cfg.blocks * p * cfg.n_penalties    # coefficients
    )
    est_gb = 8.0 * floats / 1e9
    if est_gb > max_memory_gb:
        raise ConfigError(
            f"estimated memory {est_gb:.1f} GB exceeds limits.max_memory_gb="
            f"{max_memory_gb}; reduce blocks/features_per_block/depth or "
            f"per_class_cap, or raise the limit")


def _write_csv(path, columns, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as f:
            f.write(buf.getvalue())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
        metrics = network.evaluate(network.predict(model, split.x_test),
                                   split.y_test, float(np.mean(split.y_train)))
        wall = time.perf_counter() - t0
        self.add(seed, "deepridge", level, net_cfg.blocks, net_cfg.depth,
                 metrics, wall)
        if save_tag and self.cfg["save_models"]:
            path = os.path.join(self.cfg["output_dir"], f"{save_tag}.drz")
            network.save_model(model, path)
            self.outputs.append(path)
        return model

    def baseline(self, split, net_cfg, seed, level, p_total=None,
                 force=False):
        if not (force or self.cfg["baseline"]):
            return
        if p_total is None:
            p_total = net_cfg.layer_width
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

    if kind in ("simulate", "baseline"):
        n_total, d = data_cfg["n"], data_cfg["d"]
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed)
            _check_resources(n_total, d, net_cfg,
                             cfg["limits"]["max_memory_gb"])
            for level in data_cfg["noise_levels"]:
                split = _sim_split(data_cfg, level, seed)
                if kind == "simulate":
                    state.train_and_score(split, net_cfg, seed, level,
                                          save_tag=f"model_seed{seed}_noise{level}")
                    state.baseline(split, net_cfg, seed, level)
                else:
                    state.baseline(split, net_cfg, seed, level,
                                   p_total=data_cfg["p_total"], force=True)

    elif kind == "fmnist":
        (train_x, train_y), (test_x, test_y) = _load_fmnist(data_cfg)
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed)
            base = dataio.make_binary_pair(
                train_x, train_y, test_x, test_y, data_cfg["pair_index"],
                per_class_cap=data_cfg["per_class_cap"], seed=seed)
            n_total = (base.x_train.shape[0] + base.x_valid.shape[0]
                       + base.x_test.shape[0])
            _check_resources(n_total, base.d, net_cfg,
                             cfg["limits"]["max_memory_gb"])
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
                _check_resources(data_cfg["n"], data_cfg["d"], net_cfg,
                                 cfg["limits"]["max_memory_gb"])
                for level in data_cfg["noise_levels"]:
                    split = _sim_split(data_cfg, level, seed)
                    state.train_and_score(split, net_cfg, seed, level)

    elif kind == "ablation_depth":
        depths = sorted(cfg["ablation"]["depths"])
        if depths[0] < 1:
            raise ConfigError("config field 'depths' must be >= 1")
        for seed in cfg["seeds"]:
            net_cfg = _net_config(cfg["model"], seed, depth=depths[-1],
                                  per_depth_final=True)
            _check_resources(data_cfg["n"], data_cfg["d"], net_cfg,
                             cfg["limits"]["max_memory_gb"])
            for level in data_cfg["noise_levels"]:
                split = _sim_split(data_cfg, level, seed)
                t0 = time.perf_counter()
                model = network.train(split, net_cfg, n_threads=threads)
                wall = time.perf_counter() - t0
                y_mean = float(np.mean(split.y_train))
                for depth in depths:
                    metrics = network.evaluate(
                        network.predict(model, split.x_test, depth),
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
    tmp = f"{manifest_path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            json.dump(manifest, f, sort_keys=True, indent=1)
        os.replace(tmp, manifest_path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return manifest


def inspect(model_path) -> str:
    """Summarize a serialized model as printable text."""
    model = network.load_model(model_path)
    cfg = model.config
    lines = [
        f"model file:      {model_path}",
        f"format:          {network.MODEL_FORMAT} v{network.MODEL_FORMAT_VERSION}",
        f"depth:           {cfg.depth} layers + final ridge",
        f"input width:     {model.input_dim}",
        f"blocks/layer:    K={cfg.blocks}, P={cfg.features_per_block}, "
        f"L={cfg.n_penalties}",
        f"bias range:      {cfg.bias_range}",
        f"seed:            {cfg.seed}",
    ]
    for m, layer in enumerate(model.layers, start=1):
        gammas = layer.gammas
        lines.append(
            f"layer {m} gammas: min={gammas.min():.4f} "
            f"mean={gammas.mean():.4f} max={gammas.max():.4f}")
    lines.append(f"final penalty:   lambda*={model.final.lambda_star:g} "
                 f"(index {model.lambda_star_index})")
    for ff in model.final_fits:
        lines.append(
            f"depth {ff.depth} validation MSE at its lambda*: "
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
