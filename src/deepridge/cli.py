"""Command-line driver: run experiments from a JSON config, inspect models.

Usage:
    deepridge run <config.json> [--seed-override 0,1,2] [--threads N]
                  [--output-dir DIR]
    deepridge inspect <model-file>

Every run writes results.csv (deterministic given config, seeds and BLAS
thread count), timings.csv (wall times, inherently not reproducible) and
manifest.json (config hash, seeds for the kinds that draw, library
version, BLAS thread settings, ridge grid solver, numpy version and its
BLAS/LAPACK build). A run that trains networks also writes
diagnostics.json: for each split, the memory guard's estimate for its
network and the process's peak RSS after it, also not reproducible. The
FMNIST-style experiments read IDX files from the directory named by
$DEEPRIDGE_DATA_DIR or the config's data.data_dir.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__, dataio, network, ridge, seeding, theory

DATA_DIR_ENV = "DEEPRIDGE_DATA_DIR"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

KINDS = ("simulate", "fmnist", "ablation_k", "ablation_depth",
         "theory_curves")

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


def _has_type(value, kind) -> bool:
    # JSON booleans load as Python ints; only a bool field takes one
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def _float(name, value) -> float:
    try:   # JSON integers are unbounded, floats are not
        return float(value)
    except OverflowError:
        raise ConfigError(f"config field '{name}' holds a number too large "
                          f"for a float") from None


def _field(mapping, name, kind, default=None, required=False):
    if name not in mapping or mapping[name] is None:
        if required:
            raise ConfigError(f"config field '{name}' is required")
        return default
    value = mapping[name]
    if kind is float and _has_type(value, int):
        value = _float(name, value)
    if not _has_type(value, kind):
        raise ConfigError(f"config field '{name}' must be {kind.__name__}")
    return value


def _distinct(label, values) -> None:
    # a repeated seed, noise level, K or depth would train and report twice
    if len(set(values)) != len(values):
        raise ConfigError(f"{label} must not repeat an entry")


@contextlib.contextmanager
def _section(name):
    """Turn a library refusal into a ConfigError naming the config section;
    the library's message names the field."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config section '{name}': {exc}") from None


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


def _check_seeds(label, seeds) -> None:
    _distinct(label, seeds)
    for s in seeds:
        # a larger seed would alias another seed's keyed streams
        if not 0 <= s <= seeding.KEY_MAX:
            raise ConfigError(f"{label}: seed {s} is outside "
                              f"0..{seeding.KEY_MAX}")


def validate_config(cfg: dict, seed_override=None) -> dict:
    """The checked config, with defaults filled in; ``seed_override``,
    if given, replaces its seeds."""
    kind = _field(cfg, "kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError(f"config field 'kind' must be one of {KINDS}")
    seeds = None
    if kind != "theory_curves":   # the risk curves draw nothing
        seeds = _field(cfg, "seeds", list, required=True)
        if len(seeds) == 0:
            raise ConfigError("config field 'seeds' must be a non-empty list")
        if not all(_has_type(s, int) for s in seeds):
            raise ConfigError("config field 'seeds' must contain integers")
        _check_seeds("config field 'seeds'", seeds)
    if seed_override:
        if seeds is None:
            raise ConfigError(f"--seed-override does not apply to kind "
                              f"'{kind}', which draws nothing")
        _check_seeds("--seed-override", seed_override)
        seeds = seed_override
    model = _field(cfg, "model", dict, default={})
    data = _field(cfg, "data", dict, default={})
    ablation = _field(cfg, "ablation", dict, default={})
    theory_cfg = _field(cfg, "theory", dict, default={})
    limits = _field(cfg, "limits", dict, default={})
    out = {
        "kind": kind,
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
            "noise_levels": _field(
                data, "noise_levels", list,
                default=[0, 1, 2] if kind == "fmnist" else list(range(1, 10))),
            "pair_index": _field(data, "pair_index", int, default=0),
            "per_class_cap": _field(data, "per_class_cap", int, default=2000),
            "data_dir": _field(data, "data_dir", str, default=None),
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
    for section, name in (("data", "noise_levels"), ("ablation", "k_values"),
                          ("ablation", "depths")):
        values = out[section][name]
        if not values or not all(_has_type(v, int) and v >= 0 for v in values):
            raise ConfigError(
                f"config field '{name}' must be a non-empty list of "
                f"non-negative integers")
        _distinct(f"config field '{name}'", values)
    for section, name in (("model", "lambda_grid"), ("model", "gamma_grid"),
                          ("theory", "c_grid"), ("data", "noise_levels")):
        for v in out[section][name] or ():
            if _has_type(v, int):
                _float(name, v)
    pk_total = out["ablation"]["pk_total"]
    for k in out["ablation"]["k_values"]:
        if k < 1 or pk_total % k != 0:
            raise ConfigError(f"config field 'k_values': pk_total={pk_total} "
                              f"is not divisible by K={k}")
    if min(out["ablation"]["depths"]) < 1:
        raise ConfigError("config field 'depths' must be >= 1")
    if out["data"]["activation"] not in ("relu", "sigmoid"):
        raise ConfigError("config field 'activation' must be relu or sigmoid")
    with _section("limits"):   # NaN or inf would pass any guard
        seeding.check_real("max_memory_gb", out["limits"]["max_memory_gb"], 0)
    if seeds is not None:
        out["seeds"] = [int(s) for s in seeds]
    return out


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _net_config(model_cfg: dict, seed: int, **overrides) -> network.NetConfig:
    try:
        return network.NetConfig(**{**model_cfg, **overrides}, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model config: {exc}")


def _check_memory(floats: int, max_memory_gb: float, reduce: str) -> float:
    """An estimated peak of ``floats`` float64s in GB; aborts before any
    large allocation when it exceeds the limit, naming the settings to
    ``reduce``. The exact byte count is compared, as it may pass a float's
    range."""
    est = 8 * floats
    est_gb = est / 1e9 if est < 1e300 else float("inf")
    if est > max_memory_gb * 1e9:
        raise ConfigError(
            f"estimated memory {est_gb:.1f} GB exceeds limits.max_memory_gb="
            f"{max_memory_gb}; reduce {reduce}, or raise the limit")
    return est_gb


def _check_resources(n_total: int, n_train: int, d: int,
                     cfg: network.NetConfig, threads: int,
                     max_memory_gb: float, baseline: bool = False) -> float:
    """Estimated peak memory of a run (:func:`network.peak_floats`) in GB,
    through :func:`_check_memory`."""
    return _check_memory(
        network.peak_floats(cfg, n_total, n_train, d, threads, baseline),
        max_memory_gb, "blocks/features_per_block/depth or per_class_cap")


def _simulated(data_cfg: dict):
    """Per seed: the split at each noise level."""
    return lambda seed: lambda level: dataio.simulate_single_neuron(
        dataio.SimConfig(n=data_cfg["n"], d=data_cfg["d"],
                         noise_std=0.1 * level,
                         activation=data_cfg["activation"], seed=seed))


def _image_pairs(data_cfg: dict):
    """As :func:`_simulated`, for a binary pair of the IDX image set."""
    data_dir = data_cfg["data_dir"] or os.environ.get(DATA_DIR_ENV)
    if not data_dir:
        raise ConfigError(
            f"no data directory: set ${DATA_DIR_ENV} or config data.data_dir")
    paths = {}
    for key, base in IDX_BASENAMES.items():
        path = os.path.join(data_dir, base)
        found = [p for p in (path, path + ".gz") if os.path.exists(p)]
        if not found:
            raise ConfigError(f"missing data file {base}[.gz] in {data_dir}")
        paths[key] = found[0]
    train_x, train_y = dataio.load_idx_pair(paths["train_images"],
                                            paths["train_labels"])
    test_x, test_y = dataio.load_idx_pair(paths["test_images"],
                                          paths["test_labels"])

    def source(seed):
        base = dataio.make_binary_pair(
            train_x, train_y, test_x, test_y, data_cfg["pair_index"],
            per_class_cap=data_cfg["per_class_cap"], seed=seed)
        return lambda level: dataio.add_feature_noise(base, level, seed)
    return source


def _experiments(cfg: dict, threads: int) -> list:
    """Train and score every seed, network, noise level and reported depth.

    Writes results.csv, timings.csv, diagnostics.json and any saved
    models; returns their paths. First, before any output, it finds the
    splits' sizes (a simulated split's are the config's, an image split's
    the first split's), builds each network's NetConfig and runs the memory
    guard once per network: no split's size depends on the seed or level.
    """
    kind, data_cfg, ablation = cfg["kind"], cfg["data"], cfg["ablation"]
    if kind == "fmnist":
        source = _image_pairs(data_cfg)
        model_prefix = f"model_pair{data_cfg['pair_index']}"
        with _section("data"):
            first = source(cfg["seeds"][0])(data_cfg["noise_levels"][0])
        n_train, d = first.x_train.shape
        n_total = n_train + len(first.x_valid) + len(first.x_test)
        del first
    else:
        source, model_prefix = _simulated(data_cfg), "model"
        n_total, n_train, d = data_cfg["n"], data_cfg["n"] // 3, data_cfg["d"]
        with _section("data"):
            dataio.SimConfig(n=n_total, d=d, noise_std=0.0)   # checks n, d
    flat_kind = kind in ("simulate", "fmnist")
    baseline = flat_kind and cfg["baseline"]
    save_models = flat_kind and cfg["save_models"]
    # each network's NetConfig overrides and the depths it reports
    if kind == "ablation_k":
        pk_total = ablation["pk_total"]
        variants = [({"blocks": k, "features_per_block": pk_total // k}, None)
                    for k in ablation["k_values"]]
    elif kind == "ablation_depth":
        depths = sorted(ablation["depths"])
        variants = [({"depth": depths[-1]}, depths)]
    else:
        variants = [({}, None)]
    networks = []
    for overrides, depths in variants:
        net_cfg = _net_config(cfg["model"], cfg["seeds"][0], **overrides)
        est_gb = _check_resources(n_total, n_train, d, net_cfg,
                                  threads, cfg["limits"]["max_memory_gb"],
                                  baseline)
        networks.append((net_cfg, depths, est_gb))

    os.makedirs(cfg["output_dir"], exist_ok=True)
    rows, timings, outputs, diagnostics = [], [], [], []

    def add(key, metrics, wall):
        rows.append(key + tuple(
            "" if v is None else repr(float(v))
            for v in (metrics.mse, metrics.one_minus_r2, metrics.accuracy)))
        timings.append(key + (f"{wall:.3f}",))

    for seed in cfg["seeds"]:
        split_at = source(seed)
        for planned, depths, est_gb in networks:
            net_cfg = dataclasses.replace(planned, seed=seed)
            for level in data_cfg["noise_levels"]:
                split = split_at(level)
                y_mean = float(np.mean(split.y_train))
                t0 = time.perf_counter()
                model = network.train(split, net_cfg, n_threads=threads)
                train_s = time.perf_counter() - t0
                for depth in depths or (net_cfg.depth,):
                    t0 = time.perf_counter()
                    metrics = network.evaluate(
                        network.predict(model, split.x_test, depth,
                                        n_threads=threads),
                        split.y_test, y_mean)
                    add((seed, "deepridge", level, net_cfg.blocks, depth),
                        metrics, train_s + time.perf_counter() - t0)
                if save_models:
                    path = os.path.join(
                        cfg["output_dir"],
                        f"{model_prefix}_seed{seed}_noise{level}.drz")
                    network.save_model(model, path)
                    outputs.append(path)
                if baseline:
                    t0 = time.perf_counter()
                    res = network.flat_random_feature_baseline(
                        split, net_cfg.layer_width, net_cfg.lambda_grid,
                        gamma_low=net_cfg.gamma_low,
                        gamma_high=net_cfg.gamma_high,
                        gamma_grid=net_cfg.gamma_grid,
                        bias_range=net_cfg.bias_range, seed=seed)
                    add((seed, "flat_rf", level, "", ""), res.metrics,
                        time.perf_counter() - t0)
                diagnostics.append({
                    "seed": seed, "noise_level": level, "k": net_cfg.blocks,
                    "depth": net_cfg.depth, "guard_estimate_mb": est_gb * 1e3,
                    "process_peak_rss_mb": _peak_rss_mb()})

    for name, columns, table in (("results.csv", RESULT_COLUMNS, rows),
                                 ("timings.csv", TIMING_COLUMNS, timings)):
        path = os.path.join(cfg["output_dir"], name)
        dataio.write_csv(path, columns, table)
        outputs.append(path)
    path = os.path.join(cfg["output_dir"], "diagnostics.json")
    with dataio.atomic_path(path) as tmp, open(tmp, "w") as f:
        json.dump({"splits": diagnostics}, f, indent=1)
    outputs.append(path)
    return outputs


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def run(config_path, seed_override=None, threads: int = 1,
        output_dir=None) -> dict:
    """Execute the experiment described by a config file; returns the manifest.

    Every check runs before the output directory is made, so a refused
    config writes nothing.
    """
    try:
        threads = seeding.check_count("--threads", threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = validate_config(load_config(config_path), seed_override)
    if output_dir:
        cfg["output_dir"] = output_dir
    if cfg["kind"] == "theory_curves":
        tc = cfg["theory"]
        c_grid = (np.geomspace(0.1, 10.0, 25) if tc["c_grid"] is None
                  else tc["c_grid"])
        _check_memory(theory.curve_floats(len(c_grid), tc["n_groups"]),
                      cfg["limits"]["max_memory_gb"],
                      "n_groups or the length of c_grid")
        with _section("theory"):
            table = theory.risk_curves(theory.default_curve_params(
                tc["n_groups"], tc["b_low"], tc["b_high"]), c_grid)
        os.makedirs(cfg["output_dir"], exist_ok=True)
        outputs = [os.path.join(cfg["output_dir"], "theory_curves.csv")]
        theory.write_risk_curves_csv(table, outputs[0])
    else:
        outputs = _experiments(cfg, threads)

    manifest = {
        "kind": cfg["kind"],
        "config_hash": config_hash(cfg),
        "config": cfg,
        "library_version": __version__,
        # feature GEMMs sum in an order set by the BLAS thread count, so
        # results.csv reproduces only at the same settings
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        # the band and eigh grid solves agree to rounding, not bit for bit,
        # so results.csv reproduces only on the same path, and on the path's
        # own LAPACK build
        "grid_solver": ridge.grid_solver(),
        "numpy_version": np.__version__,
        "blas_build": blas_build(),
        "outputs": [os.path.basename(p) for p in sorted(outputs)],
    }
    if "seeds" in cfg:
        manifest["seeds"] = cfg["seeds"]
    manifest_path = os.path.join(cfg["output_dir"], "manifest.json")
    with dataio.atomic_path(manifest_path) as tmp, open(tmp, "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
    return manifest


def blas_build() -> dict:
    """numpy's BLAS/LAPACK build entry (name, version, configuration)."""
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]


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
    for m, layer in enumerate(model.layers, start=1):
        gammas = network._block_gammas(cfg, m)
        ranks = layer.ranks
        lines.append(
            f"layer {m} gammas: min={gammas.min():.4f} "
            f"mean={gammas.mean():.4f} max={gammas.max():.4f}")
        lines.append(
            f"layer {m} width:  {ranks.sum()} of K*L={cfg.layer_width} "
            f"columns (block ranks r_k {ranks.min()}..{ranks.max()})")
    # a selected penalty on either end of a grid of several may lie past it
    last = cfg.n_penalties - 1
    edges = {0, last} if last > 0 else set()
    for m, ff in enumerate(model.final_fits, start=1):
        star = ff.lambda_star_index
        edge = ", at the edge of the grid" if star in edges else ""
        lines.append(
            f"depth {m} validation MSE at its lambda*: "
            f"{float(ff.valid_mse[star]):.6g} (lambda*="
            f"{cfg.lambda_grid[star]:g}, index {star} of 0..{last}{edge})")
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
    except (ValueError, OSError, theory.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
