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

# the fields each config section takes, with their defaults, the root's
# under None. A missing or null field takes its default, and any other key
# is refused. The model section takes NetConfig's fields but its seed
FIELDS = {
    None: {"kind": None, "seeds": None, "output_dir": ".",
           "save_models": False, "baseline": True, "model": {}, "data": {},
           "ablation": {}, "theory": {}, "limits": {}},
    "model": {f.name: f.default for f in dataclasses.fields(network.NetConfig)
              if f.name != "seed"},
    "data": {"n": 3000, "d": 50, "activation": "relu",
             "noise_levels": None,   # [0, 1, 2] for fmnist, else 1..9
             "pair_index": 0, "per_class_cap": 2000, "data_dir": None},
    "ablation": {"k_values": [1, 50, 100, 200, 500], "pk_total": 50000,
                 "depths": [1, 2, 3, 4, 5]},
    "theory": {"n_groups": 10, "b_low": 0.5, "b_high": 1.5,
               "c_grid": None},   # 25 points, geomspace(0.1, 10)
    "limits": {"max_memory_gb": 4.0},
}

IDX_BASENAMES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@contextlib.contextmanager
def _section(name=None):
    """Turn a library refusal into a ConfigError naming the config section,
    if any; the library's message names the field or flag."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config section '{name}': {exc}" if name
                          else str(exc)) from None


def _typed(name, value, kind):
    # exact for these types: a JSON true is no str or dict, and 1 no bool
    if not isinstance(value, kind):
        raise ConfigError(f"config field '{name}' must be {kind.__name__}")
    return value


def _filled(section, given: dict) -> dict:
    """``given`` with each missing or null field of ``section`` at its
    default; refuses a key the section does not take."""
    fields = FIELDS[section]
    for key in given:
        if key not in fields:
            where = ("config root" if section is None
                     else f"config section '{section}'")
            raise ConfigError(f"{where} has no field {key!r}")
    return {name: default if given.get(name) is None else given[name]
            for name, default in fields.items()}


def _counts(name, values, low, high=None) -> list:
    """``values`` as a list of ints, if it is a non-empty list of distinct
    integers in ``low``..``high`` (:func:`seeding.check_count`)."""
    if not isinstance(values, list) or not values:
        raise ValueError(f"{name} must be a non-empty list")
    values = [seeding.check_count(f"{name} entry {v!r}", v, low, high)
              for v in values]
    # a repeated seed, noise level, K or depth would train and report twice
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat an entry")
    return values


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


def validate_config(cfg: dict, seed_override=None) -> dict:
    """The checked config, with defaults filled in; ``seed_override``,
    if given, replaces its seeds. Every field is checked whether or not
    the config's kind reads it, but theory_curves ignores the seeds."""
    out = _filled(None, cfg)
    kind = out["kind"]
    if kind not in KINDS:
        raise ConfigError(f"config field 'kind' must be one of {KINDS}")
    for name, json_type in (("output_dir", str), ("save_models", bool),
                            ("baseline", bool)):
        _typed(name, out[name], json_type)
    out.update({s: _filled(s, _typed(s, out[s], dict)) for s in FIELDS if s})
    if kind == "theory_curves":   # the risk curves draw nothing
        del out["seeds"]
        if seed_override is not None:
            raise ConfigError(f"--seed-override does not apply to kind "
                              f"'{kind}', which draws nothing")
    elif out["seeds"] is None:
        raise ConfigError("config field 'seeds' is required")
    else:
        with _section():
            out["seeds"] = _counts("seeds", out["seeds"], 0, seeding.KEY_MAX)
            if seed_override is not None:
                out["seeds"] = _counts("--seed-override", seed_override, 0,
                                       seeding.KEY_MAX)
    model, data, ablation = out["model"], out["data"], out["ablation"]
    with _section("model"):
        net = network.NetConfig(**model)
    out["model"] = {name: getattr(net, name) for name in model}
    if data["noise_levels"] is None:
        data["noise_levels"] = ([0, 1, 2] if kind == "fmnist"
                                else list(range(1, 10)))
    if data["data_dir"] is not None:
        _typed("data_dir", data["data_dir"], str)
    with _section("data"):
        dataio.SimConfig(n=data["n"], d=data["d"], noise_std=0.0,
                         activation=data["activation"])
        data["noise_levels"] = _counts("noise_levels", data["noise_levels"], 0)
        # a level past a float's range would overflow at its first draw
        seeding.check_real("noise_levels", data["noise_levels"])
        seeding.check_count("pair_index", data["pair_index"], 0, 9)
        seeding.check_count("per_class_cap", data["per_class_cap"])
    with _section("ablation"):
        pk_total = seeding.check_count("pk_total", ablation["pk_total"])
        ablation["k_values"] = _counts("k_values", ablation["k_values"], 1)
        ablation["depths"] = _counts("depths", ablation["depths"], 1,
                                     seeding.MAX_DEPTH)
        for k in ablation["k_values"]:
            if pk_total % k != 0:
                raise ValueError(f"pk_total={pk_total} is not divisible by "
                                 f"K={k} of k_values")
    tc = out["theory"]
    with _section("theory"):
        seeding.check_count("n_groups", tc["n_groups"])
        for name in ("b_low", "b_high"):
            tc[name] = seeding.check_real(name, tc[name], 0, many=False)
        if tc["c_grid"] is not None:
            tc["c_grid"] = seeding.check_real("c_grid", tc["c_grid"], 0,
                                              many=True).tolist()
    with _section("limits"):   # NaN or inf would pass any guard
        out["limits"]["max_memory_gb"] = seeding.check_real(
            "max_memory_gb", out["limits"]["max_memory_gb"], 0, many=False)
    return out


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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
        with _section("model"):
            net_cfg = network.NetConfig(**{**cfg["model"], **overrides},
                                        seed=cfg["seeds"][0])
        est_gb = _check_memory(
            network.peak_floats(net_cfg, n_total, n_train, d, threads,
                                baseline), cfg["limits"]["max_memory_gb"],
            "blocks/features_per_block/depth or per_class_cap")
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
    with _section():
        threads = seeding.check_count("--threads", threads)
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
            if args.seed_override is not None:
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
