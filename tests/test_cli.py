import csv
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

from deepridge import cli, dataio, network, ridge

SMALL_GRID = [0.0001, 0.1, 1.0, 100.0]


def write_config(path, **overrides):
    cfg = {
        "kind": "simulate",
        "seeds": [0, 1],
        "model": {"depth": 1, "blocks": 2, "features_per_block": 4,
                  "lambda_grid": SMALL_GRID},
        "data": {"n": 90, "d": 4, "activation": "relu", "noise_levels": [1]},
        "baseline": True,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


def test_run_simulate_writes_results_and_manifest(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config)
    out = tmp_path / "out"
    manifest = cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert rows[0] == list(cli.RESULT_COLUMNS)
    # 2 seeds x 1 noise level x (deepridge + flat_rf)
    assert len(rows) == 1 + 4
    methods = {r[1] for r in rows[1:]}
    assert methods == {"deepridge", "flat_rf"}
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["config_hash"] == manifest["config_hash"]
    assert saved["seeds"] == [0, 1]
    assert "results.csv" in saved["outputs"]
    assert saved["grid_solver"] == ridge.grid_solver()
    assert saved["grid_solver"] in ("band", "eigh")
    assert (out / "timings.csv").exists()


def test_manifest_records_numpy_and_its_blas_build(tmp_path):
    # the band solve's bits depend on the LAPACK numpy links, so a run
    # records the build it ran on
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0])
    out = tmp_path / "out"
    manifest = cli.run(config, output_dir=str(out))
    saved = json.loads((out / "manifest.json").read_text())
    running = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for record in (manifest, saved):
        assert record["numpy_version"] == np.__version__
        assert record["blas_build"] == running


def test_default_noise_protocol_rows(tmp_path):
    # default simulate protocol sweeps noise levels 1..9 for every seed
    config = tmp_path / "cfg.json"
    cfg = write_config(config, seeds=[0])
    del cfg["data"]["noise_levels"]
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")[1:]
    dre = [r for r in rows if r[1] == "deepridge"]
    base = [r for r in rows if r[1] == "flat_rf"]
    assert [r[2] for r in dre] == [str(v) for v in range(1, 10)]
    assert len(base) == 9


def test_run_is_bitwise_reproducible(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config)
    cli.run(config, output_dir=str(tmp_path / "a"))
    cli.run(config, output_dir=str(tmp_path / "b"))
    assert ((tmp_path / "a" / "results.csv").read_bytes()
            == (tmp_path / "b" / "results.csv").read_bytes())


def test_seed_override(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config)
    out = tmp_path / "out"
    cli.run(config, seed_override=[5], output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert {r[0] for r in rows[1:]} == {"5"}


def test_seeds_at_the_range_ends_run(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0, 2 ** 32 - 1])
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert {r[0] for r in rows[1:]} == {"0", str(2 ** 32 - 1)}


def test_diagnostics_record_guard_estimate_and_peak_rss(tmp_path):
    # one row per split, in run order: the guard's estimate for its network
    # and the peak RSS so far, which can only grow
    config = tmp_path / "cfg.json"
    write_config(config, kind="ablation_k", seeds=[0, 1],
                 ablation={"k_values": [1, 2], "pk_total": 8},
                 data={"n": 90, "d": 4, "noise_levels": [1, 2]})
    out = tmp_path / "out"
    manifest = cli.run(config, output_dir=str(out))
    assert "diagnostics.json" in manifest["outputs"]
    splits = json.loads((out / "diagnostics.json").read_text())["splits"]
    assert [(r["seed"], r["k"], r["noise_level"]) for r in splits] == [
        (s, k, level) for s in (0, 1) for k in (1, 2) for level in (1, 2)]
    for row in splits:
        assert row["depth"] == 1
        assert row["guard_estimate_mb"] > 0 and row["peak_rss_mb"] > 0
    estimates = {r["k"]: r["guard_estimate_mb"] for r in splits}
    assert estimates[1] != estimates[2]
    assert all(r["guard_estimate_mb"] == estimates[r["k"]] for r in splits)
    peaks = [r["peak_rss_mb"] for r in splits]
    assert peaks == sorted(peaks)


def test_empty_seeds_rejected_before_compute(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[])
    with pytest.raises(cli.ConfigError, match="seeds"):
        cli.run(config, output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, ablation, match", [
    ("ablation_k", {"k_values": [1, 2, 3], "pk_total": 8}, "divisible"),
    ("ablation_k", {"k_values": [1, 0], "pk_total": 8}, "divisible"),
    ("ablation_depth", {"depths": [2, 0]}, "depths"),
], ids=["k-not-divisor", "k-zero", "depth-zero"])
def test_ablation_lists_rejected_before_compute(tmp_path, monkeypatch, kind,
                                                ablation, match):
    trained = []
    monkeypatch.setattr(network, "train",
                        lambda *args, **kw: trained.append(args))
    config = tmp_path / "cfg.json"
    write_config(config, kind=kind, seeds=[0], ablation=ablation)
    with pytest.raises(cli.ConfigError, match=match):
        cli.run(config, output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    assert trained == []


def test_nan_penalty_rejected_before_output(tmp_path):
    # JSON as Python writes and reads it allows NaN
    config = tmp_path / "cfg.json"
    write_config(config, model={"depth": 1, "blocks": 2,
                                "features_per_block": 4,
                                "lambda_grid": [0.1, float("nan"), 1.0]})
    assert "NaN" in config.read_text()
    out = tmp_path / "out"
    with pytest.raises(cli.ConfigError, match="lambda_grid"):
        cli.run(config, output_dir=str(out))
    assert not out.exists()


def test_unknown_kind_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    for kind in ("discombobulate", "baseline"):
        write_config(config, kind=kind)
        with pytest.raises(cli.ConfigError, match="kind"):
            cli.run(config)


def test_invalid_field_named_in_error(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, data={"n": "many"})
    with pytest.raises(cli.ConfigError, match="'n'"):
        cli.run(config)


def test_missing_config_file():
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.run("/nonexistent/config.json")


def test_resource_guard_aborts(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config,
                 model={"depth": 1, "blocks": 5000,
                        "features_per_block": 1000},
                 limits={"max_memory_gb": 0.5})
    with pytest.raises(cli.ConfigError, match="memory"):
        cli.run(config, output_dir=str(tmp_path / "out"))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("blocks, p, mode", [(4, 250, "dual"),
                                             (24, 40, "primal")],
                         ids=["dual", "primal"])
def test_memory_estimate_bounds_traced_peak(threads, blocks, p, mode,
                                            monkeypatch):
    # 100 training rows: P=250 takes the dual ridge path and P=40 the primal
    # one; either layer shape is two transform groups, so two threads overlap
    n, d = 300, 8
    split = dataio.simulate_single_neuron(
        dataio.SimConfig(n=n, d=d, noise_std=0.1, seed=1))
    cfg = network.NetConfig(depth=2, blocks=blocks, features_per_block=p,
                            lambda_grid=tuple(SMALL_GRID))
    assert len(network.group_bounds(blocks, p)) == 2
    fits, real_fit_grid = [], network.fit_grid

    def recorded_fit_grid(*args):
        fits.append(real_fit_grid(*args))
        return fits[-1]

    monkeypatch.setattr(network, "fit_grid", recorded_fit_grid)
    tracemalloc.start()
    try:
        model = network.train(split, cfg, n_threads=threads)
        network.predict(model, split.x_test, n_threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_fits = [f for f in fits if f.n_features == p]
    assert len(block_fits) == cfg.depth * blocks
    assert {f.mode for f in block_fits} == {mode}
    est_gb = cli._check_resources(n, n // 3, d, cfg, threads,
                                  max_memory_gb=math.inf)
    assert est_gb * 1e9 >= peak


@pytest.mark.parametrize("width, n, d, baseline_larger", [
    (40, 300, 8, False), (600, 300, 8, False), (600, 30, 200, True),
    (3372, 300, 8, False), (3372, 30, 200, False),
], ids=["40", "600", "600-wide-input", "3372", "3372-wide-input"])
def test_memory_estimate_bounds_traced_baseline_peak(width, n, d,
                                                     baseline_larger):
    # a run sizes the flat baseline at the network's layer width K*L; at 100
    # training rows it takes a primal and a dual fit. With 10 training rows
    # of 200 inputs its weights outgrow the network at 600 features, so only
    # the baseline term of the estimate bounds its peak. At 3372 features
    # (seven column groups, the last one ragged) the baseline holds one
    # group's weights and features at a time, which at 200 inputs is less
    # than the network's count
    split = dataio.simulate_single_neuron(
        dataio.SimConfig(n=n, d=d, noise_std=0.1, seed=1))
    cfg = network.NetConfig(depth=1, blocks=width // len(SMALL_GRID),
                            features_per_block=1,
                            lambda_grid=tuple(SMALL_GRID))
    assert cfg.layer_width == width
    tracemalloc.start()
    try:
        network.flat_random_feature_baseline(split, cfg.layer_width,
                                             SMALL_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    est_gb = cli._check_resources(n, n // 3, d, cfg, 1, math.inf,
                                  baseline=True)
    network_gb = cli._check_resources(n, n // 3, d, cfg, 1, math.inf)
    assert (est_gb > network_gb) == baseline_larger
    assert est_gb * 1e9 >= peak


RSS_RISE_CHILD = """
import resource, sys
import numpy as np
from deepridge import ridge
rows, cols, n_pen = (int(v) for v in sys.argv[1:])
rng = np.random.default_rng(0)
z, y = rng.standard_normal((rows, cols)), rng.standard_normal(rows)
np.linalg.eigh(np.eye(8))   # BLAS and LAPACK set up before the baseline
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
ridge.fit_grid(z, y, np.geomspace(1e-3, 1e3, n_pen))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.parametrize("rows, cols", [(1000, 1500), (1500, 1000)],
                         ids=["dual", "primal"])
def test_ridge_fit_count_bounds_its_rss_rise(rows, cols):
    # eigh's working set lives outside numpy's allocator, so tracemalloc
    # cannot see it: measure one fit's rise in peak RSS in a child process
    # with one BLAS thread (ru_maxrss is in KiB on Linux)
    n_pen = 29
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", RSS_RISE_CHILD, str(rows), str(cols),
         str(n_pen)], env=env, check=True, timeout=120,
        capture_output=True, text=True)
    rise = int(out.stdout) * 1024
    assert rise <= 8 * ridge.fit_floats(rows, cols, n_pen)


def run_child(config, out, threads):
    """``deepridge run`` in a child process; returns the largest peak RSS,
    in bytes, of any child this process has waited for, so a check
    against it can only be stricter than one on this run alone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-m", "deepridge.cli", "run", str(config),
         "--threads", str(threads), "--output-dir", str(out)],
        env=env, check=True, timeout=900)
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024


@pytest.mark.slow
def test_paper_default_run_within_memory_estimate(tmp_path):
    # the README config (K=500, P=100, depth 2, n=3000) on one seed and one
    # noise level, in a child process: the guard passes it at the default
    # 4 GB limit, and the child's peak RSS stays within the estimate
    threads = 2
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0],
                 model={"depth": 2, "blocks": 500, "features_per_block": 100},
                 data={"n": 3000, "d": 50, "noise_levels": [1]})
    net_cfg = cli._net_config(
        cli.validate_config(cli.load_config(config))["model"], seed=0)
    est_gb = cli._check_resources(3000, 1000, 50, net_cfg, threads, 4.0,
                                  baseline=True)
    peak = run_child(config, tmp_path / "out", threads)
    assert len(read_csv(tmp_path / "out" / "results.csv")) == 3
    assert peak <= est_gb * 1e9


@pytest.mark.slow
def test_one_block_ablation_run_within_memory_estimate(tmp_path):
    # the largest network of the paper-scale K ablation (pk_total 50,000):
    # K=1, one block of 50,000 features and so one transform group, whose
    # features on the 1000 train rows alone are 400 MB
    threads = 2
    config = tmp_path / "cfg.json"
    write_config(config, kind="ablation_k", seeds=[0], model={"depth": 2},
                 data={"n": 3000, "d": 50, "noise_levels": [1]},
                 ablation={"k_values": [1], "pk_total": 50000})
    net_cfg = cli._net_config(
        cli.validate_config(cli.load_config(config))["model"], seed=0,
        blocks=1, features_per_block=50000)
    est_gb = cli._check_resources(3000, 1000, 50, net_cfg, threads, 4.0)
    peak = run_child(config, tmp_path / "out", threads)
    assert len(read_csv(tmp_path / "out" / "results.csv")) == 2
    assert peak <= est_gb * 1e9


def test_theory_curves_csv(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="theory_curves",
                 theory={"n_groups": 4, "c_grid": [0.5, 1.0, 2.0]})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "theory_curves.csv")
    assert rows[0] == ["c", "flat", "ensemble_optimal", "ensemble_suboptimal"]
    assert len(rows) == 4
    assert float(rows[1][0]) == 0.5


@pytest.mark.parametrize("theory_cfg, sha256", [
    ({"n_groups": 4, "c_grid": [0.5, 1.0, 2.0]},
     "0538d67314112c94af7c7fde02deddbedcc6f3dcc3265c0b3e602ad1a57f66da"),
    # default regime on the default 25-point grid
    ({}, "05b41d96b7b15674be2dcbe170bb29fd1fc4f02431bebaafda4f65456545a61c"),
])
def test_theory_curves_csv_bytes_pinned(tmp_path, theory_cfg, sha256):
    # digests of the files written when risk_curves still evaluated one
    # risk_report per grid point; the array pass must reproduce them
    config = tmp_path / "cfg.json"
    write_config(config, kind="theory_curves", theory=theory_cfg)
    cli.run(config, output_dir=str(tmp_path / "out"))
    data = (tmp_path / "out" / "theory_curves.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("seeds", [None, [4, 5]], ids=["unlisted", "listed"])
def test_theory_curves_needs_and_records_no_seeds(tmp_path, seeds):
    config = tmp_path / "cfg.json"
    cfg = write_config(config, kind="theory_curves",
                       theory={"n_groups": 4, "c_grid": [0.5, 1.0]})
    del cfg["seeds"]
    if seeds is not None:
        cfg["seeds"] = seeds
    config.write_text(json.dumps(cfg))
    manifest = cli.run(config, output_dir=str(tmp_path / "out"))
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    for record in (manifest, saved):
        assert "seeds" not in record and "seeds" not in record["config"]
    assert len(read_csv(tmp_path / "out" / "theory_curves.csv")) == 3


def test_ablation_k_rows(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="ablation_k", seeds=[0],
                 ablation={"k_values": [1, 2], "pk_total": 8})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert [r[3] for r in rows[1:]] == ["1", "2"]


def test_ablation_k_divisibility_checked(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="ablation_k", seeds=[0],
                 ablation={"k_values": [3], "pk_total": 8})
    with pytest.raises(cli.ConfigError, match="divisible"):
        cli.run(config, output_dir=str(tmp_path / "out"))


def test_ablation_depth_rows_from_one_pass(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="ablation_depth", seeds=[0],
                 ablation={"depths": [1, 2, 3]})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert [r[4] for r in rows[1:]] == ["1", "2", "3"]


def _write_synthetic_idx_dir(root):
    rng = np.random.default_rng(0)
    root.mkdir(parents=True, exist_ok=True)
    train_y = np.repeat(np.arange(10), 30).astype(np.uint8)
    test_y = np.repeat(np.arange(10), 8).astype(np.uint8)
    train_x = rng.integers(0, 256, size=(train_y.size, 5, 5), dtype=np.uint8)
    test_x = rng.integers(0, 256, size=(test_y.size, 5, 5), dtype=np.uint8)
    # make the pair separable so training is meaningful
    train_x[train_y == 1, :2] = 255
    test_x[test_y == 1, :2] = 255
    dataio.write_idx_images(root / "train-images-idx3-ubyte", train_x)
    dataio.write_idx_labels(root / "train-labels-idx1-ubyte", train_y)
    dataio.write_idx_images(root / "t10k-images-idx3-ubyte", test_x)
    dataio.write_idx_labels(root / "t10k-labels-idx1-ubyte", test_y)


def test_fmnist_kind_with_idx_directory(tmp_path):
    data_dir = tmp_path / "data"
    _write_synthetic_idx_dir(data_dir)
    config = tmp_path / "cfg.json"
    write_config(config, kind="fmnist", seeds=[0],
                 data={"pair_index": 0, "per_class_cap": 20,
                       "noise_levels": [0, 1], "data_dir": str(data_dir)})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    dre_rows = [r for r in rows[1:] if r[1] == "deepridge"]
    assert len(dre_rows) == 2
    assert all(r[7] != "" for r in dre_rows)   # accuracy defined for 0/1 labels


def test_fmnist_missing_files_error(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    config = tmp_path / "cfg.json"
    write_config(config, kind="fmnist", seeds=[0],
                 data={"data_dir": str(tmp_path / "empty")})
    with pytest.raises(cli.ConfigError, match="missing data file"):
        cli.run(config)


def test_save_models_and_inspect(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[3], save_models=True)
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    model_path = out / "model_seed3_noise1.drz"
    assert model_path.exists()
    text = cli.inspect(model_path)
    assert "K=2, P=4, L=4" in text
    assert "lambda*" in text
    assert "depth 1 validation MSE" in text


def test_inspect_prints_compressed_widths(tmp_path, monkeypatch):
    # on the 29-point grid a block of P=4 features has at most 4 of its 29
    # columns' directions, so each layer's width is at most K*4; the widths
    # come from the ranks in the model file, so inspect runs no SVD
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[3], save_models=True,
                 model={"depth": 2, "blocks": 3, "features_per_block": 4})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    model_path = out / "model_seed3_noise1.drz"
    model = network.load_model(model_path)

    def no_svd(*args, **kwargs):
        raise AssertionError("inspect ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    text = cli.inspect(model_path)
    for m, layer in enumerate(model.layers, start=1):
        ranks = layer.ranks
        assert ranks.max() <= 4
        assert (f"layer {m} width:  {ranks.sum()} of K*L=87 columns "
                f"(block ranks r_k {ranks.min()}..{ranks.max()})") in text


def test_main_exit_codes(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0])
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--output-dir", str(out)]) == 0
    assert "results.csv" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"nope\", \"seeds\": [1]}")
    assert cli.main(["run", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    assert cli.main(["inspect", str(tmp_path / "missing.drz")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_inspect_round_trip(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0], save_models=True)
    out = tmp_path / "out"
    cli.main(["run", str(config), "--output-dir", str(out)])
    capsys.readouterr()
    assert cli.main(["inspect", str(out / "model_seed0_noise1.drz")]) == 0
    assert "deepridge-model" in capsys.readouterr().out


def test_main_inspect_bad_header_index(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0], save_models=True)
    out = tmp_path / "out"
    cli.main(["run", str(config), "--output-dir", str(out)])
    capsys.readouterr()
    broken = tmp_path / "broken.drz"
    with zipfile.ZipFile(out / "model_seed0_noise1.drz") as src, \
            zipfile.ZipFile(broken, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            if name == "header.json":
                header = json.loads(data)
                header["final_fits"][0]["lambda_star_index"] = len(SMALL_GRID)
                data = json.dumps(header).encode()
            dst.writestr(name, data)
    assert cli.main(["inspect", str(broken)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_threads_flag_reproducible(tmp_path):
    # three blocks of 700 features make two transform groups, so the pool
    # runs them on separate workers; ablation_k trains K=2 and K=3
    data_dir = tmp_path / "data"
    _write_synthetic_idx_dir(data_dir)
    kinds = {
        "simulate": {},
        "fmnist": {"data": {"pair_index": 0, "per_class_cap": 20,
                            "noise_levels": [0, 1],
                            "data_dir": str(data_dir)}},
        "ablation_k": {"ablation": {"k_values": [2, 3], "pk_total": 2100}},
        "ablation_depth": {"ablation": {"depths": [1, 2]}},
    }
    for kind, overrides in kinds.items():
        config = tmp_path / f"{kind}.json"
        write_config(config, kind=kind, seeds=[0],
                     model={"depth": 2, "blocks": 3,
                            "features_per_block": 700,
                            "lambda_grid": SMALL_GRID},
                     **overrides)
        results = set()
        for threads in (1, 2, 8):
            out = tmp_path / f"{kind}_t{threads}"
            assert cli.main(["run", str(config), "--output-dir", str(out),
                             "--threads", str(threads)]) == 0
            results.add((out / "results.csv").read_bytes())
        assert len(results) == 1, kind


def _model(**fields):
    return {"depth": 1, "blocks": 2, "features_per_block": 4,
            "lambda_grid": SMALL_GRID, **fields}


def _data(**fields):
    return {"n": 90, "d": 4, "activation": "relu", "noise_levels": [1],
            **fields}


@pytest.mark.parametrize("overrides, argv, message", [
    ({"model": {"depth": 1, "blocks": 5000, "features_per_block": 1000},
      "limits": {"max_memory_gb": 0.5}}, [], "estimated memory"),
    ({"kind": "fmnist", "data": {"data_dir": "missing-dir"}}, [],
     "missing data file"),
    ({"data": _data(n=10)}, [], "'data': n must be a positive multiple of 3"),
    ({"kind": "theory_curves", "theory": {"c_grid": [0.5, -1]}}, [],
     "'theory': c_grid entries must be > 0"),
    ({"kind": "theory_curves", "theory": {"n_groups": 0}}, [],
     "'theory': n_groups must be at least 1"),
    ({"kind": "theory_curves", "theory": {"b_low": -1}}, [],
     "'theory': b_low and b_high must be > 0"),
    ({"kind": "theory_curves", "theory": {"c_grid": []}}, [], "c_grid"),
    ({"kind": "theory_curves", "theory": {"c_grid": [True]}}, [], "c_grid"),
    ({"model": _model(blocks=True)}, [], "'blocks' must be int"),
    ({"model": _model(depth=True)}, [], "'depth' must be int"),
    ({"model": _model(gamma_low=True)}, [], "'gamma_low' must be float"),
    ({"model": _model(lambda_grid=[True, 2.0])}, [], "lambda_grid"),
    ({"data": _data(noise_levels=[True])}, [], "noise_levels"),
    ({"seeds": [False]}, [], "seeds"),
    ({"limits": {"max_memory_gb": float("nan")}}, [], "max_memory_gb"),
    ({"limits": {"max_memory_gb": 0}}, [], "max_memory_gb"),
    ({}, ["--threads", "0"], "--threads"),
    ({}, ["--threads", "-3"], "--threads"),
    ({"seeds": [0, 1, 0]}, [], "'seeds' must not repeat"),
    ({}, ["--seed-override", "0,0"], "--seed-override must not repeat"),
    ({"kind": "theory_curves"}, ["--seed-override", "1"],
     "--seed-override does not apply to kind 'theory_curves'"),
    ({"data": _data(noise_levels=[1, 2, 1])}, [],
     "'noise_levels' must not repeat"),
    ({"kind": "ablation_k", "ablation": {"k_values": [1, 1], "pk_total": 8}},
     [], "'k_values' must not repeat"),
    ({"kind": "ablation_depth", "ablation": {"depths": [1, 2, 2]}}, [],
     "'depths' must not repeat"),
    ({"kind": "ablation_depth", "ablation": {"depths": [1, 101]}}, [],
     "invalid model config: depth must be in 1..100"),
    ({"seeds": [0, 2 ** 32]}, [],
     "'seeds': seed 4294967296 is outside 0..4294967295"),
    ({"seeds": [-1]}, [], "'seeds': seed -1 is outside"),
    ({}, ["--seed-override", f"1,{2 ** 32 + 1}"],
     "--seed-override: seed 4294967297 is outside"),
    # each failed only at the first draw, after the output directory was
    # made, with an uncaught OverflowError
    ({"model": _model(gamma_high=math.inf)}, [],
     "invalid model config: need 0 < gamma_low < gamma_high < inf"),
    ({"model": _model(bias_range=math.inf)}, [],
     "invalid model config: bias_range must be positive and finite"),
    ({"model": _model(lambda_grid=[0.1, math.inf])}, [],
     "invalid model config: lambda_grid must be non-empty, positive and "
     "finite"),
    # the guard ran only after the first split was drawn: numpy failed to
    # allocate its 1.2 PB
    ({"data": {"n": 3_000_000_000_000}}, [],
     "exceeds limits.max_memory_gb=4.0"),
    # each raised an uncaught OverflowError converting an integer to float
    ({"model": _model(bias_range=10 ** 400)}, [],
     "config field 'bias_range' holds a number too large for a float"),
    ({"model": _model(lambda_grid=[0.1, 10 ** 400])}, [],
     "config field 'lambda_grid' holds a number too large for a float"),
    ({"data": _data(noise_levels=[10 ** 400])}, [],
     "config field 'noise_levels' holds a number too large for a float"),
    ({"kind": "ablation_k",
      "ablation": {"k_values": [1], "pk_total": 10 ** 400}}, [],
     "estimated memory inf GB exceeds limits.max_memory_gb=4.0"),
    # wrote an inf,nan,nan,nan row and exited 0
    ({"kind": "theory_curves", "theory": {"c_grid": [1.0, math.inf]}}, [],
     "'theory': c_grid entries must be > 0 and finite"),
], ids=["guard", "missing-idx", "n-10", "c-grid-negative", "n-groups-0",
        "b-low-negative", "c-grid-empty", "c-grid-bool", "blocks-bool",
        "depth-bool", "gamma-low-bool", "lambda-grid-bool",
        "noise-levels-bool", "seeds-bool", "limit-nan", "limit-zero",
        "threads-0", "threads-negative", "seeds-repeated",
        "seed-override-repeated", "seed-override-theory-curves",
        "noise-levels-repeated",
        "k-values-repeated", "depths-repeated", "depth-101", "seed-2-32",
        "seed-negative", "seed-override-2-32", "gamma-high-inf",
        "bias-range-inf", "lambda-grid-inf", "guard-before-first-draw",
        "bias-range-past-float", "lambda-grid-past-float",
        "noise-level-past-float", "guard-count-past-float",
        "c-grid-inf"])
def test_refused_before_any_output(tmp_path, monkeypatch, capsys, overrides,
                                   argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    config = tmp_path / "cfg.json"
    write_config(config, **{"seeds": [0], **overrides})
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--output-dir", str(out)]
                    + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not out.exists()


# overflow on the way to the breakdown the identity check catches
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_theory_breakdown_is_an_error_not_a_traceback(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    write_config(config, kind="theory_curves", theory={"c_grid": [1e300]})
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: resolvent trace forms disagree")
    assert not out.exists()
