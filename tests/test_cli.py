import csv
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

from deepridge import cli, dataio, network

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
    assert (out / "timings.csv").exists()


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


def test_empty_seeds_rejected_before_compute(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[])
    with pytest.raises(cli.ConfigError, match="seeds"):
        cli.run(config, output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_unknown_kind_rejected(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="discombobulate")
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
@pytest.mark.parametrize("blocks, p, mode", [(8, 300, "dual"),
                                             (60, 40, "primal")],
                         ids=["dual", "primal"])
def test_memory_estimate_bounds_traced_peak(threads, blocks, p, mode,
                                            monkeypatch):
    # 100 training rows: P=300 takes the dual ridge path and P=40 the primal
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


@pytest.mark.parametrize("p_total", [40, 600])
def test_memory_estimate_bounds_traced_baseline_peak(p_total):
    # 100 training rows: a primal and a dual fit of the flat baseline
    n, d = 300, 8
    split = dataio.simulate_single_neuron(
        dataio.SimConfig(n=n, d=d, noise_std=0.1, seed=1))
    cfg = network.NetConfig(depth=1, blocks=1, features_per_block=1,
                            lambda_grid=tuple(SMALL_GRID))
    tracemalloc.start()
    try:
        network.flat_random_feature_baseline(split, p_total, SMALL_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    est_gb = cli._check_resources(n, n // 3, d, cfg, 1, math.inf,
                                  baseline_width=p_total,
                                  train_network=False)
    assert est_gb * 1e9 >= peak


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
                                  baseline_width=net_cfg.layer_width)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-m", "deepridge.cli", "run", str(config),
         "--threads", str(threads), "--output-dir", str(tmp_path / "out")],
        env=env, check=True, timeout=900)
    assert len(read_csv(tmp_path / "out" / "results.csv")) == 3
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    assert peak <= est_gb * 1e9


def test_baseline_kind_sized_by_p_total(tmp_path):
    # no model section: the default network (K=500, P=100) is never trained,
    # so only the flat baseline's p_total counts
    config = tmp_path / "cfg.json"
    cfg = write_config(config, kind="baseline", seeds=[0],
                       data={"n": 300, "d": 4, "noise_levels": [1],
                             "p_total": 10})
    del cfg["model"]
    config.write_text(json.dumps(cfg))
    cli.run(config, output_dir=str(tmp_path / "small"))
    assert len(read_csv(tmp_path / "small" / "results.csv")) == 2
    cfg["data"]["p_total"] = 10 ** 7
    config.write_text(json.dumps(cfg))
    with pytest.raises(cli.ConfigError, match="memory"):
        cli.run(config, output_dir=str(tmp_path / "huge"))
    cfg["data"]["p_total"] = 0
    config.write_text(json.dumps(cfg))
    with pytest.raises(cli.ConfigError, match="p_total"):
        cli.run(config, output_dir=str(tmp_path / "zero"))


def test_baseline_kind_only_flat_rows(tmp_path):
    config = tmp_path / "cfg.json"
    write_config(config, kind="baseline", seeds=[0],
                 data={"n": 90, "d": 4, "noise_levels": [1, 2],
                       "p_total": 10})
    out = tmp_path / "out"
    cli.run(config, output_dir=str(out))
    rows = read_csv(out / "results.csv")
    assert {r[1] for r in rows[1:]} == {"flat_rf"}
    assert len(rows) == 3


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
    config = tmp_path / "cfg.json"
    write_config(config, seeds=[0])
    cli.main(["run", str(config), "--output-dir", str(tmp_path / "t1"),
              "--threads", "1"])
    cli.main(["run", str(config), "--output-dir", str(tmp_path / "t8"),
              "--threads", "8"])
    assert ((tmp_path / "t1" / "results.csv").read_bytes()
            == (tmp_path / "t8" / "results.csv").read_bytes())
