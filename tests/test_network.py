import dataclasses
import io
import json
import zipfile

import numpy as np
import pytest

from deepridge import network, ridge
from deepridge.dataio import DataSplit, SimConfig, simulate_single_neuron
from deepridge.features import apply_block, draw_block
from deepridge.network import (DeepRidgeModel, FinalFit, Metrics, NetConfig,
                               _block_gammas, evaluate,
                               flat_random_feature_baseline, load_model,
                               predict, save_model, select_depth, train,
                               train_layer)

SMALL_GRID = (1e-4, 0.1, 1.0, 100.0)


@pytest.fixture(scope="module")
def split():
    return simulate_single_neuron(
        SimConfig(n=240, d=6, noise_std=0.2, activation="relu", seed=5))


def stacked(split):
    """Train and validation rows stacked, as ``train_layer`` takes them."""
    return np.vstack([split.x_train, split.x_valid]), split.x_train.shape[0]


def recorded_draws(monkeypatch):
    """Record the arguments and result of every ``network.draw_block``."""
    calls, real = [], network.draw_block

    def record(*args):
        block = real(*args)
        calls.append((args, block))
        return block

    monkeypatch.setattr(network, "draw_block", record)
    return calls


def small_cfg(**kw):
    base = dict(depth=2, blocks=3, features_per_block=5,
                lambda_grid=SMALL_GRID, seed=7)
    base.update(kw)
    return NetConfig(**base)


# --- configuration -----------------------------------------------------------

def test_default_config_matches_reference_settings():
    from conftest import REFERENCE_GRID29
    cfg = NetConfig()
    assert cfg.blocks == 500
    assert cfg.features_per_block == 100
    assert cfg.n_penalties == 29
    assert cfg.lambda_grid == REFERENCE_GRID29
    assert (cfg.gamma_low, cfg.gamma_high) == (0.25, 1.25)


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(depth=0)
    with pytest.raises(ValueError):
        NetConfig(lambda_grid=(1.0, 1.0))
    with pytest.raises(ValueError):
        NetConfig(lambda_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        NetConfig(gamma_low=1.5, gamma_high=1.0)
    with pytest.raises(ValueError):
        NetConfig(blocks=3, gamma_grid=(0.5, 1.0))   # wrong length
    with pytest.raises(ValueError):
        NetConfig(bias_range=0.0)


def test_explicit_gamma_grid_used_verbatim(split, monkeypatch):
    cfg = small_cfg(gamma_grid=(0.3, 0.6, 0.9), depth=1)
    draws = recorded_draws(monkeypatch)
    model = train(split, cfg)
    assert [args[1] for args, _ in draws] == [0.3, 0.6, 0.9]
    draws.clear()
    predict(model, split.x_test)
    assert [args[1] for args, _ in draws] == [0.3, 0.6, 0.9]


# --- layer training ----------------------------------------------------------

def test_layer_width_arithmetic(split):
    x, n_train = stacked(split)
    cfg1 = small_cfg(blocks=1, lambda_grid=(1.0,))
    _, rep = train_layer(x, n_train, split.y_train, cfg1, 1)
    assert rep.shape == (x.shape[0], 1)
    cfg2 = small_cfg(blocks=2, lambda_grid=(0.1, 1.0, 10.0))
    _, rep = train_layer(x, n_train, split.y_train, cfg2, 1)
    assert rep.shape == (x.shape[0], 6)


def test_layer_columns_unit_uncentered_std(split):
    x, n_train = stacked(split)
    _, rep = train_layer(x, n_train, split.y_train, small_cfg(), 1)
    scales = np.sqrt(np.mean(rep[:n_train] ** 2, axis=0))
    np.testing.assert_allclose(scales, 1.0, rtol=1e-10)


def test_second_layer_consumes_full_width(split, monkeypatch):
    cfg = small_cfg()
    draws = recorded_draws(monkeypatch)
    model = train(split, cfg)
    assert len(model.layers) == 2
    assert [(args[0], args[3]) for args, _ in draws] == (
        [((cfg.seed, 1, k), split.d) for k in range(cfg.blocks)]
        + [((cfg.seed, 2, k), cfg.layer_width) for k in range(cfg.blocks)])
    assert all(block.weights.shape == (args[3], cfg.features_per_block)
               for args, block in draws)


def test_planted_signal_recovered(split):
    # make the labels an exact combination of block 1's relu features
    cfg = small_cfg(blocks=2, lambda_grid=(1e-4, 1.0))
    # gamma for block 1 comes from its own stream; reproduce the draw
    gamma = float(_block_gammas(cfg, 1)[1])
    block = draw_block((7, 1, 1), gamma, cfg.features_per_block, split.d,
                       cfg.bias_range)
    coef = np.arange(1.0, cfg.features_per_block + 1)
    y_train = apply_block(block, split.x_train) @ coef
    x, n_train = stacked(split)
    layer, rep = train_layer(x, n_train, y_train, cfg, 1)
    # block 1, smallest penalty: first column of its group
    col = rep[:n_train, 1 * cfg.n_penalties + 0]
    corr = np.corrcoef(col, y_train)[0, 1]
    assert corr > 0.999


def test_grouped_transform_matches_per_block_loop(split, monkeypatch):
    # P=700 makes groups of two blocks, so K=5 ends in a ragged group of one.
    # A GEMM of another shape may sum in another order, so features can
    # differ by a few ulps; near-interpolating penalties such as 1e-4 would
    # amplify that by the Gram's condition number, hence penalties >= 0.1.
    cfg = small_cfg(blocks=5, features_per_block=700,
                    lambda_grid=(0.1, 1.0, 100.0))
    p = cfg.features_per_block
    assert [b - a for a, b in network.group_bounds(cfg.blocks, p)] == [2, 2, 1]
    model = train(split, cfg)
    xs = (split.x_train, split.x_valid)
    for m in range(1, cfg.depth + 1):
        blocks, fits, scales, reps = [], [], [], ([], [])
        for k, gamma in enumerate(_block_gammas(cfg, m)):
            block = draw_block((cfg.seed, m, k), float(gamma), p,
                               xs[0].shape[1], cfg.bias_range)
            fit = ridge.fit_grid(apply_block(block, xs[0]), split.y_train,
                                 cfg.lambda_grid)
            preds = [ridge.predict(fit, apply_block(block, a)) for a in xs]
            s = ridge.column_scales(preds[0])
            for out, pred in zip(reps, preds):
                out.append(pred / s)
            blocks.append(block)
            fits.append(fit)
            scales.append(s)
        ref = tuple(np.hstack(r) for r in reps)

        draws = recorded_draws(monkeypatch)
        modes = []
        real_fit_grid = network.fit_grid

        def recorded_fit_grid(*args):
            fit = real_fit_grid(*args)
            modes.append(fit.mode)
            return fit

        monkeypatch.setattr(network, "fit_grid", recorded_fit_grid)
        layer, got = train_layer(np.vstack(xs), xs[0].shape[0],
                                 split.y_train, cfg, m)
        monkeypatch.undo()
        got = (got[:xs[0].shape[0]], got[xs[0].shape[0]:])
        for (_, drawn), block in zip(draws, blocks, strict=True):
            np.testing.assert_array_equal(drawn.weights, block.weights)
            np.testing.assert_array_equal(drawn.biases, block.biases)
        assert modes == [f.mode for f in fits]
        np.testing.assert_allclose(
            layer.betas, np.stack([f.betas for f in fits]), rtol=1e-10)
        np.testing.assert_allclose(layer.scales, np.vstack(scales),
                                   rtol=1e-10)
        for i, x in enumerate((split.x_train, split.x_valid)):
            np.testing.assert_allclose(got[i], ref[i], rtol=1e-10)
            np.testing.assert_allclose(network.forward(model, x, m), ref[i],
                                       rtol=1e-10)
        xs = ref


# --- full training and prediction --------------------------------------------

def test_degenerate_width_equals_direct_ridge(split):
    cfg = small_cfg(depth=1, blocks=1)
    model = train(split, cfg)
    layer = model.layers[0]
    rep = network.forward(model, split.x_train, 1)
    # un-normalize and compare against a direct fit with the same block
    block = draw_block((cfg.seed, 1, 0), float(_block_gammas(cfg, 1)[0]),
                       cfg.features_per_block, split.d, cfg.bias_range)
    direct_fit = ridge.fit_grid(
        apply_block(block, split.x_train), split.y_train, cfg.lambda_grid)
    direct = ridge.predict(direct_fit, apply_block(block, split.x_train))
    assert np.abs(rep * layer.scales[0] - direct).max() < 1e-8


def test_forward_reproduces_training_representation(split):
    cfg = small_cfg()
    model = train(split, cfg)
    rep, n_train = stacked(split)
    for m in range(1, cfg.depth + 1):
        _, rep = train_layer(rep, n_train, split.y_train, cfg, m)
        np.testing.assert_allclose(network.forward(model, split.x_train, m),
                                   rep[:n_train], rtol=1e-10)


def test_shallow_predictions_ignore_deeper_layers(split):
    deep = train(split, small_cfg(depth=3))
    shallow = train(split, small_cfg(depth=1))
    np.testing.assert_array_equal(predict(deep, split.x_test, depth=1),
                                  predict(shallow, split.x_test))


def test_single_row_equals_batch_row(split):
    model = train(split, small_cfg())
    batch = predict(model, split.x_test)
    one = predict(model, split.x_test[3:4])
    np.testing.assert_allclose(one, batch[3:4], rtol=1e-10)


def test_predict_validation(split):
    model = train(split, small_cfg())
    with pytest.raises(ValueError):
        predict(model, split.x_test, depth=5)
    with pytest.raises(ValueError):
        predict(model, split.x_test[:, :3])
    for bad in (np.nan, np.inf):
        x = split.x_test[:4].copy()
        x[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            predict(model, x)


def test_thread_count_does_not_change_anything(split, tmp_path,
                                               monkeypatch):
    # groups of two blocks, so the workers share three groups
    monkeypatch.setattr(network, "GROUP_COLUMNS", 10)
    cfg = small_cfg(blocks=6)
    serial = train(split, cfg, n_threads=1)
    threaded = train(split, cfg, n_threads=4)
    assert serial.lambda_star_index == threaded.lambda_star_index
    expected = predict(serial, split.x_test)
    np.testing.assert_array_equal(predict(threaded, split.x_test), expected)
    for k in (1, 2, 4):
        for model in (serial, threaded):
            np.testing.assert_array_equal(
                predict(model, split.x_test, n_threads=k), expected)
    save_model(serial, tmp_path / "a.drz")
    save_model(threaded, tmp_path / "b.drz")
    assert (tmp_path / "a.drz").read_bytes() == (tmp_path / "b.drz").read_bytes()


# --- depth selection ---------------------------------------------------------

def _forged_model(valid_mses):
    finals = tuple(
        FinalFit(fit=ridge.RidgeGridFit(
            lambdas=np.array([1.0]), betas=np.zeros((2, 1)), mode="primal"),
            lambda_star_index=0, valid_mse=np.array([mse]))
        for mse in valid_mses)
    cfg = NetConfig(depth=len(valid_mses), blocks=1, features_per_block=2,
                    lambda_grid=(1.0,))
    return DeepRidgeModel(config=cfg, layers=(None,) * len(valid_mses),
                          final_fits=finals, input_dim=2)


def test_select_depth_picks_strict_minimum():
    assert select_depth(_forged_model([0.5, 0.2, 0.4])) == 2


def test_select_depth_tie_goes_shallow():
    assert select_depth(_forged_model([0.3, 0.3, 0.4])) == 1


def test_select_depth_single_layer(split):
    model = train(split, small_cfg(depth=1))
    assert select_depth(model) == 1


def test_select_depth_recomputed_on_split(split):
    # one final ridge per depth, and each stored validation MSE is the one
    # predict gives on the validation rows at that depth
    cfg = small_cfg(depth=3)
    model = train(split, cfg)
    assert len(model.final_fits) == cfg.depth
    recomputed = [
        float(np.mean((predict(model, split.x_valid, m) - split.y_valid) ** 2))
        for m in range(1, cfg.depth + 1)]
    stored = [ff.valid_mse[ff.lambda_star_index] for ff in model.final_fits]
    np.testing.assert_allclose(stored, recomputed, rtol=1e-10)
    assert select_depth(model) == 1 + int(np.argmin(recomputed))


# --- metrics -----------------------------------------------------------------

def test_evaluate_perfect_and_mean_predictors():
    y = np.array([1.0, 2.0, 3.0])
    assert evaluate(y, y, y_train_mean=5.0).one_minus_r2 == 0.0
    m = evaluate(np.full(3, 2.5), y, y_train_mean=2.5)
    assert m.one_minus_r2 == pytest.approx(1.0)
    assert m.accuracy is None


def test_evaluate_binary_accuracy():
    m = evaluate(np.array([0.9, 0.2, 0.4]), np.array([1.0, 0.0, 1.0]),
                 y_train_mean=0.5)
    assert m.accuracy == pytest.approx(2 / 3)


def test_evaluate_degenerate_labels():
    with pytest.raises(ValueError, match="degenerate"):
        evaluate(np.zeros(3), np.full(3, 2.0), y_train_mean=2.0)


# --- flat baseline -----------------------------------------------------------

def test_baseline_single_feature(split):
    res = flat_random_feature_baseline(split, 1, SMALL_GRID, seed=1)
    assert np.isfinite(res.metrics.one_minus_r2)
    assert res.lambda_star in SMALL_GRID


def test_baseline_planted_signal():
    # labels exactly linear in the baseline's own relu features
    rng_probe = np.random.default_rng(0)
    x_all = rng_probe.standard_normal((600, 6))
    from deepridge.network import _TAG_BASELINE
    from deepridge.seeding import stream_rng
    rng = stream_rng(3, _TAG_BASELINE)
    p_total = 40
    gammas = rng.uniform(0.25, 1.25, size=p_total)
    weights = rng.standard_normal((6, p_total)) * np.sqrt(gammas)
    biases = rng.uniform(-1.0, 1.0, size=p_total)
    z = np.maximum(x_all @ weights / np.sqrt(6) + biases, 0.0)
    y_all = z @ np.linspace(-1, 1, p_total)
    split = DataSplit(
        x_train=x_all[:200], y_train=y_all[:200],
        x_valid=x_all[200:400], y_valid=y_all[200:400],
        x_test=x_all[400:], y_test=y_all[400:])
    res = flat_random_feature_baseline(split, p_total, (1e-8, 1e-6), seed=3)
    assert res.metrics.one_minus_r2 < 0.01


def test_baseline_rejects_bad_width(split):
    with pytest.raises(ValueError):
        flat_random_feature_baseline(split, 0, SMALL_GRID)


# --- serialization -----------------------------------------------------------

def test_save_load_round_trip(split, tmp_path):
    model = train(split, small_cfg())
    path = tmp_path / "model.drz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.lambda_star_index == model.lambda_star_index
    assert loaded.input_dim == model.input_dim
    np.testing.assert_array_equal(loaded.layers[0].scales,
                                  model.layers[0].scales)
    np.testing.assert_array_equal(predict(loaded, split.x_test),
                                  predict(model, split.x_test))


def test_save_is_byte_deterministic(split, tmp_path):
    model = train(split, small_cfg())
    save_model(model, tmp_path / "a.drz")
    save_model(model, tmp_path / "b.drz")
    assert (tmp_path / "a.drz").read_bytes() == (tmp_path / "b.drz").read_bytes()


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
    return buf.getvalue()


def _in_memory_archive(model, header_bytes, path):
    # reference writer: every payload built in memory, then written whole
    entries = {"header.json": header_bytes}
    for m, layer in enumerate(model.layers, start=1):
        for name in ("betas", "scales"):
            entries[f"layer{m}.{name}.npy"] = _npy_bytes(getattr(layer, name))
    for m, ff in enumerate(model.final_fits, start=1):
        entries[f"final{m}.betas.npy"] = _npy_bytes(ff.fit.betas)
        entries[f"final{m}.valid_mse.npy"] = _npy_bytes(ff.valid_mse)
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(entries):
            zf.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)),
                        entries[name])
    return entries


@pytest.mark.parametrize("limit_offset", [None, -1, 1])
def test_streamed_save_matches_in_memory_archive(split, tmp_path, monkeypatch,
                                                 limit_offset):
    # with the zip64 limit just below or above the largest entry's size, the
    # entry's zip64 fields depend on the size zipfile is told in advance
    model = train(split, small_cfg())
    path, ref = tmp_path / "model.drz", tmp_path / "ref.drz"
    save_model(model, path)
    with zipfile.ZipFile(path) as zf:
        header_bytes = zf.read("header.json")
    entries = _in_memory_archive(model, header_bytes, ref)
    if limit_offset is not None:
        largest = max(len(v) for v in entries.values())
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", largest + limit_offset)
        save_model(model, path)
        _in_memory_archive(model, header_bytes, ref)
    assert path.read_bytes() == ref.read_bytes()


def test_failed_save_keeps_existing_file(split, tmp_path, monkeypatch):
    path = tmp_path / "model.drz"
    save_model(train(split, small_cfg(depth=1)), path)
    before = path.read_bytes()
    real_write_array = np.lib.format.write_array
    calls = []

    def write_array_failing_second_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array",
                        write_array_failing_second_call)
    with pytest.raises(OSError, match="disk full"):
        save_model(train(split, small_cfg(depth=2)), path)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp-*")) == []


def test_load_rejects_corrupt_file(tmp_path):
    bad = tmp_path / "bad.drz"
    bad.write_bytes(b"this is not a model")
    with pytest.raises(network.ModelFormatError, match="corrupt"):
        load_model(bad)


def test_load_rejects_truncated_file(split, tmp_path):
    model = train(split, small_cfg(depth=1))
    path = tmp_path / "model.drz"
    save_model(model, path)
    trunc = tmp_path / "trunc.drz"
    trunc.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(network.ModelFormatError):
        load_model(trunc)


def test_load_rejects_future_version(split, tmp_path, monkeypatch):
    model = train(split, small_cfg(depth=1))
    path = tmp_path / "model.drz"
    monkeypatch.setattr(network, "MODEL_FORMAT_VERSION", 99)
    save_model(model, path)
    monkeypatch.undo()
    with pytest.raises(network.ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_v2_file(split, tmp_path, monkeypatch):
    model = train(split, small_cfg(depth=1))
    path = tmp_path / "model.drz"
    monkeypatch.setattr(network, "MODEL_FORMAT_VERSION", 2)
    save_model(model, path)
    monkeypatch.undo()
    with pytest.raises(network.ModelFormatError,
                       match="unsupported format version 2"):
        load_model(path)


def test_load_rejects_v3_file(split, tmp_path):
    # a v3 archive: five arrays per layer and fit modes in the header
    model = train(split, small_cfg(depth=1))
    path = tmp_path / "model.drz"
    header = {"format": network.MODEL_FORMAT, "format_version": 3,
              "config": dataclasses.asdict(model.config),
              "input_dim": model.input_dim,
              "layer_modes": [["primal"] * model.config.blocks],
              "final_fits": [{"lambda_star_index": 0, "mode": "dual"}]}
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("header.json", json.dumps(header))
        for name in ("weights", "biases", "gammas", "betas", "scales"):
            zf.writestr(f"layer1.{name}.npy", _npy_bytes(np.zeros(1)))
    with pytest.raises(network.ModelFormatError,
                       match="unsupported format version 3"):
        load_model(path)


def test_archive_holds_two_arrays_per_layer_and_fit(split, tmp_path):
    model = train(split, small_cfg(depth=2))
    save_model(model, tmp_path / "model.drz")
    with zipfile.ZipFile(tmp_path / "model.drz") as zf:
        names = sorted(zf.namelist())
        header = json.loads(zf.read("header.json"))
    assert names == [
        "final1.betas.npy", "final1.valid_mse.npy",
        "final2.betas.npy", "final2.valid_mse.npy", "header.json",
        "layer1.betas.npy", "layer1.scales.npy",
        "layer2.betas.npy", "layer2.scales.npy"]
    assert header["format_version"] == 4
    assert sorted(header) == ["config", "final_fits", "format",
                              "format_version", "input_dim",
                              "library_version"]
    assert header["final_fits"] == [{"lambda_star_index": ff.lambda_star_index}
                                    for ff in model.final_fits]


def _saved_with_changed_entry(model, tmp_path, entry, change):
    """Save ``model``, then copy it with ``change`` applied to ``entry``."""
    path, broken = tmp_path / "model.drz", tmp_path / "broken.drz"
    save_model(model, path)
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            dst.writestr(name, change(data) if name == entry else data)
    return broken


@pytest.mark.parametrize("entry, bad", [
    ("layer1.betas.npy", lambda a: a[:, :-1]),                 # wrong shape
    ("layer1.scales.npy", lambda a: a.astype(np.float32)),     # wrong dtype
])
def test_load_rejects_inconsistent_array(split, tmp_path, entry, bad):
    broken = _saved_with_changed_entry(
        train(split, small_cfg(depth=1)), tmp_path, entry,
        lambda data: _npy_bytes(bad(np.lib.format.read_array(
            io.BytesIO(data)))))
    with pytest.raises(network.ModelFormatError, match=entry):
        load_model(broken)


# each edit breaks the header of a depth-2 model (so two final fits) over a
# 4-point penalty grid
@pytest.mark.parametrize("edit", [
    lambda h: h.update(input_dim=0),
    lambda h: h.update(input_dim=6.0),
    lambda h: h["final_fits"][1].update(lambda_star_index=4),
    lambda h: h["final_fits"][1].update(lambda_star_index=-1),
    lambda h: h["final_fits"][1].update(lambda_star_index=1.0),
    lambda h: h["final_fits"][1].update(lambda_star_index=True),
    lambda h: h["final_fits"].pop(),
    lambda h: h["final_fits"].append(dict(h["final_fits"][0])),
], ids=["input-dim-zero", "input-dim-float", "star-past-grid", "star-negative",
        "star-float", "star-bool", "no-fit-at-full-depth",
        "final-fits-past-depth"])
def test_load_rejects_inconsistent_header(split, tmp_path, edit):
    def change(data):
        header = json.loads(data)
        edit(header)
        return json.dumps(header).encode()

    broken = _saved_with_changed_entry(train(split, small_cfg()), tmp_path,
                                       "header.json", change)
    with pytest.raises(network.ModelFormatError, match="corrupt"):
        load_model(broken)
