import io
import zipfile

import numpy as np
import pytest

from deepridge import network, ridge
from deepridge.dataio import DataSplit, SimConfig, simulate_single_neuron
from deepridge.features import (FeatureBlock, FeatureBlockSpec, apply_block,
                                draw_block)
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


def test_explicit_gamma_grid_used_verbatim(split):
    cfg = small_cfg(gamma_grid=(0.3, 0.6, 0.9), depth=1)
    model = train(split, cfg)
    assert model.layers[0].gammas.tolist() == [0.3, 0.6, 0.9]


# --- layer training ----------------------------------------------------------

def test_layer_width_arithmetic(split):
    xs = (split.x_train, split.x_valid)
    cfg1 = small_cfg(blocks=1, lambda_grid=(1.0,))
    _, nxt = train_layer(*xs, split.y_train, cfg1, 1)
    assert all(a.shape[1] == 1 for a in nxt)
    cfg2 = small_cfg(blocks=2, lambda_grid=(0.1, 1.0, 10.0))
    _, nxt = train_layer(*xs, split.y_train, cfg2, 1)
    assert all(a.shape[1] == 6 for a in nxt)


def test_layer_columns_unit_uncentered_std(split):
    xs = (split.x_train, split.x_valid)
    _, nxt = train_layer(*xs, split.y_train, small_cfg(), 1)
    scales = np.sqrt(np.mean(nxt[0] ** 2, axis=0))
    np.testing.assert_allclose(scales, 1.0, rtol=1e-10)


def test_second_layer_consumes_full_width(split):
    cfg = small_cfg()
    model = train(split, cfg)
    assert model.layers[1].weights.shape == (
        cfg.layer_width, cfg.blocks * cfg.features_per_block)


def test_planted_signal_recovered(split):
    # make the labels an exact combination of block 1's relu features
    cfg = small_cfg(blocks=2, lambda_grid=(1e-4, 1.0))
    # gamma for block 1 comes from its own stream; reproduce the draw
    gamma = float(_block_gammas(cfg, 1)[1])
    block = draw_block(FeatureBlockSpec(gamma=gamma, p=cfg.features_per_block,
                                        bias_range=cfg.bias_range,
                                        stream_key=(7, 1, 1)), split.d)
    coef = np.arange(1.0, cfg.features_per_block + 1)
    y_train = apply_block(block, split.x_train) @ coef
    xs = (split.x_train, split.x_valid)
    layer, nxt = train_layer(*xs, y_train, cfg, 1)
    # block 1, smallest penalty: first column of its group
    col = nxt[0][:, 1 * cfg.n_penalties + 0]
    corr = np.corrcoef(col, y_train)[0, 1]
    assert corr > 0.999


def test_grouped_transform_matches_per_block_loop(split):
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
            block = draw_block(FeatureBlockSpec(
                gamma=float(gamma), p=p, bias_range=cfg.bias_range,
                stream_key=(cfg.seed, m, k)), xs[0].shape[1])
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

        layer, got = train_layer(*xs, split.y_train, cfg, m)
        np.testing.assert_array_equal(
            layer.weights, np.hstack([b.weights for b in blocks]))
        np.testing.assert_array_equal(
            layer.biases, np.concatenate([b.biases for b in blocks]))
        assert layer.modes == tuple(f.mode for f in fits)
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
    p = cfg.features_per_block
    block = FeatureBlock(weights=layer.weights[:, :p], biases=layer.biases[:p])
    direct_fit = ridge.fit_grid(
        apply_block(block, split.x_train), split.y_train, cfg.lambda_grid)
    direct = ridge.predict(direct_fit, apply_block(block, split.x_train))
    assert np.abs(rep * layer.scales[0] - direct).max() < 1e-8


def test_forward_reproduces_training_representation(split):
    cfg = small_cfg()
    model = train(split, cfg)
    xs = (split.x_train, split.x_valid)
    for m in range(1, cfg.depth + 1):
        _, xs = train_layer(*xs, split.y_train, cfg, m)
        np.testing.assert_allclose(network.forward(model, split.x_train, m),
                                   xs[0], rtol=1e-10)


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


def test_thread_count_does_not_change_anything(split, tmp_path,
                                               monkeypatch):
    # groups of two blocks, so the workers share three groups
    monkeypatch.setattr(network, "GROUP_COLUMNS", 10)
    cfg = small_cfg(blocks=6)
    serial = train(split, cfg, n_threads=1)
    threaded = train(split, cfg, n_threads=4)
    assert serial.lambda_star_index == threaded.lambda_star_index
    np.testing.assert_array_equal(predict(serial, split.x_test),
                                  predict(threaded, split.x_test))
    save_model(serial, tmp_path / "a.drz")
    save_model(threaded, tmp_path / "b.drz")
    assert (tmp_path / "a.drz").read_bytes() == (tmp_path / "b.drz").read_bytes()


# --- depth selection ---------------------------------------------------------

def _forged_model(valid_mses):
    finals = tuple(
        FinalFit(depth=d, fit=ridge.RidgeGridFit(
            lambdas=np.array([1.0]), betas=np.zeros((2, 1)), mode="primal"),
            lambda_star_index=0, valid_mse=np.array([mse]))
        for d, mse in enumerate(valid_mses, start=1))
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


def test_select_depth_requires_stored_fits(split):
    model = train(split, small_cfg(per_depth_final=False))
    with pytest.raises(ValueError, match="per-depth"):
        select_depth(model)


def test_select_depth_recomputed_on_split(split):
    model = train(split, small_cfg())
    stored = select_depth(model)
    recomputed = select_depth(model, split)
    assert stored == recomputed


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


@pytest.mark.parametrize("entry, bad", [
    ("layer1.betas.npy", lambda a: a[:, :-1]),                 # wrong shape
    ("layer1.weights.npy", lambda a: np.vstack([a, a[:1]])),   # input width
    ("layer1.scales.npy", lambda a: a.astype(np.float32)),     # wrong dtype
])
def test_load_rejects_inconsistent_array(split, tmp_path, entry, bad):
    model = train(split, small_cfg(depth=1))
    path = tmp_path / "model.drz"
    save_model(model, path)
    broken = tmp_path / "broken.drz"
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            if name == entry:
                buf = io.BytesIO()
                np.lib.format.write_array(
                    buf, bad(np.lib.format.read_array(io.BytesIO(data))))
                data = buf.getvalue()
            dst.writestr(name, data)
    with pytest.raises(network.ModelFormatError, match=entry):
        load_model(broken)
