import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import zipfile

import numpy as np
import pytest

from conftest import (block_bases, dense_columns, expand_rows, layer_bases,
                      recorded_bases)
from deepridge import network, ridge, theory
from deepridge.dataio import DataSplit, SimConfig, simulate_single_neuron
from deepridge.features import FeatureBlock, apply_block, draw_block
from deepridge.network import (DeepRidgeModel, FinalFit, Metrics, NetConfig,
                               _block_gammas, evaluate,
                               flat_random_feature_baseline, load_model,
                               predict, save_model, select_depth, train,
                               train_layer)
from deepridge.seeding import KEY_MAX, TAG_BASELINE, map_ordered

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


def trained_with_bases(split, cfg, monkeypatch):
    """``train(split, cfg)`` and, per layer, its blocks' C_k'."""
    with monkeypatch.context() as patched:
        calls = recorded_bases(patched)
        model = train(split, cfg)
    return model, layer_bases(calls, cfg)


# --- configuration -----------------------------------------------------------

def test_default_config_matches_reference_settings():
    from conftest import REFERENCE_GRID29
    cfg = NetConfig()
    assert cfg.blocks == 500
    assert cfg.features_per_block == 100
    assert cfg.n_penalties == 29
    assert cfg.lambda_grid == REFERENCE_GRID29
    assert (cfg.gamma_low, cfg.gamma_high) == (0.25, 1.25)


NAN, INF = float("nan"), float("inf")


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(depth=0)
    NetConfig(depth=network.MAX_DEPTH)
    with pytest.raises(ValueError, match="depth"):
        # (seed, 101, 0), block 0 of layer 101, would draw the simulated
        # data's stream (seed, 101)
        NetConfig(depth=101)
    with pytest.raises(ValueError):
        NetConfig(lambda_grid=(1.0, 1.0))
    with pytest.raises(ValueError):
        NetConfig(lambda_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        NetConfig(gamma_low=1.5, gamma_high=1.0)
    with pytest.raises(ValueError):
        NetConfig(bias_range=0.0)
    NetConfig(seed=KEY_MAX)
    for bad, message in (
            (dict(gamma_high=INF), "gamma_high must be positive and finite"),
            (dict(bias_range=INF), "bias_range"),
            (dict(lambda_grid=(1.0, INF)), "lambda_grid"),
            (dict(seed=-1), "seed"),
            (dict(seed=KEY_MAX + 1), "seed"),
            (dict(depth=True), "depth must be an integer"),
            (dict(blocks=True), "blocks must be an integer"),
            (dict(features_per_block=True), "features_per_block"),
            (dict(seed=False), "seed must be an integer"),
            (dict(depth=2.0), "depth must be an integer"),
            # [0.5] was stored and broadcast against each draw
            (dict(gamma_low=[0.5]), "gamma_low must be a real number"),
            (dict(lambda_grid=1.0), "lambda_grid must be a list")):
        with pytest.raises(ValueError, match=message):
            NetConfig(**bad)


@pytest.mark.parametrize("build, message", [
    (lambda s: NetConfig(lambda_grid=(0.1, NAN, 1.0)), "lambda_grid"),
    (lambda s: flat_random_feature_baseline(s, 4, SMALL_GRID,
                                            gamma_high=NAN),
     "gamma_high"),
    (lambda s: theory.TheoryParams(c=(NAN,), b=(1.0,)),
     "c must be positive and finite"),
    (lambda s: theory.TheoryParams(c=(1.0,), b=(NAN,)),
     "b must be positive and finite"),
    (lambda s: theory.RiskScenario(n=10, p=(3,), b=(NAN,)),
     "b must be positive and finite"),
    (lambda s: theory.default_curve_params(b_high=NAN), "b_high"),
    (lambda s: theory.risk_curves(theory.default_curve_params(), [0.5, NAN]),
     "c_grid"),
], ids=["lambda_grid", "baseline-gammas", "theory-c",
        "theory-b", "scenario-b", "curve-b-high", "curve-c-grid"])
def test_positivity_checks_refuse_nan(split, build, message):
    with pytest.raises(ValueError, match=message):
        build(split)


def test_equal_gamma_ends_fix_every_variance(split, monkeypatch):
    # uniform(g, g) is g exactly, drawn from the same stream
    cfg = small_cfg(gamma_low=0.7, gamma_high=0.7)
    draws = recorded_draws(monkeypatch)
    model = train(split, cfg)
    assert [args[1] for args, _ in draws] == [0.7] * (2 * cfg.blocks)
    draws.clear()
    predict(model, split.x_test)
    assert [args[1] for args, _ in draws] == [0.7] * (2 * cfg.blocks)
    # every baseline column's weights are its group's normals times
    # sqrt(0.7), the normals drawn after the variances
    applied, real = [], network.apply_block

    def record(block, x):
        applied.append(block)
        return real(block, x)

    monkeypatch.setattr(network, "apply_block", record)
    flat_random_feature_baseline(split, STREAMED_WIDTH, SMALL_GRID,
                                 gamma_low=0.7, gamma_high=0.7, seed=4)
    expected = []
    for g, (a, b) in enumerate(network.group_bounds(STREAMED_WIDTH, 1)):
        rng = network.stream_rng(4, TAG_BASELINE, g)
        rng.uniform(size=b - a)
        expected.append(rng.standard_normal((split.d, b - a)) * np.sqrt(0.7))
    assert len(expected) > 1 and len(applied) == 4 * len(expected)
    assert all(any(np.array_equal(block.weights, w) for w in expected)
               for block in applied)


# --- layer training ----------------------------------------------------------

def test_layer_width_arithmetic(split, monkeypatch):
    rows = len(stacked(split)[0])
    for blocks, grid, width in ((1, (1.0,), 1), (2, (0.1, 1.0, 10.0), 6)):
        cfg = small_cfg(depth=1, blocks=blocks, lambda_grid=grid)
        [(coords, cs)] = trained_outputs(split, cfg, monkeypatch)
        assert dense_columns(coords, cs).shape == (rows, width)


def test_layer_columns_unit_uncentered_std(split, monkeypatch):
    n_train = split.x_train.shape[0]
    [(coords, cs)] = trained_outputs(split, small_cfg(depth=1), monkeypatch)
    scales = np.sqrt(np.mean(dense_columns(coords, cs)[:n_train] ** 2,
                             axis=0))
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


def test_planted_signal_recovered(split, monkeypatch):
    # make the labels an exact combination of block 1's relu features
    cfg = small_cfg(depth=1, blocks=2, lambda_grid=(1e-4, 1.0))
    # gamma for block 1 comes from its own stream; reproduce the draw
    gamma = float(_block_gammas(cfg, 1)[1])
    block = draw_block((7, 1, 1), gamma, cfg.features_per_block, split.d,
                       cfg.bias_range)
    coef = np.arange(1.0, cfg.features_per_block + 1)
    y_train = apply_block(block, split.x_train) @ coef
    n_train = split.x_train.shape[0]
    [(coords, cs)] = trained_outputs(split, cfg, monkeypatch, y_train)
    # block 1, smallest penalty: first column of its group
    col = dense_columns(coords, cs)[:n_train, 1 * cfg.n_penalties + 0]
    corr = np.corrcoef(col, y_train)[0, 1]
    assert corr > 0.999


def test_grouped_transform_matches_per_block_loop(split, monkeypatch):
    # P=250 makes groups of two blocks, so K=5 ends in a ragged group of one.
    # A GEMM of another shape may sum in another order, so features can
    # differ by a few ulps; near-interpolating penalties such as 1e-4 would
    # amplify that by the Gram's condition number, hence penalties >= 0.1.
    # From layer 2 on, the loop draws each block on the previous layer's
    # sum r coordinates and scales its features for the K*L dense columns
    cfg = small_cfg(blocks=5, features_per_block=250,
                    lambda_grid=(0.1, 1.0, 100.0))
    p = cfg.features_per_block
    assert [b - a for a, b in network.group_bounds(cfg.blocks, p)] == [2, 2, 1]
    model, model_bases = trained_with_bases(split, cfg, monkeypatch)
    xs, fan_in = (split.x_train, split.x_valid), split.d
    for m in range(1, cfg.depth + 1):
        blocks, feats, fits, scales, reps = [], [], [], [], ([], [])
        for k, gamma in enumerate(_block_gammas(cfg, m)):
            block = draw_block((cfg.seed, m, k), float(gamma), p,
                               xs[0].shape[1], cfg.bias_range)
            zs = [apply_block(block, a, fan_in) for a in xs]
            fit = ridge.fit_grid(zs[0], split.y_train, cfg.lambda_grid)
            preds = [ridge.predict(fit, z) for z in zs]
            s = ridge.column_scales(preds[0])
            for out, pred in zip(reps, preds):
                out.append(pred / s)
            blocks.append(block)
            feats.append(zs)
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
        calls = recorded_bases(monkeypatch)
        layer, got = train_layer(np.vstack(xs), xs[0].shape[0], split.y_train,
                                 cfg, m)
        monkeypatch.undo()
        [got_bases] = layer_bases(calls, cfg)
        dense = dense_columns(got, got_bases)
        dense = (dense[:xs[0].shape[0]], dense[xs[0].shape[0]:])
        for (_, drawn), block in zip(draws, blocks, strict=True):
            np.testing.assert_array_equal(drawn.weights, block.weights)
            np.testing.assert_array_equal(drawn.biases, block.biases)
        assert modes == [f.mode for f in fits]
        # the stored layer is the basis of the reference fits over their
        # scales; the next layer reads each block's features times its
        # (U S) map
        ref_fits = np.stack([f.betas for f in fits]), np.vstack(scales)
        x_basis = network.layer_basis(*ref_fits)
        np.testing.assert_array_equal(x_basis.offsets, layer.offsets)
        np.testing.assert_allclose(layer.maps, x_basis.maps, rtol=1e-10,
                                   atol=1e-12)
        for got_c, want_c in zip(got_bases, block_bases(*ref_fits),
                                 strict=True):
            np.testing.assert_allclose(got_c, want_c, rtol=1e-10, atol=1e-12)
        xs = tuple(np.hstack([zs[i] @ x_basis.maps[comp].T
                              for zs, comp in zip(feats, x_basis._rows())])
                   for i in range(2))
        fan_in = cfg.layer_width
        np.testing.assert_allclose(got, np.vstack(xs), rtol=1e-10)
        # the columns have unit scale: an entry near zero is compared to
        # within 1e-12 of that scale, as a dense column expanded from its
        # coordinates rounds to that scale, not to the entry's own
        for i, a in enumerate((split.x_train, split.x_valid)):
            out = network.forward(model, a, m)
            np.testing.assert_allclose(out, xs[i], rtol=1e-10)
            np.testing.assert_allclose(dense[i], ref[i], rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(
                dense_columns(out, model_bases[m - 1]), ref[i], rtol=1e-10,
                atol=1e-12)


def test_forward_group_peak_holds_one_draw():
    # one transform group on a wide input and few rows, so a block's (D, P)
    # draw outweighs the group's (rows, columns) features: a second (D, P)
    # temporary per draw would lift the peak past this count
    rows, d, p, n_pen = 10, 2000, 100, len(SMALL_GRID)
    blocks = network.GROUP_COLUMNS // p
    [(a, b)] = network.group_bounds(blocks, p)
    columns = (b - a) * p
    # each block keeps one zero coordinate, as a block of zero betas does
    layer = network.LayerBasis(maps=np.zeros((blocks, p)),
                               offsets=np.arange(blocks + 1))
    model = DeepRidgeModel(
        config=NetConfig(depth=1, blocks=blocks, features_per_block=p,
                         lambda_grid=SMALL_GRID),
        layers=(layer,), final_fits=(), input_dim=d)
    x = np.random.default_rng(0).standard_normal((rows, d))
    tracemalloc.start()
    try:
        network.forward(model, x, n_threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (d * columns          # the group's weight buffer
                       + rows * columns     # its features
                       + d * p              # one block's draw
                       + rows * (d + blocks * n_pen))   # layer input, output


# --- full training and prediction --------------------------------------------

def test_degenerate_width_equals_direct_ridge(split, monkeypatch):
    cfg = small_cfg(depth=1, blocks=1)
    model, [cs] = trained_with_bases(split, cfg, monkeypatch)
    rep = dense_columns(network.forward(model, split.x_train, 1), cs)
    # un-normalize and compare against a direct fit with the same block
    block = draw_block((cfg.seed, 1, 0), float(_block_gammas(cfg, 1)[0]),
                       cfg.features_per_block, split.d, cfg.bias_range)
    direct_fit = ridge.fit_grid(
        apply_block(block, split.x_train), split.y_train, cfg.lambda_grid)
    direct = ridge.predict(direct_fit, apply_block(block, split.x_train))
    scales = ridge.column_scales(direct)
    assert np.abs(rep * scales - direct).max() < 1e-8


def test_forward_reproduces_training_representation(split, monkeypatch):
    # training transforms the train rows, then the validation rows, each as
    # a row block of its own; forward given either split does the same
    # GEMMs, so the coordinates agree bit for bit. In the second network
    # each block is wider than a group and fills one on its own
    n_train = split.x_train.shape[0]
    wide = network.GROUP_COLUMNS + 100
    for cfg in (small_cfg(), small_cfg(blocks=2, features_per_block=wide)):
        model = train(split, cfg)
        for m, (coords, _) in enumerate(
                trained_outputs(split, cfg, monkeypatch), start=1):
            for x, rows in ((split.x_train, slice(0, n_train)),
                            (split.x_valid, slice(n_train, None))):
                np.testing.assert_array_equal(network.forward(model, x, m),
                                              coords[rows])
    assert network.group_bounds(2, wide) == [(0, 1), (1, 2)]


def test_block_fits_hold_only_the_train_rows_features():
    # one block of 1000 features on 6 inputs is one group whose features
    # outweigh everything else the layer holds: the layer fits on the
    # train rows' features and drops them before the validation rows'
    split = simulate_single_neuron(
        SimConfig(n=600, d=6, noise_std=0.2, activation="relu", seed=5))
    cfg = small_cfg(depth=1, blocks=1, features_per_block=1000)
    x, n_train = stacked(split)
    assert len(x) == 2 * n_train
    tracemalloc.start()
    try:
        train_layer(x, n_train, split.y_train, cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(x) * cfg.features_per_block


# --- compressed representation -----------------------------------------------

def trained_outputs(split, cfg, monkeypatch, y_train=None):
    """Each layer's training-time coordinates, as ``train`` computes them
    (against ``y_train``, by default the split's), with its blocks'
    C_k'."""
    rep, n_train = stacked(split)
    y_train = split.y_train if y_train is None else y_train
    outputs = []
    with monkeypatch.context() as patched:
        calls = recorded_bases(patched)
        for m in range(1, cfg.depth + 1):
            _, rep = train_layer(rep, n_train, y_train, cfg, m)
            outputs.append(rep)
    return list(zip(outputs, layer_bases(calls, cfg), strict=True))


def test_dense_expansion_reproduces_grid_columns(split, monkeypatch):
    # the dense columns computed block by block: each block's features
    # times its ridge fit on the train rows, over the fitted columns'
    # train-row scales, the next layer drawing on those columns'
    # coordinates and scaling for their dense width
    cfg = small_cfg(blocks=4, features_per_block=20,
                    lambda_grid=network.DEFAULT_LAMBDA_GRID)
    ref, n_train = stacked(split)
    fan_in, n_pen = ref.shape[1], cfg.n_penalties
    for m, (coords, cs) in enumerate(trained_outputs(split, cfg, monkeypatch),
                                     start=1):
        assert coords.shape[1] < cfg.layer_width
        columns = []
        for k, gamma in enumerate(_block_gammas(cfg, m)):
            z = apply_block(draw_block((cfg.seed, m, k), float(gamma),
                                       cfg.features_per_block, ref.shape[1],
                                       cfg.bias_range), ref, fan_in)
            fit = ridge.fit_grid(z[:n_train], split.y_train, cfg.lambda_grid)
            pred = ridge.predict(fit, z)
            columns.append(pred / ridge.column_scales(pred[:n_train]))
        dense = np.hstack(columns)
        np.testing.assert_allclose(dense_columns(coords, cs), dense,
                                   rtol=1e-10, atol=1e-10)
        ref = np.hstack([dense[:, k * n_pen:(k + 1) * n_pen] @ c.T
                         for k, c in enumerate(cs)])
        fan_in = dense.shape[1]


def compressing_cfg(**kw):
    """4 blocks of 20 features on 29 penalties: every rank is below L."""
    return small_cfg(blocks=4, features_per_block=20,
                     lambda_grid=network.DEFAULT_LAMBDA_GRID, **kw)


def test_coordinates_keep_dense_row_norms(split, monkeypatch):
    # C_k is orthonormal, so each row's coordinates have its dense
    # columns' norm: that is why features on the coordinates, scaled by
    # the dense width K*L, keep the dense input's pre-activation variance
    cfg = compressing_cfg(depth=3)
    model, bases = trained_with_bases(split, cfg, monkeypatch)
    for m, cs in enumerate(bases, start=1):
        coords = network.forward(model, split.x_test, m)
        assert coords.shape[1] < cfg.layer_width
        np.testing.assert_allclose(
            np.linalg.norm(coords, axis=1),
            np.linalg.norm(dense_columns(coords, cs), axis=1), rtol=1e-10)


def test_draws_take_the_input_width_and_nothing_else(split, monkeypatch):
    # layer 1 draws (d, P) per block, later layers (sum r, P) on the stored
    # ranks of the layer before; a draw is the same in training and in
    # predict, on any rows and any thread count
    cfg = compressing_cfg(depth=3)
    draws = recorded_draws(monkeypatch)
    model = train(split, cfg)
    widths = [split.d] + [int(layer.ranks.sum()) for layer in model.layers]
    assert widths[1] < cfg.layer_width
    assert [(args[0], args[3]) for args, _ in draws] == [
        ((cfg.seed, m, k), widths[m - 1])
        for m in range(1, cfg.depth + 1) for k in range(cfg.blocks)]
    for args, block in draws:
        assert block.weights.shape == (args[3], cfg.features_per_block)
        again = draw_block(*args)
        np.testing.assert_array_equal(again.weights, block.weights)
        np.testing.assert_array_equal(again.biases, block.biases)
    trained = list(draws)
    for threads in (1, 3):
        draws.clear()
        predict(model, split.x_test[:7], n_threads=threads)
        assert len(draws) == len(trained)
        for (args, block), (want_args, want) in zip(draws, trained):
            assert args == want_args
            np.testing.assert_array_equal(block.weights, want.weights)
            np.testing.assert_array_equal(block.biases, want.biases)


def test_basis_signs_do_not_depend_on_svd(split, tmp_path, monkeypatch):
    # LAPACK may return any sign for a singular pair (u_i, v_i): flipping
    # every other pair changes no bit of training, forward or predict
    cfg = compressing_cfg()
    want = train(split, cfg)
    outputs = [(network.forward(want, split.x_test, depth),
                predict(want, split.x_test, depth)) for depth in (1, 2)]
    real_svd = np.linalg.svd

    def flipped_svd(a, *args, **kwargs):
        u, s, vt = real_svd(a, *args, **kwargs)
        u[:, ::2] *= -1
        vt[::2] *= -1
        return u, s, vt

    monkeypatch.setattr(np.linalg, "svd", flipped_svd)
    got = train(split, cfg)
    for a, b in zip(got.layers, want.layers):
        for name in ("maps", "offsets"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for a, b in zip(got.final_fits, want.final_fits):
        np.testing.assert_array_equal(a.coef, b.coef)
        np.testing.assert_array_equal(a.valid_mse, b.valid_mse)
    for depth, (coords, pred) in enumerate(outputs, start=1):
        np.testing.assert_array_equal(
            network.forward(got, split.x_test, depth), coords)
        np.testing.assert_array_equal(predict(got, split.x_test, depth), pred)
    save_model(got, tmp_path / "flipped.drz")
    monkeypatch.undo()
    save_model(want, tmp_path / "plain.drz")
    assert ((tmp_path / "flipped.drz").read_bytes()
            == (tmp_path / "plain.drz").read_bytes())


def test_predict_runs_no_svd(split, tmp_path, monkeypatch):
    # a trained layer is the basis forward reads, and each final ridge is
    # stored on the coordinates: after training, nothing takes an SVD
    model = train(split, compressing_cfg())
    save_model(model, tmp_path / "model.drz")
    want = [predict(model, split.x_test, depth) for depth in (1, 2)]

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD after training")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    loaded = load_model(tmp_path / "model.drz")
    for m in (model, loaded):
        for depth in (1, 2):
            rep = network.forward(m, split.x_test, depth, n_threads=2)
            assert rep.shape == (len(split.x_test), m.layers[depth - 1].width)
            np.testing.assert_array_equal(predict(m, split.x_test, depth),
                                          want[depth - 1])


@pytest.mark.parametrize("blocks, grid", [(3, SMALL_GRID),
                                          (12, network.DEFAULT_LAMBDA_GRID)],
                         ids=["both-primal", "primal-on-coordinates"])
def test_final_ridge_on_coordinates_equals_dense_ridge(split, blocks, grid,
                                                      monkeypatch):
    # with 12 blocks of 5 features on 29 penalties the coordinates are at
    # most 60 wide against 80 training rows, while the dense columns are
    # 348 wide: the fit on the coordinates is primal, the dense reference
    # dual. Those 348 columns have rank at most 60, so below penalty 0.01
    # the dense reference's own primal and dual coefficients differ by more
    # than 1e-10; there the fitted values are compared instead. The model
    # keeps the coordinate fit's column at the selected penalty, bit for bit
    cfg = small_cfg(blocks=blocks, lambda_grid=grid)
    model = train(split, cfg)
    n_train = split.x_train.shape[0]
    well_posed = np.asarray(grid) >= (0 if blocks == 3 else 0.01)
    for ff, (coords, cs) in zip(model.final_fits,
                                trained_outputs(split, cfg, monkeypatch)):
        fit = ridge.fit_grid(coords[:n_train], split.y_train, grid)
        assert ff.coef.shape == (coords.shape[1],)
        np.testing.assert_array_equal(ff.coef,
                                      fit.betas[:, ff.lambda_star_index])
        dense = dense_columns(coords, cs)[:n_train]
        ref = ridge.fit_grid(dense, split.y_train, grid)
        if blocks == 12:
            assert coords.shape[1] < n_train < cfg.layer_width
            assert (fit.mode, ref.mode) == ("primal", "dual")
        betas = expand_rows(cs, fit.betas)
        for got, want in ((betas[:, well_posed], ref.betas[:, well_posed]),
                          (dense @ betas, dense @ ref.betas)):
            scale = np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-10 * scale)


def _dense_predictions(model, bases, x, depth):
    # the final ridge expanded to the dense columns, on the dense columns
    cs = bases[depth - 1]
    coef = expand_rows(cs, model.final_fits[depth - 1].coef[:, None])
    dense = dense_columns(network.forward(model, x, depth), cs)
    return (dense @ coef)[:, 0]


@pytest.mark.parametrize("grid", [(1.0,), SMALL_GRID],
                         ids=["one-penalty", "every-rank-full"])
def test_grids_without_compression(split, tmp_path, grid, monkeypatch):
    # one penalty gives each block one column; four well-spread penalties
    # leave a block min(4, live features) directions, since a relu feature
    # that is zero on every train row gets a zero coefficient and adds none
    # (layer 2's block 3 has two such features among its five)
    live, real_fit_grid = [], network.fit_grid

    def recorded_fit_grid(z, *args):
        live.append(int(np.count_nonzero(np.any(z != 0, axis=0))))
        return real_fit_grid(z, *args)

    monkeypatch.setattr(network, "fit_grid", recorded_fit_grid)
    calls = recorded_bases(monkeypatch)
    cfg = small_cfg(lambda_grid=grid)
    model = train(split, cfg)
    monkeypatch.undo()
    bases = layer_bases(calls, cfg)
    k = cfg.blocks
    for m, layer in enumerate(model.layers):
        # each layer's K block fits come before its final ridge's
        block_live = live[m * (k + 1):m * (k + 1) + k]
        np.testing.assert_array_equal(layer.ranks,
                                      np.minimum(len(grid), block_live))
    save_model(model, tmp_path / "model.drz")
    loaded = load_model(tmp_path / "model.drz")
    for depth in (1, 2):
        pred = predict(model, split.x_test, depth)
        np.testing.assert_array_equal(predict(loaded, split.x_test, depth),
                                      pred)
        np.testing.assert_allclose(
            pred, _dense_predictions(model, bases, split.x_test, depth),
            rtol=1e-10, atol=1e-10 * np.abs(pred).max())


def test_training_basis_is_the_one_predict_uses(split, monkeypatch):
    # each worker takes its group's basis in training, the same bits as the
    # whole layer's taken at once and for any thread count; forward and
    # predict read each group's rows of that stored layer
    monkeypatch.setattr(network, "GROUP_COLUMNS", 10)
    cfg = small_cfg(depth=1, blocks=6,
                    lambda_grid=network.DEFAULT_LAMBDA_GRID)
    x, n_train = stacked(split)
    fits, real_basis = [], network.layer_basis

    def recorded_basis(betas, scales):
        fits.append((betas.copy(), scales.copy()))
        return real_basis(betas, scales)

    with monkeypatch.context() as patched:
        patched.setattr(network, "layer_basis", recorded_basis)
        want, _ = train_layer(x, n_train, split.y_train, cfg, 1)
    assert len(fits) == len(network.group_bounds(
        cfg.blocks, cfg.features_per_block)) == 3
    whole = real_basis(*(np.concatenate(a) for a in zip(*fits)))
    model = train(split, cfg)
    for threads in (1, 3):
        layer, _ = train_layer(x, n_train, split.y_train, cfg, 1, threads)
        for got in (layer, want, model.layers[0]):
            for name in ("maps", "offsets"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(whole, name))
        out = network.forward(model, split.x_test, n_threads=threads)
        assert out.shape == (len(split.x_test), whole.width)


def _within(seconds, fn):
    """``fn()`` on a thread that must finish within ``seconds``."""
    outcome = []

    def run():
        try:
            outcome.append(("value", fn()))
        except Exception as exc:
            outcome.append(("error", exc))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "layer transform did not finish"
    return outcome[0]


def test_groups_place_their_rows_in_order_under_contention(split,
                                                           monkeypatch):
    # one-block groups on more workers than cores, with the interpreter
    # switching threads as often as it can, so groups finish out of order:
    # the calling thread must still copy their coordinates in group order
    monkeypatch.setattr(network, "GROUP_COLUMNS", 5)
    cfg = small_cfg(blocks=12, lambda_grid=network.DEFAULT_LAMBDA_GRID)
    x, n_train = stacked(split)
    serial = train_layer(x, n_train, split.y_train, cfg, 1)[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            kind, (_, rep) = _within(60, lambda: train_layer(
                x, n_train, split.y_train, cfg, 1, n_threads=8))
            assert kind == "value"
            np.testing.assert_array_equal(rep, serial)
    finally:
        sys.setswitchinterval(interval)


def test_failed_group_leaves_no_worker_waiting(split, monkeypatch):
    # the third of six one-block groups fails in its fits while the groups
    # after it run on other workers: the error must reach the caller when
    # it takes that group's result, with no worker left running
    monkeypatch.setattr(network, "GROUP_COLUMNS", 5)
    cfg = small_cfg(blocks=6)
    x, n_train = stacked(split)
    calls, real_fit_grid = [], network.fit_grid

    def failing_fit_grid(*args):
        calls.append(None)
        if len(calls) == 3:
            raise ValueError("non-finite entries in z")
        return real_fit_grid(*args)

    monkeypatch.setattr(network, "fit_grid", failing_fit_grid)
    kind, exc = _within(60, lambda: train_layer(
        x, n_train, split.y_train, cfg, 1, n_threads=4))
    assert kind == "error" and isinstance(exc, ValueError)


@pytest.mark.parametrize("threads", [1, 2])
def test_layer_pass_holds_one_copy_of_its_coordinates(threads, monkeypatch):
    # 60 groups of two 4-feature blocks on 1000 stacked rows: each group's
    # coordinates are small beside the layer's, so a pass that held every
    # group's until the last one was copied would hold them twice
    monkeypatch.setattr(network, "GROUP_COLUMNS", 8)
    split = simulate_single_neuron(
        SimConfig(n=1500, d=6, noise_std=0.2, activation="relu", seed=5))
    cfg = small_cfg(depth=1, blocks=120, features_per_block=4)
    x, n_train = stacked(split)
    assert len(x) == 1000 and len(network.group_bounds(120, 4)) == 60

    def traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (layer, coords), peak = traced(lambda: train_layer(
        x, n_train, split.y_train, cfg, 1, threads))
    assert peak < 1.5 * coords.nbytes
    model = DeepRidgeModel(config=cfg, layers=(layer,), final_fits=(),
                           input_dim=split.d)
    out, peak = traced(lambda: network.forward(model, x, n_threads=threads))
    np.testing.assert_array_equal(out, coords)
    assert peak < 1.5 * out.nbytes


def test_train_holds_no_two_dense_layer_arrays():
    # 40 blocks of 4 features on 29 penalties: the dense layer is 1160
    # columns wide, the coordinates at most 160. Holding a layer's dense
    # input and output, as before compression, would alone pass the bound
    split = simulate_single_neuron(
        SimConfig(n=600, d=6, noise_std=0.2, activation="relu", seed=5))
    cfg = small_cfg(blocks=40, features_per_block=4,
                    lambda_grid=network.DEFAULT_LAMBDA_GRID)
    rows = split.x_train.shape[0] + split.x_valid.shape[0]
    tracemalloc.start()
    try:
        train(split, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * rows * cfg.layer_width


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


@pytest.mark.parametrize("depth", [1.0, True, np.float64(2.0), "1"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_forward_refuses_a_depth_that_is_not_an_integer(split, depth):
    # depth=1.0 failed in slicing with a TypeError, and True ran as depth 1
    model = train(split, small_cfg())
    for fn in (network.forward, predict):
        with pytest.raises(ValueError, match="depth must be an integer"):
            fn(model, split.x_test, depth=depth)


def test_numpy_integer_depth_predicts_as_int(split):
    model = train(split, small_cfg())
    for depth in (1, 2):
        np.testing.assert_array_equal(
            predict(model, split.x_test, depth=np.int64(depth)),
            predict(model, split.x_test, depth=depth))


@pytest.mark.parametrize("n_threads", [2.5, 0, -2, True],
                         ids=["float", "zero", "negative", "bool"])
@pytest.mark.parametrize("entry", ["map_ordered", "train", "predict"])
def test_thread_counts_that_are_not_positive_integers_are_refused(
        split, entry, n_threads):
    # each ran: 2.5 on a pool of 3 workers, the others serially
    model = train(split, small_cfg(depth=1)) if entry == "predict" else None
    calls = []
    with pytest.raises(ValueError, match="n_threads must be"):
        if entry == "map_ordered":
            list(map_ordered(calls.append, range(3), n_threads))
        elif entry == "train":
            train(split, small_cfg(depth=1), n_threads=n_threads)
        else:
            predict(model, split.x_test, n_threads=n_threads)
    assert calls == []   # refused before the first item ran


def test_numpy_integer_counts_are_stored_as_ints(split, tmp_path):
    # save_model's JSON header raised a TypeError on a numpy integer
    cfg = small_cfg(depth=np.int64(1), blocks=np.int32(3),
                    features_per_block=np.int64(5), seed=np.uint32(7))
    assert cfg == small_cfg(depth=1)
    assert {type(v) for v in (cfg.depth, cfg.blocks, cfg.features_per_block,
                              cfg.seed)} == {int}
    save_model(train(split, cfg), tmp_path / "model.drz")
    assert load_model(tmp_path / "model.drz").config == cfg


def test_thread_count_does_not_change_anything(split, tmp_path,
                                               monkeypatch):
    # groups of two blocks, so the workers share three groups
    monkeypatch.setattr(network, "GROUP_COLUMNS", 10)
    cfg = small_cfg(blocks=6)
    serial = train(split, cfg, n_threads=1)
    threaded = train(split, cfg, n_threads=4)
    assert ([ff.lambda_star_index for ff in serial.final_fits]
            == [ff.lambda_star_index for ff in threaded.final_fits])
    expected = predict(serial, split.x_test)
    np.testing.assert_array_equal(predict(threaded, split.x_test), expected)
    for k in (1, 2, 4):
        for model in (serial, threaded):
            np.testing.assert_array_equal(
                predict(model, split.x_test, n_threads=k), expected)
    save_model(serial, tmp_path / "a.drz")
    save_model(threaded, tmp_path / "b.drz")
    assert (tmp_path / "a.drz").read_bytes() == (tmp_path / "b.drz").read_bytes()


# --- freed heap --------------------------------------------------------------

def test_each_layer_pass_releases_the_free_heap(split, monkeypatch):
    calls = []
    monkeypatch.setattr(network, "_release_free_heap",
                        lambda: calls.append(1))
    model = train(split, small_cfg(depth=3))
    assert len(calls) == 3
    for depth in (1, 2, 3):
        calls.clear()
        predict(model, split.x_test, depth)
        assert len(calls) == depth
    calls.clear()
    flat_random_feature_baseline(split, 500, SMALL_GRID)
    assert len(calls) == 1


def test_heap_release_changes_no_value(split, tmp_path, monkeypatch):
    # the same network and baseline with and without malloc_trim
    cfg = small_cfg(depth=3)

    def run(name):
        model = train(split, cfg)
        save_model(model, tmp_path / name)
        return ([predict(model, split.x_test, m) for m in (1, 2, 3)],
                flat_random_feature_baseline(split, 500, SMALL_GRID))

    trimmed = run("trimmed.drz")
    monkeypatch.setattr(network, "_malloc_trim", lambda: None)
    untrimmed = run("untrimmed.drz")
    assert ((tmp_path / "trimmed.drz").read_bytes()
            == (tmp_path / "untrimmed.drz").read_bytes())
    for a, b in zip(trimmed[0], untrimmed[0]):
        np.testing.assert_array_equal(a, b)
    assert trimmed[1] == untrimmed[1]


ROUNDS_RSS_CHILD = """
import os, threading, time
from deepridge import dataio, network
page = os.sysconf("SC_PAGE_SIZE")

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * page

peak, done = [0], threading.Event()

def sample():
    while not done.is_set():
        peak[0] = max(peak[0], rss())
        time.sleep(2e-4)

split = dataio.simulate_single_neuron(
    dataio.SimConfig(n=2100, d=50, noise_std=0.3, seed=1))
cfg = network.NetConfig(depth=2, blocks=70, features_per_block=100, seed=1)
threading.Thread(target=sample, daemon=True).start()
for _ in range(2):
    peak[0] = rss()
    model = network.train(split, cfg)
    network.predict(model, split.x_test)
    del model
    network.flat_random_feature_baseline(split, cfg.layer_width,
                                         cfg.lambda_grid, seed=1)
    print(peak[0])
done.set()
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_second_round_peaks_no_higher_than_the_first():
    # two identical rounds of train, predict and the flat baseline in a
    # child process, its RSS sampled every 0.2 ms. Without the release
    # glibc kept the first round's freed features and fits resident, and
    # the second round peaked 4.7 MB higher (0.2 MB with it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(network.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", ROUNDS_RSS_CHILD], env=env,
                         check=True, timeout=120, capture_output=True,
                         text=True)
    first, second = (int(v) for v in out.stdout.split())
    assert abs(second - first) <= 2 * 2 ** 20


# --- depth selection ---------------------------------------------------------

def _forged_model(valid_mses):
    finals = tuple(FinalFit(coef=np.zeros(2), lambda_star_index=0,
                            valid_mse=np.array([mse]))
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


def test_evaluate_refuses_a_train_mean_that_is_not_finite():
    # NaN gave NaN metrics
    with pytest.raises(ValueError, match="y_train_mean must be finite"):
        evaluate(np.zeros(3), np.arange(3.0), y_train_mean=float("nan"))


def test_evaluate_degenerate_labels():
    with pytest.raises(ValueError, match="degenerate"):
        evaluate(np.zeros(3), np.full(3, 2.0), y_train_mean=2.0)


def test_evaluate_refuses_empty_input():
    # was reported as degenerate labels
    with pytest.raises(ValueError,
                       match="predictions and labels must be non-empty"):
        evaluate([], [], 0.0)


@pytest.mark.parametrize("y_train_mean", [[0.0], (0.0,), np.array([0.0])],
                         ids=["list", "tuple", "array"])
def test_scalar_settings_refuse_a_list(y_train_mean):
    # each ran as if given the number
    with pytest.raises(ValueError,
                       match="^y_train_mean must be a real number$"):
        evaluate(np.zeros(3), np.arange(3.0), y_train_mean)


# --- flat baseline -----------------------------------------------------------

def test_baseline_single_feature(split):
    res = flat_random_feature_baseline(split, 1, SMALL_GRID, seed=1)
    assert np.isfinite(res.metrics.one_minus_r2)
    assert res.lambda_star_index in range(len(SMALL_GRID))


def test_baseline_planted_signal():
    # labels exactly linear in the baseline's own relu features
    rng_probe = np.random.default_rng(0)
    x_all = rng_probe.standard_normal((600, 6))
    p_total = 40
    block = baseline_block(6, p_total, 200, seed=3)
    y_all = apply_block(block, x_all) @ np.linspace(-1, 1, p_total)
    split = DataSplit(
        x_train=x_all[:200], y_train=y_all[:200],
        x_valid=x_all[200:400], y_valid=y_all[200:400],
        x_test=x_all[400:], y_test=y_all[400:])
    res = flat_random_feature_baseline(split, p_total, (1e-8, 1e-6), seed=3)
    assert res.metrics.one_minus_r2 < 0.01


def test_baseline_rejects_bad_width(split):
    with pytest.raises(ValueError):
        flat_random_feature_baseline(split, 0, SMALL_GRID)


@pytest.mark.parametrize("kwargs, message", [
    (dict(gamma_low=-1.0), "gamma_low must be positive and finite"),
    (dict(gamma_low=1.0, gamma_high=0.5),
     "gamma_low must not exceed gamma_high"),
    (dict(bias_range=0.0), "bias_range must be positive"),
    (dict(gamma_high=INF), "gamma_high must be positive and finite"),
    (dict(bias_range=INF), "bias_range must be positive and finite"),
    (dict(lambdas=(0.1, INF)), "penalties must be positive and finite"),
    # True ran one feature; 2.5 raised a TypeError
    (dict(p_total=True), "p_total must be an integer"),
    (dict(p_total=2.5), "p_total must be an integer"),
], ids=["negative-gamma", "reversed-gammas", "zero-bias-range",
        "infinite-gamma-high", "infinite-bias-range", "infinite-penalty",
        "bool-width", "float-width"])
def test_baseline_rejects_bad_arguments_before_any_draw(split, kwargs,
                                                       message, monkeypatch):
    def no_draw(*key):
        raise AssertionError(f"stream {key} drawn before the checks")

    monkeypatch.setattr(network, "stream_rng", no_draw)
    with pytest.raises(ValueError, match=message):
        flat_random_feature_baseline(split, **{"p_total": 4,
                                               "lambdas": SMALL_GRID,
                                               **kwargs})


# spans four transform column groups, the last one ragged
STREAMED_WIDTH = 3 * network.GROUP_COLUMNS + 300


def baseline_group(rng, d, cols):
    """``cols`` baseline features on ``d`` inputs, drawn from ``rng`` as the
    baseline draws a column group: variances, weights, then biases."""
    gammas = rng.uniform(0.25, 1.25, size=cols)
    weights = rng.standard_normal((d, cols)) * np.sqrt(gammas)
    return FeatureBlock(weights=weights,
                        biases=rng.uniform(-1.0, 1.0, size=cols))


def baseline_block(d, p_total, n_train, seed):
    """The flat baseline's whole feature block: one group when p_total <=
    n_train, else the groups of ``group_bounds(p_total, 1)``, group g drawn
    from the keyed stream (seed, 202, g)."""
    groups = ([(0, p_total)] if p_total <= n_train
              else network.group_bounds(p_total, 1))
    parts = [baseline_group(network.stream_rng(seed, TAG_BASELINE, g),
                            d, b - a)
             for g, (a, b) in enumerate(groups)]
    return FeatureBlock(weights=np.hstack([p.weights for p in parts]),
                        biases=np.concatenate([p.biases for p in parts]))


def dense_baseline(split, block):
    """The flat baseline fit on each split's whole feature matrix of
    ``block``: its validation MSEs, the selected index and the test
    metrics."""
    fit = ridge.fit_grid(apply_block(block, split.x_train), split.y_train,
                         SMALL_GRID)
    valid_pred = ridge.predict(fit, apply_block(block, split.x_valid))
    valid_mse = np.mean((valid_pred - split.y_valid[:, None]) ** 2, axis=0)
    star = int(np.argmin(valid_mse))
    test_pred = ridge.predict(fit, apply_block(block, split.x_test))[:, star]
    return valid_mse, star, evaluate(test_pred, split.y_test,
                                     float(np.mean(split.y_train)))


def recorded_baseline(split, p_total, seed, monkeypatch):
    """The baseline's result and its validation MSEs."""
    selected, real = [], network._selected

    def record(*args):
        selected.append(real(*args))
        return selected[-1]

    monkeypatch.setattr(network, "_selected", record)
    res = flat_random_feature_baseline(split, p_total, SMALL_GRID, seed=seed)
    [(_, valid_mse)] = selected
    return res, valid_mse


def test_streamed_baseline_matches_dense_fit(split, monkeypatch):
    # more features than train rows: the Gram is summed over column groups,
    # which reorders the sums, so agreement is to rounding
    n_train = split.x_train.shape[0]
    assert STREAMED_WIDTH > n_train
    res, valid_mse = recorded_baseline(split, STREAMED_WIDTH, 4, monkeypatch)
    ref_mse, ref_star, ref_metrics = dense_baseline(
        split, baseline_block(split.d, STREAMED_WIDTH, n_train, 4))
    assert res.lambda_star_index == ref_star
    np.testing.assert_allclose(valid_mse, ref_mse, rtol=1e-10)
    np.testing.assert_allclose(res.metrics.mse, ref_metrics.mse, rtol=1e-10)


@pytest.mark.parametrize("p_total, dual", [(60, False), (500, True)],
                         ids=["primal-60", "dual-500"])
def test_one_group_baseline_is_the_single_draw_fit(split, p_total, dual,
                                                   monkeypatch):
    # one column group, primal or dual: the fit and predictions are those
    # of the whole matrix, and (seed, 202, 0) draws what (seed, 202) does,
    # so the baseline is bit for bit the fit of one draw from (seed, 202)
    assert p_total <= network.GROUP_COLUMNS
    assert (p_total > split.x_train.shape[0]) == dual
    res, valid_mse = recorded_baseline(split, p_total, 4, monkeypatch)
    single = baseline_group(network.stream_rng(4, TAG_BASELINE),
                            split.d, p_total)
    ref_mse, ref_star, ref_metrics = dense_baseline(split, single)
    np.testing.assert_array_equal(valid_mse, ref_mse)
    assert res.lambda_star_index == ref_star
    assert res.metrics == ref_metrics


@pytest.mark.parametrize("d", [6, 200], ids=["narrow-input", "wide-input"])
def test_streamed_baseline_holds_no_whole_feature_matrix(d):
    # neither a split's whole features nor, at 200 inputs, the whole
    # (d, p_total) weight array
    split = simulate_single_neuron(
        SimConfig(n=900, d=d, noise_std=0.2, activation="relu", seed=5))
    n_train = split.x_train.shape[0]
    tracemalloc.start()
    try:
        flat_random_feature_baseline(split, STREAMED_WIDTH, SMALL_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_train * STREAMED_WIDTH
    if d == 200:
        assert peak < 8 * d * STREAMED_WIDTH


# --- serialization -----------------------------------------------------------

def test_save_load_round_trip(split, tmp_path):
    model = train(split, small_cfg())
    path = tmp_path / "model.drz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert ([ff.lambda_star_index for ff in loaded.final_fits]
            == [ff.lambda_star_index for ff in model.final_fits])
    assert loaded.input_dim == model.input_dim
    for a, b in zip(loaded.layers, model.layers, strict=True):
        for name in ("maps", "offsets"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    for a, b in zip(loaded.final_fits, model.final_fits, strict=True):
        np.testing.assert_array_equal(a.coef, b.coef)
    np.testing.assert_array_equal(predict(loaded, split.x_test),
                                  predict(model, split.x_test))


def test_save_is_byte_deterministic(split, tmp_path):
    model = train(split, small_cfg())
    save_model(model, tmp_path / "a.drz")
    save_model(model, tmp_path / "b.drz")
    # bias_range=1 spells the default 1.0: the same network and file
    save_model(train(split, small_cfg(bias_range=1)), tmp_path / "c.drz")
    a, b, c = ((tmp_path / f"{x}.drz").read_bytes() for x in "abc")
    assert a == b == c
    assert type(load_model(tmp_path / "c.drz").config.bias_range) is float


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(arr), version=(1, 0))
    return buf.getvalue()


def _in_memory_archive(model, header_bytes, path):
    # reference writer: every payload built in memory, then written whole
    entries = {"header.json": header_bytes}
    for m, layer in enumerate(model.layers, start=1):
        entries[f"layer{m}.maps.npy"] = _npy_bytes(layer.maps)
    for m, ff in enumerate(model.final_fits, start=1):
        entries[f"final{m}.coef.npy"] = _npy_bytes(ff.coef)
        entries[f"final{m}.valid_mse.npy"] = _npy_bytes(ff.valid_mse)
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(entries):
            zf.writestr(zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0)),
                        entries[name])
    return entries


@pytest.mark.parametrize("limit_offset", [None, -1, 1])
def test_whole_entry_save_matches_reference_archive_at_zip64_limits(
        split, tmp_path, monkeypatch, limit_offset):
    # byte for byte at the default zip64 limit and with it just below or
    # above the largest entry's size, where zipfile's choice of zip64
    # fields turns on that entry's length
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
    # and a v4 file: its later layers drew on the dense columns, so its
    # depth-2 predictions cannot be reproduced; and a v5 file, which stores
    # betas and scales and dense final ridges, not the bases; and a v8 file,
    # whose header config names gamma_grid
    model = train(split, small_cfg())
    path = tmp_path / "model.drz"
    for version in (2, 4, 5, 8):
        monkeypatch.setattr(network, "MODEL_FORMAT_VERSION", version)
        save_model(model, path)
        monkeypatch.undo()
        with pytest.raises(network.ModelFormatError,
                           match=f"unsupported format version {version}"):
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


def test_load_rejects_v6_file(split, tmp_path, monkeypatch):
    # a v6 archive also holds each layer's C_k' rows, layer{m}.vt.npy
    model = train(split, small_cfg())
    path, v6 = tmp_path / "model.drz", tmp_path / "v6.drz"
    monkeypatch.setattr(network, "MODEL_FORMAT_VERSION", 6)
    save_model(model, path)
    monkeypatch.undo()
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(v6, "w") as dst:
        for name in src.namelist():
            dst.writestr(name, src.read(name))
        for m, layer in enumerate(model.layers, start=1):
            dst.writestr(f"layer{m}.vt.npy", _npy_bytes(
                np.zeros((layer.width, model.config.n_penalties))))
    with pytest.raises(network.ModelFormatError,
                       match="unsupported format version 6"):
        load_model(v6)


def test_load_rejects_v7_file(split, tmp_path, monkeypatch):
    # a v7 archive holds each final ridge's coefficients at every penalty,
    # final{m}.betas.npy of shape (sum r_k, L), in place of final{m}.coef.npy
    model = train(split, small_cfg())
    path, v7 = tmp_path / "model.drz", tmp_path / "v7.drz"
    monkeypatch.setattr(network, "MODEL_FORMAT_VERSION", 7)
    save_model(model, path)
    monkeypatch.undo()
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(v7, "w") as dst:
        for name in src.namelist():
            if not name.endswith(".coef.npy"):
                dst.writestr(name, src.read(name))
        for m, layer in enumerate(model.layers, start=1):
            dst.writestr(f"final{m}.betas.npy", _npy_bytes(
                np.zeros((layer.width, model.config.n_penalties))))
    with pytest.raises(network.ModelFormatError,
                       match="unsupported format version 7"):
        load_model(v7)


def test_archive_holds_one_array_per_layer_and_two_per_fit(split, tmp_path):
    model = train(split, small_cfg(depth=2))
    save_model(model, tmp_path / "model.drz")
    with zipfile.ZipFile(tmp_path / "model.drz") as zf:
        names = sorted(zf.namelist())
        header = json.loads(zf.read("header.json"))
    assert names == [
        "final1.coef.npy", "final1.valid_mse.npy",
        "final2.coef.npy", "final2.valid_mse.npy", "header.json",
        "layer1.maps.npy", "layer2.maps.npy"]
    assert header["format_version"] == 9
    assert sorted(header) == ["config", "final_fits", "format",
                              "format_version", "input_dim",
                              "library_version", "ranks"]
    assert header["final_fits"] == [{"lambda_star_index": ff.lambda_star_index}
                                    for ff in model.final_fits]
    assert header["ranks"] == [layer.ranks.tolist() for layer in model.layers]


def test_load_reads_every_entry_save_writes(split, tmp_path, monkeypatch):
    # an entry that load_model never opens is a field nothing reads
    path = tmp_path / "model.drz"
    save_model(train(split, small_cfg()), path)
    opened, real_open = set(), zipfile.ZipFile.open

    def record_open(zf, name, *args, **kwargs):
        opened.add(getattr(name, "filename", name))
        return real_open(zf, name, *args, **kwargs)

    monkeypatch.setattr(zipfile.ZipFile, "open", record_open)
    load_model(path)
    monkeypatch.undo()
    with zipfile.ZipFile(path) as zf:
        assert opened == set(zf.namelist())


def _saved_with_changed_entry(model, tmp_path, entry, change):
    """Save ``model``, then copy it with ``change`` applied to ``entry``."""
    path, broken = tmp_path / "model.drz", tmp_path / "broken.drz"
    save_model(model, path)
    with zipfile.ZipFile(path) as src, zipfile.ZipFile(broken, "w") as dst:
        for name in src.namelist():
            data = src.read(name)
            dst.writestr(name, change(data) if name == entry else data)
    return broken


def _with_entry(a, index, value):
    a = a.copy()
    a[index] = value
    return a


@pytest.mark.parametrize("entry, bad", [
    ("layer1.maps.npy", lambda a: a[:, :-1]),                  # wrong shape
    ("layer1.maps.npy", lambda a: a.astype(np.float32)),       # wrong dtype
    ("layer1.maps.npy", lambda a: a[:-1]),          # rows not sum of ranks
    ("final1.coef.npy", lambda a: a[:-1]),
    ("final1.coef.npy", lambda a: np.concatenate([a, a[:1]])),
    ("final1.coef.npy", lambda a: a[:, None]),       # a column, not a vector
    ("final1.valid_mse.npy", lambda a: np.full_like(a, np.nan)),
    ("layer1.maps.npy", lambda a: _with_entry(a, (0, 0), np.nan)),
    ("layer1.maps.npy", lambda a: _with_entry(a, (-1, -1), -np.inf)),
    ("final1.coef.npy", lambda a: _with_entry(a, 1, np.inf)),
], ids=["maps-columns", "maps-float32", "maps-rows", "final-rows-short",
        "final-rows-long", "final-column", "valid-mse-nan", "maps-nan",
        "maps-inf", "final-inf"])
def test_load_rejects_inconsistent_array(split, tmp_path, entry, bad):
    broken = _saved_with_changed_entry(
        train(split, small_cfg(depth=1)), tmp_path, entry,
        lambda data: _npy_bytes(bad(np.lib.format.read_array(
            io.BytesIO(data)))))
    with pytest.raises(network.ModelFormatError, match=entry):
        load_model(broken)


# each edit breaks the header of a depth-2 model (so two final fits) over a
# 4-point penalty grid; every block rank lies in 1..4, and one changed within
# that range no longer matches its layer's arrays
@pytest.mark.parametrize("edit", [
    lambda h: h.update(input_dim=0),
    lambda h: h.update(input_dim=6.0),
    lambda h: h["final_fits"][1].update(lambda_star_index=4),
    lambda h: h["final_fits"][1].update(lambda_star_index=-1),
    lambda h: h["final_fits"][1].update(lambda_star_index=1.0),
    lambda h: h["final_fits"][1].update(lambda_star_index=True),
    lambda h: h["final_fits"].pop(),
    lambda h: h["final_fits"].append(dict(h["final_fits"][0])),
    lambda h: h["ranks"][0].__setitem__(0, h["ranks"][0][0] % 4 + 1),
    lambda h: h["config"].update(seed=2 ** 32 + 3),
    lambda h: h["config"].update(depth=2.0),
], ids=["input-dim-zero", "input-dim-float", "star-past-grid", "star-negative",
        "star-float", "star-bool", "no-fit-at-full-depth",
        "final-fits-past-depth", "rank-in-range-not-the-arrays",
        "seed-past-2-32", "depth-float"])
def test_load_rejects_inconsistent_header(split, tmp_path, edit):
    def change(data):
        header = json.loads(data)
        edit(header)
        return json.dumps(header).encode()

    broken = _saved_with_changed_entry(train(split, small_cfg()), tmp_path,
                                       "header.json", change)
    with pytest.raises(network.ModelFormatError, match="corrupt"):
        load_model(broken)


# each edit breaks the stored ranks of a depth-2 model of 3 blocks of 5
# features over 4 penalties, so every rank lies in 1..4
@pytest.mark.parametrize("edit", [
    lambda r: r.pop(),
    lambda r: r.append(list(r[0])),
    lambda r: r[1].pop(),
    lambda r: r[1].append(1),
    lambda r: r[0].__setitem__(0, 0),
    lambda r: r[0].__setitem__(0, 5),
    lambda r: r[0].__setitem__(0, True),
    lambda r: r[0].__setitem__(0, 2.0),
    lambda r: r.__setitem__(1, 4),
], ids=["layer-missing", "layer-extra", "block-missing", "block-extra",
        "zero", "past-min-p-l", "bool", "float", "not-a-list"])
def test_load_rejects_tampered_ranks(split, tmp_path, edit):
    def change(data):
        header = json.loads(data)
        edit(header["ranks"])
        return json.dumps(header).encode()

    broken = _saved_with_changed_entry(train(split, small_cfg()), tmp_path,
                                       "header.json", change)
    with pytest.raises(network.ModelFormatError, match="ranks"):
        load_model(broken)
