"""End-to-end acceptance checks, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
``pytest -s`` or ``-rA``) and asserts the criterion at its stated
tolerance.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import make_two_class_images
from deepridge import cli, dataio, network, ridge, theory
from deepridge.dataio import SimConfig, simulate_single_neuron
from deepridge.network import (DEFAULT_LAMBDA_GRID, NetConfig, evaluate,
                               flat_random_feature_baseline, predict, train)
from deepridge.theory import (RiskScenario, TheoryParams, flat_optima,
                              flat_risk, hetero_penalty_solution,
                              monte_carlo_risk, mp_stieltjes,
                              mp_stieltjes_deriv, optimal_alpha,
                              optimal_lambda, sub_model_risk)

EIGHT_POINT_GRID = (0.0001, 0.1, 1.0, 5.1, 20.1, 100.1, 1000.0, 10000.0)


def report(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# --- criterion 1: ridge correctness -----------------------------------------

def test_criterion_1_ridge_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    z = rng.standard_normal((200, 100))
    y = rng.standard_normal(200)
    fit = ridge.fit_grid(z, y, DEFAULT_LAMBDA_GRID)
    gram = z.T @ z / 200
    rhs = z.T @ y / 200
    dense = np.column_stack([
        np.linalg.solve(lam * np.eye(100) + gram, rhs)
        for lam in fit.lambdas])
    err_dense = float(np.abs(fit.betas - dense).max())

    z2 = rng.standard_normal((100, 400))
    y2 = rng.standard_normal(100)
    primal = ridge.fit_grid(z2, y2, DEFAULT_LAMBDA_GRID, mode="primal")
    dual = ridge.fit_grid(z2, y2, DEFAULT_LAMBDA_GRID, mode="dual")
    err_modes = float(np.abs(primal.betas - dual.betas).max())

    elapsed = time.perf_counter() - t0
    report(1, err_dense < 1e-8 and err_modes < 1e-8 and elapsed < 5.0,
           f"dense {err_dense:.2e}, primal-dual {err_modes:.2e}, "
           f"{elapsed:.2f}s")


# --- criterion 2: Marcenko-Pastur validation ---------------------------------

def test_criterion_2_marcenko_pastur():
    t0 = time.perf_counter()
    n = p = 2000
    lams = (0.1, 1.0, 10.0)
    rng = np.random.default_rng(1)
    traces = {lam: [] for lam in lams}
    for _ in range(5):
        x = rng.standard_normal((n, p))
        mu = np.linalg.eigvalsh(x.T @ x / n)
        for lam in lams:
            traces[lam].append(float(np.mean(1.0 / (lam + mu))))
    trace_err = max(abs(mp_stieltjes(lam, 1.0) - np.mean(traces[lam]))
                    for lam in lams)

    fd_rel = 0.0
    for lam in (0.1, 1.0, 10.0, 100.0):
        for c in (0.5, 1.0, 2.0):
            h = 1e-6 * lam
            fd = -(mp_stieltjes(lam + h, c)
                   - mp_stieltjes(lam - h, c)) / (2 * h)
            fd_rel = max(fd_rel,
                         abs(mp_stieltjes_deriv(lam, c) - fd) / abs(fd))

    elapsed = time.perf_counter() - t0
    report(2, trace_err < 0.02 and fd_rel < 1e-5 and elapsed < 30.0,
           f"trace err {trace_err:.4f}, fd rel {fd_rel:.2e}, {elapsed:.1f}s")


# --- criteria 3 and 4: theory vs oracle, joint optimality --------------------

def k3_params():
    return TheoryParams(c=(1.0, 1.0, 1.0), b=(0.5, 1.0, 1.5))


def test_criterion_3_theory_vs_oracle():
    t0 = time.perf_counter()
    params = k3_params()
    n = 400
    lam_star = [optimal_lambda(params, k) for k in range(3)]
    lambda_bar, _ = flat_optima(params)
    alpha_star = [optimal_alpha(lambda_bar, params, k) for k in range(3)]

    flat_params = TheoryParams(c=(3.0,), b=(params.b_bar,))
    mix = hetero_penalty_solution(flat_params, EIGHT_POINT_GRID)

    estimators = (
        [("submodel", k, lam_star[k], 1.0) for k in range(3)]
        + [("ensemble", lam_star, (1.0, 1.0, 1.0)),
           ("flat", lambda_bar, 1.0),
           ("ensemble", (lambda_bar,) * 3, tuple(alpha_star)),
           ("multi_penalty", EIGHT_POINT_GRID, tuple(mix.weights))])
    expected = (
        [sub_model_risk(1.0, lam_star[k], k, params) for k in range(3)]
        + [sum(sub_model_risk(1.0, lam_star[k], k, params) for k in range(3)),
           flat_risk(1.0, lambda_bar, params),
           sum(sub_model_risk(alpha_star[k], lambda_bar, k, params)
               for k in range(3)),
           mix.optimal_risk])

    results = monte_carlo_risk(RiskScenario(n=n, p=(n, n, n), b=params.b),
                               estimators, replications=24, seed=2)
    worst_se, worst_rel = 0.0, 0.0
    for res, exp in zip(results, expected):
        worst_se = max(worst_se, abs(res.risk - exp) / (3 * res.stderr))
        worst_rel = max(worst_rel, abs(res.risk - exp) / exp)
    elapsed = time.perf_counter() - t0
    report(3, worst_se < 1.0 and worst_rel < 0.05 and elapsed < 120.0,
           f"worst |diff|/3se {worst_se:.2f}, worst rel {worst_rel:.3%}, "
           f"{elapsed:.0f}s")


def test_criterion_4_joint_optimality():
    params = k3_params()
    ok = True
    for k in range(3):
        lam_star = optimal_lambda(params, k)
        base = sub_model_risk(1.0, lam_star, k, params)
        for alpha in (0.8, 0.9, 1.0, 1.1, 1.2):
            for factor in (0.25, 0.5, 1.0, 2.0, 4.0):
                ok &= base <= sub_model_risk(alpha, factor * lam_star, k,
                                             params) + 1e-12
        ok &= abs(optimal_alpha(lam_star, params, k) - 1.0) < 1e-8
    lambda_bar, a_bar = flat_optima(params)
    ok &= abs(a_bar - 1.0) < 1e-8
    report(4, ok, f"a_bar(lambda_bar)={a_bar:.10f}")


# --- criteria 5 and 6: risk curves and penalty mixing ------------------------

def test_criterion_5_risk_curve_crossover():
    t0 = time.perf_counter()
    params = theory.default_curve_params(10, 0.5, 1.5)
    c_grid = np.geomspace(0.1, 10.0, 25)
    table = theory.risk_curves(params, c_grid)
    flat, opt, subopt = table[:, 1], table[:, 2], table[:, 3]

    below = subopt < flat
    crossed = np.flatnonzero(below)
    has_crossover = crossed.size > 0 and np.all(below[crossed[0]:])
    c0 = c_grid[crossed[0]] if has_crossover else np.nan

    opt_bounds_subopt = np.all(opt <= subopt + 1e-10)
    opt_bounds_flat = np.all(opt <= flat + 1e-10)
    detail = (f"crossover c0={c0:.3f}, opt<=subopt {opt_bounds_subopt}, "
              f"opt<=flat {opt_bounds_flat}")
    if not opt_bounds_flat:
        worst = int(np.argmax(opt - flat))
        detail += (f" (violated at c={c_grid[worst]:.3f}: "
                   f"opt {opt[worst]:.3f} > flat {flat[worst]:.3f}; the flat "
                   f"model genuinely dominates at low complexity)")
    elapsed = time.perf_counter() - t0
    report(5, has_crossover and opt_bounds_subopt and opt_bounds_flat
           and elapsed < 5.0, detail)


def test_criterion_6_penalty_mixing_dominance():
    t0 = time.perf_counter()
    # flat-group view of the criterion-5 regime at per-group aspect 0.2
    b_bar = float(np.sum(np.linspace(0.5, 1.5, 10)))
    c_flat = 0.2 * 10
    params = TheoryParams(c=(c_flat,), b=(b_bar,))
    sol = hetero_penalty_solution(params, EIGHT_POINT_GRID)
    singles = [flat_risk(flat_optima(params, lam)[1], lam, params)
               for lam in EIGHT_POINT_GRID]
    analytic_ok = sol.optimal_risk <= min(singles) + 1e-10

    n = 400
    scenario = RiskScenario(n=n, p=(int(c_flat * n),), b=(b_bar,))
    ests = [("multi_penalty", EIGHT_POINT_GRID, tuple(sol.weights))]
    ests += [("flat", lam, flat_optima(params, lam)[1])
             for lam in EIGHT_POINT_GRID]
    results = monte_carlo_risk(scenario, ests, replications=20, seed=3)
    mix, single_res = results[0], results[1:]
    theory_gap = abs(mix.risk - sol.optimal_risk) / (3 * mix.stderr)
    best = min(single_res, key=lambda r: r.risk)
    empirical_ok = (mix.risk
                    <= best.risk + 3 * np.hypot(mix.stderr, best.stderr))
    elapsed = time.perf_counter() - t0
    report(6, analytic_ok and empirical_ok and theory_gap < 1.0,
           f"analytic gap {min(singles) - sol.optimal_risk:.4f} >= 0, "
           f"mc |diff|/3se {theory_gap:.2f}, {elapsed:.0f}s")


# --- criteria 7-9: network experiments ---------------------------------------

CRIT7_CFG = dict(depth=2, blocks=50, features_per_block=50)


@pytest.fixture(scope="module")
def single_neuron_runs():
    """Five seeds of the scaled network on the relu task at noise level 1."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(5):
        split = simulate_single_neuron(SimConfig(
            n=3000, d=50, noise_std=0.1, activation="relu", seed=seed))
        model = train(split, NetConfig(seed=seed, **CRIT7_CFG), n_threads=2)
        y_mean = float(np.mean(split.y_train))
        deep = evaluate(predict(model, split.x_test), split.y_test, y_mean)
        shallow = evaluate(predict(model, split.x_test, depth=1),
                           split.y_test, y_mean)
        base = flat_random_feature_baseline(
            split, 50 * 29, DEFAULT_LAMBDA_GRID, seed=seed)
        rows.append((shallow.one_minus_r2, deep.one_minus_r2,
                     base.metrics.one_minus_r2))
    return np.array(rows), time.perf_counter() - t0


def test_criterion_7_beats_flat_baseline(single_neuron_runs):
    rows, elapsed = single_neuron_runs
    wins = int((rows[:, 1] < rows[:, 2]).sum())
    report(7, wins >= 4 and elapsed < 300.0,
           f"network wins {wins}/5 seeds "
           f"(mean {rows[:, 1].mean():.3f} vs baseline "
           f"{rows[:, 2].mean():.3f}), {elapsed:.0f}s")


def test_criterion_8_ensembling_ablation():
    t0 = time.perf_counter()
    means = {}
    for k in (1, 50):
        scores = []
        for seed in range(5):
            split = simulate_single_neuron(SimConfig(
                n=3000, d=50, noise_std=0.5, activation="relu", seed=seed))
            cfg = NetConfig(depth=2, blocks=k, features_per_block=2500 // k,
                            seed=seed)
            model = train(split, cfg, n_threads=2)
            scores.append(evaluate(predict(model, split.x_test), split.y_test,
                                   float(np.mean(split.y_train))).one_minus_r2)
        means[k] = float(np.mean(scores))
    elapsed = time.perf_counter() - t0
    report(8, means[50] <= means[1] and elapsed < 600.0,
           f"K=50 mean {means[50]:.3f} vs K=1 mean {means[1]:.3f}, "
           f"{elapsed:.0f}s")


def test_criterion_9_depth_ablation(single_neuron_runs):
    rows, elapsed = single_neuron_runs
    m1, m2 = rows[:, 0].mean(), rows[:, 1].mean()
    report(9, m2 <= m1 and elapsed < 600.0,
           f"depth-2 mean {m2:.3f} <= depth-1 mean {m1:.3f}, {elapsed:.0f}s")


# --- criterion 10: image-pair experiment --------------------------------------

def _image_pair_files(tmp_path):
    """Real FMNIST when a data directory provides it, else the synthetic
    two-class surrogate written through the same IDX format."""
    data_dir = os.environ.get(cli.DATA_DIR_ENV, "")
    base = os.path.join(data_dir, "train-images-idx3-ubyte")
    if data_dir and (os.path.exists(base) or os.path.exists(base + ".gz")):
        return data_dir, "fmnist"
    root = tmp_path / "surrogate"
    root.mkdir()
    tr_x, tr_y = make_two_class_images(2500, seed=0)
    te_x, te_y = make_two_class_images(1000, seed=1)
    dataio.write_idx_images(root / "train-images-idx3-ubyte", tr_x)
    dataio.write_idx_labels(root / "train-labels-idx1-ubyte", tr_y)
    dataio.write_idx_images(root / "t10k-images-idx3-ubyte", te_x)
    dataio.write_idx_labels(root / "t10k-labels-idx1-ubyte", te_y)
    return str(root), "surrogate"


def test_criterion_10_image_pair(tmp_path):
    t0 = time.perf_counter()
    data_dir, source = _image_pair_files(tmp_path)
    train_pair = dataio.load_idx_pair(
        os.path.join(data_dir, _first(data_dir, "train-images-idx3-ubyte")),
        os.path.join(data_dir, _first(data_dir, "train-labels-idx1-ubyte")))
    test_pair = dataio.load_idx_pair(
        os.path.join(data_dir, _first(data_dir, "t10k-images-idx3-ubyte")),
        os.path.join(data_dir, _first(data_dir, "t10k-labels-idx1-ubyte")))
    base_split = dataio.make_binary_pair(*train_pair, *test_pair,
                                         pair_index=0, per_class_cap=2000,
                                         seed=0)
    cfg = NetConfig(seed=0, **CRIT7_CFG)
    net_mse, flat_mse = [], []
    for level in (0, 1, 2):
        split = dataio.add_feature_noise(base_split, level, seed=0)
        model = train(split, cfg, n_threads=2)
        y_mean = float(np.mean(split.y_train))
        net_mse.append(evaluate(predict(model, split.x_test), split.y_test,
                                y_mean).mse)
        flat_mse.append(flat_random_feature_baseline(
            split, cfg.layer_width, DEFAULT_LAMBDA_GRID,
            seed=0).metrics.mse)
    beats = all(n < f for n, f in zip(net_mse, flat_mse))
    monotone = net_mse[0] <= net_mse[1] <= net_mse[2]
    elapsed = time.perf_counter() - t0
    report(10, beats and monotone and elapsed < 600.0,
           f"[{source}] net mse {[f'{v:.4f}' for v in net_mse]} vs flat "
           f"{[f'{v:.4f}' for v in flat_mse]}, {elapsed:.0f}s")


def _first(data_dir, base):
    return base if os.path.exists(os.path.join(data_dir, base)) else base + ".gz"


# --- criterion 11: thread-count determinism -----------------------------------

def test_criterion_11_thread_determinism(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "kind": "simulate",
        "seeds": [0],
        "save_models": True,
        "model": dict(CRIT7_CFG, lambda_grid=list(DEFAULT_LAMBDA_GRID)),
        "data": {"n": 3000, "d": 50, "activation": "relu",
                 "noise_levels": [1]},
    }))
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        cli.run(config_path, threads=threads, output_dir=str(out))
        outs[threads] = out
    csv_same = ((outs[1] / "results.csv").read_bytes()
                == (outs[8] / "results.csv").read_bytes())
    model_same = ((outs[1] / "model_seed0_noise1.drz").read_bytes()
                  == (outs[8] / "model_seed0_noise1.drz").read_bytes())
    report(11, csv_same and model_same,
           f"csv identical {csv_same}, model identical {model_same}")
