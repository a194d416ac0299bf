"""Set-up and one operation of each workload, with its output checks.

Only the workload seed reaches this module; every data, model and oracle
seed is derived from it. An operation returns its stage timings, the bytes
it wrote, a fingerprint that must equal the first operation's, and a list
of problems found by its checks (empty when the outputs are correct).
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from deepridge import cli, dataio, network, theory
import workloads as W


def derive_seed(workload: str, seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class OpResult:
    stages: dict        # stage name -> seconds
    output_mb: float    # bytes the operation wrote, in MB
    fingerprint: bytes  # outputs that must repeat exactly within a run
    problems: list


def _dir_mb(path) -> float:
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path)) / 1e6


# --- many-narrow -----------------------------------------------------------


class ManyNarrow:
    def __init__(self, seed: int, work_dir: str):
        name = "many-narrow"
        self.split = dataio.simulate_single_neuron(dataio.SimConfig(
            n=W.MN_N, d=W.MN_D, noise_std=0.1 * W.MN_NOISE_LEVEL,
            seed=derive_seed(name, seed, "data")))
        self.cfg = network.NetConfig(
            depth=W.MN_DEPTH, blocks=W.MN_BLOCKS,
            features_per_block=W.MN_P, seed=derive_seed(name, seed, "model"))
        self.baseline_seed = derive_seed(name, seed, "baseline")
        self.y_mean = float(np.mean(self.split.y_train))

    def op(self, op_dir: str) -> OpResult:
        split, cfg = self.split, self.cfg
        path = os.path.join(op_dir, "model.drz")
        t0 = time.perf_counter()
        model = network.train(
            split, cfg, n_threads=W.WORKLOADS["many-narrow"].pool_threads)
        t1 = time.perf_counter()
        pred = network.predict(model, split.x_test)
        t2 = time.perf_counter()
        network.save_model(model, path)
        reloaded = network.load_model(path)
        t3 = time.perf_counter()
        pred_reloaded = network.predict(reloaded, split.x_test)
        t4 = time.perf_counter()
        base = network.flat_random_feature_baseline(
            split, cfg.layer_width, cfg.lambda_grid, seed=self.baseline_seed)
        t5 = time.perf_counter()
        output_mb = os.path.getsize(path) / 1e6
        del model, reloaded

        problems = []
        err = network.evaluate(pred, split.y_test, self.y_mean).one_minus_r2
        if not (math.isfinite(err) and err < W.MN_MAX_ONE_MINUS_R2):
            problems.append(f"test 1-R^2 {err!r} not below "
                            f"{W.MN_MAX_ONE_MINUS_R2}")
        base_err = base.metrics.one_minus_r2
        if not (math.isfinite(base_err)
                and base_err < W.MN_BASELINE_MAX_ONE_MINUS_R2):
            problems.append(f"baseline 1-R^2 {base_err!r} not below "
                            f"{W.MN_BASELINE_MAX_ONE_MINUS_R2}")
        if not np.array_equal(pred, pred_reloaded):
            problems.append("reloaded model predicts differently")
        fingerprint = pred.tobytes() + repr(
            (base_err, base.lambda_star_index)).encode()
        return OpResult(
            stages={"train": t1 - t0, "predict": t2 - t1,
                    "roundtrip": t3 - t2, "baseline": t5 - t4},
            output_mb=output_mb, fingerprint=fingerprint, problems=problems)


# --- few-wide --------------------------------------------------------------


class FewWide:
    def __init__(self, seed: int, work_dir: str):
        config = {
            "kind": "simulate",
            "seeds": [derive_seed("few-wide", seed, "run")],
            "save_models": True,
            "baseline": True,
            "model": {"depth": W.FW_DEPTH, "blocks": W.FW_BLOCKS,
                      "features_per_block": W.FW_P},
            "data": {"n": W.FW_N, "d": W.FW_D,
                     "noise_levels": [W.FW_NOISE_LEVEL]},
        }
        self.config_path = os.path.join(work_dir, "few_wide.json")
        with open(self.config_path, "w") as f:
            json.dump(config, f)

    def op(self, op_dir: str) -> OpResult:
        threads = W.WORKLOADS["few-wide"].pool_threads
        argv = ["run", self.config_path, "--threads", str(threads),
                "--output-dir", op_dir]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        t1 = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"deepridge run exited {code}: "
                               f"{err.getvalue().strip()}")
        with open(os.path.join(op_dir, "results.csv"), "rb") as f:
            results = f.read()
        with open(os.path.join(op_dir, "timings.csv")) as f:
            walls = {row["method"]: float(row["wall_time_s"])
                     for row in csv.DictReader(f)}

        problems = []
        rows = list(csv.DictReader(io.StringIO(results.decode())))
        methods = sorted(row["method"] for row in rows)
        if methods != ["deepridge", "flat_rf"]:
            problems.append(f"results.csv methods {methods}")
        for row in rows:
            e = float(row["one_minus_r2"])
            ceiling = W.FW_MAX_ONE_MINUS_R2.get(row["method"], 0.0)
            if not (math.isfinite(e) and e < ceiling):
                problems.append(f"{row['method']} 1-R^2 {e!r} not below "
                                f"{ceiling}")
        return OpResult(
            stages={"run": t1 - t0, "cli_train": walls.get("deepridge", 0.0),
                    "cli_baseline": walls.get("flat_rf", 0.0)},
            output_mb=_dir_mb(op_dir), fingerprint=results, problems=problems)


# --- theory-oracle ---------------------------------------------------------


class TheoryOracle:
    def __init__(self, seed: int, work_dir: str):
        self.curve_params = theory.default_curve_params()
        self.c_grid = np.geomspace(0.1, 10.0, W.TO_C_POINTS)
        b = tuple(np.linspace(0.5, 1.5, W.TO_GROUPS))
        self.params = theory.TheoryParams(c=(1.0,) * W.TO_GROUPS, b=b)
        # the flat ridge sees one group of all K*n features
        self.flat_params = theory.TheoryParams(
            c=(float(W.TO_GROUPS),), b=(self.params.b_bar,))
        self.scenario = theory.RiskScenario(
            n=W.TO_N, p=(W.TO_N,) * W.TO_GROUPS, b=b)
        self.mc_seed = derive_seed("theory-oracle", seed, "oracle")

    def op(self, op_dir: str) -> OpResult:
        k = W.TO_GROUPS
        grid = network.DEFAULT_LAMBDA_GRID
        t0 = time.perf_counter()
        table = theory.risk_curves(self.curve_params, self.c_grid)
        mix = theory.hetero_penalty_solution(self.flat_params, grid)
        report = theory.risk_report(self.params)
        lam = report.lambda_star
        estimators = (
            [("zero",)]
            + [("submodel", j, lam[j], 1.0) for j in range(k)]
            + [("ensemble", lam, (1.0,) * k),
               ("ensemble", (report.lambda_bar,) * k, report.alpha_star),
               ("flat", report.lambda_bar, 1.0),
               ("multi_penalty", grid, tuple(mix.weights))])
        expected = (
            [self.params.b_bar]
            + [theory.sub_model_risk(1.0, lam[j], j, self.params)
               for j in range(k)]
            + [report.ensemble_optimal_risk, report.ensemble_suboptimal_risk,
               report.flat_risk, mix.optimal_risk])
        results = theory.monte_carlo_risk(
            self.scenario, estimators, W.TO_REPLICATIONS, seed=self.mc_seed,
            n_threads=W.WORKLOADS["theory-oracle"].pool_threads)
        theory.write_risk_curves_csv(
            table, os.path.join(op_dir, "risk_curves.csv"))
        theory.write_monte_carlo_csv(
            results, os.path.join(op_dir, "monte_carlo.csv"))
        t1 = time.perf_counter()

        problems = []
        if not (np.all(np.isfinite(table)) and np.all(table[:, 1:] > 0)):
            problems.append("risk curves not finite and positive")
        for res, exp in zip(results, expected):
            sigmas = abs(res.risk - exp) / res.stderr
            if not sigmas <= W.TO_MAX_SIGMAS:
                problems.append(
                    f"{res.estimator}: oracle {res.risk:.4f} vs closed form "
                    f"{exp:.4f} is {sigmas:.1f} stderr apart")
        fingerprint = table.tobytes() + mix.weights.tobytes() + repr(
            [(r.risk, r.stderr) for r in results]).encode()
        return OpResult(stages={"validate": t1 - t0},
                        output_mb=_dir_mb(op_dir), fingerprint=fingerprint,
                        problems=problems)


SETUPS = {"many-narrow": ManyNarrow, "few-wide": FewWide,
          "theory-oracle": TheoryOracle}

