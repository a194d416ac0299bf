"""The deepridge benchmark workloads: what each runs and why it was chosen.

Layers are the package modules: dataio, seeding, features, ridge, network,
theory and cli. Each workload stresses a different layer.

Every workload reports the same end-to-end metrics, so they are named for
the whole operation: op_s (wall time of one operation), setup_s, output_mb
(bytes the operation writes), peak_rss_mb and ok_frac (1 - failed_frac).
Each run also prints the stage timings of its operation (median, tail and
sample count). Below, each per-layer metric of the traced run is listed with
the timing it should move.

many-narrow (library API, n_threads=1, BLAS 2 threads)
    simulate_single_neuron(n=3000, d=50, noise level 3), then
    NetConfig(depth=2, blocks=100, features_per_block=100) on the 29-point
    penalty grid. One operation is train, predict on the test split,
    save_model + load_model + predict on the reloaded model, and the flat
    baseline with p_total = K*L. The layer-2 input is K*L = 2900 wide, so
    features.apply_block takes most of train and nearly all of predict.
    Stacked-array layers and weights stored as keys (ROADMAP items 2 and 3)
    target this workload.
      features.apply_block.*      -> train_s, predict_s, baseline_s
      features.draw_block.*,
      seeding.stream_rng.calls    -> train_s; also predict_s, output_mb and
                                     peak_rss_mb once weights become keys
      ridge.fit_grid.*            -> train_s (200 primal 100x100 fits plus
                                     the dual final ridges)
      ridge.predict.busy_s,
      ridge.column_scales.busy_s  -> train_s
      network.train/predict.self_s
                                  -> train_s, predict_s, peak_rss_mb
      network.save/load_model     -> roundtrip_s, output_mb
      network.flat_random_feature_baseline.self_s -> baseline_s

few-wide (`deepridge run` in-process, --threads 2, BLAS 1 thread)
    A `simulate` config with n=3000, d=50, K=8, P=1500, depth 2, one noise
    level, baseline and save_models on. P exceeds n_train=1000, so every
    block fit takes the dual path and ridge.fit_grid dominates training,
    while the features layer is small. It is the only workload that runs
    the block thread pool and the CLI.
      ridge.fit_grid.*            -> run_s (op_s)
      cli.run.self_s              -> run_s
      features.apply_block.*      -> little of run_s

theory-oracle (library API, n_threads=1, BLAS 1 thread)
    risk_curves on a dense c-grid for default_curve_params(),
    hetero_penalty_solution on the 29-point grid, and monte_carlo_risk on a
    5-group scenario with all five estimator kinds, checked against
    risk_report. Pure theory work with no features or ridge calls: a network
    optimisation should predict no change here.
      theory.*                    -> validate_s (op_s) on this workload only

Each workload uses at most nproc = 2 threads, counting BLAS threads and the
block thread pool together.

The paper-default workload (K=500, P=100, depth 2, n=3000) is left out: the
CLI's memory guard refuses it (8.2 GB estimated against 4 GB, 5.8 GB of it
stored input weights). It waits for ROADMAP item 3, which stores weights as
keys.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    blas_threads: int
    pool_threads: int        # n_threads / --threads given to deepridge
    stages: tuple            # timed steps of one operation, reported as *_s
    main_span: str           # span whose time the workload is built to stress
    expected_spans: tuple    # the traced run fails if one is never recorded
    forbidden_layers: tuple  # the traced run fails if one is recorded


_TRAINING_SPANS = (
    "network.train", "network.train_layer", "features.draw_block",
    "features.apply_block", "seeding.stream_rng", "ridge.fit_grid",
    "ridge.predict", "ridge.column_scales", "network.save_model",
    "network.flat_random_feature_baseline",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="many-narrow",
        why="100 narrow blocks on a 2900-wide layer-2 input: the feature "
            "transform dominates train and predict",
        blas_threads=2,
        pool_threads=1,
        stages=("train", "predict", "roundtrip", "baseline"),
        main_span="network.train",
        expected_spans=_TRAINING_SPANS + (
            "network.predict", "network.load_model"),
        forbidden_layers=("cli", "theory"),
    ),
    Workload(
        name="few-wide",
        why="8 blocks of 1500 features against 1000 training rows: dual "
            "ridge fits dominate a CLI run on the block thread pool",
        blas_threads=1,
        pool_threads=2,
        stages=("run", "cli_train", "cli_baseline"),
        main_span="cli.run",
        expected_spans=_TRAINING_SPANS + (
            "cli.run", "dataio.simulate_single_neuron"),
        forbidden_layers=("theory",),
    ),
    Workload(
        name="theory-oracle",
        why="closed-form risk curves and the Monte Carlo oracle: theory "
            "only, no features or ridge work",
        blas_threads=1,
        pool_threads=1,
        stages=("validate",),
        main_span="bench.op",
        expected_spans=(
            "theory.risk_curves", "theory.hetero_penalty_solution",
            "theory.monte_carlo_risk", "theory.nu_family",
            "seeding.stream_rng"),
        forbidden_layers=("features", "ridge", "network", "cli"),
    ),
)}

# many-narrow
MN_N, MN_D, MN_NOISE_LEVEL = 3000, 50, 3
MN_DEPTH, MN_BLOCKS, MN_P = 2, 100, 100
# test 1 - R^2 ceilings, about 3x and 2x the worst of six seeds (0.036, 0.22)
MN_MAX_ONE_MINUS_R2 = 0.1
MN_BASELINE_MAX_ONE_MINUS_R2 = 0.4

# few-wide
FW_N, FW_D, FW_NOISE_LEVEL = 3000, 50, 3
FW_DEPTH, FW_BLOCKS, FW_P = 2, 8, 1500
# test 1 - R^2 ceilings per results.csv method, about 2x the worst of eight
# seeds (0.17, 0.37)
FW_MAX_ONE_MINUS_R2 = {"deepridge": 0.35, "flat_rf": 0.6}

# theory-oracle
TO_C_POINTS = 200                    # dense c-grid on [0.1, 10]
TO_GROUPS, TO_N = 5, 200             # scenario: 5 groups of n features each
TO_REPLICATIONS = 40
TO_MAX_SIGMAS = 5.0                  # |oracle - closed form| / stderr ceiling
