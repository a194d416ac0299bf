import tracemalloc

import numpy as np
import pytest

from deepridge import theory
from deepridge.theory import (ConsistencyError, RiskScenario, TheoryParams,
                              ensemble_risk, flat_optima, flat_risk,
                              hetero_penalty_solution, monte_carlo_risk,
                              mp_stieltjes, mp_stieltjes_deriv, nu_family,
                              optimal_alpha, optimal_lambda, risk_curves,
                              sub_model_risk, xi, xi_deriv)
from deepridge.seeding import stream_rng

from conftest import REFERENCE_GRID29


# --- resolvent trace (Marcenko-Pastur) ---------------------------------------

def test_golden_ratio_fixed_point():
    m = mp_stieltjes(1.0, 1.0)
    assert abs(m - 2.0 / (1.0 + np.sqrt(5.0))) < 1e-14
    assert abs(m - 1.0 / (1.0 + m)) < 1e-12


def test_stieltjes_against_mc_trace():
    # oracle: average normalized resolvent trace over random designs
    rng = np.random.default_rng(0)
    for lam, c in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
        n = 400
        p = int(c * n)
        traces = []
        for _ in range(3):
            x = rng.standard_normal((n, p))
            mu = np.linalg.eigvalsh(x.T @ x / n)
            traces.append(np.mean(1.0 / (lam + mu)))
        assert abs(mp_stieltjes(lam, c) - np.mean(traces)) < 0.02


def test_stieltjes_limits():
    for lam in (0.3, 1.0, 7.0):
        assert abs(mp_stieltjes(lam, 1e-9) - 1.0 / (1.0 + lam)) < 1e-6
    for c in (0.2, 1.0, 5.0):
        assert abs(1e8 * mp_stieltjes(1e8, c) - 1.0) < 1e-5


def test_stieltjes_quadratic_residual_everywhere():
    for lam in np.geomspace(1e-3, 1e4, 30):
        for c in np.geomspace(0.05, 20.0, 30):
            m = mp_stieltjes(lam, c)
            resid = c * lam * m * m + ((1 - c) + lam) * m - 1.0
            assert abs(resid) < 1e-9


def test_deriv_matches_finite_differences():
    # the reported derivative is in the spectral argument: -d m / d lam
    for lam in (0.05, 1.0, 30.0):
        for c in (0.3, 1.0, 4.0):
            h = 1e-6 * lam
            fd = -(mp_stieltjes(lam + h, c) - mp_stieltjes(lam - h, c)) / (2 * h)
            an = mp_stieltjes_deriv(lam, c)
            assert abs(an - fd) < 1e-5 * abs(fd)


def test_deriv_low_complexity_limit():
    for lam in (0.5, 2.0):
        assert abs(mp_stieltjes_deriv(lam, 1e-9)
                   - 1.0 / (1.0 + lam) ** 2) < 1e-6


def test_deriv_positive_sign_sweep():
    for lam in np.geomspace(0.01, 100.0, 20):
        for c in np.geomspace(0.1, 10.0, 20):
            assert mp_stieltjes_deriv(lam, c) > 0


def test_positivity_validation():
    with pytest.raises(ValueError):
        mp_stieltjes(-1.0, 1.0)
    with pytest.raises(ValueError):
        mp_stieltjes(1.0, 0.0)
    with pytest.raises(ValueError):
        mp_stieltjes_deriv(0.0, 1.0)
    # every group at once: one bad aspect ratio rejects the whole vector
    with pytest.raises(ValueError, match="c must be positive and finite"):
        nu_family(1.0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="c must be positive and finite"):
        mp_stieltjes(np.array([0.5, 1.0]), np.array([1.0, -1.0]))


@pytest.mark.parametrize("call", [
    lambda: mp_stieltjes(np.nan, 1.0),
    lambda: mp_stieltjes(1.0, np.nan),
    lambda: nu_family(np.nan, 1.0),
    lambda: nu_family(np.array([1.0, np.nan]), 1.0),
    lambda: hetero_penalty_solution(TheoryParams(c=(3.0,), b=(3.0,)),
                                    (0.1, np.nan, 1.0)),
], ids=["stieltjes-lam", "stieltjes-c", "nu-family", "nu-family-vector",
        "hetero-grid"])
def test_nan_penalty_rejected(call):
    # NaN fails every comparison, so a "<= 0" test would let it through
    with pytest.raises(ValueError, match="positive"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: monte_carlo_risk(RiskScenario(n=20, p=(10,), b=(np.inf,)),
                              [("zero",)], 2),
     "b must be positive and finite"),
    (lambda: hetero_penalty_solution(TheoryParams(c=(3.0,), b=(3.0,)),
                                     [0.1, np.inf]),
     "lambda_grid must be positive and finite"),
    (lambda: mp_stieltjes(np.inf, 1.0), "lam must be positive and finite"),
    (lambda: mp_stieltjes(1.0, np.inf), "c must be positive and finite"),
    (lambda: sub_model_risk(np.nan, 1.0, 0, params_k3()),
     "alpha must be finite"),
    (lambda: flat_risk(np.inf, 1.0, params_k3()), "a must be finite"),
    (lambda: ensemble_risk([np.nan], [1.0], TheoryParams(c=(1.0,), b=(1.0,))),
     "alphas must be finite"),
    (lambda: theory.default_curve_params(3, np.inf, 2.0),
     "b_low must be positive and finite"),
    (lambda: monte_carlo_risk(RiskScenario(n=20, p=(10,), b=(1.0,)),
                              [("submodel", 0, 1.0, np.nan)], 2),
     "submodel alpha must be finite"),
    (lambda: monte_carlo_risk(RiskScenario(n=20, p=(10,), b=(1.0,)),
                              [("flat", 1.0, np.inf)], 2),
     "flat scale must be finite"),
    (lambda: monte_carlo_risk(RiskScenario(n=20, p=(10, 10), b=(1.0, 1.0)),
                              [("ensemble", (1.0, 1.0), (1.0, np.nan))], 2),
     "ensemble weights must be finite"),
    (lambda: monte_carlo_risk(RiskScenario(n=20, p=(10,), b=(1.0,)),
                              [("multi_penalty", (0.1, 1.0), (-np.inf, 1.0))],
                              2),
     "multi_penalty weights must be finite"),
], ids=["scenario-b", "hetero-grid", "stieltjes-lam", "stieltjes-c",
        "submodel-alpha", "flat-a", "ensemble-alphas", "curve-b-low",
        "spec-submodel-alpha", "spec-flat-scale", "spec-ensemble-weights",
        "spec-multi-penalty-weights"])
def test_settings_not_finite_refused_naming_them(call, message, monkeypatch):
    # the scenario's risk read inf after numpy warnings, the hetero grid
    # raised a ConsistencyError, the curve parameters warned, and the rest
    # returned NaN or inf
    def no_draws(*key):
        raise AssertionError("a replication started before the checks")
    monkeypatch.setattr(theory, "stream_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        call()


# --- xi and the nu family ----------------------------------------------------

def test_xi_value_and_consistency():
    val = xi(1.0, 1.0)
    assert abs(val - 0.6180340) < 1e-6
    m = mp_stieltjes(1.0, 1.0)
    assert abs(val - (1 - m) / (1 - 1 + m)) < 1e-12


def test_xi_consistency_sweep():
    for lam in np.geomspace(1e-3, 1e4, 25):
        for c in np.geomspace(0.05, 20.0, 25):
            v = xi(lam, c)   # raises ConsistencyError on disagreement
            alt = (1 - lam * mp_stieltjes(lam, c)) / \
                (1 / c - 1 + lam * mp_stieltjes(lam, c))
            assert abs(v - alt) <= 1e-10 * max(1.0, abs(v))


def test_breakdown_past_float_range_raises_without_warnings():
    # at c = lam = 1e300 the discriminant overflows: the root is NaN, not
    # the 0 that an inf discriminant gave, and the breakdown is reported by
    # the identity check alone; the suite turns any numpy warning into an
    # error, so an overflow on the way would fail this test
    assert np.isnan(mp_stieltjes(1e300, 1e300))
    assert np.isnan(mp_stieltjes(1.0, 1e160))
    with pytest.raises(ConsistencyError, match="resolvent trace forms"):
        xi(1e300, 1e300)
    with pytest.raises(ConsistencyError, match="resolvent trace forms"):
        risk_curves(theory.default_curve_params(), [1e300])


def test_xi_limits():
    assert xi(1.0, 1e-9) < 1e-8
    lam = 1e7
    for c in (0.5, 3.0):
        assert abs(xi(lam, c) - c / lam) < 1e-2 * (c / lam)


def test_xi_deriv_negative():
    for lam in (0.1, 1.0, 50.0):
        for c in (0.2, 1.0, 8.0):
            assert xi_deriv(lam, c) < 0


def test_nu_values():
    nu, nu_prime, nu_hat = nu_family(1.0, 1.0)
    assert abs(nu - 0.3819660) < 1e-6
    assert nu > 0 and nu_prime < 0 and nu_hat > 0


def test_nu_sign_pattern_sweep():
    for lam in np.geomspace(1e-3, 1e4, 25):
        for c in np.geomspace(0.05, 20.0, 25):
            nu, nu_prime, nu_hat = nu_family(lam, c)
            assert nu > 0 and nu_prime < 0 and nu_hat > 0


def test_nu_against_mc_trace():
    # oracle: nu is the limit of p^-1 tr(S (lam I + S)^-1) for S = X'X/n
    rng = np.random.default_rng(1)
    for lam, c in ((0.05, 0.5), (1.0, 1.0), (0.5, 2.0)):
        n = 600
        p = int(c * n)
        vals = []
        for _ in range(3):
            x = rng.standard_normal((n, p))
            mu = np.linalg.eigvalsh(x.T @ x / n)
            vals.append(np.mean(mu / (lam + mu)))
        nu = nu_family(lam, c)[0]
        assert abs(nu - np.mean(vals)) < 0.02


# --- closed-form risks -------------------------------------------------------

def params_k3():
    return TheoryParams(c=(1.0, 1.0, 1.0), b=(0.5, 1.0, 1.5))


def test_sub_model_risk_alpha_zero():
    p = params_k3()
    for k in range(3):
        assert sub_model_risk(0.0, 2.0, k, p) == pytest.approx(p.b[k])


def test_optimal_lambda_closed_forms():
    single = TheoryParams(c=(1.0,), b=(1.0,))
    assert optimal_lambda(single, 0) == pytest.approx(1.0)
    two = TheoryParams(c=(0.5, 2.0), b=(1.0, 1.0))
    assert optimal_lambda(two, 0) == pytest.approx(2 * 0.5)
    assert optimal_lambda(two, 1) == pytest.approx(2 * 2.0)


def test_lambda_star_is_grid_minimum():
    p = params_k3()
    for k in range(3):
        lam_star = optimal_lambda(p, k)
        at_star = sub_model_risk(1.0, lam_star, k, p)
        for f in (0.5, 2.0):
            assert at_star <= sub_model_risk(1.0, f * lam_star, k, p)


def test_alpha_star_is_one_at_lambda_star():
    p = params_k3()
    for k in range(3):
        assert abs(optimal_alpha(optimal_lambda(p, k), p, k) - 1.0) < 1e-8


@pytest.mark.parametrize("k", [-1, 3, True, 1.0])
def test_group_index_checked(k):
    # a negative index must not wrap around to the last group; True was
    # group 1, and 1.0 raised a TypeError from indexing
    p = params_k3()
    with pytest.raises(ValueError, match="group index must be"):
        sub_model_risk(1.0, 1.0, k, p)
    with pytest.raises(ValueError, match="group index must be"):
        optimal_lambda(p, k)
    with pytest.raises(ValueError, match="group index must be"):
        optimal_alpha(1.0, p, k)


def test_consistent_estimation_limit():
    p = TheoryParams(c=(1e-6,), b=(1.0,))
    assert sub_model_risk(1.0, 1e-6, 0, p) < 1e-3


def test_ensemble_risk_reductions():
    p = params_k3()
    lams = [optimal_lambda(p, k) for k in range(3)]
    total = ensemble_risk((1.0, 1.0, 1.0), lams, p)
    parts = sum(sub_model_risk(1.0, lams[k], k, p) for k in range(3))
    assert total == pytest.approx(parts)
    single = TheoryParams(c=(1.0,), b=(1.0,))
    assert ensemble_risk((1.0,), (2.0,), single) == pytest.approx(
        sub_model_risk(1.0, 2.0, 0, single))
    # permuting the groups leaves the total invariant
    perm = TheoryParams(c=(1.0, 1.0, 1.0), b=(1.5, 0.5, 1.0))
    lams_perm = [optimal_lambda(perm, k) for k in range(3)]
    assert ensemble_risk((1,) * 3, lams_perm, perm) == pytest.approx(total)


def test_flat_risk_and_optima():
    p = params_k3()
    assert flat_risk(0.0, 1.0, p) == pytest.approx(p.b_bar)
    two = TheoryParams(c=(1.0, 1.0), b=(1.0, 1.0))
    lambda_bar, a_bar = flat_optima(two)
    assert lambda_bar == pytest.approx(2 * 1.0 / 2.0)
    assert abs(a_bar - 1.0) < 1e-8
    # lambda_bar minimizes the unit-scale flat risk on a local grid
    at = flat_risk(1.0, lambda_bar, two)
    for f in (0.5, 2.0):
        assert at <= flat_risk(1.0, f * lambda_bar, two)


def test_flat_requires_equal_aspects():
    p = TheoryParams(c=(1.0, 2.0), b=(1.0, 1.0))
    with pytest.raises(ValueError):
        flat_risk(1.0, 1.0, p)


# --- risk curves -------------------------------------------------------------

def test_risk_curves_single_group_coincide():
    # with one group the three estimators are the same problem
    p = TheoryParams(c=(1.0,), b=(2.0,))
    table = risk_curves(p, np.geomspace(0.1, 10, 7))
    np.testing.assert_allclose(table[:, 1], table[:, 2], rtol=1e-10)
    np.testing.assert_allclose(table[:, 2], table[:, 3], rtol=1e-10)


def test_risk_curves_crossover_exists():
    p = theory.default_curve_params()
    table = risk_curves(p, np.geomspace(0.1, 10, 25))
    flat, subopt = table[:, 1], table[:, 3]
    assert subopt[-1] < flat[-1]          # ensemble wins at high complexity
    assert np.any(subopt > flat)          # and can lose at low complexity


def test_risk_curves_optimal_below_suboptimal():
    p = theory.default_curve_params()
    table = risk_curves(p, np.geomspace(0.1, 10, 25))
    assert np.all(table[:, 2] <= table[:, 3] + 1e-10)


def test_risk_curves_vanish_at_zero_complexity():
    p = theory.default_curve_params()
    table = risk_curves(p, [1e-7])
    assert np.all(table[0, 1:] < 1e-3)


@pytest.mark.parametrize("n_groups", [True, 2.5], ids=["bool", "float"])
def test_curve_params_refuse_a_group_count_that_is_not_an_integer(n_groups):
    # True gave one group; 2.5 failed in numpy's linspace with a TypeError
    with pytest.raises(ValueError, match="n_groups must be an integer"):
        theory.default_curve_params(n_groups)


@pytest.mark.parametrize("n_c, n_groups", [
    (1, 1), (1, 1000), (25, 1), (25, 300), (400, 50), (3000, 1)])
def test_curve_floats_bounds_traced_peak(n_c, n_groups):
    c_grid = np.geomspace(0.1, 10.0, n_c).tolist()
    tracemalloc.start()
    try:
        risk_curves(theory.default_curve_params(n_groups), c_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * theory.curve_floats(n_c, n_groups) >= peak


def test_risk_curves_refuse_empty_grid():
    with pytest.raises(ValueError, match="c_grid"):
        risk_curves(theory.default_curve_params(), [])


@pytest.mark.parametrize("c_grid", [[1.0, np.inf], [np.nan]],
                         ids=["inf", "nan"])
def test_risk_curves_refuse_non_finite_entries(c_grid):
    # an infinite c gave a row of nan risks
    with pytest.raises(ValueError, match="c_grid must be positive and finite"):
        risk_curves(theory.default_curve_params(), c_grid)


@pytest.mark.parametrize("c_grid", [
    np.geomspace(0.1, 10.0, 200),   # the benchmark's grid
    np.geomspace(0.1, 10.0, 25),    # the CLI's default grid
    [2.0, 0.3, 7.5],                # short and unsorted
])
def test_risk_curves_equal_per_c_risk_reports(c_grid, monkeypatch):
    params = theory.default_curve_params()
    rows = []
    for cv in c_grid:
        rep = theory.risk_report(TheoryParams(c=(cv,) * params.n_groups,
                                              b=params.b))
        rows.append((cv, rep.flat_risk, rep.ensemble_optimal_risk,
                     rep.ensemble_suboptimal_risk))
    calls = []

    def counted(*args):
        calls.append(args)
        return nu_family(*args)
    monkeypatch.setattr(theory, "nu_family", counted)
    table = risk_curves(params, c_grid)
    assert np.array_equal(table, np.array(rows))
    # one array pass, whatever the grid's length
    assert len(calls) == 3


# --- heterogeneous penalties -------------------------------------------------

def flat_group():
    return TheoryParams(c=(3.0,), b=(3.0,))


def test_hetero_penalty_single_point_reduces_to_scale():
    p = flat_group()
    for lam in (0.5, 1.0, 10.0):
        sol = hetero_penalty_solution(p, (lam,))
        _, a_bar = flat_optima(p, lam)
        assert abs(sol.weights[0] - a_bar) < 1e-8
        # and the risk equals the optimally scaled single-penalty risk
        assert sol.optimal_risk == pytest.approx(flat_risk(a_bar, lam, p))


def test_hetero_penalty_feasibility_bound():
    p = flat_group()
    grid = (0.1, 1.0, 5.1, 20.1, 100.1, 1000.0)
    sol = hetero_penalty_solution(p, grid)
    singles = [flat_risk(flat_optima(p, lam)[1], lam, p) for lam in grid]
    assert sol.optimal_risk <= min(singles) + 1e-10


def test_hetero_penalty_dominates_best_member():
    p = flat_group()
    grid = (0.1, 1.0, 10.1, 100.1)
    sol = hetero_penalty_solution(p, grid)
    quad = sol.gamma_vec @ sol.weights
    best_single = max(sol.gamma_vec[i] ** 2 / sol.gram[i, i]
                      for i in range(len(grid)))
    assert quad >= best_single - 1e-12
    assert np.allclose(sol.gram, sol.gram.T)


def test_hetero_penalty_near_equal_pairs_use_limit_form():
    p = flat_group()
    lam = 1.0
    sol = hetero_penalty_solution(p, (lam, lam * (1 + 1e-8), 10.0))
    # the near-equal off-diagonal entry equals the analytic diagonal limit
    assert np.isfinite(sol.gram).all()
    assert abs(sol.gram[0, 1] - sol.gram[0, 0]) < 1e-6 * abs(sol.gram[0, 0])


def test_risk_report_refuses_unequal_group_aspect_ratios():
    # the flat model pools one ratio over every group
    with pytest.raises(ValueError, match="equal group aspect ratios"):
        theory.risk_report(TheoryParams(c=(1.0, 2.0), b=(1.0, 1.0)))


def test_risk_report_coherent_with_components():
    p = params_k3()
    rep = theory.risk_report(p)
    assert rep.flat_risk == pytest.approx(
        flat_risk(1.0, rep.lambda_bar, p))
    assert rep.ensemble_optimal_risk == pytest.approx(
        ensemble_risk((1.0,) * 3, rep.lambda_star, p))
    assert all(abs(optimal_alpha(rep.lambda_bar, p, k) - rep.alpha_star[k])
               < 1e-12 for k in range(3))
    assert rep.lambda_bar == flat_optima(p)[0]
    # the all-groups pass is exactly the per-group closed forms, summed
    # in group order
    assert rep.ensemble_optimal_risk == ensemble_risk(
        np.ones(3), rep.lambda_star, p)
    assert rep.ensemble_suboptimal_risk == float(sum(
        sub_model_risk(rep.alpha_star[k], rep.lambda_bar, k, p)
        for k in range(3)))
    assert all(rep.lambda_star[k] == optimal_lambda(p, k) for k in range(3))
    assert all(rep.alpha_star[k] == optimal_alpha(rep.lambda_bar, p, k)
               for k in range(3))


def entrywise_hetero(params, grid):
    """Reference: the penalty-mixing Gram one entry at a time, with the
    trace functionals evaluated at one penalty per call."""
    lams = np.asarray(grid, dtype=float)
    b, c = params.b[0], params.c[0]
    xis = np.array([xi(l, c) for l in lams])
    xids = np.array([xi_deriv(l, c) for l in lams])
    gram = np.empty((lams.size, lams.size))
    for i in range(lams.size):
        for j in range(lams.size):
            l1, l2 = lams[i], lams[j]
            if abs(l2 - l1) < 1e-6 * min(l1, l2):
                gram[i, j] = (b * (1.0 - (2 * l1 * xis[i]
                                          + l1 * l1 * xids[i]) / c)
                              + xis[i] + l1 * xids[i])
            else:
                gram[i, j] = (b * (1.0 + (l1 * l1 * xis[i]
                                          - l2 * l2 * xis[j])
                                   / (c * (l2 - l1)))
                              + (l2 * xis[j] - l1 * xis[i]) / (l2 - l1))
    gram = 0.5 * (gram + gram.T)
    gamma_vec = b * np.array([nu_family(l, c)[0] for l in lams])
    return gram, gamma_vec, np.linalg.solve(gram, gamma_vec)


@pytest.mark.parametrize("grid", [REFERENCE_GRID29, (1.0, 1.0 + 1e-8, 10.0)],
                         ids=["grid29", "near-equal-pair"])
def test_hetero_penalty_array_gram_equals_entrywise(grid):
    for params in (flat_group(), TheoryParams(c=(10.0,), b=(3.75,))):
        sol = hetero_penalty_solution(params, grid)
        gram, gamma_vec, weights = entrywise_hetero(params, grid)
        assert np.array_equal(sol.gram, gram)
        assert np.array_equal(sol.gamma_vec, gamma_vec)
        assert np.array_equal(sol.weights, weights)


def test_hetero_penalty_duplicate_grid_rejected():
    with pytest.raises(ValueError, match="positions 1 and 3"):
        hetero_penalty_solution(flat_group(), (0.1, 1.0, 5.0, 1.0))


def test_hetero_penalty_requires_single_group():
    with pytest.raises(ValueError):
        hetero_penalty_solution(params_k3(), (0.1, 1.0))


# --- Monte Carlo oracle ------------------------------------------------------

def test_mc_zero_estimator_concentrates_on_total_signal():
    scenario = RiskScenario(n=100, p=(150, 150), b=(0.5, 1.5))
    (res,) = monte_carlo_risk(scenario, [("zero",)], replications=10, seed=3)
    assert abs(res.risk - 2.0) < max(3 * res.stderr, 0.1)


def test_mc_total_shrinkage_limit():
    scenario = RiskScenario(n=100, p=(200,), b=(1.2,))
    (res,) = monte_carlo_risk(scenario, [("flat", 1e8, 1.0)],
                              replications=6, seed=4)
    assert abs(res.risk - 1.2) < max(3 * res.stderr, 0.1)


def test_mc_matches_theory_mid_size():
    n = 200
    params = TheoryParams(c=(1.0, 1.0), b=(0.8, 1.2))
    scenario = RiskScenario(n=n, p=(n, n), b=params.b)
    lams = [optimal_lambda(params, k) for k in range(2)]
    results = monte_carlo_risk(
        scenario,
        [("submodel", 0, lams[0], 1.0),
         ("ensemble", lams, (1.0, 1.0)),
         ("flat", flat_optima(params)[0], 1.0)],
        replications=12, seed=9)
    expected = [
        sub_model_risk(1.0, lams[0], 0, params),
        ensemble_risk((1.0, 1.0), lams, params),
        flat_risk(1.0, flat_optima(params)[0], params),
    ]
    for res, exp in zip(results, expected):
        assert abs(res.risk - exp) < max(4 * res.stderr, 0.08 * exp)


def test_mc_reproducible_and_thread_invariant():
    scenario = RiskScenario(n=50, p=(60,), b=(1.0,))
    ests = [("flat", 1.0, 1.0), ("zero",)]
    a = monte_carlo_risk(scenario, ests, replications=6, seed=7)
    b = monte_carlo_risk(scenario, ests, replications=6, seed=7)
    c = monte_carlo_risk(scenario, ests, replications=6, seed=7, n_threads=4)
    assert [r.risk for r in a] == [r.risk for r in b] == [r.risk for r in c]


def test_mc_resource_guard():
    with pytest.raises(ValueError, match="resource"):
        RiskScenario(n=100_000, p=(100_000,), b=(1.0,))


def test_mc_rejects_unknown_estimator():
    scenario = RiskScenario(n=20, p=(10,), b=(1.0,))
    with pytest.raises(ValueError, match="unknown estimator"):
        monte_carlo_risk(scenario, [("wat",)], replications=2, seed=0)


@pytest.mark.parametrize("spec", [
    ("submodel", 2, 1.0, 1.0),                 # group index out of range
    ("submodel", -1, 1.0, 1.0),
    ("submodel", 0, -1.0, 1.0),                # penalty <= 0
    ("submodel", 0, 0.0, 1.0),
    ("ensemble", (1.0,), (1.0, 1.0)),          # one penalty per group
    ("ensemble", (1.0, 1.0), (1.0, 1.0, 1.0)),
    ("ensemble", (1.0, -2.0), (1.0, 1.0)),
    ("flat", 0.0, 1.0),
    ("flat", float("inf"), 1.0),
    ("multi_penalty", (0.1, 1.0), (1.0,)),     # one weight per penalty
    ("multi_penalty", (0.1, float("nan")), (0.5, 0.5)),
    ("wat",),
])
def test_mc_rejects_bad_spec_before_any_replication(spec, monkeypatch):
    def no_draws(*key):
        raise AssertionError("a replication started before specs were checked")
    monkeypatch.setattr(theory, "stream_rng", no_draws)
    scenario = RiskScenario(n=20, p=(10, 10), b=(1.0, 1.0))
    with pytest.raises(ValueError):
        monte_carlo_risk(scenario, [("zero",), spec], replications=2, seed=0)


@pytest.mark.parametrize("scenario, kwargs", [
    ({"n": 20.5}, {}),                         # counts must be integers
    ({"n": True}, {}),                         # bool is an int, not a count
    ({"p": (10.5, 10)}, {}),
    ({"p": (10, True)}, {}),
    ({}, {"replications": 2.5}),
    ({}, {"replications": True}),
    ({}, {"n_threads": 1.0}),
    ({}, {"n_threads": True}),
    ({}, {"n_threads": 0}),                    # at least one worker
    ({}, {"n_threads": -2}),
])
def test_mc_rejects_bad_counts_before_any_replication(scenario, kwargs,
                                                      monkeypatch):
    def no_draws(*key):
        raise AssertionError("a draw came before the counts were checked")
    monkeypatch.setattr(theory, "stream_rng", no_draws)
    with pytest.raises(ValueError, match="integer|at least 1"):
        monte_carlo_risk(
            RiskScenario(**{"n": 20, "p": (10, 10), "b": (1.0, 1.0),
                            **scenario}),
            [("zero",)], **{"replications": 2, "seed": 0, **kwargs})


def test_mc_accepts_numpy_integer_counts():
    scenario = RiskScenario(n=np.int64(20), p=(np.int32(10),), b=(1.0,))
    assert (type(scenario.n), type(scenario.p[0])) == (int, int)
    (res,) = monte_carlo_risk(scenario, [("zero",)], np.int64(2),
                              n_threads=np.int64(1))
    assert res.replications == 2


def test_mc_refuses_bool_group_index():
    # True is an int in Python, but not a group index
    scenario = RiskScenario(n=20, p=(10, 10), b=(1.0, 1.0))
    with pytest.raises(ValueError, match="group index True"):
        monte_carlo_risk(scenario, [("submodel", True, 1.0, 1.0)],
                         replications=2, seed=0)


@pytest.mark.parametrize("n, p, cols", [
    (40, 25, slice(None)),          # primal: p <= n
    (25, 40, slice(None)),          # dual: p > n
    (30, 60, slice(20, 45)),        # a group's non-contiguous column slice
])
def test_ridge_solves_match_per_penalty_solves(n, p, cols):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, p))[:, cols]
    y = rng.standard_normal(n)
    p = x.shape[1]
    lams = [1e-3, 0.5, 7.0]
    fits = theory._ridge_solves(x, y, lams)
    assert list(fits) == lams
    for lam in lams:
        if p <= n:
            ref = np.linalg.solve(x.T @ x / n + lam * np.eye(p), x.T @ y / n)
        else:
            ref = x.T @ np.linalg.solve(x @ x.T / n + lam * np.eye(n), y) / n
        assert np.array_equal(fits[lam], ref)
    assert theory._ridge_solves(x, y, []) == {}


@pytest.mark.parametrize("n, p, cols", [
    (200, 120, slice(None)),        # primal: p < n
    (200, 200, slice(None)),        # square: the worst conditioned
    (120, 300, slice(None)),        # dual: p > n
    (100, 300, slice(40, 190)),     # a group's non-contiguous column slice
])
def test_ridge_solves_penalty_grid_matches_dense_solves(n, p, cols,
                                                        monkeypatch):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, p))[:, cols]
    y = rng.standard_normal(n)
    p = x.shape[1]

    def dense(lam):
        if p <= n:
            return np.linalg.solve(x.T @ x / n + lam * np.eye(p), x.T @ y / n)
        return x.T @ np.linalg.solve(x @ x.T / n + lam * np.eye(n), y) / n
    grid = list(REFERENCE_GRID29)
    refs = {lam: dense(lam) for lam in grid}
    # up to the threshold every penalty keeps its own dense solve
    six = grid[:theory._SOLVES_PER_EIGH]
    assert len(six) == 6
    for lam, fit in theory._ridge_solves(x, y, six).items():
        assert np.array_equal(fit, refs[lam])

    def no_solves(*args):
        raise AssertionError("a penalty grid was fit by per-penalty solves")
    monkeypatch.setattr(np.linalg, "solve", no_solves)
    fits = theory._ridge_solves(x, y, grid)
    assert list(fits) == grid
    for lam in grid:
        err = np.linalg.norm(fits[lam] - refs[lam])
        assert err <= 1e-10 * np.linalg.norm(refs[lam])


def test_mc_penalty_grid_specs_are_weighted_sums_of_grid_fits():
    # a multi_penalty spec over 8 penalties and a flat spec at a ninth put
    # 9 penalties on the full design (70 columns on 40 rows, fit in its
    # dual form), which is fit once for all of them
    scenario = RiskScenario(n=40, p=(30, 40), b=(0.7, 1.3))
    seed, reps = 6, 4
    grid = REFERENCE_GRID29[::4]
    mix = np.linspace(0.05, 0.2, len(grid))
    specs = [("zero",), ("multi_penalty", grid, mix), ("flat", 0.7, 0.9),
             ("submodel", 0, 0.5, 1.1)]
    group = slice(0, 30)
    risks = []
    for r in range(reps):
        rng = stream_rng(seed, 301, r)
        beta = np.concatenate([rng.normal(0.0, np.sqrt(bk / pk), size=pk)
                               for pk, bk in zip(scenario.p, scenario.b)])
        x = rng.standard_normal((scenario.n, 70))
        y = x @ beta + rng.standard_normal(scenario.n)
        full = theory._ridge_solves(x, y, sorted([*grid, 0.7]))
        estimates = [
            (np.zeros_like(beta), beta),
            (sum(w * full[lam] for w, lam in zip(mix, grid)), beta),
            (0.9 * full[0.7], beta),
            (1.1 * theory._ridge_solves(x[:, group], y, [0.5])[0.5],
             beta[group])]
        risks.append([float((e - t) @ (e - t)) for e, t in estimates])
    risks = np.array(risks)
    runs = [monte_carlo_risk(scenario, specs, reps, seed=seed, n_threads=t)
            for t in (1, 1, 4)]
    assert ([(r.risk, r.stderr) for r in runs[0]]
            == [(r.risk, r.stderr) for r in runs[1]]
            == [(r.risk, r.stderr) for r in runs[2]])
    assert np.array_equal([res.risk for res in runs[0]], risks.mean(axis=0))
    assert np.array_equal([res.stderr for res in runs[0]],
                          risks.std(axis=0, ddof=1) / np.sqrt(reps))


def test_mc_specs_are_weighted_sums_of_ridge_fits():
    # each of the five kinds computed by hand from the replication's own
    # draws; a submodel is scored on its own group's coefficients only.
    # 60 rows and 75 columns: the full design is fit in its dual form and
    # every group in its primal form
    scenario = RiskScenario(n=60, p=(20, 30, 25), b=(0.5, 1.0, 1.5))
    seed, reps = 4, 3
    lams, alphas = (0.3, 0.6, 0.9), (1.0, 0.8, 1.2)
    grid, mix = (0.1, 1.0, 10.0), (0.2, 0.5, 0.25)
    specs = [("zero",), ("submodel", 1, 0.6, 0.9), ("ensemble", lams, alphas),
             ("flat", 0.8, 0.95), ("multi_penalty", grid, mix)]
    offsets = np.concatenate([[0], np.cumsum(scenario.p)])
    groups = [slice(offsets[k], offsets[k + 1]) for k in range(3)]
    risks = []
    for r in range(reps):
        rng = stream_rng(seed, 301, r)
        beta = np.concatenate([rng.normal(0.0, np.sqrt(bk / pk), size=pk)
                               for pk, bk in zip(scenario.p, scenario.b)])
        x = rng.standard_normal((scenario.n, offsets[-1]))
        y = x @ beta + rng.standard_normal(scenario.n)
        group_fit = [theory._ridge_solves(x[:, g], y, [lam])[lam]
                     for g, lam in zip(groups, lams)]
        flat_fits = theory._ridge_solves(x, y, [0.8, *grid])
        sub = 0.9 * theory._ridge_solves(x[:, groups[1]], y, [0.6])[0.6]
        estimates = [
            (np.zeros_like(beta), beta),
            (sub, beta[groups[1]]),
            (np.concatenate([a * f for a, f in zip(alphas, group_fit)]), beta),
            (0.95 * flat_fits[0.8], beta),
            (sum(w * flat_fits[lam] for w, lam in zip(mix, grid)), beta)]
        risks.append([float((e - t) @ (e - t)) for e, t in estimates])
    risks = np.array(risks)
    results = monte_carlo_risk(scenario, specs, reps, seed=seed)
    assert [res.estimator for res in results] == [
        "zero", "submodel[k=1,lam=0.6,alpha=0.9]", "ensemble[0.3,0.6,0.9]",
        "flat[lam=0.8,a=0.95]", "multi_penalty[0.1,1,10]"]
    assert np.array_equal([res.risk for res in results], risks.mean(axis=0))
    assert np.array_equal([res.stderr for res in results],
                          risks.std(axis=0, ddof=1) / np.sqrt(reps))


def test_params_validation():
    with pytest.raises(ValueError):
        TheoryParams(c=(), b=())
    with pytest.raises(ValueError):
        TheoryParams(c=(1.0,), b=(1.0, 2.0))
    with pytest.raises(ValueError):
        TheoryParams(c=(-1.0,), b=(1.0,))
    for c, b in (((np.inf,), (1.0,)), ((1.0,), (np.inf,)),
                 ((1.0, np.nan), (1.0, 1.0))):
        with pytest.raises(ValueError, match="must be positive and finite"):
            TheoryParams(c=c, b=b)
    p = params_k3()
    assert p.n_groups == 3
    assert p.b_bar == pytest.approx(3.0)


def test_csv_writers(tmp_path):
    table = risk_curves(TheoryParams(c=(1.0,), b=(1.0,)), [0.5, 1.0])
    path = tmp_path / "curves.csv"
    theory.write_risk_curves_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "c,flat,ensemble_optimal,ensemble_suboptimal"
    assert len(lines) == 3

    scenario = RiskScenario(n=30, p=(20,), b=(1.0,))
    results = monte_carlo_risk(scenario, [("zero",)], replications=3, seed=0)
    mc_path = tmp_path / "mc.csv"
    theory.write_monte_carlo_csv(results, mc_path, scenario_label="toy")
    lines = mc_path.read_text().strip().splitlines()
    assert lines[0] == "scenario,estimator,risk,stderr"
    assert lines[1].startswith("toy,zero,")
