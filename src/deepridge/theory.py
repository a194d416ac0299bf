"""Asymptotic risk of ridge ensembles under isotropic features.

Setting: n observations of p = sum_k p(k) features split into K groups,
y = x'beta + eps, group coefficients isotropic with E||beta(k)||^2 =
b(k), features i.i.d. with identity covariance, noise variance 1, and
p(k)/n -> c(k) as both grow. All risks below are limits of the exact
out-of-sample prediction risk E||estimate - beta||^2 and are assembled
from trace functionals of the sample covariance resolvent, which have
closed forms under the Marcenko-Pastur law:

    m(lam; c)   p-normalized trace of (lam*I + S)^-1, S = X'X/n
    xi(lam; c)  n-normalized trace of (lam*I + S)^-1  (= c * m)
    nu          p-normalized trace of S (lam*I + S)^-1       (> 0)
    nu'         d nu / d lam                                 (< 0)
    nu_hat      nu + lam * nu', trace of S^2 (lam*I + S)^-2  (> 0)

Every closed form here is validated against the finite-sample Monte Carlo
oracle :func:`monte_carlo_risk` in the test suite.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataio import atomic_path
from .seeding import map_ordered, stream_rng

_TAG_MC = 301

# replications draw an (n, sum p) design matrix; refuse absurd allocations
MAX_DESIGN_ELEMENTS = 50_000_000


class ConsistencyError(ArithmeticError):
    """An internal identity between closed forms failed numerically."""


@dataclass(frozen=True)
class TheoryParams:
    """Asymptotic regime: group aspect ratios and signal strengths.

    The features have identity covariance, the only case the closed forms
    here cover.
    """

    c: tuple        # per-group aspect ratios p(k)/n
    b: tuple        # per-group signal strengths

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        b = tuple(float(v) for v in self.b)
        if len(c) == 0 or len(c) != len(b):
            raise ValueError("c and b must be equal-length and non-empty")
        if any(v <= 0 for v in c) or any(v <= 0 for v in b):
            raise ValueError("aspect ratios and signal strengths must be > 0")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)

    @property
    def n_groups(self) -> int:
        return len(self.c)

    @property
    def b_bar(self) -> float:
        """Total signal strength."""
        return float(sum(self.b))


@dataclass(frozen=True)
class RiskReport:
    """Closed-form risks and optimizers for one regime."""

    flat_risk: float
    ensemble_optimal_risk: float
    ensemble_suboptimal_risk: float
    lambda_star: tuple      # per-group optimal penalties
    alpha_star: tuple       # per-group optimal weights at the flat penalty
    lambda_bar: float       # flat model's optimal penalty
    a_bar: float            # flat model's optimal scale at lambda_bar


@dataclass(frozen=True)
class HeteroPenaltySolution:
    """Optimal mixing weights over a penalty grid for one feature group."""

    weights: np.ndarray     # (L,)
    gram: np.ndarray        # (L, L) limiting cross-products of the fits
    gamma_vec: np.ndarray   # (L,) limiting fit/target cross-products
    optimal_risk: float


def _check_pos(lam, c):
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0) or c <= 0:
        raise ValueError("lambda and c must be strictly positive")
    return lam


def mp_stieltjes(lam, c):
    """Marcenko-Pastur resolvent trace m(lam; c) for identity covariance.

    Limit of p^-1 tr (lam*I + X'X/n)^-1 with p/n -> c. Evaluated from the
    stable root of its quadratic c*lam*m^2 + (1-c+lam)*m - 1 = 0.
    """
    lam = _check_pos(lam, c)
    t = (1.0 - c) + lam
    s = np.sqrt(t * t + 4.0 * c * lam)
    # pick the cancellation-free expression for each sign of t
    out = np.where(t >= 0, 2.0 / (s + t), (s - t) / (2.0 * c * lam))
    return out if out.ndim else float(out)


def mp_stieltjes_deriv(lam, c):
    """Derivative of the resolvent trace in its spectral argument (positive).

    Equals -d m(lam; c)/d lam; obtained by differentiating m's quadratic.
    """
    lam = _check_pos(lam, c)
    m = mp_stieltjes(lam, c)
    out = (c * m * m + m) / (2.0 * c * lam * m + (1.0 - c) + lam)
    return out if np.ndim(out) else float(out)


def xi(lam, c):
    """n-normalized resolvent trace: xi = c * m(lam; c).

    The equivalent closed form (1 - lam*m) / (1/c - 1 + lam*m) is checked
    on every call; disagreement indicates a numerical breakdown.
    """
    lam = _check_pos(lam, c)
    m = mp_stieltjes(lam, c)
    val = c * m
    alt = (1.0 - lam * m) / (1.0 / c - 1.0 + lam * m)
    if np.any(np.abs(val - alt) > 1e-9 * np.maximum(1.0, np.abs(val))):
        raise ConsistencyError(
            f"resolvent trace forms disagree at lam={lam}, c={c}")
    return val if np.ndim(val) else float(val)


def xi_deriv(lam, c):
    """d xi / d lam, negative: the trace shrinks as the penalty grows."""
    out = -c * mp_stieltjes_deriv(lam, c)
    return out if np.ndim(out) else float(out)


def nu_family(lam, c):
    """The trace functionals (nu, nu', nu_hat) driving every risk formula.

    nu = 1 - lam*xi/c, nu' = -(xi + lam*xi')/c, nu_hat = nu + lam*nu'.
    Their signs (+, -, +) are structural; a violation raises.
    """
    x = xi(lam, c)
    xd = xi_deriv(lam, c)
    nu = 1.0 - (np.asarray(lam, dtype=float) / c) * x
    nu_prime = -(x + lam * xd) / c
    nu_hat = nu + lam * nu_prime
    if np.any(nu <= 0) or np.any(nu_prime >= 0) or np.any(nu_hat <= 0):
        raise ConsistencyError(
            f"sign pattern of (nu, nu', nu_hat) violated at lam={lam}, c={c}")
    if np.ndim(nu):
        return nu, nu_prime, nu_hat
    return float(nu), float(nu_prime), float(nu_hat)


def _group_quadratic(lam, k, params):
    """Coefficients (linear, quadratic) of the group-k risk in its weight.

    Risk(alpha) = b - 2*alpha*(b*nu) + alpha^2 * A, where A bundles
    the group's own shrinkage with the noise contributed by the other
    groups' signals.
    """
    b, c = params.b[k], params.c[k]
    nu, nu_prime, nu_hat = nu_family(lam, c)
    lin = b * nu
    quad = b * nu_hat - c * nu_prime * (1.0 + params.b_bar - b)
    return lin, quad


def sub_model_risk(alpha: float, lam: float, k: int, params: TheoryParams) -> float:
    """Asymptotic risk of group k's ridge fit, scaled by ``alpha``."""
    if not 0 <= k < params.n_groups:
        raise ValueError(f"group index {k} out of range")
    lin, quad = _group_quadratic(lam, k, params)
    b = params.b[k]
    return float(b - 2.0 * alpha * lin + alpha * alpha * quad)


def ensemble_risk(alphas, lams, params: TheoryParams) -> float:
    """Risk of the weighted sum of group fits; cross terms vanish."""
    alphas = np.asarray(alphas, dtype=float).ravel()
    lams = np.asarray(lams, dtype=float).ravel()
    if alphas.size != params.n_groups or lams.size != params.n_groups:
        raise ValueError("need one weight and one penalty per group")
    return float(sum(
        sub_model_risk(alphas[k], lams[k], k, params)
        for k in range(params.n_groups)))


def optimal_lambda(params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing penalty (at unit weight)."""
    if not 0 <= k < params.n_groups:
        raise ValueError(f"group index {k} out of range")
    b, c = params.b[k], params.c[k]
    return float(c * (1.0 + params.b_bar - b) / b)


def optimal_alpha(lam: float, params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing weight at a fixed penalty."""
    lin, quad = _group_quadratic(lam, k, params)
    return float(lin / quad)


def _flat_aspect(params: TheoryParams) -> float:
    cs = params.c
    if max(cs) - min(cs) > 1e-12 * max(cs):
        raise ValueError("flat-model formulas require equal group aspect ratios")
    return float(cs[0] * params.n_groups)


def flat_risk(a: float, lam: float, params: TheoryParams) -> float:
    """Risk of one ridge over all groups jointly, prediction scaled by ``a``.

    The resolvent functionals are evaluated at the pooled aspect ratio
    c*K; requires equal group sizes.
    """
    ck = _flat_aspect(params)
    bb = params.b_bar
    nu, nu_prime, nu_hat = nu_family(lam, ck)
    return float(bb - 2.0 * a * bb * nu + a * a * (bb * nu_hat - ck * nu_prime))


def flat_optima(params: TheoryParams, lam: float | None = None):
    """The flat model's optimal penalty and optimal scale.

    Returns (lambda_bar, a_bar): lambda_bar = c*K / b_bar minimizes risk at
    unit scale; a_bar minimizes risk at the given penalty (lambda_bar when
    ``lam`` is omitted, where it equals 1).
    """
    ck = _flat_aspect(params)
    bb = params.b_bar
    lambda_bar = ck / bb
    at = lambda_bar if lam is None else float(lam)
    nu, nu_prime, nu_hat = nu_family(at, ck)
    a_bar = bb * nu / (bb * nu_hat - ck * nu_prime)
    return float(lambda_bar), float(a_bar)


RISK_CURVE_COLUMNS = ("c", "flat", "ensemble_optimal", "ensemble_suboptimal")


def risk_curves(params: TheoryParams, c_grid) -> np.ndarray:
    """Risk of three estimators across a sweep of per-group complexity.

    For each c: the flat model at its own optimal penalty, the ensemble
    with per-group optimal penalties (unit weights), and the ensemble
    forced to the flat penalty but with optimal weights. Columns follow
    :data:`RISK_CURVE_COLUMNS`.

    Neither ensemble dominates the flat model everywhere: each group's fit
    treats the other groups' signal as noise, so at low complexity the
    flat model wins. The optimal-penalty ensemble overtakes it at a single
    crossover and stays below it; the flat-penalty, re-weighted ensemble
    overtakes it at the same complexity or later.
    """
    rows = []
    for cv in np.asarray(c_grid, dtype=float).ravel():
        report = risk_report(TheoryParams(c=(cv,) * params.n_groups,
                                          b=params.b))
        rows.append((cv, report.flat_risk, report.ensemble_optimal_risk,
                     report.ensemble_suboptimal_risk))
    return np.array(rows)


def default_curve_params(n_groups: int = 10, b_low: float = 0.5,
                         b_high: float = 1.5) -> TheoryParams:
    """Illustration regime: heterogeneous signal strengths, identity spectra."""
    b = np.linspace(b_low, b_high, n_groups)
    return TheoryParams(c=(1.0,) * n_groups, b=tuple(b))


def hetero_penalty_solution(params: TheoryParams,
                            lambda_grid) -> HeteroPenaltySolution:
    """Optimal deterministic mixing of one group's fits across penalties.

    For a single feature group (K must be 1), solves for weights w over
    the grid minimizing the limiting risk of sum_l w_l * fit(lambda_l).
    The limiting Gram of the fits has entries

        Gram(l1, l2) = b*(1 + (l1^2 xi(l1) - l2^2 xi(l2))/(c (l2-l1)))
                       + (l2 xi(l2) - l1 xi(l1))/(l2 - l1),

    with the diagonal (and near-equal pairs) taken as the analytic limit
    l2 -> l1. The target cross-product vector is gamma_l = b * nu(l).
    Weights solve Gram w = gamma; the optimal risk is
    b - gamma'w. Mixing across penalties applies an eigenvalue-
    dependent (non-linear) shrinkage that no single penalty can match.
    """
    if params.n_groups != 1:
        raise ValueError("heterogeneous-penalty mixing is defined for a "
                         "single feature group")
    lams = np.asarray(lambda_grid, dtype=float).ravel()
    if lams.size == 0 or np.any(lams <= 0):
        raise ValueError("penalty grid must be non-empty and positive")
    for i in range(lams.size):
        for j in range(i + 1, lams.size):
            if lams[i] == lams[j]:
                raise ValueError(
                    f"duplicate penalties make the fit Gram singular: "
                    f"grid positions {i} and {j} both equal {lams[i]}")
    b, c = params.b[0], params.c[0]

    xis = np.array([xi(l, c) for l in lams])
    xids = np.array([xi_deriv(l, c) for l in lams])
    gram = np.empty((lams.size, lams.size))
    for i in range(lams.size):
        for j in range(lams.size):
            l1, l2 = lams[i], lams[j]
            if abs(l2 - l1) < 1e-6 * min(l1, l2):
                # analytic limit; the difference quotient would cancel badly
                gram[i, j] = (b * (1.0 - (2 * l1 * xis[i] + l1 * l1 * xids[i]) / c)
                              + xis[i] + l1 * xids[i])
            else:
                gram[i, j] = (b * (1.0 + (l1 * l1 * xis[i] - l2 * l2 * xis[j])
                                   / (c * (l2 - l1)))
                              + (l2 * xis[j] - l1 * xis[i]) / (l2 - l1))
    gram = 0.5 * (gram + gram.T)  # symmetrize away rounding asymmetry
    gamma_vec = b * np.array([nu_family(l, c)[0] for l in lams])
    try:
        weights = np.linalg.solve(gram, gamma_vec)
    except np.linalg.LinAlgError as exc:
        close = np.unravel_index(
            np.argmin(np.abs(np.subtract.outer(lams, lams))
                      + np.diag(np.full(lams.size, np.inf))),
            (lams.size, lams.size))
        raise ValueError(
            f"singular fit Gram; nearest penalty pair is grid positions "
            f"{min(close)} and {max(close)} "
            f"({lams[close[0]]}, {lams[close[1]]})") from exc
    risk = float(b - gamma_vec @ weights)
    return HeteroPenaltySolution(weights=weights, gram=gram,
                                 gamma_vec=gamma_vec, optimal_risk=risk)


def risk_report(params: TheoryParams) -> RiskReport:
    """Bundle of the headline closed-form risks for one regime."""
    lam_star = tuple(optimal_lambda(params, k) for k in range(params.n_groups))
    lambda_bar, a_bar = flat_optima(params)
    alpha_star = tuple(optimal_alpha(lambda_bar, params, k)
                       for k in range(params.n_groups))
    return RiskReport(
        flat_risk=flat_risk(1.0, lambda_bar, params),
        ensemble_optimal_risk=ensemble_risk(
            np.ones(params.n_groups), lam_star, params),
        ensemble_suboptimal_risk=float(sum(
            sub_model_risk(alpha_star[k], lambda_bar, k, params)
            for k in range(params.n_groups))),
        lambda_star=lam_star, alpha_star=alpha_star,
        lambda_bar=lambda_bar, a_bar=a_bar)


# --- Monte Carlo oracle ----------------------------------------------------


@dataclass(frozen=True)
class RiskScenario:
    """Finite-sample regime for the oracle: n, group sizes, signal strengths."""

    n: int
    p: tuple
    b: tuple

    def __post_init__(self):
        p = tuple(int(v) for v in self.p)
        b = tuple(float(v) for v in self.b)
        if self.n < 1 or len(p) == 0 or len(p) != len(b):
            raise ValueError("need n >= 1 and equal-length p and b")
        if any(v < 1 for v in p) or any(v <= 0 for v in b):
            raise ValueError("group sizes must be >= 1, strengths > 0")
        if self.n * sum(p) > MAX_DESIGN_ELEMENTS:
            raise ValueError(
                f"design matrix of {self.n} x {sum(p)} exceeds the resource "
                f"guard ({MAX_DESIGN_ELEMENTS} elements)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class McResult:
    """Empirical risk of one estimator across replications."""

    estimator: str
    risk: float
    stderr: float
    replications: int


def _ridge_solve(x, y, lam):
    # deliberately a plain dense solve: this oracle must stay independent
    # of the eigendecomposition grid machinery it validates
    n, p = x.shape
    if p <= n:
        return np.linalg.solve(
            x.T @ x / n + lam * np.eye(p), x.T @ y / n)
    dual = np.linalg.solve(x @ x.T / n + lam * np.eye(n), y)
    return x.T @ dual / n


def monte_carlo_risk(scenario: RiskScenario, estimators, replications: int,
                     seed: int = 0, n_threads: int = 1):
    """Empirical out-of-sample risk of the requested estimators.

    Each replication draws isotropic coefficients with the scenario's
    group strengths, a standard normal design and unit noise, fits every
    requested estimator, and records the exact population risk
    ||estimate - beta||^2. Estimators are specs:

        ("zero",)
        ("submodel", k, lam, alpha)
        ("ensemble", lams, alphas)
        ("flat", lam, scale)
        ("multi_penalty", lams, weights)

    Returns one :class:`McResult` per spec, in order.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for a standard error")
    estimators = list(estimators)
    offsets = np.concatenate([[0], np.cumsum(scenario.p)])
    p_total = int(offsets[-1])

    # every (group, lam) fit needed, computed once per replication
    flat_lams = sorted({
        float(l)
        for est in estimators if est[0] in ("flat", "multi_penalty")
        for l in (np.atleast_1d(est[1]).tolist())})
    group_lams = [set() for _ in scenario.p]
    for est in estimators:
        if est[0] == "submodel":
            group_lams[est[1]].add(float(est[2]))
        elif est[0] == "ensemble":
            for k, l in enumerate(np.asarray(est[1], dtype=float).ravel()):
                group_lams[k].add(float(l))
    group_lams = [sorted(s) for s in group_lams]

    def one_rep(r):
        rng = stream_rng(seed, _TAG_MC, r)
        beta = np.concatenate([
            rng.normal(0.0, math.sqrt(bk / pk), size=pk)
            for pk, bk in zip(scenario.p, scenario.b)])
        x = rng.standard_normal((scenario.n, p_total))
        y = x @ beta + rng.standard_normal(scenario.n)
        fits_flat = {l: _ridge_solve(x, y, l) for l in flat_lams}
        fits_group = [
            {l: _ridge_solve(x[:, offsets[k]:offsets[k + 1]], y, l)
             for l in group_lams[k]}
            for k in range(len(scenario.p))]

        out = []
        for est in estimators:
            kind = est[0]
            if kind == "zero":
                err = beta
            elif kind == "submodel":
                _, k, lam, alpha = est
                err = alpha * fits_group[k][float(lam)] \
                    - beta[offsets[k]:offsets[k + 1]]
            elif kind == "ensemble":
                lams = np.asarray(est[1], dtype=float).ravel()
                alphas = np.asarray(est[2], dtype=float).ravel()
                stacked = np.concatenate([
                    alphas[k] * fits_group[k][float(lams[k])]
                    for k in range(len(scenario.p))])
                err = stacked - beta
            elif kind == "flat":
                _, lam, scale = est
                err = scale * fits_flat[float(lam)] - beta
            elif kind == "multi_penalty":
                lams = np.asarray(est[1], dtype=float).ravel()
                w = np.asarray(est[2], dtype=float).ravel()
                mix = sum(w[i] * fits_flat[float(lams[i])]
                          for i in range(lams.size))
                err = mix - beta
            else:
                raise ValueError(f"unknown estimator kind {kind!r}")
            out.append(float(err @ err))
        return out

    # (R, n_estimators)
    risks = np.asarray(map_ordered(one_rep, range(replications), n_threads))
    results = []
    for j, est in enumerate(estimators):
        col = risks[:, j]
        results.append(McResult(
            estimator=_estimator_label(est), risk=float(col.mean()),
            stderr=float(col.std(ddof=1) / math.sqrt(replications)),
            replications=replications))
    return results


def _estimator_label(est) -> str:
    kind = est[0]
    if kind == "zero":
        return "zero"
    if kind == "submodel":
        return f"submodel[k={est[1]},lam={float(est[2]):g},alpha={float(est[3]):g}]"
    if kind == "ensemble":
        return "ensemble[" + ",".join(f"{float(l):g}" for l in est[1]) + "]"
    if kind == "flat":
        return f"flat[lam={float(est[1]):g},a={float(est[2]):g}]"
    if kind == "multi_penalty":
        return "multi_penalty[" + ",".join(f"{float(l):g}" for l in est[1]) + "]"
    return str(est)


def write_risk_curves_csv(table: np.ndarray, path) -> None:
    """Write a :func:`risk_curves` table with its standard header."""
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(RISK_CURVE_COLUMNS)
        for row in np.asarray(table, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def write_monte_carlo_csv(results, path, scenario_label: str = "") -> None:
    """Write oracle results as (scenario, estimator, risk, stderr) rows."""
    with atomic_path(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("scenario", "estimator", "risk", "stderr"))
        for res in results:
            writer.writerow((scenario_label, res.estimator,
                             repr(res.risk), repr(res.stderr)))
