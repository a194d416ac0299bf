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

import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .seeding import TAG_MC, check_count, check_real, map_ordered, stream_rng

# replications draw an (n, sum p) design matrix; refuse absurd allocations.
# A fit on more than _SOLVES_PER_EIGH penalties peaks at its r x r Gram plus
# about 5 r^2 (eigh's copy of the Gram, its workspace, the eigenvectors),
# where r = min(n, p), so r^2 <= n * sum(p)
MAX_DESIGN_ELEMENTS = 50_000_000

# a design fit on more penalties than this gets one eigendecomposition of
# its Gram instead of one dense solve per penalty. On one BLAS thread at
# r = 200 a whole fit costs the same either way at about 8 penalties (9 ms
# on a 200 x 1000 design). A group design carries one penalty per spec
# that fits it; a flat spec beside a 29-point multi_penalty grid puts 30
# on the full design
_SOLVES_PER_EIGH = 6


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
        c = tuple(map(float, check_real("c", self.c, 0)))
        b = tuple(map(float, check_real("b", self.b, 0)))
        if len(c) == 0 or len(c) != len(b):
            raise ValueError("c and b must be equal-length and non-empty")
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
    """Closed-form risks and optimizers for one regime. The flat model's
    optimal scale at ``lambda_bar`` is 1; :func:`flat_optima` gives it."""

    flat_risk: float
    ensemble_optimal_risk: float
    ensemble_suboptimal_risk: float
    lambda_star: tuple      # per-group optimal penalties
    alpha_star: tuple       # per-group optimal weights at the flat penalty
    lambda_bar: float       # flat model's optimal penalty


@dataclass(frozen=True)
class HeteroPenaltySolution:
    """Optimal mixing weights over a penalty grid for one feature group."""

    weights: np.ndarray     # (L,)
    gram: np.ndarray        # (L, L) limiting cross-products of the fits
    gamma_vec: np.ndarray   # (L,) limiting fit/target cross-products
    optimal_risk: float


def mp_stieltjes(lam, c):
    """Marcenko-Pastur resolvent trace m(lam; c) for identity covariance.

    Limit of p^-1 tr (lam*I + X'X/n)^-1 with p/n -> c. Evaluated from the
    stable root of its quadratic c*lam*m^2 + (1-c+lam)*m - 1 = 0. Where
    the quadratic's discriminant overflows (|1 - c + lam| past about 1e154
    or c*lam past about 1e307) the root cannot be evaluated in floating
    point, and the result is NaN.
    """
    lam, c = check_real("lam", lam, 0), check_real("c", c, 0)
    t = (1.0 - c) + lam
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(t * t + 4.0 * c * lam)
        # pick the cancellation-free expression for each sign of t
        out = np.where(t >= 0, 2.0 / (s + t), (s - t) / (2.0 * c * lam))
    out = np.where(np.isfinite(s), out, np.nan)
    return out if out.ndim else float(out)


def mp_stieltjes_deriv(lam, c):
    """Derivative of the resolvent trace in its spectral argument (positive).

    Equals -d m(lam; c)/d lam; obtained by differentiating m's quadratic.
    """
    lam, c = check_real("lam", lam, 0), check_real("c", c, 0)
    m = mp_stieltjes(lam, c)
    out = (c * m * m + m) / (2.0 * c * lam * m + (1.0 - c) + lam)
    return out if np.ndim(out) else float(out)


def xi(lam, c):
    """n-normalized resolvent trace: xi = c * m(lam; c).

    The equivalent closed form (1 - lam*m) / (1/c - 1 + lam*m) is checked
    on every call; disagreement, a NaN or an inf among them included,
    indicates a numerical breakdown.
    """
    m = mp_stieltjes(lam, c)   # refuses a lam or c not positive and finite
    val = c * m
    with np.errstate(divide="ignore", invalid="ignore"):
        alt = (1.0 - lam * m) / (1.0 / c - 1.0 + lam * m)
        agree = np.abs(val - alt) <= 1e-9 * np.maximum(1.0, np.abs(val))
    if not np.all(agree):
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


def _group_quadratic(lam, b, c, b_bar):
    """Terms (b, linear, quadratic) of a group's risk in its weight.

    Risk(alpha) = b - 2*alpha*(b*nu) + alpha^2 * A, where A bundles
    the group's own shrinkage with the noise contributed by the other
    groups' signals (total strength ``b_bar``). ``lam``, ``b`` and ``c``
    broadcast together: one group, every group in order, or a grid of
    regimes by group, each term from a single :func:`nu_family` call.
    """
    nu, nu_prime, nu_hat = nu_family(lam, c)
    return b, b * nu, b * nu_hat - c * nu_prime * (1.0 + b_bar - b)


def _weighted_risk(alpha, terms):
    """Group risk at weight ``alpha`` from :func:`_group_quadratic` terms."""
    b, lin, quad = terms
    return b - 2.0 * alpha * lin + alpha * alpha * quad


def _total(risks):
    """Sum over the last (group) axis, left to right in group order.

    Not numpy's pairwise sum: a regime's total rounds the same whether it
    is evaluated alone or as one row of a grid.
    """
    total = 0.0
    for col in np.moveaxis(np.asarray(risks), -1, 0):
        total = total + col
    return total if np.ndim(total) else float(total)


def _optimal_lambda(b, c, b_bar):
    return c * (1.0 + b_bar - b) / b


def _flat_risk(a, lam, ck, bb):
    nu, nu_prime, nu_hat = nu_family(lam, ck)
    return bb - 2.0 * a * bb * nu + a * a * (bb * nu_hat - ck * nu_prime)


def sub_model_risk(alpha: float, lam: float, k: int, params: TheoryParams) -> float:
    """Asymptotic risk of group k's ridge fit, scaled by ``alpha``."""
    check_count("group index", k, 0, params.n_groups - 1)
    alpha = check_real("alpha", alpha)
    return float(_weighted_risk(alpha, _group_quadratic(
        lam, params.b[k], params.c[k], params.b_bar)))


def ensemble_risk(alphas, lams, params: TheoryParams) -> float:
    """Risk of the weighted sum of group fits; cross terms vanish."""
    alphas = np.ravel(check_real("alphas", alphas))
    lams = np.asarray(lams, dtype=float).ravel()
    if alphas.size != params.n_groups or lams.size != params.n_groups:
        raise ValueError("need one weight and one penalty per group")
    return _total(_weighted_risk(alphas, _group_quadratic(
        lams, np.asarray(params.b), np.asarray(params.c), params.b_bar)))


def optimal_lambda(params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing penalty (at unit weight)."""
    check_count("group index", k, 0, params.n_groups - 1)
    return float(_optimal_lambda(params.b[k], params.c[k], params.b_bar))


def optimal_alpha(lam: float, params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing weight at a fixed penalty."""
    check_count("group index", k, 0, params.n_groups - 1)
    _, lin, quad = _group_quadratic(lam, params.b[k], params.c[k],
                                    params.b_bar)
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
    return float(_flat_risk(check_real("a", a), lam, _flat_aspect(params),
                            params.b_bar))


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
    :data:`RISK_CURVE_COLUMNS`. Each row is :func:`risk_report` of the
    regime with every group at aspect ratio c and ``params``' strengths,
    bit for bit, but the whole grid is evaluated in one array pass: three
    :func:`nu_family` calls, whatever the grid's length.

    Neither ensemble dominates the flat model everywhere: each group's fit
    treats the other groups' signal as noise, so at low complexity the
    flat model wins. The optimal-penalty ensemble overtakes it at a single
    crossover and stays below it; the flat-penalty, re-weighted ensemble
    overtakes it at the same complexity or later.
    """
    c_grid = np.ravel(check_real("c_grid", c_grid, 0))
    if c_grid.size == 0:
        raise ValueError("c_grid must be non-empty")
    *_, flat, optimal, suboptimal = _headline(params, c_grid[:, None])
    return np.column_stack([c_grid, flat[:, 0], optimal, suboptimal])


def curve_floats(n_c: int, n_groups: int) -> int:
    """Floats :func:`risk_curves` holds at its peak on ``n_c`` aspect
    ratios of a :func:`default_curve_params` regime of ``n_groups`` groups,
    the regime's own tuples included. Traced peaks ran at 11.3-11.7 floats
    per (c, group) entry of the grid's arrays, 15 per group of the regime's
    tuples and 15-17 per c, so 16 per entry of a grid one larger each way
    bounds them; 1024 more cover 6-7 kB of small objects."""
    return 16 * (n_c + 1) * (n_groups + 1) + 1024


def default_curve_params(n_groups: int = 10, b_low: float = 0.5,
                         b_high: float = 1.5) -> TheoryParams:
    """Illustration regime: heterogeneous signal strengths, identity spectra."""
    check_count("n_groups", n_groups)
    check_real("b_low", b_low, 0)
    check_real("b_high", b_high, 0)
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
    lams = np.ravel(check_real("lambda_grid", lambda_grid, 0))
    if lams.size == 0:
        raise ValueError("lambda_grid must be non-empty")
    # row-major order: the first duplicate pair a double loop would meet
    dups = np.argwhere(np.triu(np.equal.outer(lams, lams), 1))
    if dups.size:
        i, j = dups[0]
        raise ValueError(
            f"duplicate penalties make the fit Gram singular: "
            f"grid positions {i} and {j} both equal {lams[i]}")
    b, c = params.b[0], params.c[0]

    xis = xi(lams, c)
    # rows are l1 = lams[i], columns l2 = lams[j]
    l1, l2 = lams[:, None], lams[None, :]
    x1, x2 = xis[:, None], xis[None, :]
    xd1 = xi_deriv(lams, c)[:, None]
    # analytic limit on near-equal pairs, where the difference quotient
    # would cancel badly; a divisor of 1 there keeps the unused quotient finite
    near = np.abs(l2 - l1) < 1e-6 * np.minimum(l1, l2)
    step = np.where(near, 1.0, l2 - l1)
    gram = np.where(
        near,
        b * (1.0 - (2 * l1 * x1 + l1 * l1 * xd1) / c) + x1 + l1 * xd1,
        b * (1.0 + (l1 * l1 * x1 - l2 * l2 * x2) / (c * step))
        + (l2 * x2 - l1 * x1) / step)
    gram = 0.5 * (gram + gram.T)  # symmetrize away rounding asymmetry
    gamma_vec = b * nu_family(lams, c)[0]
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


def _headline(params: TheoryParams, c):
    """Per-group optima and the three headline risks at aspect ratios ``c``.

    ``c`` is ``params.c``, or a column (C, 1) of ratios that every group
    shares, one regime per row; the flat model pools the first group's
    ratio over all K groups. The arithmetic is elementwise and group sums
    run left to right, so each row of a grid equals its regime evaluated
    alone, bit for bit.

    Returns (lambda_bar, lambda_star, alpha_star, flat, ensemble_optimal,
    ensemble_suboptimal).
    """
    b, bb = np.asarray(params.b), params.b_bar
    ck = c[..., :1] * params.n_groups
    lambda_bar = ck / bb
    lam_star = _optimal_lambda(b, c, bb)
    at_flat = _group_quadratic(lambda_bar, b, c, bb)
    _, lin, quad = at_flat
    alpha_star = lin / quad
    return (lambda_bar, lam_star, alpha_star,
            _flat_risk(1.0, lambda_bar, ck, bb),
            _total(_weighted_risk(1.0, _group_quadratic(lam_star, b, c, bb))),
            _total(_weighted_risk(alpha_star, at_flat)))


def risk_report(params: TheoryParams) -> RiskReport:
    """Bundle of the headline closed-form risks for one regime.

    Every group is evaluated at once, by three :func:`nu_family` calls: at
    the per-group optimal penalties, at the flat penalty, for the flat model.
    """
    _flat_aspect(params)   # refuses unequal group aspect ratios
    lambda_bar, lam_star, alpha_star, flat, optimal, suboptimal = _headline(
        params, np.asarray(params.c))
    return RiskReport(
        flat_risk=float(flat[0]), ensemble_optimal_risk=optimal,
        ensemble_suboptimal_risk=suboptimal,
        lambda_star=tuple(lam_star.tolist()),
        alpha_star=tuple(alpha_star.tolist()),
        lambda_bar=float(lambda_bar[0]))


# --- Monte Carlo oracle ----------------------------------------------------


@dataclass(frozen=True)
class RiskScenario:
    """Finite-sample regime for the oracle: n, group sizes, signal strengths."""

    n: int
    p: tuple
    b: tuple

    def __post_init__(self):
        n = check_count("n", self.n)
        p = tuple(check_count(f"p[{k}]", v) for k, v in enumerate(self.p))
        b = tuple(map(float, check_real("b", self.b, 0)))
        if len(p) == 0 or len(p) != len(b):
            raise ValueError("need non-empty, equal-length p and b")
        if n * sum(p) > MAX_DESIGN_ELEMENTS:
            raise ValueError(
                f"design matrix of {n} x {sum(p)} exceeds the resource "
                f"guard ({MAX_DESIGN_ELEMENTS} elements)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class McResult:
    """Empirical risk of one estimator across replications."""

    estimator: str
    risk: float
    stderr: float
    replications: int


def _ridge_solves(x, y, lams):
    """Ridge fits of ``y`` on ``x``, one per penalty: ``{lam: coefficients}``.

    The Gram matrix (``x'x/n``, or ``xx'/n`` when p > n) is formed once
    for all penalties. Up to ``_SOLVES_PER_EIGH`` penalties each get their
    own dense solve on it. A longer grid gets one eigendecomposition
    V diag(mu) V' of the Gram, and every penalty is read off it:
    V diag(1/(mu+lam)) V' (x'y/n) in the primal form, and
    x' (V diag(1/(mu+lam)) V' y) / n in the dual one.
    """
    # deliberately plain linear algebra with no eigenvalue floor: this
    # oracle must stay independent of the grid machinery in ridge.py that
    # it validates
    n, p = x.shape
    primal = p <= n
    gram = x.T @ x / n if primal else x @ x.T / n
    rhs = x.T @ y / n if primal else y
    if len(lams) <= _SOLVES_PER_EIGH:
        eye = np.eye(len(gram))
        fits = [np.linalg.solve(gram + lam * eye, rhs) for lam in lams]
        if not primal:
            fits = [x.T @ fit / n for fit in fits]
    else:
        mu, v = np.linalg.eigh(gram)
        lam_col = np.asarray(lams, dtype=float)[:, None]
        # (L, r): every penalty's solve, one row each
        fits = ((v.T @ rhs) / (mu + lam_col)) @ v.T
        if not primal:
            fits = fits @ x / n
    return dict(zip(lams, fits))


def _parse_spec(est, offsets):
    """One oracle spec as ``(label, coords, terms)``, checked before any draw.

    Every estimator is a weighted sum of ridge fits scored on the slice
    ``coords`` of beta. Each term ``(design, lam, weight, place)`` adds
    ``weight`` times the fit at ``lam`` on the design columns
    ``design = (start, stop)`` into the slice ``place`` of that estimate.
    """
    n_groups = len(offsets) - 1
    full, whole = (0, offsets[-1]), slice(None)
    kind = est[0] if len(est) else None
    if kind == "zero":
        return "zero", whole, []
    if kind == "submodel":
        _, k, lam, alpha = est
        check_count(f"submodel group index {k!r}", k, 0, n_groups - 1)
        lam = check_real("submodel lam", lam, 0)
        alpha = check_real("submodel alpha", alpha)
        group = (offsets[k], offsets[k + 1])
        return (f"submodel[k={k},lam={lam:g},alpha={alpha:g}]",
                slice(*group), [(group, lam, alpha, whole)])
    if kind == "flat":
        _, lam, scale = est
        lam = check_real("flat lam", lam, 0)
        scale = check_real("flat scale", scale)
        return (f"flat[lam={lam:g},a={scale:g}]", whole,
                [(full, lam, scale, whole)])
    if kind not in ("ensemble", "multi_penalty"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    _, lams, weights = est
    lams = np.ravel(check_real(f"{kind} lams", lams, 0))
    weights = np.ravel(check_real(f"{kind} weights", weights))
    if kind == "ensemble":
        if lams.size != n_groups or weights.size != n_groups:
            raise ValueError(
                f"ensemble needs {n_groups} penalties and weights, got "
                f"{lams.size} and {weights.size}")
        # group k's fit fills group k's coordinates
        designs = list(zip(offsets[:-1], offsets[1:]))
        places = [slice(*d) for d in designs]
    else:
        if lams.size != weights.size:
            raise ValueError(
                f"multi_penalty needs one weight per penalty, got "
                f"{lams.size} penalties and {weights.size} weights")
        designs, places = [full] * lams.size, [whole] * lams.size
    label = f"{kind}[" + ",".join(f"{l:g}" for l in lams.tolist()) + "]"
    return label, whole, list(zip(designs, lams.tolist(), weights.tolist(),
                                  places))


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

    Specs are read once, before any replication, as weighted sums of ridge
    fits: a group index out of range, a penalty or weight count that does
    not match, a penalty that is not positive and finite, a weight or scale
    that is not finite, or an unknown kind raises ``ValueError``, as does a
    ``replications`` or ``n_threads`` that is not an integer (bools
    included), fewer than 2 replications or fewer than 1 thread. Each
    replication forms one Gram matrix per design matrix it fits (the full
    design, and each group's columns). A design
    with at most ``_SOLVES_PER_EIGH`` distinct penalties gets one dense
    solve per penalty on it, a longer grid one eigendecomposition that
    serves every penalty (see :func:`_ridge_solves`). A submodel is scored
    on its own group's coefficients, every other estimator on all of beta.
    Replications run on ``n_threads`` workers; each keeps its own keyed
    stream, so the results do not depend on the thread count.

    Returns one :class:`McResult` per spec, in order.
    """
    check_count("replications", replications, 2)   # for a standard error
    offsets = np.concatenate([[0], np.cumsum(scenario.p)]).tolist()
    specs = [_parse_spec(est, offsets) for est in estimators]
    # every (design, lam) fit needed, computed once per replication
    design_lams = {}
    for _, _, terms in specs:
        for design, lam, _, _ in terms:
            design_lams.setdefault(design, set()).add(lam)

    def one_rep(r):
        rng = stream_rng(seed, TAG_MC, r)
        beta = np.concatenate([
            rng.normal(0.0, math.sqrt(bk / pk), size=pk)
            for pk, bk in zip(scenario.p, scenario.b)])
        x = rng.standard_normal((scenario.n, offsets[-1]))
        y = x @ beta + rng.standard_normal(scenario.n)
        fits = {(start, stop): _ridge_solves(x[:, start:stop], y, sorted(lams))
                for (start, stop), lams in design_lams.items()}
        out = []
        for _, coords, terms in specs:
            target = beta[coords]
            estimate = np.zeros_like(target)
            for design, lam, weight, place in terms:
                estimate[place] += weight * fits[design][lam]
            err = estimate - target
            out.append(float(err @ err))
        return out

    risks = np.array(list(map_ordered(one_rep, range(replications),
                                      n_threads)))   # (R, n_estimators)
    return [McResult(estimator=label, risk=float(col.mean()),
                     stderr=float(col.std(ddof=1) / math.sqrt(replications)),
                     replications=replications)
            for (label, _, _), col in zip(specs, risks.T)]


def write_risk_curves_csv(table: np.ndarray, path) -> None:
    """Write a :func:`risk_curves` table with its standard header."""
    write_csv(path, RISK_CURVE_COLUMNS,
              ([repr(float(v)) for v in row]
               for row in np.asarray(table, dtype=float)))


def write_monte_carlo_csv(results, path, scenario_label: str = "") -> None:
    """Write oracle results as (scenario, estimator, risk, stderr) rows."""
    write_csv(path, ("scenario", "estimator", "risk", "stderr"),
              ((scenario_label, res.estimator, repr(res.risk),
                repr(res.stderr)) for res in results))
