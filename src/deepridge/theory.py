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
from .seeding import map_ordered, stream_rng

_TAG_MC = 301

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
        c = tuple(float(v) for v in self.c)
        b = tuple(float(v) for v in self.b)
        if len(c) == 0 or len(c) != len(b):
            raise ValueError("c and b must be equal-length and non-empty")
        if not all(0 < v < math.inf for v in c + b):
            raise ValueError("c and b entries must be > 0 and finite")
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
    # written as "not all > 0" so that NaN is refused too
    if not (np.all(lam > 0) and np.all(np.asarray(c) > 0)):
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


def _check_group(k: int, params: TheoryParams) -> None:
    if not 0 <= k < params.n_groups:
        raise ValueError(f"group index {k} out of range")


def sub_model_risk(alpha: float, lam: float, k: int, params: TheoryParams) -> float:
    """Asymptotic risk of group k's ridge fit, scaled by ``alpha``."""
    _check_group(k, params)
    return float(_weighted_risk(alpha, _group_quadratic(
        lam, params.b[k], params.c[k], params.b_bar)))


def ensemble_risk(alphas, lams, params: TheoryParams) -> float:
    """Risk of the weighted sum of group fits; cross terms vanish."""
    alphas = np.asarray(alphas, dtype=float).ravel()
    lams = np.asarray(lams, dtype=float).ravel()
    if alphas.size != params.n_groups or lams.size != params.n_groups:
        raise ValueError("need one weight and one penalty per group")
    return _total(_weighted_risk(alphas, _group_quadratic(
        lams, np.asarray(params.b), np.asarray(params.c), params.b_bar)))


def optimal_lambda(params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing penalty (at unit weight)."""
    _check_group(k, params)
    return float(_optimal_lambda(params.b[k], params.c[k], params.b_bar))


def optimal_alpha(lam: float, params: TheoryParams, k: int) -> float:
    """Group k's risk-minimizing weight at a fixed penalty."""
    _check_group(k, params)
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
    return float(_flat_risk(a, lam, _flat_aspect(params), params.b_bar))


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
    c_grid = np.asarray(c_grid, dtype=float).ravel()
    if c_grid.size == 0:
        raise ValueError("c_grid must be non-empty")
    if not np.all((c_grid > 0) & (c_grid < math.inf)):
        raise ValueError("c_grid entries must be > 0 and finite")
    *_, flat, optimal, suboptimal = _headline(params, c_grid[:, None])
    return np.column_stack([c_grid, flat[:, 0], optimal, suboptimal])


def default_curve_params(n_groups: int = 10, b_low: float = 0.5,
                         b_high: float = 1.5) -> TheoryParams:
    """Illustration regime: heterogeneous signal strengths, identity spectra."""
    if n_groups < 1:
        raise ValueError("n_groups must be at least 1")
    if not (b_low > 0 and b_high > 0):
        raise ValueError("b_low and b_high must be > 0")
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
    if lams.size == 0 or not np.all(lams > 0):
        raise ValueError("penalty grid must be non-empty and positive")
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

    Returns (lambda_star, alpha_star, flat, ensemble_optimal,
    ensemble_suboptimal).
    """
    b, bb = np.asarray(params.b), params.b_bar
    ck = c[..., :1] * params.n_groups
    lambda_bar = ck / bb
    lam_star = _optimal_lambda(b, c, bb)
    at_flat = _group_quadratic(lambda_bar, b, c, bb)
    _, lin, quad = at_flat
    alpha_star = lin / quad
    return (lam_star, alpha_star, _flat_risk(1.0, lambda_bar, ck, bb),
            _total(_weighted_risk(1.0, _group_quadratic(lam_star, b, c, bb))),
            _total(_weighted_risk(alpha_star, at_flat)))


def risk_report(params: TheoryParams) -> RiskReport:
    """Bundle of the headline closed-form risks for one regime.

    Every group is evaluated at once: one :func:`nu_family` call at the
    per-group optimal penalties and one at the flat penalty.
    """
    lambda_bar, a_bar = flat_optima(params)
    lam_star, alpha_star, flat, optimal, suboptimal = _headline(
        params, np.asarray(params.c))
    return RiskReport(
        flat_risk=float(flat[0]), ensemble_optimal_risk=optimal,
        ensemble_suboptimal_risk=suboptimal,
        lambda_star=tuple(lam_star.tolist()),
        alpha_star=tuple(alpha_star.tolist()),
        lambda_bar=lambda_bar, a_bar=a_bar)


# --- Monte Carlo oracle ----------------------------------------------------


def _check_integer(name: str, value) -> int:
    # bool is an int in Python, but not a count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RiskScenario:
    """Finite-sample regime for the oracle: n, group sizes, signal strengths."""

    n: int
    p: tuple
    b: tuple

    def __post_init__(self):
        n = _check_integer("n", self.n)
        p = tuple(_check_integer(f"p[{k}]", v) for k, v in enumerate(self.p))
        b = tuple(float(v) for v in self.b)
        if n < 1 or len(p) == 0 or len(p) != len(b):
            raise ValueError("need n >= 1 and equal-length p and b")
        if any(v < 1 for v in p) or not all(v > 0 for v in b):
            raise ValueError("group sizes must be >= 1, strengths > 0")
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


def _check_penalties(kind: str, lams) -> None:
    lams = np.asarray(lams, dtype=float)
    if not np.all(np.isfinite(lams) & (lams > 0)):
        raise ValueError(f"{kind} penalties must be finite and > 0")


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
        if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                or not 0 <= k < n_groups):
            raise ValueError(f"submodel group index {k!r} out of range")
        _check_penalties(kind, lam)
        group = (offsets[k], offsets[k + 1])
        return (f"submodel[k={k},lam={float(lam):g},alpha={float(alpha):g}]",
                slice(*group), [(group, float(lam), float(alpha), whole)])
    if kind == "flat":
        _, lam, scale = est
        _check_penalties(kind, lam)
        return (f"flat[lam={float(lam):g},a={float(scale):g}]", whole,
                [(full, float(lam), float(scale), whole)])
    if kind not in ("ensemble", "multi_penalty"):
        raise ValueError(f"unknown estimator kind {kind!r}")
    _, lams, weights = est
    lams = np.asarray(lams, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
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
    _check_penalties(kind, lams)
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
    not match, a penalty that is not finite and positive, or an unknown
    kind raises ``ValueError``, as does a ``replications`` or ``n_threads``
    that is not an integer (bools included), fewer than 2 replications or
    fewer than 1 thread. Each replication forms one Gram matrix per design
    matrix it fits (the full design, and each group's columns). A design
    with at most ``_SOLVES_PER_EIGH`` distinct penalties gets one dense
    solve per penalty on it, a longer grid one eigendecomposition that
    serves every penalty (see :func:`_ridge_solves`). A submodel is scored
    on its own group's coefficients, every other estimator on all of beta.
    Replications run on ``n_threads`` workers; each keeps its own keyed
    stream, so the results do not depend on the thread count.

    Returns one :class:`McResult` per spec, in order.
    """
    if _check_integer("replications", replications) < 2:
        raise ValueError("need at least 2 replications for a standard error")
    if _check_integer("n_threads", n_threads) < 1:
        raise ValueError("n_threads must be at least 1")
    offsets = np.concatenate([[0], np.cumsum(scenario.p)]).tolist()
    specs = [_parse_spec(est, offsets) for est in estimators]
    # every (design, lam) fit needed, computed once per replication
    design_lams = {}
    for _, _, terms in specs:
        for design, lam, _, _ in terms:
            design_lams.setdefault(design, set()).add(lam)

    def one_rep(r):
        rng = stream_rng(seed, _TAG_MC, r)
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
