import contextlib
import tracemalloc
import types
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepridge import ridge

GRID29 = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)


def dense_solve(z, y, lams):
    """Independent oracle: one dense linear solve per penalty."""
    n, p = z.shape
    g = z.T @ z / n
    rhs = z.T @ y / n
    return np.column_stack(
        [np.linalg.solve(lam * np.eye(p) + g, rhs) for lam in lams])


def test_identity_gram_closed_form():
    n = 6
    y = np.arange(1.0, n + 1)
    fit = ridge.fit_grid(np.eye(n), y, [0.5, 2.0])
    for j, lam in enumerate((0.5, 2.0)):
        np.testing.assert_allclose(fit.betas[:, j], y / (n * (lam + 1 / n)),
                                   rtol=1e-12)


def test_heavy_shrinkage_bound():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((40, 10))
    y = rng.standard_normal(40)
    fit = ridge.fit_grid(z, y, [1e6])
    assert np.linalg.norm(fit.betas[:, 0]) <= np.linalg.norm(z.T @ y / 40) / 1e6


def test_primal_dual_and_dense_agree():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((50, 120))
    y = rng.standard_normal(50)
    lams = (0.01, 1.0, 100.0)
    primal = ridge.fit_grid(z, y, lams, mode="primal")
    dual = ridge.fit_grid(z, y, lams, mode="dual")
    oracle = dense_solve(z, y, lams)
    assert np.abs(primal.betas - dual.betas).max() < 1e-8
    assert np.abs(primal.betas - oracle).max() < 1e-8
    assert np.abs(dual.betas - oracle).max() < 1e-8


def test_dual_far_wider_than_tall_matches_dense():
    # P = 50 n: the shape of a wide block or final ridge on the dual path
    rng = np.random.default_rng(12)
    z = rng.standard_normal((60, 3000))
    y = rng.standard_normal(60)
    lams = (0.01, 1.0, 100.0)
    dual = ridge.fit_grid(z, y, lams)
    assert dual.mode == "dual"
    assert np.abs(dual.betas - dense_solve(z, y, lams)).max() < 1e-8


def test_dual_fit_forms_no_features_by_rows_product():
    # a (P, n) product such as Z'V would be as large as Z itself; the dual
    # path holds only (n, n), (n, L) and (P, L) arrays, plus the (n, P)
    # boolean finiteness mask (an eighth of Z)
    rng = np.random.default_rng(13)
    z = rng.standard_normal((200, 20_000))
    y = rng.standard_normal(200)
    tracemalloc.start()
    try:
        fit = ridge.fit_grid(z, y, (0.1, 1.0, 10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.mode == "dual"
    assert peak < z.nbytes / 4


def test_dual_fit_never_scans_features():
    # the finiteness check reads the Gram's diagonal, not an (n, P) mask of
    # Z, so the fit's traced peak stays below n*P bytes
    rng = np.random.default_rng(13)
    z = rng.standard_normal((200, 20_000))
    y = rng.standard_normal(200)
    tracemalloc.start()
    try:
        fit = ridge.fit_grid(z, y, (0.1, 1.0, 10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.mode == "dual"
    assert peak < z.shape[0] * z.shape[1]


def test_mode_auto_selection():
    rng = np.random.default_rng(0)
    assert ridge.fit_grid(rng.standard_normal((10, 4)),
                          np.ones(10), [1.0]).mode == "primal"
    assert ridge.fit_grid(rng.standard_normal((4, 10)),
                          np.ones(4), [1.0]).mode == "dual"


def test_grid_is_sorted_and_matches_oracle():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((30, 8))
    y = rng.standard_normal(30)
    fit = ridge.fit_grid(z, y, [10.0, 0.1, 1.0])
    np.testing.assert_array_equal(fit.lambdas, [0.1, 1.0, 10.0])
    np.testing.assert_allclose(fit.betas, dense_solve(z, y, fit.lambdas),
                               atol=1e-10)


def test_grid_residual_invariant():
    rng = np.random.default_rng(7)
    for n, p in ((40, 15), (15, 40)):
        z = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = ridge.fit_grid(z, y, GRID29)
        g = z.T @ z / n
        rhs = z.T @ y / n
        resid = (fit.lambdas[None, :] * fit.betas + g @ fit.betas
                 - rhs[:, None])
        assert np.abs(resid).max() < 1e-8 * (1 + np.abs(y).max())


def test_monotone_shrinkage_in_eigenbasis():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((25, 12))
    y = rng.standard_normal(25)
    fit = ridge.fit_grid(z, y, GRID29, mode="primal")
    _, u = np.linalg.eigh(z.T @ z / 25)
    coords = np.abs(u.T @ fit.betas)
    assert np.all(np.diff(coords, axis=1) <= 1e-12)


def test_single_decomposition_for_whole_grid(monkeypatch):
    # one band reduction of the Gram and one banded Cholesky solve per stack
    # of penalties serve the whole grid; no eigendecomposition runs
    needs_band_path()
    lapack = ridge._lapack()
    calls = {name: 0 for name in vars(lapack)}
    lwork_at = {"dsytrd_sy2sb": 9, "dormqr": 11}

    def counting(name):
        def call(*args):
            if name not in lwork_at or args[lwork_at[name]]._obj.value != -1:
                calls[name] += 1   # not a workspace size query
            return getattr(lapack, name)(*args)
        call.__name__ = name
        return call

    counted = types.SimpleNamespace(**{name: counting(name) for name in calls})
    monkeypatch.setattr(ridge, "_lapack", lambda: counted)
    monkeypatch.setattr(np.linalg, "eigh", None)
    rng = np.random.default_rng(2)
    for shape in ((40, 30), (30, 40), (400, 300)):
        ridge.fit_grid(rng.standard_normal(shape),
                       rng.standard_normal(shape[0]), GRID29)
    # per fit (primal and dual at r = 30, primal at r = 300): one reduction,
    # Q' applied to the right-hand side and Q to the (r, L) solutions, and
    # one banded solve per stack of penalties. At r = 30 (kd = 1) all 29
    # fit in one stack; at r = 300 (kd = 9) a stack holds 65536 // 3000 = 21
    assert calls == {"dsytrd_sy2sb": 3, "dormqr": 6, "dpbsv": 1 + 1 + 2}


def test_predict():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    fit = ridge.fit_grid(z, y, [0.1, 1.0])
    znew = rng.standard_normal((5, 6))
    preds = ridge.predict(fit, znew)
    assert preds.shape == (5, 2)
    # one-column oracle: recompute the matrix-vector product directly
    np.testing.assert_allclose(preds[:, 1], znew @ fit.betas[:, 1], rtol=1e-12)
    assert not ridge.predict(fit, np.zeros((3, 6))).any()
    with pytest.raises(ValueError):
        ridge.predict(fit, znew[:, :5])


def test_interpolation_limit_square_well_conditioned():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((15, 15)) + 4 * np.eye(15)
    y = rng.standard_normal(15)
    fit = ridge.fit_grid(z, y, [1e-10])
    np.testing.assert_allclose(ridge.predict(fit, z)[:, 0], y, atol=1e-4)


def test_column_scales():
    np.testing.assert_allclose(
        ridge.column_scales(np.full((4, 1), 2.0)), [2.0])
    np.testing.assert_allclose(
        ridge.column_scales(np.zeros((4, 2))), [1.0, 1.0])
    np.testing.assert_allclose(
        ridge.column_scales(np.array([[3.0], [4.0]])), [np.sqrt(12.5)])


def test_input_validation():
    z = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(ValueError):
        ridge.fit_grid(z, y, [0.0, 1.0])
    with pytest.raises(ValueError):
        ridge.fit_grid(z, y, [1.0, 1.0])
    with pytest.raises(ValueError):
        ridge.fit_grid(z, y, [])
    with pytest.raises(ValueError):
        ridge.fit_grid(z, np.ones(3), [1.0])
    with pytest.raises(ValueError):
        ridge.fit_grid(z * np.nan, y, [1.0])
    for bad in (np.inf, -np.inf):
        z_bad = z.copy()
        z_bad[2, 1] = bad
        for mode in ("primal", "dual"):
            with pytest.raises(ValueError, match="non-finite"):
                ridge.fit_grid(z_bad, y, [1.0], mode=mode)
    with pytest.raises(ValueError):
        ridge.fit_grid(z, y, [1.0], mode="sideways")


# --- properties over random problems -----------------------------------------

EPS = np.finfo(float).eps
PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                             deadline=None)


@st.composite
def ridge_problems(draw):
    """A small (z, y, penalty grid): entries in [-1, 1], penalties >= 1e-2."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 12))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    z = draw(hnp.arrays(np.float64, (n, p), elements=unit))
    y = draw(hnp.arrays(np.float64, (n,), elements=unit))
    lams = draw(st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=6,
                         unique=True))
    return z, y, np.sort(lams)


def _float64_tolerance(z, lams, betas):
    # eigh and the solves are backward stable, so the error of a ridge
    # solution is a modest multiple of eps times the condition number of
    # lam*I + Z'Z/n at the smallest penalty, times the solution's size
    gram_norm = np.linalg.norm(z, 2) ** 2 / z.shape[0]
    cond = (gram_norm + lams[0]) / lams[0]
    return 32 * EPS * cond * (1.0 + np.abs(betas).max())


@PROPERTY_SETTINGS
@given(ridge_problems())
def test_property_primal_equals_dual(problem):
    z, y, lams = problem
    primal = ridge.fit_grid(z, y, lams, mode="primal")
    dual = ridge.fit_grid(z, y, lams, mode="dual")
    tol = _float64_tolerance(z, lams, primal.betas)
    assert np.abs(primal.betas - dual.betas).max() <= tol


@PROPERTY_SETTINGS
@given(ridge_problems(), st.sampled_from(["primal", "dual"]))
def test_property_norm_never_grows_along_grid(problem, mode):
    z, y, lams = problem
    norms = np.linalg.norm(ridge.fit_grid(z, y, lams, mode=mode).betas,
                           axis=0)
    # a column's norm is exact up to a few ulps per eigenvector product
    assert np.all(np.diff(norms) <= 64 * EPS * z.shape[1] * norms[0])


@PROPERTY_SETTINGS
@given(ridge_problems(), st.sampled_from(["primal", "dual"]))
def test_property_grid_equals_dense_solves(problem, mode):
    z, y, lams = problem
    fit = ridge.fit_grid(z, y, lams, mode=mode)
    oracle = dense_solve(z, y, lams)
    assert np.abs(fit.betas - oracle).max() <= _float64_tolerance(
        z, lams, oracle)


def eigh_path():
    """Within this context :func:`ridge.solve_grid` takes its eigh path."""
    return mock.patch.object(ridge, "_lapack", lambda: None)


def needs_band_path():
    if ridge.grid_solver() != "band":
        pytest.skip("numpy's LAPACK does not export the band routines")


@pytest.mark.parametrize("n, p", [
    (5, 1), (1, 5), (300, 200), (200, 300), (2, 9), (40, 33), (64, 80),
    (1200, 1100),
], ids=["primal-r1", "dual-r1", "primal-blocked", "dual-blocked",
        "dual-r2", "primal-r33", "dual-r64", "primal-r1100"])
def test_band_path_matches_eigh_path(n, p):
    # the bandwidth rule's edges: kd = 1 up to r = 63, so at r = 2 the
    # reduction leaves no reflector to apply, and r = 33 is past 32 but
    # still kd = 1; r = 64 is the first order with kd = 2, r = 200 (kd = 6)
    # is past LAPACK's crossover to blocked updates, and r = 1100 is past
    # the cap kd = 32, one penalty to each of 29 banded solves
    needs_band_path()
    rng = np.random.default_rng(n + p)
    z = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    fit = ridge.fit_grid(z, y, GRID29)
    with eigh_path():
        assert ridge.grid_solver() == "eigh"
        ref = ridge.fit_grid(z, y, GRID29)
    assert fit.mode == ref.mode
    assert np.abs(fit.betas - ref.betas).max() <= _float64_tolerance(
        z, fit.lambdas, ref.betas)


@PROPERTY_SETTINGS
@given(ridge_problems(), st.sampled_from(["primal", "dual"]))
def test_property_tridiagonal_equals_eigh(problem, mode):
    # the band path against eigh; on these orders (r <= 12) kd = 1, so the
    # band B is tridiagonal
    needs_band_path()
    z, y, lams = problem
    fit = ridge.fit_grid(z, y, lams, mode=mode)
    with eigh_path():
        ref = ridge.fit_grid(z, y, lams, mode=mode)
    assert np.abs(fit.betas - ref.betas).max() <= _float64_tolerance(
        z, lams, ref.betas)


@pytest.mark.parametrize("r", [1, 4])
def test_zero_gram_solves_to_rhs_over_penalty(r):
    lam = ridge.penalty_grid(GRID29)
    rhs = np.arange(1.0, r + 1)
    want = rhs[:, None] / lam[None, :]
    np.testing.assert_array_equal(
        ridge.solve_grid(np.zeros((r, r)), rhs, lam), want)
    with eigh_path():
        got = ridge.solve_grid(np.zeros((r, r)), rhs, lam)
    assert np.abs(got - want).max() <= 4 * EPS * np.abs(want).max()


def test_penalty_floor_solves_singular_gram():
    # a rank-one Gram at a penalty far below EIG_RELATIVE_FLOOR * mu_max:
    # the penalty is raised to the floor, so the solve neither fails nor
    # blows up, and along the Gram's range it agrees with the eigh path
    # up to eps times the floored condition number 1 / EIG_RELATIVE_FLOOR
    v = np.linspace(1.0, 2.0, 50)
    lam = np.array([1e-20, 1.0])
    got = ridge.solve_grid(np.outer(v, v), v, lam)
    with eigh_path():
        ref = ridge.solve_grid(np.outer(v, v), v, lam)
    tol = 32 * EPS / ridge.EIG_RELATIVE_FLOOR * np.abs(ref).max()
    assert np.abs(got - ref).max() <= tol
    np.testing.assert_allclose(got[:, 1], v / (v @ v + 1.0), rtol=1e-12)


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("gram, rhs, lam", [
    (np.eye(3)[:, :2], np.ones(3), [1.0]),
    (np.eye(3, dtype=np.float32), np.ones(3), [1.0]),
    (np.eye(4)[::2, ::2], np.ones(2), [1.0]),
    (np.asfortranarray(np.arange(9.0).reshape(3, 3)), np.ones(3), [1.0]),
    (read_only(np.eye(3)), np.ones(3), [1.0]),
    (np.eye(3), np.ones(2), [1.0]),
    (np.eye(3), np.ones((3, 1)), [1.0]),
    (np.eye(3), np.ones(3), np.ones((2, 3))),
], ids=["not-square", "float32", "strided", "fortran-order", "read-only",
        "short-rhs", "2d-rhs", "2d-penalties"])
def test_solve_grid_refuses_unfit_arguments(gram, rhs, lam):
    # LAPACK is handed the Gram by pointer, overwrites it, and sizes its
    # buffers from the Gram's order and the number of penalties
    with pytest.raises(ValueError, match="gram must be|rhs|lam"):
        ridge.solve_grid(gram, rhs, np.asarray(lam))


@pytest.mark.parametrize("path", ["band", "eigh"])
@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf],
                         ids=["negative", "zero", "nan", "inf"])
def test_solve_grid_refuses_penalties_not_positive_and_finite(path, bad):
    # unrefused, -1 and 0 were raised to the floor penalty, and a NaN set
    # every penalty's column to NaN on the band path, which solves stacks
    # of penalties in one LAPACK call
    if path == "band":
        needs_band_path()
    lam = np.array([0.1, bad, 10.0])
    solver = eigh_path() if path == "eigh" else contextlib.nullcontext()
    with solver, pytest.raises(ValueError,
                               match="lam must be positive and finite"):
        ridge.solve_grid(2 * np.eye(4), np.ones(4), lam)


@pytest.mark.parametrize("r", [50, 64, 200], ids=["kd1", "kd2", "kd6"])
def test_band_floor_lies_within_its_gershgorin_bounds(r, monkeypatch):
    # the path graph's Laplacian is singular with null vector ones, so at a
    # penalty below the floor the solve returns ones / (floor * g), where g
    # is the band's largest absolute row sum: mu_max <= g <= sqrt(2 kd + 1)
    # mu_max. A floor of 1e-3 keeps the solve's rounding far below the gap
    # between mu_max and g (6e-5 of mu_max at r = 200)
    needs_band_path()
    monkeypatch.setattr(ridge, "EIG_RELATIVE_FLOOR", 1e-3)
    gram = 2 * np.eye(r) - np.eye(r, k=1) - np.eye(r, k=-1)
    gram[0, 0] = gram[-1, -1] = 1.0
    mu_max = np.linalg.eigvalsh(gram)[-1]
    kd = ridge._bandwidth(r)
    s = ridge.solve_grid(gram, np.ones(r), np.array([1e-30]))
    g = 1.0 / (1e-3 * s[:, 0])
    assert np.all(g >= (1 - 1e-9) * mu_max)
    assert np.all(g <= (1 + 1e-9) * np.sqrt(2 * kd + 1) * mu_max)
