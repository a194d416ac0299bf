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
    calls = {"n": 0}
    real_eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls["n"] += 1
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rng = np.random.default_rng(2)
    ridge.fit_grid(rng.standard_normal((40, 30)), rng.standard_normal(40),
                   GRID29)
    assert calls["n"] == 1


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
