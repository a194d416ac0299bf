"""Ridge regression over a whole penalty grid from one reduction of the Gram.

Convention: for features Z (n x P), labels y and penalty lam,

    beta(lam) = (lam*I + Z'Z/n)^-1 Z'y/n.

The grid never needs the Gram's eigenvectors. A Householder reduction
Z'Z/n = Q T Q' to a symmetric tridiagonal T (Golub & Van Loan, Matrix
Computations, section 8.3) turns each penalty into an O(P) tridiagonal
solve:

    beta(lam) = Q (T + lam I)^-1 Q' (Z'y/n).

The reduction costs about 4/3 P^3 flops; Q' is applied to one vector, all
L tridiagonal systems are solved in one call (stacked as one tridiagonal
of order L*P whose couplings between systems are zero), and Q is applied
to the (P, L) result in about 2 P^2 L flops. T's eigenvalues, in O(P^2),
give the largest eigenvalue mu_max that the penalty floor is set from. An
eigendecomposition would add the eigenvectors and an O(P^3)
back-transform.

When P > n the smaller dual Gram ZZ'/n shares the non-zero spectrum, and

    beta(lam) = Z' ((ZZ'/n + lam I)^-1 y) / n,

evaluated right to left as written: the whole grid's (n, L) dual
coefficients come first, so Z' is touched once and no (P, n) product is
formed. Beyond the Gram (about P n^2 flops) and its reduction (O(n^3)),
the grid costs 2 n L (n + P) flops and holds only (n, L) and (P, L)
arrays.

A fit is two steps, :func:`gram_matrix` and :func:`solve_grid`. The dual
Gram is a sum over column groups of Z, so a caller that cannot hold all of
Z can add its groups' Grams and solve the grid on the sum.

The reduction and the solves are LAPACK's dsytrd, dsterf, dormtr and
dptsv, called from the LAPACK that numpy itself links. Where that build
does not export them, :func:`solve_grid` takes its one other path, an
``eigh`` of the Gram, which the tests also use as the reference.
"""

import ctypes
import functools
import types
from dataclasses import dataclass

import numpy as np

# relative floor, times the Gram's largest eigenvalue mu_max: the grid solve
# raises each penalty to at least EIG_RELATIVE_FLOOR * mu_max, so T + lam I
# stays positive definite when rounding leaves an eigenvalue of a singular
# Gram slightly negative. The eigh path floors the eigenvalues at the same
# level instead. Either moves a solve only at penalties near or below the
# floor: not on the default grid (from 1e-4) unless mu_max nears 1e8
EIG_RELATIVE_FLOOR = 1e-12


@dataclass(frozen=True)
class RidgeGridFit:
    """Coefficients for every penalty in a grid, from one decomposition.

    ``betas[:, l]`` solves the ridge problem at ``lambdas[l]``; ``mode``
    records which Gram matrix was decomposed, and is None for a fit read
    back from a model file, which does not store it.
    """

    lambdas: np.ndarray     # (L,) strictly increasing, all > 0
    betas: np.ndarray       # (P, L)
    mode: str | None = None  # "primal" or "dual"

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("lambda grid must be a non-empty 1-d sequence")
        if not np.all(lam > 0):
            raise ValueError("all penalties must be strictly positive")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("penalty grid must be strictly increasing")
        if not np.all(np.isfinite(self.betas)):
            raise ValueError("non-finite ridge coefficients")
        if self.betas.ndim != 2 or self.betas.shape[1] != lam.size:
            raise ValueError("betas must have one column per penalty")
        if self.mode not in ("primal", "dual", None):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def n_features(self) -> int:
        return self.betas.shape[0]


def penalty_grid(lambdas) -> np.ndarray:
    """``lambdas`` sorted; refused unless non-empty, positive and distinct."""
    lam = np.sort(np.asarray(lambdas, dtype=float).ravel())
    if lam.size == 0:
        raise ValueError("lambda grid must be non-empty")
    if not np.all(lam > 0):
        raise ValueError("all penalties must be strictly positive")
    if np.any(np.diff(lam) == 0):
        raise ValueError("duplicate penalties in grid")
    return lam


def fit_grid(z, y, lambdas, mode: str | None = None) -> RidgeGridFit:
    """Fit ridge coefficients for every penalty in ``lambdas``.

    ``mode`` forces "primal" (decompose Z'Z/n) or "dual" (decompose ZZ'/n);
    by default the dual path is taken exactly when P > n. Both paths give
    identical coefficients up to floating-point error.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if z.ndim != 2:
        raise ValueError("z must be 2-d")
    n, p = z.shape
    if y.shape[0] != n:
        raise ValueError(f"label length {y.shape[0]} does not match {n} rows")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite entries in y")
    lam = penalty_grid(lambdas)
    if mode is None:
        mode = "dual" if p > n else "primal"
    if mode not in ("primal", "dual"):
        raise ValueError(f"unknown mode {mode!r}")

    # the solve consumes the Gram, which is dropped as soon as it returns
    if mode == "primal":
        betas = solve_grid(gram_matrix(z, mode), z.T @ y / n, lam)
    else:
        betas = z.T @ solve_grid(gram_matrix(z, mode), y, lam)
        betas /= n
    return RidgeGridFit(lambdas=lam, betas=betas, mode=mode)


def gram_matrix(z, mode: str) -> np.ndarray:
    """Z'Z/n for ``mode`` "primal", ZZ'/n for "dual", of an (n, P) ``z``."""
    gram = z.T @ z if mode == "primal" else z @ z.T
    gram /= z.shape[0]   # in place: no second Gram
    return gram


def solve_grid(gram, rhs, lam) -> np.ndarray:
    """(gram + lam I)^-1 rhs for each penalty in ``lam``, one column each,
    from one reduction of the symmetric ``gram``.

    The solve consumes ``gram``: it is overwritten by the reduction's
    reflectors, so a caller drops it afterwards. It must be a square,
    writeable, C-contiguous float64 array, as :func:`gram_matrix` returns.
    Each penalty is raised to at least ``EIG_RELATIVE_FLOOR`` times the
    Gram's largest eigenvalue; a Gram with no positive eigenvalue gives
    rhs / lam. The Gram of features Z is refused when its diagonal is not
    finite: a NaN or inf anywhere in Z puts one there (a sum of squares
    cannot cancel it), so Z itself is never scanned.
    """
    gram_ok = (isinstance(gram, np.ndarray) and gram.ndim == 2
               and gram.shape[0] == gram.shape[1]
               and gram.dtype == np.float64 and gram.flags.c_contiguous
               and gram.flags.writeable)
    if not gram_ok:
        raise ValueError("gram must be a square, writeable, C-contiguous "
                         "float64 array")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != gram.shape[:1]:
        raise ValueError(f"rhs of shape {rhs.shape} does not match a Gram "
                         f"of order {gram.shape[0]}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ValueError("lam must be a 1-d array of penalties")
    if not np.all(np.isfinite(gram.diagonal())):
        raise ValueError("non-finite entries in z")
    lapack = _lapack()
    if lapack is None:
        return _eigh_solve_grid(gram, rhs, lam)
    return _tridiagonal_solve_grid(lapack, gram, rhs, lam)


def grid_solver() -> str:
    """The path :func:`solve_grid` takes on this build: "tridiagonal"
    (numpy's bundled LAPACK) or "eigh". Results agree to rounding, not bit
    for bit, across the two."""
    return "eigh" if _lapack() is None else "tridiagonal"


def fit_floats(rows: int, cols: int, n_pen: int) -> int:
    """Floats one :func:`fit_grid` call holds at its peak.

    For a (rows, cols) Z over ``n_pen`` penalties: the (r, r) Gram of Z's
    smaller side, which the grid solve reduces in place, then the stacked
    (r, n_pen) tridiagonal systems, their solution and its copy, and the
    (cols, n_pen) coefficients. A second r^2 covers LAPACK's workspace
    (64 r) and BLAS's packing buffers for the Gram product: one fit at one
    BLAS thread raises peak RSS by 1.3-1.7 r^2 floats at r = 1000-2000.
    """
    r = min(rows, cols)
    return 2 * r * r + (4 * r + cols) * n_pen


def _eigh_solve_grid(gram, rhs, lam) -> np.ndarray:
    mu, vecs = np.linalg.eigh(gram)
    mu = _floor_eigenvalues(mu)
    t = vecs.T @ rhs
    return vecs @ (t[:, None] / (mu[:, None] + lam[None, :]))


def _floor_eigenvalues(mu: np.ndarray) -> np.ndarray:
    top = float(mu[-1]) if mu.size else 0.0
    if top <= 0.0:
        # zero (or numerically hostile) Gram: inversion reduces to 1/lam
        return np.zeros_like(mu)
    return np.maximum(mu, EIG_RELATIVE_FLOOR * top)


def _tridiagonal_solve_grid(lapack, gram, rhs, lam) -> np.ndarray:
    r, n_pen = gram.shape[0], lam.size
    # LAPACK reads the C-order Gram as its transpose, the same matrix, and
    # keeps T and the reflectors in the triangle "L" of that reading
    order, ld = _int(r), _int(max(r, 1))
    diag, off = np.empty(r), np.empty(max(r - 1, 1))
    tau = np.empty(max(r - 1, 1))
    _call_with_workspace(lapack.dsytrd, b"L", order, gram, ld, diag, off, tau,
                         lengths=1)
    mu = diag.copy()
    _call(lapack.dsterf, order, mu, off.copy())   # eigenvalues, ascending
    top = float(mu[-1]) if r else 0.0
    if top <= 0.0:
        return rhs[:, None] / lam[None, :]
    lam_eff = np.maximum(lam, EIG_RELATIVE_FLOOR * top)

    qtb = rhs.copy()
    _call_with_workspace(lapack.dormtr, b"L", b"L", b"T", order, _int(1),
                         gram, ld, tau, qtb, ld, lengths=3)
    # the L systems (T + lam_l I) s_l = Q'rhs as one tridiagonal of order
    # L*r: its off-diagonal is T's within each system and zero between
    # them, so the factorization never couples two systems
    stacked_diag = (diag + lam_eff[:, None]).ravel()
    stacked_off = np.zeros((n_pen, r))
    stacked_off[:, :r - 1] = off[:r - 1]
    stacked_off = stacked_off.ravel()[:-1]
    s = np.tile(qtb, n_pen)
    _call(lapack.dptsv, _int(s.size), _int(1), stacked_diag, stacked_off, s,
          _int(max(s.size, 1)))
    s = s.reshape(n_pen, r)   # column-major (r, L): one system per column
    _call_with_workspace(lapack.dormtr, b"L", b"L", b"N", order, _int(n_pen),
                         gram, ld, tau, s, ld, lengths=3)
    return np.ascontiguousarray(s.T)


_INT = ctypes.POINTER(ctypes.c_int64)
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t   # hidden length of a Fortran character argument
_ARRAY = np.ctypeslib.ndpointer(np.float64,
                                flags=("C_CONTIGUOUS", "WRITEABLE"))
_SIGNATURES = {
    # uplo, n, a, lda, d, e, tau, work, lwork, info
    "dsytrd": [_CHAR, _INT, _ARRAY, _INT, _ARRAY, _ARRAY, _ARRAY, _ARRAY,
               _INT, _INT, _LEN],
    # n, d, e, info
    "dsterf": [_INT, _ARRAY, _ARRAY, _INT],
    # side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info
    "dormtr": [_CHAR, _CHAR, _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY,
               _INT, _ARRAY, _INT, _INT, _LEN, _LEN, _LEN],
    # n, nrhs, d, e, b, ldb, info
    "dptsv": [_INT, _INT, _ARRAY, _ARRAY, _ARRAY, _INT, _INT],
}


@functools.cache
def _lapack():
    """numpy's bundled LAPACK routines for the grid solve, with 64-bit
    integers, or None where its build does not export them all."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_")
                    for name in _SIGNATURES}
    except (ImportError, OSError, AttributeError):
        return None
    for name, routine in routines.items():
        routine.argtypes = _SIGNATURES[name]
        routine.restype = None
    return types.SimpleNamespace(**routines)


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _call(routine, *args, lengths: int = 0):
    """``routine(*args, info)``, then one hidden length of 1 per character
    argument; LinAlgError on a nonzero ``info``."""
    info = ctypes.c_int64(0)
    routine(*args, ctypes.byref(info), *(1,) * lengths)
    if info.value:
        raise np.linalg.LinAlgError(
            f"LAPACK {routine.__name__} returned info={info.value}")


def _call_with_workspace(routine, *args, lengths: int):
    """:func:`_call` with (work, lwork) appended, after a size query."""
    query = np.zeros(1)
    _call(routine, *args, query, _int(-1), lengths=lengths)
    work = np.empty(max(int(query[0]), 1))
    _call(routine, *args, work, _int(work.size), lengths=lengths)


def predict(fit: RidgeGridFit, z_new) -> np.ndarray:
    """Predictions for every penalty: column l equals ``z_new @ betas[:, l]``."""
    z_new = np.asarray(z_new, dtype=float)
    if z_new.ndim != 2 or z_new.shape[1] != fit.n_features:
        raise ValueError(
            f"expected {fit.n_features} feature columns, got shape {z_new.shape}"
        )
    return z_new @ fit.betas


def column_scales(yhat) -> np.ndarray:
    """Uncentered standard deviation of each column; zero scales become 1.

    The fallback keeps downstream normalization well defined on columns
    that are identically zero.
    """
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 2 or yhat.shape[0] < 1:
        raise ValueError("expected a non-empty 2-d prediction matrix")
    scales = np.sqrt(np.mean(yhat * yhat, axis=0))
    scales[scales == 0.0] = 1.0
    return scales
