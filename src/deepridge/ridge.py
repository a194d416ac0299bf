"""Ridge regression over a whole penalty grid from one reduction of the Gram.

Convention: for features Z (n x P), labels y and penalty lam,

    beta(lam) = (lam*I + Z'Z/n)^-1 Z'y/n.

The grid never needs the Gram's eigenvectors, nor even a tridiagonal
form. The first stage of a two-stage reduction (Bischof, Lang & Sun, A
framework for symmetric band reduction, ACM TOMS 2000) takes
Z'Z/n = Q B Q' to a symmetric band B of half-bandwidth kd, and each
penalty becomes a banded Cholesky solve:

    beta(lam) = Q (B + lam I)^-1 Q' (Z'y/n).

The reduction costs about 4/3 P^3 flops, nearly all of them in BLAS-3
updates of kd-wide panels; a full reduction to tridiagonal form spends
half of its flops in memory-bound matrix-vector products. Q' is applied
to one vector, each penalty's Cholesky factor costs about P kd^2 flops
(the penalties are factored in stacks, each stack one band system whose
couplings between penalties are zero), and Q is applied to the (P, L)
result in about 2 P^2 L flops. The penalty floor is set from B's largest
absolute row sum, a Gershgorin bound on the largest eigenvalue. An
eigendecomposition would add the eigenvectors and an O(P^3)
back-transform.

When P > n the smaller dual Gram ZZ'/n shares the non-zero spectrum, and

    beta(lam) = Z' ((ZZ'/n + lam I)^-1 y) / n,

evaluated right to left as written: the whole grid's (n, L) dual
coefficients come first, so Z' is touched once and no (P, n) product is
formed. Beyond the Gram (about P n^2 flops) and its reduction (O(n^3)),
the grid costs 2 n L (n + P) flops and holds only (n, L) and (P, L)
arrays.

:func:`fit_grid` forms the Gram and hands it to :func:`solve_grid`. The
dual Gram is a sum over column groups of Z, so a caller that cannot hold
all of Z can add its groups' Grams and solve the grid on the sum itself.

The reduction and the solves are LAPACK's dsytrd_sy2sb, dormqr and
dpbsv, called from the LAPACK that numpy itself links. Where that build
does not export them, :func:`solve_grid` takes its one other path, an
``eigh`` of the Gram, which the tests also use as the reference.
"""

import ctypes
import functools
import types
from dataclasses import dataclass

import numpy as np

from .seeding import check_real

# relative floor: the band solve raises each penalty to at least
# EIG_RELATIVE_FLOOR * g, where g is the band B's largest absolute row sum
# (mu_max <= g <= sqrt(2 kd + 1) mu_max for the Gram's largest eigenvalue
# mu_max), so B + lam I stays positive definite when rounding leaves an
# eigenvalue of a singular Gram slightly negative. The eigh path floors the
# eigenvalues at EIG_RELATIVE_FLOOR * mu_max instead. Either moves a solve
# only at penalties near or below the floor: not on the default grid (from
# 1e-4) unless mu_max nears 1e7
EIG_RELATIVE_FLOOR = 1e-12

# the band solve's half-bandwidth kd is r // 32 for a Gram of order r,
# clipped to [1, MAX_BANDWIDTH]; its penalties are factored in stacks of at
# most BAND_STACK_FLOATS band entries (one penalty a stack when the band
# alone is larger), one LAPACK call per stack
MAX_BANDWIDTH = 32
BAND_STACK_FLOATS = 1 << 16


@dataclass(frozen=True)
class RidgeGridFit:
    """Coefficients for every penalty in a grid, from one decomposition.

    ``betas[:, l]`` solves the ridge problem at ``lambdas[l]``; ``mode``
    records which Gram matrix was decomposed.
    """

    lambdas: np.ndarray     # (L,) strictly increasing, all > 0
    betas: np.ndarray       # (P, L)
    mode: str               # "primal" or "dual"

    def __post_init__(self):
        if not np.all(np.isfinite(self.betas)):
            raise ValueError("non-finite ridge coefficients")

    @property
    def n_features(self) -> int:
        return self.betas.shape[0]


def penalty_grid(lambdas) -> np.ndarray:
    """``lambdas`` sorted; refused unless non-empty, positive, finite and
    distinct."""
    lam = np.sort(np.ravel(check_real("penalties", lambdas, 0)))
    if lam.size == 0:
        raise ValueError("lambda grid must be non-empty")
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

    gram = z.T @ z if mode == "primal" else z @ z.T
    gram /= n   # in place: no second Gram
    betas = solve_grid(gram, z.T @ y / n if mode == "primal" else y, lam)
    del gram   # consumed by the solve, so dropped as soon as it returns
    if mode == "dual":
        betas = z.T @ betas
        betas /= n
    return RidgeGridFit(lambdas=lam, betas=betas, mode=mode)


def solve_grid(gram, rhs, lam) -> np.ndarray:
    """(gram + lam I)^-1 rhs for each penalty in ``lam``, one column each,
    from one reduction of the symmetric ``gram``.

    The solve consumes ``gram``: it is overwritten by the reduction's
    reflectors, so a caller drops it afterwards. It must be a square,
    writeable, C-contiguous float64 array, as :func:`fit_grid` forms it.
    Each penalty must be positive and finite, and is raised to at least
    ``EIG_RELATIVE_FLOOR`` times a bound on the Gram's largest eigenvalue
    (the eigenvalue itself on the eigh path); a zero Gram gives rhs / lam.
    The Gram of features Z is refused when its diagonal is not finite: a
    NaN or inf anywhere in Z puts one there (a sum of squares cannot cancel
    it), so Z itself is never scanned.
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
    lam = check_real("lam", lam, 0)
    if np.ndim(lam) != 1:
        raise ValueError("lam must be a 1-d array of penalties")
    if not np.all(np.isfinite(gram.diagonal())):
        raise ValueError("non-finite entries in z")
    lapack = _lapack()
    if lapack is None:
        return _eigh_solve_grid(gram, rhs, lam)
    return _band_solve_grid(lapack, gram, rhs, lam)


def grid_solver() -> str:
    """The path :func:`solve_grid` takes on this build: "band" (numpy's
    bundled LAPACK) or "eigh". Results agree to rounding, not bit for bit,
    across the two."""
    return "eigh" if _lapack() is None else "band"


def fit_floats(rows: int, cols: int, n_pen: int) -> int:
    """Floats one :func:`fit_grid` call holds at its peak.

    For a (rows, cols) Z over ``n_pen`` penalties: the (r, r) Gram of Z's
    smaller side, which the grid solve reduces in place, the (r, kd + 1)
    band, one stack of band factors, the reduction's workspace (at most
    66 r: 64,922 floats at r = 1000), the (r, n_pen) solutions and their
    copy, and the (cols, n_pen) coefficients. A second r^2 covers BLAS's
    packing buffers for the Gram product: one fit at one BLAS thread
    raises peak RSS by 1.34-1.84 r^2 floats at r = 1000-2000.
    """
    r = min(rows, cols)
    band = r * (_bandwidth(r) + 1)
    stack = min(n_pen * band, max(BAND_STACK_FLOATS, band))
    return 2 * r * r + band + stack + 66 * r + (2 * r + cols) * n_pen


def _bandwidth(r: int) -> int:
    """The band solve's half-bandwidth kd for a Gram of order r."""
    return min(MAX_BANDWIDTH, max(1, r // 32))


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


def _band_solve_grid(lapack, gram, rhs, lam) -> np.ndarray:
    r, n_pen = gram.shape[0], lam.size
    kd = _bandwidth(r)
    # LAPACK reads the C-order Gram as its transpose, the same matrix. The
    # reduction leaves B's lower band in band[j, d] = B(j + d, j), and Q's
    # reflectors below it in the Gram's first r - kd columns
    order, width, band_ld = _int(r), _int(kd), _int(kd + 1)
    band = np.empty((r, kd + 1))
    tau = np.empty(max(r - kd, 1))
    _call_with_workspace(lapack.dsytrd_sy2sb, b"L", order, width, gram,
                         _int(max(r, 1)), band, band_ld, tau, lengths=1)
    # Gershgorin: B's largest absolute row sum bounds mu_max from above.
    # Subdiagonal d holds B(j + d, j) at band[j, d], in rows j + d and j
    row_sums = np.abs(band[:, 0])
    for d in range(1, kd + 1):
        band[max(r - d, 0):, d] = 0.0   # past B's end, so not B's entries
        entries = np.abs(band[:, d])
        row_sums += entries
        row_sums[d:] += entries[:r - d]
    top = float(row_sums.max(initial=0.0))
    if top == 0.0:
        return rhs[:, None] / lam[None, :]
    lam_eff = np.maximum(lam, EIG_RELATIVE_FLOOR * top)

    qtb = rhs.copy()
    if r - kd > 1:
        _reflect(lapack, b"T", gram, tau, kd, qtb)
    # s is column-major (r, L), one system per column. A stack of penalties
    # is solved as one band system of order stack * r, which the zeros past
    # each system's end keep from coupling one system to the next
    s = np.empty((n_pen, r))
    stack = max(1, BAND_STACK_FLOATS // band.size)
    factors = np.empty((min(stack, n_pen), r, kd + 1))
    for lo in range(0, n_pen, stack):
        sol = s[lo:lo + stack]
        factor = factors[:len(sol)]
        factor[:] = band
        factor[:, :, 0] += lam_eff[lo:lo + stack, None]
        sol[:] = qtb
        _call(lapack.dpbsv, b"L", _int(sol.size), width, _int(1), factor,
              band_ld, sol, _int(sol.size), lengths=1)
    if r - kd > 1:
        _reflect(lapack, b"N", gram, tau, kd, s)
    return np.ascontiguousarray(s.T)


def _reflect(lapack, trans, gram, tau, kd, c):
    """Q (``trans`` "N") or Q' ("T") applied in place to ``c``, a C-order
    (m, r) or (r,) array that LAPACK reads as (r, m). The r - kd reflectors
    act on rows kd.. and sit below B's band, at flat offset kd."""
    r = gram.shape[0]
    _call_with_workspace(lapack.dormqr, b"L", trans, _int(r - kd),
                         _int(c.size // r), _int(r - kd),
                         gram.reshape(-1)[kd:], _int(r), tau,
                         c.reshape(-1)[kd:], _int(r), lengths=2)


_INT = ctypes.POINTER(ctypes.c_int64)
_CHAR = ctypes.c_char_p
_LEN = ctypes.c_size_t   # hidden length of a Fortran character argument
_ARRAY = np.ctypeslib.ndpointer(np.float64,
                                flags=("C_CONTIGUOUS", "WRITEABLE"))
_SIGNATURES = {
    # uplo, n, kd, a, lda, ab, ldab, tau, work, lwork, info
    "dsytrd_sy2sb": [_CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY,
                     _ARRAY, _INT, _INT, _LEN],
    # side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork, info
    "dormqr": [_CHAR, _CHAR, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _ARRAY,
               _INT, _ARRAY, _INT, _INT, _LEN, _LEN],
    # uplo, n, kd, nrhs, ab, ldab, b, ldb, info
    "dpbsv": [_CHAR, _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT,
              _LEN],
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
