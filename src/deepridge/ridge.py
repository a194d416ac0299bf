"""Ridge regression over a whole penalty grid from one spectral decomposition.

Convention: for features Z (n x P), labels y and penalty lam,

    beta(lam) = (lam*I + Z'Z/n)^-1 Z'y/n.

With the Gram eigendecomposition Z'Z/n = U diag(mu) U', the full grid costs a
single decomposition plus one diagonal rescale per penalty:

    beta(lam) = U diag(mu + lam)^-1 U' (Z'y/n).

When P > n the smaller dual Gram ZZ'/n = V diag(mu) V' shares the non-zero
eigenvalues, and

    beta(lam) = Z' (V (diag(mu + lam)^-1 V'y)) / n,

evaluated right to left as written: the whole grid's (n, L) dual
coefficients come first, so Z' is touched once and no (P, n) product is
formed. Beyond the Gram (about P n^2 flops) and its eigendecomposition
(O(n^3)), the grid costs 2 n L (n + P) flops, where Z'V alone would cost
2 P n^2, and holds only (n, L) and (P, L) arrays.

A fit is two steps, :func:`gram_matrix` and :func:`solve_grid`. The dual
Gram is a sum over column groups of Z, so a caller that cannot hold all of
Z can add its groups' Grams and solve the grid on the sum.
"""

from dataclasses import dataclass

import numpy as np

# relative floor applied to Gram eigenvalues before inversion; guards against
# catastrophic cancellation from tiny negative eigh output at small penalties
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

    gram = gram_matrix(z, mode)
    if mode == "primal":
        betas = solve_grid(gram, z.T @ y / n, lam)
    else:
        betas = z.T @ solve_grid(gram, y, lam)
        betas /= n
    return RidgeGridFit(lambdas=lam, betas=betas, mode=mode)


def gram_matrix(z, mode: str) -> np.ndarray:
    """Z'Z/n for ``mode`` "primal", ZZ'/n for "dual", of an (n, P) ``z``."""
    gram = z.T @ z if mode == "primal" else z @ z.T
    gram /= z.shape[0]   # in place: no second Gram
    return gram


def solve_grid(gram, rhs, lam) -> np.ndarray:
    """(gram + lam I)^-1 rhs for each penalty in ``lam``, one column each,
    from one eigendecomposition of the symmetric ``gram``.

    Eigenvalues are floored at ``EIG_RELATIVE_FLOOR`` times the largest. The
    Gram of features Z is refused when its diagonal is not finite: a NaN
    or inf anywhere in Z puts one there (a sum of squares cannot cancel
    it), so Z itself is never scanned.
    """
    if not np.all(np.isfinite(gram.diagonal())):
        raise ValueError("non-finite entries in z")
    mu, vecs = np.linalg.eigh(gram)
    mu = _floor_eigenvalues(mu)
    t = vecs.T @ rhs
    return vecs @ (t[:, None] / (mu[:, None] + lam[None, :]))


def fit_floats(rows: int, cols: int, n_pen: int) -> int:
    """Floats one :func:`fit_grid` call holds at its peak.

    For a (rows, cols) Z over ``n_pen`` penalties: eigh's working set on
    the (r, r) Gram of Z's smaller side, then an (r, n_pen) product and the
    (cols, n_pen) coefficients. The working set is the Gram, LAPACK's copy
    of it, about 2r^2 of workspace and the eigenvectors: one fit at one
    BLAS thread raises peak RSS by 5.3-5.6 r^2 floats at r = 1000-2000, so
    6 r^2 are counted.
    """
    r = min(rows, cols)
    return 6 * r * r + (r + cols) * n_pen


def _floor_eigenvalues(mu: np.ndarray) -> np.ndarray:
    top = float(mu[-1]) if mu.size else 0.0
    if top <= 0.0:
        # zero (or numerically hostile) Gram: inversion reduces to 1/lam
        return np.zeros_like(mu)
    return np.maximum(mu, EIG_RELATIVE_FLOOR * top)


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
