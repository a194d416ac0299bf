"""Ridge regression over a whole penalty grid from one spectral decomposition.

Convention: for features Z (n x P), labels y and penalty lam,

    beta(lam) = (lam*I + Z'Z/n)^-1 Z'y/n.

With the Gram eigendecomposition Z'Z/n = U diag(mu) U', the full grid costs a
single decomposition plus one diagonal rescale per penalty:

    beta(lam) = U diag(mu + lam)^-1 U' (Z'y/n).

When P > n the smaller dual Gram ZZ'/n = V diag(mu) V' shares the non-zero
eigenvalues, and

    beta(lam) = Z'V diag(mu + lam)^-1 V'y / n.
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


def _as_grid(lambdas) -> np.ndarray:
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
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite entries in z or y")
    lam = _as_grid(lambdas)
    if mode is None:
        mode = "dual" if p > n else "primal"
    if mode not in ("primal", "dual"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "primal":
        gram = z.T @ z / n
        mu, u = np.linalg.eigh(gram)
        mu = _floor_eigenvalues(mu)
        t = u.T @ (z.T @ y / n)
        betas = u @ (t[:, None] / (mu[:, None] + lam[None, :]))
    else:
        gram = z @ z.T / n
        mu, v = np.linalg.eigh(gram)
        mu = _floor_eigenvalues(mu)
        w = z.T @ v
        s = v.T @ y
        betas = w @ (s[:, None] / (mu[:, None] + lam[None, :])) / n
    return RidgeGridFit(lambdas=lam, betas=betas, mode=mode)


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
