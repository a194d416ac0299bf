#!/usr/bin/env python3
"""One band reduction, a whole ridge path.

Shows that the grid fit matches per-penalty dense solves, that the primal
(P x P) and dual (n x n) routes agree, and how coefficients shrink
monotonically along the penalty grid in the Gram eigenbasis.
"""

import time

import numpy as np

from deepridge import ridge

rng = np.random.default_rng(1)
n, p = 300, 180
z = rng.standard_normal((n, p))
y = z @ rng.normal(0, 0.2, p) + rng.standard_normal(n)
grid = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

fit = ridge.fit_grid(z, y, grid)
dense = np.column_stack([
    np.linalg.solve(lam * np.eye(p) + z.T @ z / n, z.T @ y / n)
    for lam in grid])
print(f"grid fit ({fit.mode} route) vs dense solves: "
      f"max |diff| = {np.abs(fit.betas - dense).max():.2e}")

dual = ridge.fit_grid(z, y, grid, mode="dual")
print(f"primal vs dual coefficients:              "
      f"max |diff| = {np.abs(fit.betas - dual.betas).max():.2e}")

# the whole grid costs about one reduction, not one per penalty
t0 = time.perf_counter()
ridge.fit_grid(z, y, grid[:1])
one = time.perf_counter() - t0
t0 = time.perf_counter()
ridge.fit_grid(z, y, grid)
seven = time.perf_counter() - t0
print(f"fit 1 penalty: {one*1e3:.1f} ms, fit {len(grid)}: {seven*1e3:.1f} ms")

mu, u = np.linalg.eigh(z.T @ z / n)
coords = np.abs(u.T @ fit.betas)
print("\n|coefficient| along the top eigendirection as the penalty grows:")
for j, lam in enumerate(grid):
    bar = "#" * int(60 * coords[-1, j] / coords[-1, 0])
    print(f"  lam={lam:>8g}  {bar}")
