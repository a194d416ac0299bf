"""Layered random-feature ridge ensembles and their asymptotic risk theory.

Modules:
    dataio   -- simulated and IDX-image datasets, feature noise,
                atomic file writes
    features -- random relu feature blocks
    ridge    -- penalty-grid ridge fits from one eigendecomposition
    network  -- training, prediction, depth selection, flat baseline
    theory   -- closed-form asymptotic risks and the Monte Carlo oracle
    cli      -- experiment runner and model inspector
"""

__version__ = "0.1.0"
