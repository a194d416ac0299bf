"""Random relu feature maps with Gaussian input weights.

A block maps inputs X (n x D) to Z = relu(X W / sqrt(D) + b), where the
columns of W are drawn N(0, gamma*I) and the biases uniformly on
(-bias_range, bias_range). The sqrt(D) scaling keeps pre-activation
variance near gamma * mean(x_i^2) regardless of the input width.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import stream_rng


@dataclass(frozen=True)
class FeatureBlock:
    """Drawn weights and biases of one block, or of several blocks side by
    side; immutable after drawing."""

    weights: np.ndarray  # (D, P)
    biases: np.ndarray   # (P,)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]


def draw_block(stream_key: tuple, gamma: float, p: int, input_dim: int,
               bias_range: float) -> FeatureBlock:
    """Draw a block of ``p`` features; the content depends only on
    ``stream_key``."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if p < 1:
        raise ValueError("block width p must be at least 1")
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if not bias_range > 0:
        raise ValueError("bias_range must be positive")
    rng = stream_rng(*stream_key)
    weights = rng.standard_normal((input_dim, p)) * np.sqrt(gamma)
    biases = rng.uniform(-bias_range, bias_range, size=p)
    return FeatureBlock(weights=weights, biases=biases)


def apply_block(block: FeatureBlock, x) -> np.ndarray:
    """Transform rows of ``x`` through the block: relu(x W / sqrt(D) + b)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != block.input_dim:
        raise ValueError(
            f"expected {block.input_dim} input columns, got shape {x.shape}"
        )
    # in place on the GEMM result: no (n, P) temporaries beyond the output
    pre = x @ block.weights
    np.divide(pre, np.sqrt(block.input_dim), out=pre)
    pre += block.biases
    return np.maximum(pre, 0.0, out=pre)
