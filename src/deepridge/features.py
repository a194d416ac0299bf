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
class FeatureBlockSpec:
    """Recipe for one block: weight variance, width, bias range, stream key."""

    gamma: float
    p: int
    bias_range: float = 1.0
    stream_key: tuple = (0, 0, 0)

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.p < 1:
            raise ValueError("block width p must be at least 1")
        if not self.bias_range > 0:
            raise ValueError("bias_range must be positive")


@dataclass(frozen=True)
class FeatureBlock:
    """Drawn weights and biases of one block, or of several blocks side by
    side; immutable after drawing."""

    weights: np.ndarray  # (D, P)
    biases: np.ndarray   # (P,)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]


def draw_block(spec: FeatureBlockSpec, input_dim: int) -> FeatureBlock:
    """Draw a block; the content depends only on ``spec.stream_key``."""
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    rng = stream_rng(*spec.stream_key)
    weights = rng.standard_normal((input_dim, spec.p)) * np.sqrt(spec.gamma)
    biases = rng.uniform(-spec.bias_range, spec.bias_range, size=spec.p)
    return FeatureBlock(weights=weights, biases=biases)


def apply_block(block: FeatureBlock, x) -> np.ndarray:
    """Transform rows of ``x`` through the block: relu(x W / sqrt(D) + b)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != block.input_dim:
        raise ValueError(
            f"expected {block.input_dim} input columns, got shape {x.shape}"
        )
    pre = x @ block.weights / np.sqrt(block.input_dim) + block.biases
    return np.maximum(pre, 0.0)
