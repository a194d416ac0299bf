"""Random relu feature maps with Gaussian input weights.

A block maps inputs X (n x D) to Z = relu(X W / sqrt(D) + b), where the
columns of W are drawn N(0, gamma*I) and the biases uniformly on
(-bias_range, bias_range). The sqrt(D) scaling keeps pre-activation
variance near gamma * mean(x_i^2) regardless of the input width.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import check_count, check_real, stream_rng


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
    check_real("gamma", gamma, 0, many=False)
    check_count("block width p", p)
    check_count("input_dim", input_dim)
    check_real("bias_range", bias_range, 0, many=False)
    rng = stream_rng(*stream_key)
    weights = rng.standard_normal((input_dim, p))
    weights *= np.sqrt(gamma)   # in place: one (D, P) array per draw
    biases = rng.uniform(-bias_range, bias_range, size=p)
    return FeatureBlock(weights=weights, biases=biases)


def apply_block(block: FeatureBlock, x,
                fan_in: int | None = None) -> np.ndarray:
    """Transform rows of ``x`` through the block: relu(x W / sqrt(D) + b).

    D is ``fan_in``, by default W's row count. A block that reads a
    layer's rank coordinates draws W at their width and passes the layer's
    dense width as D: the coordinates keep the dense rows' norms, so the
    pre-activation variance stays that of the dense input.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != block.input_dim:
        raise ValueError(
            f"expected {block.input_dim} input columns, got shape {x.shape}"
        )
    # in place on the GEMM result: no (n, P) temporaries beyond the output
    pre = x @ block.weights
    np.divide(pre, np.sqrt(fan_in or block.input_dim), out=pre)
    pre += block.biases
    return np.maximum(pre, 0.0, out=pre)
