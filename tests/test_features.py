import numpy as np
import pytest

from deepridge.features import FeatureBlock, apply_block, draw_block


def test_shapes_and_bias_range():
    block = draw_block((1, 0, 0), 1.0, 4, 3, bias_range=0.7)
    assert block.weights.shape == (3, 4)
    assert block.biases.shape == (4,)
    assert np.all(np.abs(block.biases) < 0.7)


def test_same_stream_key_same_block():
    a = draw_block((42, 2, 7), 0.5, 8, 5, 1.0)
    b = draw_block((42, 2, 7), 0.5, 8, 5, 1.0)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.biases, b.biases)


def test_draws_independent_of_other_keys():
    # a block's content depends on its key alone, not on what else was drawn
    ref = draw_block((0, 1, 5), 1.0, 3, 4, 1.0)
    for k in (0, 3, 9):
        draw_block((0, 1, k), 1.0, 3, 4, 1.0)
    again = draw_block((0, 1, 5), 1.0, 3, 4, 1.0)
    np.testing.assert_array_equal(ref.weights, again.weights)


def test_gamma_scales_weight_variance():
    n_draws = 10_000
    small = draw_block((7, 0, 0), 0.25, n_draws, 1, 1.0)
    unit = draw_block((7, 0, 1), 1.0, n_draws, 1, 1.0)
    ratio = small.weights.var() / unit.weights.var()
    assert abs(ratio - 0.25) < 0.05 * 0.25 + 0.01


def test_apply_zero_input_gives_relu_bias():
    block = draw_block((3, 0, 0), 1.0, 6, 2, 1.0)
    z = apply_block(block, np.zeros((5, 2)))
    np.testing.assert_allclose(z, np.tile(np.maximum(block.biases, 0), (5, 1)))


def test_output_nonnegative():
    block = draw_block((9, 1, 2), 2.0, 10, 4, 1.0)
    z = apply_block(block, np.random.default_rng(0).standard_normal((30, 4)))
    assert np.all(z >= 0)


def test_one_by_one_hand_case():
    block = FeatureBlock(weights=np.array([[1.0]]), biases=np.array([-1.0]))
    np.testing.assert_array_equal(apply_block(block, np.array([[4.0]])),
                                  np.array([[3.0]]))


def test_row_concatenation_property():
    rng = np.random.default_rng(6)
    block = draw_block((5, 1, 1), 0.7, 5, 3, 1.0)
    x1 = rng.standard_normal((4, 3))
    x2 = rng.standard_normal((7, 3))
    together = apply_block(block, np.vstack([x1, x2]))
    np.testing.assert_array_equal(
        together, np.vstack([apply_block(block, x1), apply_block(block, x2)]))


def test_dimension_mismatch():
    block = draw_block((0, 0, 0), 1.0, 2, 3, 1.0)
    with pytest.raises(ValueError):
        apply_block(block, np.zeros((2, 4)))


@pytest.mark.parametrize("bad", [
    dict(gamma=0.0),
    dict(gamma=-1.0),
    dict(p=0),
    dict(bias_range=0.0),
    dict(input_dim=0),
])
def test_invalid_specs(bad):
    args = dict(stream_key=(0, 0, 0), gamma=1.0, p=2, input_dim=3,
                bias_range=1.0)
    args.update(bad)
    with pytest.raises(ValueError):
        draw_block(**args)
