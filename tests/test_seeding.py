import numpy as np
import pytest

from deepridge.seeding import KEY_MAX, stream_rng


@pytest.mark.parametrize("key, alias", [
    ((7 + 201 * 2 ** 32, 1, 3), (7, 201, 1, 3)),
    ((7 + 102 * 2 ** 32, 2, 0), (7, 102, 2)),
], ids=["weight-variance", "image-pair"])
def test_keys_past_32_bits_are_refused(key, alias):
    # SeedSequence splits a larger key element into 32-bit words, so the
    # key would draw its alias: layer 1 block 3 of seed 7 + 201*2^32 is
    # seed 7's weight-variance stream, and layer 2 block 0 of seed
    # 7 + 102*2^32 is seed 7's image-pair stream 2
    np.testing.assert_array_equal(
        np.random.SeedSequence(key).generate_state(4),
        np.random.SeedSequence(alias).generate_state(4))
    with pytest.raises(ValueError, match=f"element {key[0]} is outside"):
        stream_rng(*key)
    stream_rng(*alias).random()


def test_negative_key_is_refused():
    with pytest.raises(ValueError, match="element -1 is outside"):
        stream_rng(3, -1)


@pytest.mark.parametrize("seed", [0, KEY_MAX])
def test_seeds_at_the_range_ends_draw(seed):
    assert KEY_MAX == 2 ** 32 - 1
    a, b = stream_rng(seed, 1, 0).random(3), stream_rng(seed, 1, 0).random(3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, stream_rng(seed, 1, 1).random(3))
