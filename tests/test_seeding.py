import math

import numpy as np
import pytest

from deepridge.seeding import KEY_MAX, check_real, map_ordered, stream_rng


@pytest.mark.parametrize("value, low, strict, expected", [
    (3, None, True, 3.0),
    (-2.5, None, True, -2.5),
    (np.int32(4), 0, True, 4.0),
    (np.float32(0.5), 0, True, 0.5),
    (0, 0, False, 0.0),
    (1e300, 0, True, 1e300),
], ids=["int", "negative-float", "numpy-int", "numpy-float",
        "zero-non-negative", "large-finite"])
def test_check_real_returns_a_float(value, low, strict, expected):
    out = check_real("x", value, low, strict)
    assert type(out) is float and out == expected


@pytest.mark.parametrize("value", [
    [1, 2.5, np.float64(3.0)], (0.5,), np.arange(3), np.array([[1.0, 2.0]]),
    np.array([], dtype=float),
], ids=["list", "tuple", "int-array", "2d-array", "empty-array"])
def test_check_real_returns_a_float_array(value):
    out = check_real("x", value, 0, strict=False)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, np.asarray(value, dtype=float))


@pytest.mark.parametrize("value, low, strict, message", [
    (True, None, True, "x must be a real number"),
    (np.bool_(False), None, True, "x must be a real number"),
    ("1.0", None, True, "x must be a real number"),
    (None, 0, True, "x must be a real number"),
    ([1.0, True], None, True, "x must be a real number"),
    (np.array([True]), None, True, "x must be a real number"),
    (np.array(["1"]), None, True, "x must be a real number"),
    (math.nan, None, True, "x must be finite"),
    (math.inf, None, True, "x must be finite"),
    (-math.inf, None, True, "x must be finite"),
    (10 ** 400, None, True, "x must be finite"),
    ([1.0, math.nan], None, True, "x must be finite"),
    (math.nan, 0, True, "x must be positive and finite"),
    (math.inf, 0, True, "x must be positive and finite"),
    (0, 0, True, "x must be positive and finite"),
    (-1.0, 0, True, "x must be positive and finite"),
    (np.array([1.0, 0.0]), 0, True, "x must be positive and finite"),
    (-1e-300, 0, False, "x must be non-negative and finite"),
    (math.nan, 0, False, "x must be non-negative and finite"),
    ([0.0, math.inf], 0, False, "x must be non-negative and finite"),
], ids=["bool", "numpy-bool", "string", "none", "bool-in-list",
        "bool-array", "string-array", "nan", "inf", "minus-inf",
        "int-past-float", "nan-in-list", "nan-positive", "inf-positive",
        "zero-positive", "negative-positive", "zero-in-array-positive",
        "negative-non-negative", "nan-non-negative",
        "inf-in-list-non-negative"])
def test_check_real_refuses(value, low, strict, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_real("x", value, low, strict)


def test_empty_key_is_refused():
    # SeedSequence zero-pads a key, so () would draw what (0,) draws
    np.testing.assert_array_equal(
        np.random.SeedSequence(()).generate_state(4),
        np.random.SeedSequence((0,)).generate_state(4))
    with pytest.raises(ValueError, match="stream key must not be empty"):
        stream_rng()


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


def test_map_ordered_at_one_thread_runs_an_item_once_the_last_is_taken():
    calls = []

    def fn(item):
        calls.append(item)
        return 10 * item

    results = map_ordered(fn, [1, 2, 3], 1)
    assert calls == []
    assert next(results) == 10 and calls == [1]
    assert next(results) == 20 and calls == [1, 2]
    assert list(results) == [30] and calls == [1, 2, 3]


def test_map_ordered_on_a_pool_runs_one_item_past_its_workers_ahead():
    # the oldest result not yet taken is at most n_threads + 1 items back
    calls = []

    def fn(item):
        calls.append(item)
        return 10 * item

    results = map_ordered(fn, range(8), 2)
    assert next(results) == 0 and max(calls) <= 2
    assert next(results) == 10 and max(calls) <= 3
    assert list(results) == [10 * i for i in range(2, 8)]
    assert sorted(calls) == list(range(8))


def test_map_ordered_takes_a_numpy_integer_thread_count():
    results = map_ordered(lambda item: 10 * item, range(5), np.int64(2))
    assert list(results) == [0, 10, 20, 30, 40]
