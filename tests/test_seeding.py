import ast
import collections
import math
import pathlib
import re

import numpy as np
import pytest

from deepridge import dataio, features, network, seeding, theory
from deepridge.seeding import (KEY_MAX, MAX_DEPTH, TAG_BASELINE, TAG_GAMMA,
                               TAG_MC, TAG_NOISE, TAG_PAIR, TAG_SIM,
                               check_real, map_ordered, stream_rng)

# the modules that draw, each through its own ``stream_rng`` binding:
# bench/spans.py times draws by patching these, and drawn_keys records them
DRAWING_MODULES = (dataio, features, network, theory)


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


@pytest.mark.parametrize("value, many, message", [
    ([1.0], False, "x must be a real number"),
    (np.array(1.0), False, "x must be a real number"),
    (1.0, True, "x must be a list of real numbers"),
    ("1.0", True, "x must be a list of real numbers"),
], ids=["list-for-number", "array-for-number", "number-for-list",
        "string-for-list"])
def test_check_real_refuses_the_wrong_shape(value, many, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_real("x", value, many=many)
    assert type(check_real("x", 1, many=False)) is float
    assert check_real("x", (1,), many=True).dtype == np.float64


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


@pytest.mark.parametrize("key", [
    (1.5,), (True,), (np.float64(2.0),), (3, "1"), (np.bool_(False), 2),
], ids=["float", "bool", "numpy-float", "string", "numpy-bool"])
def test_key_elements_that_are_not_integers_are_refused(key):
    # int() truncated each element, so 1.5, True and 2.0 drew the streams
    # of 1, 1 and 2
    element = re.escape(repr(next(k for k in key if not isinstance(k, int)
                                  or isinstance(k, bool))))
    with pytest.raises(ValueError,
                       match=f"^stream key element {element} must be an "
                             f"integer$"):
        stream_rng(*key)


@pytest.mark.parametrize("call, element", [
    (lambda: dataio.simulate_single_neuron(
        dataio.SimConfig(n=30, d=3, noise_std=0.1, seed=1.5)), "1.5"),
    (lambda: theory.monte_carlo_risk(
        theory.RiskScenario(n=10, p=(4,), b=(1.0,)), [("zero",)], 2,
        seed=1.5), "1.5"),
    (lambda: network.flat_random_feature_baseline(
        dataio.simulate_single_neuron(
            dataio.SimConfig(n=30, d=3, noise_std=0.1, seed=1)),
        20, (0.1, 1.0), seed=True), "True"),
], ids=["simulate", "monte-carlo", "flat-baseline"])
def test_entry_points_refuse_a_seed_that_is_not_an_integer(call, element):
    # each returned seed 1's results
    with pytest.raises(ValueError,
                       match=f"^stream key element {element} must be an "
                             f"integer$"):
        call()


def test_a_numpy_integer_key_draws_the_int_key():
    assert (stream_rng(np.int64(7), 1).random()
            == stream_rng(7, 1).random() == 0.7701409510034741)


@pytest.mark.parametrize("key, first", [
    ((7, TAG_SIM), 0.7328596948408228),
    ((7, TAG_PAIR, 3), 0.6108367015007257),
    ((7, TAG_NOISE, 2), 0.8642260291169858),
    ((7, TAG_GAMMA, 2, 5), 0.46786813820072226),
    ((7, TAG_BASELINE, 1), 0.6558387405348649),
    ((7, TAG_MC, 4), 0.11353355604411242),
    ((7, 2, 9), 0.24737614824165788),
], ids=["sim", "pair", "noise", "gamma", "baseline", "monte-carlo",
        "block"])
def test_streams_stay_where_they_are(key, first):
    # every output bit follows from these streams: a moved key or a new
    # key rule shows here first
    assert stream_rng(*key).random() == first


def drawn_keys(monkeypatch) -> list:
    """Every stream key drawn by the package's entry points: the data, the
    noise, an image pair, a depth-2 network trained and scored, a flat
    baseline of two column groups and the Monte Carlo oracle."""
    keys = []

    def record(*key):
        keys.append(key)
        return stream_rng(*key)

    for module in DRAWING_MODULES:
        monkeypatch.setattr(module, "stream_rng", record)
    split = dataio.simulate_single_neuron(
        dataio.SimConfig(n=60, d=3, noise_std=0.1, seed=5))
    dataio.add_feature_noise(split, 1, seed=5)
    labels = np.repeat(np.arange(10), 6)
    images = labels[:, None] + np.zeros((1, 4))
    dataio.make_binary_pair(images, labels, images, labels, 3, seed=5)
    model = network.train(split, network.NetConfig(
        depth=2, blocks=3, features_per_block=4, lambda_grid=(0.1, 1.0),
        seed=5))
    network.predict(model, split.x_test)
    assert 600 > network.GROUP_COLUMNS and 600 > split.x_train.shape[0]
    network.flat_random_feature_baseline(split, 600, (0.1, 1.0), seed=5)
    theory.monte_carlo_risk(theory.RiskScenario(n=10, p=(4,), b=(1.0,)),
                            [("zero",)], 2, seed=5)
    return keys


def test_every_drawn_key_follows_the_layout(monkeypatch):
    # a tagged key puts its tag where a block's key (seed, layer, block)
    # puts the layer, and SeedSequence zero-pads a key, so (seed, 101)
    # draws what (seed, 101, 0) draws: every tag must exceed every layer,
    # and each tag key streams of one length only
    tags = [v for name, v in vars(seeding).items() if name.startswith("TAG_")]
    assert all(tag > MAX_DEPTH for tag in tags), tags
    assert len(set(tags)) == len(tags), tags
    lengths = collections.defaultdict(set)
    for key in drawn_keys(monkeypatch):
        if key[1] in tags:
            lengths[key[1]].add(len(key))
        else:
            assert len(key) == 3 and 1 <= key[1] <= MAX_DEPTH, key
    assert all(len(n) == 1 for n in lengths.values()), dict(lengths)
    assert sorted(lengths) == sorted(tags)   # every tag was drawn


def _numpy_random_uses(path) -> list:
    """The np.random attributes and random imports in one source file."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and "random" in ast.unparse(node)]


def test_every_draw_goes_through_the_patched_bindings():
    # a module drawing from np.random itself would escape both the
    # benchmark's draw timings and the key layout test
    for module in DRAWING_MODULES:
        assert module.stream_rng is seeding.stream_rng, module.__name__
    paths = sorted(pathlib.Path(seeding.__file__).parent.glob("*.py"))
    uses = {path.name: _numpy_random_uses(path) for path in paths}
    assert uses.pop("seeding.py")   # the check does see np.random
    assert uses == {name: [] for name in uses}


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
