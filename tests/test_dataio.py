import gzip
import os

import numpy as np
import pytest

from deepridge import dataio
from deepridge.dataio import DataSplit, SimConfig


# --- simulated single-neuron data -------------------------------------------

def test_simulation_split_sizes():
    split = dataio.simulate_single_neuron(
        SimConfig(n=3000, d=50, noise_std=0.1, activation="relu", seed=1))
    for x, y in ((split.x_train, split.y_train),
                 (split.x_valid, split.y_valid),
                 (split.x_test, split.y_test)):
        assert x.shape == (1000, 50)
        assert y.shape == (1000,)
    assert split.d == 50


def test_sigmoid_zero_noise_range():
    split = dataio.simulate_single_neuron(
        SimConfig(n=300, d=10, noise_std=0.0, activation="sigmoid", seed=2))
    for y in (split.y_train, split.y_valid, split.y_test):
        assert np.all((y > 0) & (y < 1))


def test_relu_zero_noise_nonnegative():
    split = dataio.simulate_single_neuron(
        SimConfig(n=300, d=10, noise_std=0.0, activation="relu", seed=3))
    for y in (split.y_train, split.y_valid, split.y_test):
        assert np.all(y >= 0)


def test_noise_variance_recovered():
    # oracle: the s=0 run shares the X/w draws, so differencing the labels
    # isolates the injected noise exactly
    cfg = dict(n=300, d=5, activation="relu", seed=7)
    noisy = dataio.simulate_single_neuron(SimConfig(noise_std=0.5, **cfg))
    clean = dataio.simulate_single_neuron(SimConfig(noise_std=0.0, **cfg))
    resid = np.concatenate([noisy.y_train - clean.y_train,
                            noisy.y_valid - clean.y_valid,
                            noisy.y_test - clean.y_test])
    assert abs(resid.var() - 0.25) < 0.2 * 0.25


def test_simulation_reproducible():
    cfg = SimConfig(n=30, d=4, noise_std=0.3, activation="sigmoid", seed=11)
    a = dataio.simulate_single_neuron(cfg)
    b = dataio.simulate_single_neuron(cfg)
    np.testing.assert_array_equal(a.x_train, b.x_train)
    np.testing.assert_array_equal(a.y_test, b.y_test)


@pytest.mark.parametrize("kwargs", [
    dict(n=100, d=5, noise_std=0.1),                      # not divisible by 3
    dict(n=300, d=5, noise_std=-0.1),
    dict(n=300, d=5, noise_std=0.1, activation="tanh"),
    dict(n=300, d=0, noise_std=0.1),
])
def test_invalid_sim_config(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=300.0), "n must be an integer"),
    (dict(d=5.0), "d must be an integer"),
    (dict(d=True), "d must be an integer"),
    (dict(noise_std=float("nan")), "noise_std must be non-negative and "
                                   "finite"),
    (dict(noise_std=float("inf")), "noise_std must be non-negative and "
                                   "finite"),
], ids=["float-n", "float-d", "bool-d", "nan-noise", "inf-noise"])
def test_sim_config_refuses_what_failed_only_in_the_draw(kwargs, message):
    # each passed the constructor: the floats and the bool failed in the
    # draw with a TypeError, the others as "non-finite entries in y_train"
    with pytest.raises(ValueError, match=message):
        SimConfig(**{"n": 300, "d": 5, "noise_std": 0.1, **kwargs})


# --- IDX files ---------------------------------------------------------------

def _toy_images():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)


def test_idx_image_round_trip(tmp_path):
    path = tmp_path / "imgs-idx3-ubyte"
    imgs = _toy_images()
    imgs[0, 0, 0] = 255
    imgs[0, 0, 1] = 0
    dataio.write_idx_images(path, imgs)
    loaded = dataio.load_idx(path)
    assert loaded.shape == (7, 12)
    assert loaded[0, 0] == 1.0    # byte 255 scales to exactly 1
    assert loaded[0, 1] == 0.0
    np.testing.assert_allclose(loaded, imgs.reshape(7, 12) / 255.0)


def test_idx_label_round_trip(tmp_path):
    path = tmp_path / "labels-idx1-ubyte"
    labels = np.array([0, 9, 3, 3], dtype=np.uint8)
    dataio.write_idx_labels(path, labels)
    np.testing.assert_array_equal(dataio.load_idx(path), labels)


def test_idx_gzip_transparent(tmp_path):
    plain = tmp_path / "imgs"
    dataio.write_idx_images(plain, _toy_images())
    gz = tmp_path / "imgs.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    np.testing.assert_array_equal(dataio.load_idx(gz), dataio.load_idx(plain))


def test_idx_truncated_file(tmp_path):
    path = tmp_path / "imgs"
    dataio.write_idx_images(path, _toy_images())
    truncated = tmp_path / "bad"
    truncated.write_bytes(path.read_bytes()[:16])   # header only
    with pytest.raises(ValueError, match="inconsistent length"):
        dataio.load_idx(truncated)


def test_idx_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x00\x42" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        dataio.load_idx(path)


def test_idx_pair_count_mismatch(tmp_path):
    imgs = tmp_path / "imgs"
    labels = tmp_path / "labels"
    dataio.write_idx_images(imgs, _toy_images())
    dataio.write_idx_labels(labels, np.zeros(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="count mismatch"):
        dataio.load_idx_pair(imgs, labels)


FMNIST_DIR = os.environ.get("DEEPRIDGE_DATA_DIR", "")


@pytest.mark.skipif(
    not (FMNIST_DIR
         and os.path.exists(os.path.join(FMNIST_DIR, "train-images-idx3-ubyte"))
         or FMNIST_DIR
         and os.path.exists(os.path.join(FMNIST_DIR,
                                         "train-images-idx3-ubyte.gz"))),
    reason="FMNIST data directory not available")
def test_fmnist_train_file_dimensions():
    base = os.path.join(FMNIST_DIR, "train-images-idx3-ubyte")
    path = base if os.path.exists(base) else base + ".gz"
    images = dataio.load_idx(path)
    assert images.shape == (60000, 784)


# --- binary pairs ------------------------------------------------------------

def _toy_class_set(n_per_class=30, d=6, n_classes=10, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    images = rng.random((labels.size, d)) + labels[:, None]
    return images, labels


def test_binary_pair_basic():
    tr_x, tr_y = _toy_class_set(seed=1)
    te_x, te_y = _toy_class_set(n_per_class=10, seed=2)
    split = dataio.make_binary_pair(tr_x, tr_y, te_x, te_y, pair_index=0,
                                    per_class_cap=20, seed=5)
    # labels are 0/1 and both occur, with equal counts per class in train
    for y in (split.y_train, split.y_valid, split.y_test):
        assert set(np.unique(y)) == {0.0, 1.0}
    assert (split.y_train == 0).sum() == (split.y_train == 1).sum()
    assert (split.y_valid == 0).sum() == (split.y_valid == 1).sum()
    # 20 per class capped, 80/20 sub-split
    assert split.x_train.shape[0] == 32
    assert split.x_valid.shape[0] == 8
    assert split.x_test.shape[0] == 20
    # rows really come from the right classes: class 1 rows sit above 1.0
    assert split.x_train[split.y_train == 1].min() >= 1.0


def test_binary_pair_wraparound():
    tr_x, tr_y = _toy_class_set(seed=3)
    te_x, te_y = _toy_class_set(n_per_class=5, seed=4)
    split = dataio.make_binary_pair(tr_x, tr_y, te_x, te_y, pair_index=9,
                                    per_class_cap=10, seed=0)
    # pair is (9, 0): rows labeled 1 are class 0, rows labeled 0 are class 9
    assert split.x_train[split.y_train == 0].min() >= 9.0
    assert split.x_train[split.y_train == 1].max() < 1.0 + 1.0


def test_binary_pair_deterministic():
    tr_x, tr_y = _toy_class_set(seed=6)
    te_x, te_y = _toy_class_set(n_per_class=5, seed=7)
    kwargs = dict(pair_index=3, per_class_cap=10, seed=13)
    a = dataio.make_binary_pair(tr_x, tr_y, te_x, te_y, **kwargs)
    b = dataio.make_binary_pair(tr_x, tr_y, te_x, te_y, **kwargs)
    np.testing.assert_array_equal(a.x_train, b.x_train)
    np.testing.assert_array_equal(a.y_test, b.y_test)


@pytest.mark.parametrize("kwargs, message", [
    (dict(pair_index=True), "pair_index must be an integer"),
    (dict(pair_index=1.0), "pair_index must be an integer"),
    (dict(per_class_cap=5.9), "per_class_cap must be an integer"),
    (dict(per_class_cap=True), "per_class_cap must be an integer"),
], ids=["bool-pair", "float-pair", "float-cap", "bool-cap"])
def test_binary_pair_refuses_counts_that_are_not_integers(kwargs, message):
    # the pair indices each built pair 1/2; a cap of 5.9 took 5 rows per
    # class, and True one, refused only as too few to split
    tr_x, tr_y = _toy_class_set(seed=1)
    with pytest.raises(ValueError, match=message):
        dataio.make_binary_pair(tr_x, tr_y, tr_x, tr_y,
                                **{"pair_index": 0, "per_class_cap": 10,
                                   **kwargs})


def test_binary_pair_empty_class():
    tr_x, tr_y = _toy_class_set(n_classes=5, seed=8)   # classes 5..9 missing
    with pytest.raises(ValueError, match="empty class"):
        dataio.make_binary_pair(tr_x, tr_y, tr_x, tr_y, pair_index=5,
                                per_class_cap=10, seed=0)


# --- feature noise -----------------------------------------------------------

def _small_split(seed=0):
    rng = np.random.default_rng(seed)
    return DataSplit(
        x_train=rng.standard_normal((60, 8)), y_train=rng.standard_normal(60),
        x_valid=rng.standard_normal((20, 8)), y_valid=rng.standard_normal(20),
        x_test=rng.standard_normal((30, 8)), y_test=rng.standard_normal(30),
    )


def test_noise_level_zero_is_identity():
    split = _small_split()
    assert dataio.add_feature_noise(split, 0, seed=1) is split


def test_noise_preserves_shapes_and_labels():
    split = _small_split()
    noisy = dataio.add_feature_noise(split, 2, seed=1)
    assert noisy.x_train.shape == split.x_train.shape
    assert noisy.x_test.shape == split.x_test.shape
    np.testing.assert_array_equal(noisy.y_train, split.y_train)
    np.testing.assert_array_equal(noisy.y_valid, split.y_valid)
    np.testing.assert_array_equal(noisy.y_test, split.y_test)


def test_noise_variance_scales_with_level():
    # oracle: difference out the clean features, compare measured variances
    split = _small_split(3)
    one = dataio.add_feature_noise(split, 1, seed=9)
    two = dataio.add_feature_noise(split, 2, seed=9)
    var1 = np.var(np.concatenate([
        (one.x_train - split.x_train).ravel(),
        (one.x_valid - split.x_valid).ravel(),
        (one.x_test - split.x_test).ravel()]))
    var2 = np.var(np.concatenate([
        (two.x_train - split.x_train).ravel(),
        (two.x_valid - split.x_valid).ravel(),
        (two.x_test - split.x_test).ravel()]))
    assert abs(var2 / var1 - 4.0) < 0.4


def test_noise_constant_features_fallback_scale():
    rng = np.random.default_rng(4)
    split = DataSplit(
        x_train=np.zeros((200, 5)), y_train=rng.standard_normal(200),
        x_valid=np.zeros((50, 5)), y_valid=rng.standard_normal(50),
        x_test=np.zeros((50, 5)), y_test=rng.standard_normal(50),
    )
    noisy = dataio.add_feature_noise(split, 1, seed=2)
    # pure noise at the fallback unit scale
    assert abs(noisy.x_train.var() - 1.0) < 0.15


def test_noise_negative_level_rejected():
    with pytest.raises(ValueError):
        dataio.add_feature_noise(_small_split(), -1)


@pytest.mark.parametrize("level", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_noise_level_not_finite_refused_before_any_draw(level, monkeypatch):
    # each drew all three splits' noise, then failed as "non-finite
    # entries in x_train"
    def no_draws(*key):
        raise AssertionError("noise drawn before the level was checked")
    monkeypatch.setattr(dataio, "stream_rng", no_draws)
    with pytest.raises(ValueError,
                       match="level must be non-negative and finite"):
        dataio.add_feature_noise(_small_split(), level)


# --- DataSplit invariants ----------------------------------------------------

def test_datasplit_validation():
    rng = np.random.default_rng(0)
    good = dict(
        x_train=rng.standard_normal((4, 3)), y_train=np.zeros(4),
        x_valid=rng.standard_normal((2, 3)), y_valid=np.zeros(2),
        x_test=rng.standard_normal((2, 3)), y_test=np.zeros(2),
    )
    DataSplit(**good)
    with pytest.raises(ValueError):
        DataSplit(**{**good, "x_valid": rng.standard_normal((2, 4))})
    with pytest.raises(ValueError):
        DataSplit(**{**good, "y_train": np.zeros(5)})
    with pytest.raises(ValueError):
        DataSplit(**{**good, "x_test": np.full((2, 3), np.nan)})
