import numpy as np

from deepridge import network

# the 29-point penalty grid, restated independently of the package so the
# shipped constant stays pinned to these exact values
REFERENCE_GRID29 = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)


def recorded_bases(monkeypatch):
    """Record the (betas, scales) of every ``network.layer_basis`` call, in
    call order: one per transform group, so train on one thread."""
    calls, real = [], network.layer_basis

    def record(betas, scales):
        calls.append((betas.copy(), scales.copy()))
        return real(betas, scales)

    monkeypatch.setattr(network, "layer_basis", record)
    return calls


def block_bases(betas, scales):
    """Each block's C_k' (r_k, L), by the SVD, rank cut and sign rule of
    ``network.layer_basis``, so its rows pair bit for bit with that
    block's rows of the maps."""
    cs = []
    for beta, scale in zip(betas, scales):
        _, s, vt = np.linalg.svd(beta / scale, full_matrices=False)
        r = max(1, int(np.count_nonzero(s > network.RANK_TOLERANCE * s[0])))
        vt = vt[:r]
        cs.append(vt * np.sign(vt[np.arange(r),
                                  np.argmax(np.abs(vt), axis=1)])[:, None])
    return cs


def layer_bases(calls, cfg):
    """Per trained layer, each block's C_k', from the ``recorded_bases``
    calls of one-thread training under ``cfg``."""
    groups = len(network.group_bounds(cfg.blocks, cfg.features_per_block))
    assert len(calls) % groups == 0
    return [[c for betas, scales in calls[i:i + groups]
             for c in block_bases(betas, scales)]
            for i in range(0, len(calls), groups)]


def expand_rows(cs, rows):
    """blockdiag(C) times (sum r_k, c) coordinate rows: (K*L, c) dense
    rows."""
    offsets = np.cumsum([0] + [len(c) for c in cs])
    assert offsets[-1] == len(rows)
    return np.vstack([c.T @ rows[a:b]
                      for c, a, b in zip(cs, offsets, offsets[1:])])


def dense_columns(coords, cs):
    """The (n, K*L) unit-scale grid columns of a layer's (n, sum r_k)
    coordinates, with its blocks' C_k' ``cs``."""
    return expand_rows(cs, coords.T).T


def make_two_class_images(n_per_class, seed):
    """Synthetic 28x28 two-class image set in FMNIST-like uint8 form.

    The class is the spatial pattern of two bright quadrants (diagonal vs
    adjacent), so membership is a non-linear function of pixel intensities;
    base intensities and pixel noise vary within class.
    """
    rng = np.random.default_rng((seed, 77))
    images, labels = [], []
    for cls in (0, 1):
        for _ in range(n_per_class):
            q = rng.uniform(0.0, 1.0, size=4)
            hot = rng.integers(0, 2)
            if cls == 1:
                pair = (0, 3) if hot else (1, 2)
            else:
                pair = (0, 1) if hot else (2, 3)
            q[list(pair)] += 1.0
            img = np.empty((28, 28))
            img[:14, :14] = q[0]
            img[:14, 14:] = q[1]
            img[14:, :14] = q[2]
            img[14:, 14:] = q[3]
            img += rng.normal(0, 0.15, size=(28, 28))
            images.append(np.clip(img * 100, 0, 255).astype(np.uint8))
            labels.append(cls)
    order = rng.permutation(len(labels))
    return np.array(images)[order], np.array(labels, dtype=np.uint8)[order]
