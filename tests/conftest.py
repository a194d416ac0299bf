import numpy as np

# the 29-point penalty grid, restated independently of the package so the
# shipped constant stays pinned to these exact values
REFERENCE_GRID29 = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 5.1, 10.1, 15.1, 20.1, 25.1, 30.1, 35.1,
    40.1, 45.1, 50.1, 55.1, 60.1, 65.1, 70.1, 75.1, 80.1, 85.1, 90.1, 95.1,
    100.1, 1000.0, 2000.0, 5000.0, 10000.0,
)


def expand_rows(basis, rows):
    """blockdiag(C) rows of a :class:`deepridge.network.LayerBasis`: its
    (sum r_k, c) coordinate rows to (K*L, c) dense rows."""
    out = np.empty((basis.dense_width, rows.shape[1]))
    for dense, comp in basis._rows():
        np.matmul(basis.vt[comp].T, rows[comp], out=out[dense])
    return out


def dense_columns(rep):
    """The (n, K*L) unit-scale grid columns of a
    :class:`deepridge.network.LayerOutput`."""
    return expand_rows(rep.basis, rep.coords.T).T


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
