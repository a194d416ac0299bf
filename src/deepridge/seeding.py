"""Keyed random streams and an order-preserving parallel map.

All randomness in the package flows through generators keyed by small
integer tuples (seed, layer, block, ...). Each key yields an independent
stream, so draws depend only on the key and never on the order in which
work is scheduled.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

KEY_MAX = 2 ** 32 - 1


def stream_rng(*key: int) -> np.random.Generator:
    """Return a generator fully determined by the integer tuple ``key``.

    Every element must lie in 0..2^32 - 1: SeedSequence splits a larger
    one into 32-bit words, so (s + t * 2^32, ...) would draw what (s, t,
    ...) draws.
    """
    words = tuple(int(k) for k in key)
    for k in words:
        if not 0 <= k <= KEY_MAX:
            raise ValueError(f"stream key element {k} is outside "
                             f"0..{KEY_MAX}")
    return np.random.default_rng(np.random.SeedSequence(words))


def map_ordered(fn, items, n_threads: int) -> list:
    """``[fn(item) for item in items]``, on ``n_threads`` workers if > 1.

    Results are kept by position, so scheduling never changes the output.
    """
    if n_threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        return list(pool.map(fn, items))
