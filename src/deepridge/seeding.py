"""Keyed random streams and an order-preserving parallel map.

All randomness in the package flows through generators keyed by small
integer tuples (seed, layer, block, ...). Each key yields an independent
stream, so draws depend only on the key and never on the order in which
work is scheduled.
"""

import collections
from concurrent.futures import ThreadPoolExecutor

import numpy as np

KEY_MAX = 2 ** 32 - 1

# the stream key layout. A block's key is (seed, layer, block), its layer in
# 1..MAX_DEPTH, the deepest layer a NetConfig takes. A tagged key puts its
# tag where a block's key puts the layer, and SeedSequence zero-pads a key,
# so (seed, 101) draws what (seed, 101, 0) draws. So every tag exceeds
# MAX_DEPTH, and each tag keys streams of one length only
MAX_DEPTH = 100
TAG_SIM = 101        # (seed, 101): the simulated data
TAG_PAIR = 102       # (seed, 102, pair): an image pair's rows
TAG_NOISE = 103      # (seed, 103, part): feature noise on one part
TAG_GAMMA = 201      # (seed, 201, layer, block): a block's weight variance
TAG_BASELINE = 202   # (seed, 202, group): a flat baseline column group
TAG_MC = 301         # (seed, 301, replication): a Monte Carlo replication


def check_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int if it is an int or numpy integer in
    ``low``..``high`` (no upper end if ``high`` is None); otherwise a
    ``ValueError`` naming ``name``. bool is an int in Python, but not a
    count, key or index."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in {low}..{high}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return int(value)


def check_real(name: str, value, low: float | None = None,
               strict: bool = True) -> float | np.ndarray:
    """``value`` as a float, or a float array for a list, tuple or array,
    if every entry is an int, float or numpy real, not a bool, finite and
    above ``low`` (at or above it if not ``strict``); otherwise a
    ``ValueError`` naming ``name``. ``low`` is None or 0."""
    many = isinstance(value, (list, tuple, np.ndarray))
    if not (value.dtype.kind in "iuf" if isinstance(value, np.ndarray)
            else all(isinstance(v, (int, float, np.integer, np.floating))
                     and not isinstance(v, bool)
                     for v in (value if many else (value,)))):
        raise ValueError(f"{name} must be a real number")
    try:
        out = np.asarray(value, dtype=float) if many else float(value)
    except OverflowError:   # an int past a float's range
        out = np.float64(np.inf)
    ok = abs(out) < np.inf   # False for NaN too
    if low is not None:
        ok &= out > low if strict else out >= low
    if not (ok.all() if many else ok):
        raise ValueError(f"{name} must be " + (
            "finite" if low is None else
            f"{'positive' if strict else 'non-negative'} and finite"))
    return out


def stream_rng(*key: int) -> np.random.Generator:
    """Return a generator fully determined by the integer tuple ``key``.

    The key must not be empty: SeedSequence zero-pads a key, so () would
    draw what (0,) draws. Every element must be an int or numpy integer,
    not a bool, so 1.5 or True never draws what 1 draws, and lie in
    0..2^32 - 1: SeedSequence splits a larger one into 32-bit words, so
    (s + t * 2^32, ...) would draw what (s, t, ...) draws.
    """
    if not key:
        raise ValueError("stream key must not be empty")
    for k in key:
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValueError(f"stream key element {k!r} must be an integer")
        if not 0 <= k <= KEY_MAX:
            raise ValueError(f"stream key element {k} is outside "
                             f"0..{KEY_MAX}")
    return np.random.default_rng(np.random.SeedSequence(key))


def map_ordered(fn, items, n_threads: int):
    """Yield ``fn(item)`` for each item in order, on ``n_threads`` workers
    if > 1, so scheduling never changes the output. Lazy: at one thread
    ``fn`` runs on an item once the last result is taken; a pool runs at
    most one item past its workers ahead of the oldest result not taken.
    ``n_threads`` must be a positive integer, checked before any item runs."""
    n_threads = check_count("n_threads", n_threads)
    if n_threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        ahead = collections.deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > n_threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
