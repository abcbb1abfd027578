"""Deterministic randomness primitives.

Every random object in this package is a pure function of a 64-bit seed, so
any experiment can be replayed bit-identically from its report.  The seed
contract, stated once here and relied on everywhere:

* ``splitmix64(z)`` is the standard splitmix64 finalizer (xor-shift-multiply
  chain with constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
* ``derive_seed(master, index)`` =
  ``splitmix64((master + splitmix64((index + 1) * GAMMA mod 2^64)) mod 2^64)``
  with GAMMA = 0x9E3779B97F4A7C15.  Trial ``t`` of an experiment uses
  ``derive_seed(master, t)``; nested streams derive again with small tags.
* ``bernoulli_bits(seed, n)``: bit ``e`` (0-based) is bit ``e mod 64`` of
  ``splitmix64((seed + (e // 64 + 1) * GAMMA) mod 2^64)``.
* ``sample_rows(pool, k, seeds)``: row i is the entries of pool at positions
  ``Random(seeds[i]).sample(range(len(pool)), k)``, sorted ascending.  It is
  the one sampler; ``sample_without_replacement`` is its one-row case.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import StructuralError

__all__ = [
    "GAMMA",
    "splitmix64",
    "derive_seed",
    "derive_seed_array",
    "bernoulli_bits",
    "bit_matrix",
    "sample_without_replacement",
    "sample_rows",
]

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _C1) & _MASK
    z = ((z ^ (z >> 27)) * _C2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Child seed for stream `index` of a master seed."""
    if index < 0:
        raise StructuralError(f"stream index must be nonnegative, got {index}")
    return splitmix64((master + splitmix64(((index + 1) * GAMMA) & _MASK)) & _MASK)


def _splitmix64_np(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_C1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_C2)
        return z ^ (z >> np.uint64(31))


def bit_matrix(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    """Fair-coin bit rows, one per seed; shape (len(seeds), n_bits), dtype bool."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    n_words = (n_bits + 63) // 64
    counters = np.arange(1, n_words + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = _splitmix64_np(seeds[:, None] + counters[None, :] * np.uint64(GAMMA))
    raw = words.astype("<u8").view(np.uint8).reshape(len(seeds), n_words * 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")
    return bits[:, :n_bits].astype(bool)


def bernoulli_bits(seed: int, n_bits: int) -> np.ndarray:
    """n_bits independent fair coins as a bool vector."""
    return bit_matrix(np.array([seed & _MASK], dtype=np.uint64), n_bits)[0]


def derive_seed_array(master, indices) -> np.ndarray:
    """derive_seed(master, t), broadcast over masters and indices.

    master is a seed or an array of seeds; indices is an index or an index array.
    """
    idx = np.asarray(indices, dtype=np.uint64) + np.uint64(1)
    if isinstance(master, (int, np.integer)):
        master = np.uint64(int(master) & _MASK)
    else:
        master = np.asarray(master, dtype=np.uint64)
    with np.errstate(over="ignore"):
        inner = _splitmix64_np(idx * np.uint64(GAMMA))
        return _splitmix64_np(master + inner)


def sample_rows(pool: np.ndarray | range, k: int, seeds) -> np.ndarray:
    """k distinct entries of pool per seed, each row ascending; shape (len(seeds), k).

    pool is an integer array or a range; a range is never materialized, its
    chosen positions map straight to values.
    """
    if k > len(pool):
        raise StructuralError(f"cannot sample {k} items from a pool of {len(pool)}")
    seeds = np.asarray(seeds).tolist()
    positions = np.array(
        [random.Random(seed).sample(range(len(pool)), k) for seed in seeds], dtype=np.int64
    ).reshape(len(seeds), k)
    if isinstance(pool, range):
        return np.sort(pool.start + pool.step * positions, axis=1)
    return np.sort(np.asarray(pool, dtype=np.int64)[positions], axis=1)


def sample_without_replacement(pool: np.ndarray | range, k: int, seed: int) -> np.ndarray:
    """k distinct entries of pool, sorted ascending: the one-row case of sample_rows."""
    return sample_rows(pool, k, [seed])[0]
