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
  ``splitmix64((seed + (e // 64 + 1) * GAMMA) mod 2^64)``.  ``bit_matrix``
  stacks these rows, one per seed, unpacked from ``_bit_words``, which keeps
  the words themselves for callers that count bits by popcount.
* ``sample_rows(pool, k, seeds)``: row i is the entries of pool at positions
  ``Random(seeds[i]).sample(range(len(pool)), k)``, sorted ascending, with
  every seed read as an exact Python int.  It is the one sampler;
  ``sample_without_replacement`` is its one-row case.

``sample_rows`` keeps that contract but reads the stream in bulk.  CPython's
``sample(range(n), k)`` keeps a pool list when n <= setsize, where
setsize = 21, plus ``4 ** ceil(log(3k, 4))`` when k > 5; otherwise it is in
set mode.  Each set-mode draw is ``getrandbits(b)`` with b = n.bit_length(),
which is the next Mersenne Twister word shifted right by 32 - b; a draw >= n
is rejected and a repeated position is drawn again, so the row is the first k
distinct accepted draws.  ``Random(seed).getrandbits(32 m)`` returns the
seed's first m words, low word first, and numpy picks each row's first k
distinct accepted draws out of them.  A row whose m words hold fewer than k
distinct accepted draws, every pool-mode row, and every row when n >= 2^32
take ``Random(seed).sample`` itself.  When k == 0 or k == n nothing is drawn:
no position or every position is chosen.
"""

from __future__ import annotations

import math
import operator
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


def _bit_words(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    """The words of bit_matrix's rows, packed; shape (len(seeds), ceil(n_bits / 64)), uint64."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    counters = np.arange(1, (n_bits + 63) // 64 + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _splitmix64_np(seeds[:, None] + counters[None, :] * np.uint64(GAMMA))


def bit_matrix(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    """Fair-coin bit rows, one per seed; shape (len(seeds), n_bits), dtype bool."""
    words = _bit_words(seeds, n_bits)
    raw = words.astype("<u8").view(np.uint8).reshape(len(words), words.shape[1] * 8)
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


_WORD_BLOCK = 1 << 14  # Mersenne Twister words read per block of set-mode rows


def _setsize(k: int) -> int:
    """CPython's Random.sample keeps a pool list when n <= _setsize(k)."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _word_budget(n: int, k: int, b: int) -> int:
    """Words read per set-mode row: the mean plus six standard deviations of
    k trials that each succeed with probability at least q, the chance that a
    word gives a new accepted position while fewer than k are chosen."""
    q = (n - k + 1) / (1 << b)
    return math.ceil((k + 6 * math.sqrt(k * (1 - q))) / q) + 8


def _set_mode_rows(n: int, k: int, seeds: list, positions: np.ndarray) -> list:
    """Fill positions[i] with row i's set-mode sample; 0 < k < n < 2^32.

    Returns the rows whose words ran out.  Each block sorts the keys
    draw * m + word index, so a draw's first occurrence leads its run; the
    row keeps the distinct accepted draws up to the k-th first occurrence.
    """
    b = n.bit_length()
    m = _word_budget(n, k, b)
    at = np.arange(m)
    step = max(1, _WORD_BLOCK // m)
    short = []
    for lo in range(0, len(seeds), step):
        block = seeds[lo : lo + step]
        raw = b"".join(
            [random.Random(seed).getrandbits(32 * m).to_bytes(4 * m, "little") for seed in block]
        )
        keys = np.frombuffer(raw, dtype="<u4").reshape(len(block), m).astype(np.int64)
        keys >>= 32 - b
        # a rejected draw becomes n, past every accepted one
        np.minimum(keys, n, out=keys)
        keys *= m
        keys += at
        keys.sort(axis=1)
        draws, first_at = np.divmod(keys, m)
        first = np.empty(draws.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(draws[:, 1:], draws[:, :-1], out=first[:, 1:])
        first &= draws < n
        # the row ends at its k-th first occurrence in word order; m if none
        cut = np.sort(np.where(first, first_at, m), axis=1)[:, k - 1]
        full = cut < m
        first &= (first_at <= cut[:, None]) & full[:, None]
        positions[lo + np.flatnonzero(full)] = draws[first].reshape(-1, k)
        short.extend((lo + np.flatnonzero(~full)).tolist())
    return short


def sample_rows(pool: np.ndarray | range, k: int, seeds) -> np.ndarray:
    """k distinct entries of pool per seed, each row ascending; shape (len(seeds), k).

    pool is an integer array or a range; a range is never materialized, its
    chosen positions map straight to values.
    """
    n = len(pool)
    if not 0 <= k <= n:
        raise StructuralError(f"cannot sample {k} items from a pool of {n}")
    # exact Python ints: a list mixing seeds below and above 2^63 must not
    # pass through float64
    seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else seeds
    seeds = [operator.index(seed) for seed in seeds]
    positions = np.empty((len(seeds), k), dtype=np.int64)
    if k in (0, n):  # no draw: no position or every position is chosen
        positions[:] = np.arange(k)
        short = ()
    elif n > _setsize(k) and n < 1 << 32:
        short = _set_mode_rows(n, k, seeds, positions)
    else:
        short = range(len(seeds))
    for i in short:
        positions[i] = random.Random(seeds[i]).sample(range(n), k)
    if isinstance(pool, range):
        return np.sort(pool.start + pool.step * positions, axis=1)
    return np.sort(np.asarray(pool, dtype=np.int64)[positions], axis=1)


def sample_without_replacement(pool: np.ndarray | range, k: int, seed: int) -> np.ndarray:
    """k distinct entries of pool, sorted ascending: the one-row case of sample_rows."""
    return sample_rows(pool, k, [seed])[0]
