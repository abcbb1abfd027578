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

Sets are drawn by one of two contracts.  Each returns, per seed, the entries
of pool at the chosen positions, sorted ascending, and when k == 0 or
k == n = len(pool) it draws nothing: no position or every position is chosen.

* ``sample_rows(pool, k, seeds)``, stream version ``TRIAL_STREAM`` = 2, draws
  the sets of Monte Carlo trials.  Row i reads the words
  w_j = splitmix64((seed_i + (j + 1) * GAMMA) mod 2^64), j = 0, 1, ..., the
  ``_bit_words`` of seed_i taken mod 2^64.  Each word is one draw by
  Lemire's multiply-and-reject on its high half h = w_j >> 32: with the
  64-bit product h * n, the draw is rejected when its low 32 bits fall below
  2^32 mod n, and otherwise gives the position (h * n) >> 32.  So every
  accepted position is exactly uniform on [0, n), for n < 2^32.  The row
  keeps the first k' = min(k, n - k) distinct accepted positions in draw
  order; when k > n / 2 it is the complement of those k' positions.  A row
  depends on its own seed alone, so batching cannot change it.  Each row
  first reads 2k' + 8 words; a row with fewer than k' distinct accepted
  positions among them is drawn again from twice as many words, which extend
  the same stream, so the budget never changes a row.
* ``sample_without_replacement(pool, k, seed)``, the Mersenne Twister
  contract, draws one set: the positions
  ``Random(seed).sample(range(len(pool)), k)``, with the seed read as an
  exact Python int.  It keeps the bytes of the sets it has always drawn:
  scan's X and Y and restriction's X and Y.

``sample_without_replacement`` reads the Mersenne Twister stream in bulk.
CPython's ``sample(range(n), k)`` keeps a pool list when n <= setsize, where
setsize = 21, plus ``4 ** ceil(log(3k, 4))`` when k > 5; otherwise it is in
set mode.  Each set-mode draw is ``getrandbits(b)`` with b = n.bit_length(),
which is the next Mersenne Twister word shifted right by 32 - b; a draw >= n
is rejected and a repeated position is drawn again, so the set is the first k
distinct accepted draws.  ``Random(seed).getrandbits(32 m)`` returns the
seed's first m words, low word first, and numpy picks the first k distinct
accepted draws out of them.  If the m words hold fewer, and in pool mode or
when n >= 2^32, the set is ``Random(seed).sample`` itself.
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
    "TRIAL_STREAM",
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


TRIAL_STREAM = 2  # the version of sample_rows' contract, written into MC configs


def _first_distinct(draws: np.ndarray, n: int, k: int):
    """(full, chosen) for k >= 1: full[i] says whether row i of draws holds k
    distinct values below n, and chosen stacks the first k of each full row,
    ascending.  A draw >= n is rejected."""
    m = draws.shape[1]
    # sorting draw * m + column puts each value's first draw first
    keys = draws * m
    keys += np.arange(m)
    keys.sort(axis=1)
    values, at = np.divmod(keys, m)
    first = np.empty(keys.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
    first &= values < n
    # a row ends at the column of its k-th new value; m if it has fewer
    cut = np.partition(np.where(first, at, m), k - 1, axis=1)[:, k - 1]
    full = cut < m
    first &= (at <= cut[:, None]) & full[:, None]
    return full, values[first].reshape(-1, k)


def _first_budget(k: int) -> int:
    """Words a trial row reads before its first redraw."""
    return 2 * k + 8


def sample_rows(pool: np.ndarray | range, k: int, seeds) -> np.ndarray:
    """k distinct entries of pool per seed, each row ascending; shape (len(seeds), k).

    Trial-set stream 2 (see the module docstring).  seeds is a list of ints
    or an integer array, each taken mod 2^64.  pool is an integer array or a
    range; a range is never materialized, its chosen positions map straight
    to values.
    """
    n = len(pool)
    if not 0 <= k <= n:
        raise StructuralError(f"cannot sample {k} items from a pool of {n}")
    if n >= 1 << 32:
        raise StructuralError(f"trial sets are drawn from pools of fewer than 2^32 entries, got {n}")
    if isinstance(seeds, np.ndarray):
        seeds = seeds.astype(np.uint64, copy=False)
    else:
        seeds = np.array([operator.index(seed) & _MASK for seed in seeds], dtype=np.uint64)
    k_drawn = min(k, n - k)
    drawn = np.empty((len(seeds), k_drawn), dtype=np.int64)
    rows = np.arange(len(seeds) if k_drawn else 0)  # k in {0, n} draws nothing
    m = _first_budget(k_drawn)
    while len(rows):  # a short row is drawn again from twice the words
        products = (_bit_words(seeds[rows], 64 * m) >> np.uint64(32)) * np.uint64(n)
        draws = (products >> np.uint64(32)).astype(np.int64)
        draws[(products & np.uint64(0xFFFFFFFF)) < np.uint64((1 << 32) % n)] = n
        full, chosen = _first_distinct(draws, n, k_drawn)
        drawn[rows[full]] = chosen
        rows = rows[~full]
        m *= 2
    if k_drawn == k:
        return _entries(pool, drawn)
    chosen = np.ones((len(seeds), n), dtype=bool)  # the complement of the drawn positions
    np.put_along_axis(chosen, drawn, False, axis=1)
    return _entries(pool, np.nonzero(chosen)[1].reshape(len(seeds), k))


def _entries(pool: np.ndarray | range, positions: np.ndarray) -> np.ndarray:
    """pool's entries at positions, each row sorted ascending."""
    if isinstance(pool, range):
        return np.sort(pool.start + pool.step * positions, axis=-1)
    return np.sort(np.asarray(pool, dtype=np.int64)[positions], axis=-1)


def _setsize(k: int) -> int:
    """CPython's Random.sample keeps a pool list when n <= _setsize(k)."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _word_budget(n: int, k: int, b: int) -> int:
    """Words read by a set-mode sample: the mean plus six standard deviations
    of k trials that each succeed with probability at least q, the chance that
    a word gives a new accepted position while fewer than k are chosen."""
    q = (n - k + 1) / (1 << b)
    return math.ceil((k + 6 * math.sqrt(k * (1 - q))) / q) + 8


def sample_without_replacement(pool: np.ndarray | range, k: int, seed: int) -> np.ndarray:
    """k distinct entries of pool, sorted ascending, by the Mersenne Twister
    contract (see the module docstring); seed is read as an exact int."""
    n = len(pool)
    if not 0 <= k <= n:
        raise StructuralError(f"cannot sample {k} items from a pool of {n}")
    seed = operator.index(seed)
    if k in (0, n):
        return _entries(pool, np.arange(k))
    if n > _setsize(k) and n < 1 << 32:
        m = _word_budget(n, k, n.bit_length())
        raw = random.Random(seed).getrandbits(32 * m).to_bytes(4 * m, "little")
        draws = np.frombuffer(raw, dtype="<u4").astype(np.int64)[None]
        draws >>= 32 - n.bit_length()
        full, chosen = _first_distinct(draws, n, k)
        if full[0]:
            return _entries(pool, chosen[0])
    return _entries(pool, np.array(random.Random(seed).sample(range(n), k)))
