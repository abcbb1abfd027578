"""Determinism and reference values for the seeded randomness layer."""

import numpy as np
import pytest

from cayleysum import rng
from cayleysum.errors import StructuralError

from conftest import oracle_sample


def test_splitmix_reference_values():
    # first outputs of the published splitmix64 stream for seed 1234567:
    # state += GAMMA, output = finalizer(state)
    state = 1234567
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    for want in expected:
        state = (state + rng.GAMMA) & ((1 << 64) - 1)
        assert rng.splitmix64(state) == want


def test_derive_seed_deterministic_and_spread():
    seeds = [rng.derive_seed(42, i) for i in range(100)]
    assert seeds == [rng.derive_seed(42, i) for i in range(100)]
    assert len(set(seeds)) == 100
    with pytest.raises(ValueError):
        rng.derive_seed(0, -1)


def test_derive_seed_array_matches_scalar():
    arr = rng.derive_seed_array(7, np.arange(50))
    assert [int(v) for v in arr] == [rng.derive_seed(7, i) for i in range(50)]
    offset = rng.derive_seed_array(7, np.arange(10, 20))
    assert [int(v) for v in offset] == [rng.derive_seed(7, i) for i in range(10, 20)]


def test_derive_seed_array_broadcasts_masters():
    masters = rng.derive_seed_array(11, np.arange(6))
    grid = rng.derive_seed_array(masters[:, None], np.arange(3))
    assert grid.shape == (6, 3)
    assert [[int(v) for v in row] for row in grid] == [
        [rng.derive_seed(int(m), j) for j in range(3)] for m in masters
    ]
    assert [int(v) for v in rng.derive_seed_array(masters, np.arange(6))] == [
        rng.derive_seed(int(m), i) for i, m in enumerate(masters)
    ]
    # a negative master is taken mod 2^64, as derive_seed takes it
    assert int(rng.derive_seed_array(-5, [4])[0]) == rng.derive_seed(-5, 4)


def test_sample_rows_matches_scalar_draws():
    seeds = rng.derive_seed_array(2, np.arange(4))
    pools = (range(10, 40), range(40, 10, -3), np.array([9, 2, 7, 30, 4, 11, 5]))
    for pool in pools:
        rows = rng.sample_rows(pool, 5, seeds)
        assert rows.shape == (4, 5) and rows.dtype == np.int64
        for row, seed in zip(rows, seeds):
            assert row.tolist() == oracle_sample(pool, 5, int(seed))
            assert np.array_equal(row, rng.sample_without_replacement(pool, 5, int(seed)))
    assert rng.sample_rows(range(5), 2, seeds[:0]).shape == (0, 2)


def test_bit_matrix_rows_match_bernoulli_bits():
    seeds = rng.derive_seed_array(3, np.arange(5))
    mat = rng.bit_matrix(seeds, 130)
    assert mat.shape == (5, 130)
    for i, s in enumerate(seeds):
        assert np.array_equal(mat[i], rng.bernoulli_bits(int(s), 130))


def test_bits_are_roughly_balanced():
    bits = rng.bernoulli_bits(12345, 100_000)
    frac = bits.mean()
    # 10 sigma corridor around 1/2 for 1e5 fair coins
    assert abs(frac - 0.5) < 10 * 0.5 / np.sqrt(100_000)


def test_bit_slices_are_prefix_stable():
    # asking for fewer bits yields a prefix of the longer stream
    long = rng.bernoulli_bits(99, 200)
    short = rng.bernoulli_bits(99, 64)
    assert np.array_equal(long[:64], short)


def test_sample_without_replacement():
    pool = np.arange(100, 200)
    got = rng.sample_without_replacement(pool, 10, seed=5)
    assert len(got) == 10
    assert len(set(got.tolist())) == 10
    assert np.array_equal(got, np.sort(got))
    assert set(got.tolist()) <= set(pool.tolist())
    again = rng.sample_without_replacement(pool, 10, seed=5)
    assert np.array_equal(got, again)
    with pytest.raises(ValueError):
        rng.sample_without_replacement(np.arange(3), 4, seed=0)


def test_rng_refusals_are_structural_errors():
    with pytest.raises(StructuralError, match="nonnegative"):
        rng.derive_seed(0, -1)
    with pytest.raises(StructuralError, match="cannot sample 4 items from a pool of 3"):
        rng.sample_without_replacement(np.arange(3), 4, seed=0)
    with pytest.raises(StructuralError, match="cannot sample 6 items from a pool of 5"):
        rng.sample_rows(range(5), 6, [1, 2])
