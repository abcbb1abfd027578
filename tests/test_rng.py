"""Determinism and reference values for the seeded randomness layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_sample_rows_reads_each_seed_as_an_exact_int():
    # a list mixing small seeds with seeds >= 2^63 must not pass through float64
    rows = rng.sample_rows(range(100), 3, [5, 2**64 - 1])
    assert rows[1].tolist() == [2, 31, 43] == oracle_sample(range(100), 3, 2**64 - 1)
    assert rows[0].tolist() == oracle_sample(range(100), 3, 5)
    assert rng.sample_rows(range(100), 3, [3**50])[0].tolist() == oracle_sample(range(100), 3, 3**50)


_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 3**50)


@st.composite
def _sample_cases(draw):
    # n on both sides of CPython's pool/set switch: setsize is 21 for k <= 5
    # and 277 for 22 <= k <= 85
    n = draw(st.sampled_from([21, 22, 277, 278, 1024]))
    k = draw(
        st.one_of(
            st.sampled_from([0, n]),
            st.integers(0, 8),
            st.integers(60, 90).map(lambda k: min(k, n)),
            st.integers(0, n),
        )
    )
    kind = draw(st.sampled_from(["range", "reversed", "array"]))
    if kind == "range":
        pool = range(draw(st.integers(-50, 50)), 10**6, draw(st.integers(1, 5)))[:n]
    elif kind == "reversed":
        pool = range(draw(st.integers(-50, 50)), -(10**6), -draw(st.integers(1, 5)))[:n]
    else:
        pool = np.random.default_rng(draw(st.integers(0, 99))).integers(-(10**6), 10**6, n)
    seeds = draw(
        st.lists(st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(0, 2**64 - 1)), max_size=12)
    )
    return pool, k, seeds


@settings(max_examples=80, deadline=None, database=None)
@given(case=_sample_cases(), as_array=st.booleans())
def test_sample_rows_matches_oracle_in_both_modes(case, as_array):
    pool, k, seeds = case
    want = [oracle_sample(pool, k, seed) for seed in seeds]
    given_seeds = seeds
    if as_array and all(seed < 2**64 for seed in seeds):
        given_seeds = np.array(seeds, dtype=np.uint64)
    rows = rng.sample_rows(pool, k, given_seeds)
    assert rows.shape == (len(seeds), k) and rows.tolist() == want
    # chunks of 1 check each row against its seed alone
    for size in (1, 3, 7):
        chunks = [
            rng.sample_rows(pool, k, given_seeds[lo : lo + size]) for lo in range(0, len(seeds), size)
        ]
        assert np.concatenate(chunks or [rows]).tolist() == want


def test_sample_rows_calls_random_sample_only_in_pool_mode(sample_calls):
    seeds = rng.derive_seed_array(5, np.arange(30))
    # set mode just past the switch, and k == n, make no call
    for n, k in ((22, 5), (278, 64), (1046, 86), (64, 64), (277, 0)):
        rng.sample_rows(range(n), k, seeds)
    assert sample_calls == []
    # pool mode just inside the switch calls once per row
    for n, k in ((21, 5), (277, 64), (1045, 86)):
        rng.sample_rows(range(n), k, seeds[:2])
    assert sample_calls == [(21, 5)] * 2 + [(277, 64)] * 2 + [(1045, 86)] * 2


def test_sample_rows_rows_out_of_words_take_random_sample(monkeypatch):
    # with one spare word most rows run short and must fall back row by row
    monkeypatch.setattr(rng, "_word_budget", lambda n, k, b: k + 1)
    seeds = rng.derive_seed_array(4, np.arange(40))
    for n, k in ((22, 5), (278, 64), (1024, 3)):
        rows = rng.sample_rows(range(n), k, seeds)
        assert rows.tolist() == [oracle_sample(range(n), k, int(seed)) for seed in seeds]


def test_bit_matrix_rows_match_bernoulli_bits():
    seeds = rng.derive_seed_array(3, np.arange(5))
    for n_bits in (1, 64, 65, 130):
        mat = rng.bit_matrix(seeds, n_bits)
        assert mat.shape == (5, n_bits)
        for i, s in enumerate(seeds):
            assert np.array_equal(mat[i], rng.bernoulli_bits(int(s), n_bits))
        # bit e of a row is bit e mod 64 of its word e // 64
        words = rng._bit_words(seeds, n_bits)
        assert words.shape == (5, -(-n_bits // 64)) and words.dtype == np.uint64
        e = np.arange(n_bits)
        bits = words[:, e // 64] >> (e % 64).astype(np.uint64) & np.uint64(1)
        assert np.array_equal(bits, mat)


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
