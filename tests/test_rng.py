"""Determinism and reference values for the seeded randomness layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import rng
from cayleysum.errors import StructuralError

from conftest import oracle_sample, oracle_trial_sample


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
            assert row.tolist() == oracle_trial_sample(pool, 5, int(seed))
            assert rng.sample_without_replacement(pool, 5, int(seed)).tolist() == oracle_sample(
                pool, 5, int(seed)
            )
    assert rng.sample_rows(range(5), 2, seeds[:0]).shape == (0, 2)


def test_sample_rows_reads_each_seed_as_an_exact_int():
    # a list mixing small seeds with seeds >= 2^63 must not pass through
    # float64; sample_rows takes each seed mod 2^64, the one-set sampler does not
    rows = rng.sample_rows(range(100), 3, [5, 2**64 - 1, 2**64 + 5, 2**63])
    assert rows.tolist() == [[23, 38, 75], [21, 89, 91], [23, 38, 75], [28, 38, 76]]
    assert rows[1].tolist() == oracle_trial_sample(range(100), 3, 2**64 - 1)
    assert rows[3].tolist() == oracle_trial_sample(range(100), 3, 2**63)
    assert rng.sample_rows(range(100), 3, [3**50])[0].tolist() == oracle_trial_sample(
        range(100), 3, 3**50 % 2**64
    )
    one = rng.sample_without_replacement(range(100), 3, 2**64 - 1)
    assert one.tolist() == [2, 31, 43] == oracle_sample(range(100), 3, 2**64 - 1)
    assert rng.sample_without_replacement(range(100), 3, 3**50).tolist() == oracle_sample(
        range(100), 3, 3**50
    )


_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5, 3**50)


@st.composite
def _sample_cases(draw):
    # k on both sides of n / 2, where a row becomes the complement of its
    # n - k drawn positions, and at 0 and n, where nothing is drawn; n = 3 and
    # 100 reject draws below 2^32 mod n, powers of two reject none
    n = draw(st.sampled_from([1, 2, 3, 22, 100, 277, 1024]))
    k = draw(
        st.one_of(
            st.sampled_from([0, n, n // 2, (n + 1) // 2, n - 1]),
            st.integers(0, 8).map(lambda k: min(k, n)),
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
    want = [oracle_trial_sample(pool, k, seed % 2**64) for seed in seeds]
    # a uint64 array holds each seed mod 2^64 and must give the list's rows
    given_seeds = np.array([seed % 2**64 for seed in seeds], dtype=np.uint64) if as_array else seeds
    rows = rng.sample_rows(pool, k, given_seeds)
    assert rows.shape == (len(seeds), k) and rows.tolist() == want
    # chunks of 1 check each row against its seed alone
    for size in (1, 3, 7):
        chunks = [
            rng.sample_rows(pool, k, given_seeds[lo : lo + size]) for lo in range(0, len(seeds), size)
        ]
        assert np.concatenate(chunks or [rows]).tolist() == want


def test_sample_rows_rejects_draws_below_two_to_the_32_mod_n():
    # 2^32 mod n is 2^31 - 1 for n = 2^31 + 1 and 2^30 for n = 3 * 2^30, so
    # about half and a quarter of the draws are rejected
    seeds = rng.derive_seed_array(9, np.arange(20))
    for n in (2**31 + 1, 3 * 2**30):
        rows = rng.sample_rows(range(-7, n - 7), 5, seeds)
        assert rows.tolist() == [oracle_trial_sample(range(-7, n - 7), 5, int(s)) for s in seeds]


def test_sample_rows_redraws_short_rows_from_a_doubled_budget(monkeypatch):
    # with a first budget of k' = min(k, n - k) words, a row is short unless
    # all of them are new positions; it is drawn again from 2k', 4k', ...
    # words of the same stream, which changes no row
    seeds = rng.derive_seed_array(4, np.arange(40))
    cases = ((22, 5), (100, 64), (1024, 3), (3, 1))
    want = [rng.sample_rows(range(n), k, seeds) for n, k in cases]
    budgets = []
    bit_words = rng._bit_words

    def spy(seeds, n_bits):
        budgets.append((len(seeds), n_bits // 64))
        return bit_words(seeds, n_bits)

    monkeypatch.setattr(rng, "_bit_words", spy)
    rng.sample_rows(range(100), 64, seeds)
    assert budgets == [(40, 2 * 36 + 8)]  # the first budget is 2k' + 8 words
    monkeypatch.setattr(rng, "_first_budget", lambda k: k)
    for (n, k), rows in zip(cases, want):
        budgets.clear()
        got = rng.sample_rows(range(n), k, seeds)
        assert np.array_equal(got, rows)
        assert got.tolist() == [oracle_trial_sample(range(n), k, int(seed)) for seed in seeds]
        # each pass doubles the words and reads only the rows still short
        assert [m for _, m in budgets] == [min(k, n - k) * 2**i for i in range(len(budgets))]
        assert budgets[0][0] == 40
        assert all(a >= b for (a, _), (b, _) in zip(budgets, budgets[1:]))
        assert (len(budgets) > 1) == ((n, k) in ((22, 5), (100, 64)))


def test_sample_rows_frequencies_are_uniform():
    # 12000 rows over z10: each element lies in a k-row with chance k / 10, and
    # each of the 120 sets of size 3 (or 7, drawn as complements) is a row's
    # set with chance 1/120; each tolerance is six standard deviations
    seeds = rng.derive_seed_array(77, np.arange(12_000))
    for k in (3, 7):
        rows = rng.sample_rows(range(10), k, seeds)
        hits = np.bincount(rows.ravel(), minlength=10)
        assert np.abs(hits - 1200 * k).max() < 6 * np.sqrt(12_000 * k / 10 * (1 - k / 10))
        _, counts = np.unique(rows, axis=0, return_counts=True)
        assert len(counts) == 120
        chi2 = float(((counts - 100.0) ** 2 / 100.0).sum())
        assert chi2 < 119 + 6 * np.sqrt(2 * 119)


def test_sample_rows_calls_random_sample_only_in_pool_mode(sample_calls):
    # only the one-set sampler keeps the Mersenne Twister contract, and only its
    # pool-mode sets call Random.sample; trial rows (stream 2) never do
    seeds = [int(seed) for seed in rng.derive_seed_array(5, np.arange(30))]
    for n, k in ((21, 5), (277, 64), (64, 64), (10, 7)):
        rng.sample_rows(range(n), k, seeds)
    # set mode just past the switch, and k == n, make no call
    for n, k in ((22, 5), (278, 64), (1046, 86), (64, 64), (277, 0)):
        for seed in seeds:
            rng.sample_without_replacement(range(n), k, seed)
    assert sample_calls == []
    # pool mode just inside the switch calls once per set
    for n, k in ((21, 5), (277, 64), (1045, 86)):
        for seed in seeds[:2]:
            rng.sample_without_replacement(range(n), k, seed)
    assert sample_calls == [(21, 5)] * 2 + [(277, 64)] * 2 + [(1045, 86)] * 2


def test_sample_rows_rows_out_of_words_take_random_sample(monkeypatch):
    # a one-set draw whose Mersenne Twister words run out falls back to
    # Random.sample; with one spare word most sets run short.  Trial rows that
    # run short redraw instead (test_sample_rows_redraws_short_rows_...)
    monkeypatch.setattr(rng, "_word_budget", lambda n, k, b: k + 1)
    seeds = [int(seed) for seed in rng.derive_seed_array(4, np.arange(40))]
    for n, k in ((22, 5), (278, 64), (1024, 3)):
        got = [rng.sample_without_replacement(range(n), k, seed).tolist() for seed in seeds]
        assert got == [oracle_sample(range(n), k, seed) for seed in seeds]


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
    with pytest.raises(StructuralError, match="fewer than 2\\^32 entries"):
        rng.sample_rows(range(2**32), 1, [1])
