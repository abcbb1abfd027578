"""Dissociation, spans, dimension, and the low-dimension set count."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum.dissociation import (
    _GATHER_ORDER_LIMIT,
    EXACT_DIMENSION_GUARD,
    SPAN_ENUMERATION_GUARD,
    _closure_insert,
    _dimension_at_most,
    _greedy_scan,
    additive_dimension,
    count_low_dimension_sets,
    is_dissociated,
    span,
)
from cayleysum.errors import GuardError
from cayleysum.groups import parse_group
from cayleysum.subsets import GroupSubset

from conftest import (
    oracle_dimension,
    oracle_dissociated,
    oracle_gf2_rank,
    oracle_span,
    random_nonempty,
)


def test_frozen_examples():
    g = parse_group("z8")
    assert is_dissociated(GroupSubset.from_indices(g, [1, 2]))
    # 1 + 2 - 3 = 0
    assert not is_dissociated(GroupSubset.from_indices(g, [1, 2, 3]))
    assert additive_dimension(GroupSubset.from_indices(g, [1, 2, 3])).value == 2
    # only {-1,0,1} coefficients count: {4} survives even though 4+4 = 0
    assert not is_dissociated(GroupSubset.from_indices(g, [0]))
    assert is_dissociated(GroupSubset.from_indices(g, [4]))
    # 2 + 6 = 0 kills the pair
    assert not is_dissociated(GroupSubset.from_indices(g, [2, 6]))


def test_empty_set():
    g = parse_group("z8")
    empty = GroupSubset.empty(g)
    assert is_dissociated(empty)
    r = additive_dimension(empty)
    assert r.value == 0 and r.exact
    assert span(empty).to_index_list() == [0]


def test_span_frozen():
    g5 = parse_group("z5")
    assert span(GroupSubset.from_indices(g5, [1])).to_index_list() == [0, 1, 4]
    g7 = parse_group("z7")
    assert span(GroupSubset.from_indices(g7, [1, 2])).size == 7


def test_span_properties(small_group, rnd):
    g = small_group
    for _ in range(20):
        s = random_nonempty(rnd, g, 5)
        sp = span(s)
        assert sp.bits[0]
        members = set(sp.to_index_list())
        assert set(s.to_index_list()) <= members
        assert {g.neg_index(i) for i in members} == members
        assert members == oracle_span(g.moduli, s.to_index_list())


def test_dissociated_iff_extension_outside_span(small_group, rnd):
    g = small_group
    for _ in range(30):
        s = random_nonempty(rnd, g, 5)
        assert is_dissociated(s) == oracle_dissociated(g.moduli, s.to_index_list())


def test_exponent_two_rank_agreement(rnd):
    g = parse_group("f2^5")
    for _ in range(50):
        s = random_nonempty(rnd, g, 8)
        idx = s.to_index_list()
        assert is_dissociated(s) == (oracle_gf2_rank(idx) == len(idx))
        assert additive_dimension(s).value == oracle_gf2_rank(idx)


def test_exhaustive_small_cyclic():
    g = parse_group("z6")
    for mask in range(1 << 6):
        s = GroupSubset.from_mask(g, mask)
        assert is_dissociated(s) == oracle_dissociated(g.moduli, s.to_index_list())


def test_dimension_exact_vs_bruteforce(small_group, rnd):
    g = small_group
    for _ in range(15):
        s = random_nonempty(rnd, g, 6)
        r = additive_dimension(s, mode="exact")
        assert r.exact
        assert r.value == oracle_dimension(g.moduli, s.to_index_list())
        assert is_dissociated(r.witness)
        assert set(r.witness.to_index_list()) <= set(s.to_index_list())
        assert r.witness.size == r.value


def test_dimension_greedy_is_sound(small_group, rnd):
    g = small_group
    for _ in range(15):
        s = random_nonempty(rnd, g, 6)
        greedy = additive_dimension(s, mode="greedy")
        exact = additive_dimension(s, mode="exact")
        assert greedy.value <= exact.value
        assert is_dissociated(greedy.witness)
        # maximality: no remaining element extends the witness
        w = set(greedy.witness.to_index_list())
        for e in s.to_index_list():
            if e in w:
                continue
            extended = GroupSubset.from_indices(g, sorted(w | {e}))
            assert not is_dissociated(extended)


def test_count_low_dimension_frozen():
    g = parse_group("f2^3")
    res = count_low_dimension_sets(g, n=5, d=1)
    assert res.enumerated
    assert res.exact == 15
    assert res.exact <= res.bound
    assert res.bound <= np.exp(10).item() * (1 + 1e-12)


def test_count_matches_direct_enumeration():
    g = parse_group("z5")
    # every nonempty X with |X| <= 3 and dim(X) <= 1, counted directly
    direct = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(range(5), size):
            if oracle_dimension(g.moduli, combo) <= 1:
                direct += 1
    res = count_low_dimension_sets(g, n=3, d=1)
    assert res.enumerated and res.exact == direct


def test_guards_outside_exponent_two():
    g = parse_group("z128")
    big = GroupSubset.from_indices(g, range(SPAN_ENUMERATION_GUARD + 1))
    with pytest.raises(GuardError):
        span(big)
    # the greedy scan of is_dissociated takes any size (it holds 0)
    assert is_dissociated(big) is False
    medium = GroupSubset.from_indices(g, range(1, EXACT_DIMENSION_GUARD + 2))
    with pytest.raises(GuardError):
        additive_dimension(medium, mode="exact")
    assert additive_dimension(medium, mode="greedy").value >= 1


_LARGE_SET_GROUPS = {name: parse_group(name) for name in ("z1009", "5,5,5")}


@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_dissociation_above_the_span_guard_is_the_greedy_scan(data):
    # sets above SPAN_ENUMERATION_GUARD: no guard, one answer with greedy dim
    g = _LARGE_SET_GROUPS[data.draw(st.sampled_from(sorted(_LARGE_SET_GROUPS)))]
    idx = data.draw(st.sets(st.integers(0, g.order - 1), min_size=25, max_size=40))
    s = GroupSubset.from_indices(g, sorted(idx))
    assert is_dissociated(s) == (additive_dimension(s, mode="greedy").value == s.size)


def test_exponent_two_sizes_unguarded():
    g = parse_group("f2^6")
    s = GroupSubset.full(g)
    r = additive_dimension(s, mode="exact")
    assert r.exact and r.value == 6


# every `structure` dim group, plus a cyclic group with elements of order 2 and 3
_CLOSURE_GROUPS = ("z101", "4,4,4", "5,5,5", "z1024", "6,6,6", "3,3,3,3", "z12", "3,9")


def _scatter_insert(g, bits, e):
    """Span + {e, -e} by one pair-sum scatter: the closure before gather tables."""
    bits[g.pairsum_matrix([e, g.neg_index(e)], np.flatnonzero(bits))] = True


def _reinsert(g, elems, rounds, seed):
    """Insert each of elems `rounds` times into random spans; check every result against the scatter."""
    rng = np.random.default_rng(seed)
    tables: dict = {}
    for _ in range(rounds):
        for e in elems:
            bits = rng.random(g.order) < rng.uniform(0.005, 0.5)
            expect = bits.copy()
            _scatter_insert(g, expect, e)
            _closure_insert(g, bits, e, tables)
            assert np.array_equal(bits, expect)
    return tables


@pytest.mark.parametrize("text", _CLOSURE_GROUPS)
def test_gather_closure_equals_scatter(text):
    g = parse_group(text)
    involution = max(x for x in range(g.order) if g.neg_index(x) == x)  # 0 at odd order
    elems = [*np.random.default_rng(g.order).choice(g.order, 3).tolist(), involution]
    tables = _reinsert(g, elems, 12, g.order)
    # the early inserts scattered; the tables the later ones gathered through
    assert {e: len(tables[e]) for e in elems} == {e: 1 + (g.neg_index(e) != e) for e in elems}


@pytest.mark.parametrize("text", _CLOSURE_GROUPS)
def test_span_equals_signed_sums(text):
    g = parse_group(text)
    rng = np.random.default_rng(g.order)
    for size in range(1, 8):
        idx = sorted(rng.choice(g.order, size, replace=False).tolist())
        assert set(span(GroupSubset.from_indices(g, idx)).to_index_list()) == oracle_span(g.moduli, idx)


@pytest.mark.parametrize("text", ["16,16,16", "z8192"])
def test_tables_only_below_the_order_limit(text):
    g = parse_group(text)
    tables = _reinsert(g, [1, 2 * g.order // 3], 12, 5)
    assert all(isinstance(t, tuple) for t in tables.values()) == (g.order <= _GATHER_ORDER_LIMIT)


@pytest.mark.parametrize("text", ["z101", "6,6,6", "z1024"])
def test_one_pass_scan_builds_no_tables(text):
    g = parse_group(text)
    tables: dict = {}
    s = GroupSubset.from_indices(g, np.random.default_rng(1).choice(g.order, 12, replace=False))
    _greedy_scan(s, tables)
    assert tables and all(isinstance(n, int) for n in tables.values())


@pytest.mark.parametrize("text", ["z1048576", "1024,1024"])
def test_memory_bound_at_the_dense_cap(text):
    g = parse_group(text)
    s = GroupSubset.from_indices(g, np.random.default_rng(0).choice(g.order, 12, replace=False))
    g._coord_tables  # the group's own codec tables (16 MB at rank 2) outlive any one search
    tracemalloc.start()
    try:
        additive_dimension(s, "exact")
        span(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 6.6 and 11.1 MB by the scatter alone; one element's gather tables would add 16 MB,
    # which the order limit rules out
    assert peak < 16 << 20


def test_exact_search_leaves_no_cyclic_garbage():
    g = parse_group("5,5,5")
    s = GroupSubset.from_indices(g, [1, 7, 30, 44, 61, 90, 101, 120])
    gc.collect()
    gc.disable()
    try:
        additive_dimension(s, "exact")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the exact search marks e before its closure, which adds 2e; "
    "the fix waits for a re-record of the structure references",
)
def test_exact_dimension_counts_signed_sums_only():
    g = parse_group("z12")
    idx = (0, 3, 4, 7, 11)
    assert oracle_dimension(g.moduli, idx) == 3  # {3, 7, 11}
    found = additive_dimension(GroupSubset.from_indices(g, idx), "exact").value
    assert (found, _dimension_at_most(g, idx, 2)) == (3, False)
