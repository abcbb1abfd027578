"""Dissociation, spans, dimension, and the low-dimension set count."""

import gc
import itertools
import time
import tracemalloc
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum.dissociation import (
    EXACT_DIMENSION_GUARD,
    SPAN_ENUMERATION_GUARD,
    _closure_insert,
    _coordinates,
    _dimension_at_most,
    _exact_search,
    _gf2_basis_scan,
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
    coords_of,
    oracle_dimension,
    oracle_dissociated,
    oracle_gf2_rank,
    oracle_neg,
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
        assert set(g.neg_array(sp.indices).tolist()) == members
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


# groups where 2e is 0 or -e, so marking e before its closure adds nothing (ROADMAP item 1)
_ORACLE_GROUPS = {name: parse_group(name) for name in ("f2^3", "f2^4", "f2^5", "3,3", "3,3,3")}


@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_exact_dimension_of_larger_sets_matches_the_oracle(data):
    g = _ORACLE_GROUPS[data.draw(st.sampled_from(sorted(_ORACLE_GROUPS)))]
    idx = sorted(data.draw(st.sets(st.integers(0, g.order - 1), min_size=7, max_size=8)))
    dim = oracle_dimension(g.moduli, idx)
    assert additive_dimension(GroupSubset.from_indices(g, idx), "exact").value == dim
    assert [_dimension_at_most(g, tuple(idx), d) for d in range(len(idx) + 1)] == [
        dim <= d for d in range(len(idx) + 1)
    ]


def test_exponent_two_sizes_unguarded():
    g = parse_group("f2^6")
    s = GroupSubset.full(g)
    r = additive_dimension(s, mode="exact")
    assert r.exact and r.value == 6


# every `structure` dim group, plus a cyclic group with elements of order 2 and 3
_CLOSURE_GROUPS = ("z101", "4,4,4", "5,5,5", "z1024", "6,6,6", "3,3,3,3", "z12", "3,9")


@pytest.mark.parametrize("text", ["z12", "2,3,4", "f2^4"])
def test_coordinate_masks_mark_the_zero_digit_blocks(text):
    g = parse_group(text)
    for c, (m, s, r) in enumerate(_coordinates(g.moduli)):
        assert (m, s) == (g.moduli[c], g.strides[c])
        zeros = [i for i in range(g.order) if not any(coords_of(g.moduli, i)[c:])]
        assert r == sum(1 << i for i in zeros)


def _scatter_insert(g, bits, e):
    """Span + {e, -e} by one pair-sum scatter over the span's members."""
    bits[g.pairsum_matrix([e, oracle_neg(g.moduli, e)], np.flatnonzero(bits))] = True


# 2,6 and 4,8 have unequal moduli, 2,3,5 a digit at a middle stride
@pytest.mark.parametrize("text", _CLOSURE_GROUPS + ("2,6", "4,8", "2,3,5", "f2^6"))
def test_mask_closure_equals_scatter(text):
    g = parse_group(text)
    rng = np.random.default_rng(g.order)
    involution = max(x for x in range(g.order) if oracle_neg(g.moduli, x) == x)  # 0 at odd order
    for e in [0, involution, *rng.choice(g.order, 4).tolist()]:
        for _ in range(6):
            bits = rng.random(g.order) < rng.uniform(0.005, 0.5)
            grown = _closure_insert(g, GroupSubset(g, bits).mask, e)
            _scatter_insert(g, bits, e)
            assert np.array_equal(GroupSubset.from_mask(g, grown).bits, bits)


@pytest.mark.parametrize("text", _CLOSURE_GROUPS + ("f2^3", "f2^6", "2,2,2,2,2"))
def test_span_equals_signed_sums(text):
    g = parse_group(text)
    rng = np.random.default_rng(g.order)
    for size in range(1, 8):
        idx = sorted(rng.choice(g.order, size, replace=False).tolist())
        assert set(span(GroupSubset.from_indices(g, idx)).to_index_list()) == oracle_span(g.moduli, idx)


@pytest.mark.parametrize("text", ["f2^1", "f2^4", "f2^6", "f2^10"])
def test_exponent_two_span_equals_the_closure(text):
    # a random base plus XORs of its members, so the set has dependent elements
    g = parse_group(text)
    rng = np.random.default_rng(g.order)
    for size in range(1, 6):
        base = rng.choice(g.order, min(size, g.order), replace=False).tolist()
        idx = sorted({*base, *(base[0] ^ x for x in rng.choice(base, 2).tolist())})
        s = GroupSubset.from_indices(g, idx)
        assert span(s).mask == reduce(partial(_closure_insert, g), s.indices.tolist(), 1)
        assert set(span(s).to_index_list()) == oracle_span(g.moduli, idx)


def test_span_of_a_full_exponent_two_group_is_fast():
    # the span is a subgroup, so only elements outside it are inserted
    g = parse_group("f2^16")
    start = time.perf_counter()
    sp = span(GroupSubset.full(g))
    assert time.perf_counter() - start < 0.5
    assert sp.size == g.order


def test_greedy_dimension_of_a_large_subgroup_is_fast():
    # the span of 2, 4, ..., 2^k is the evens below 2^(k+1) up to sign, so it never
    # fills the group and every one of the 2^19 elements is a membership test
    g = parse_group("z1048576")
    evens = GroupSubset.from_indices(g, np.arange(0, g.order, 2))
    start = time.perf_counter()
    r = additive_dimension(evens, "greedy")
    assert time.perf_counter() - start < 2
    assert r.witness.to_index_list() == [1 << k for k in range(1, 20)]


@pytest.mark.parametrize("text", ["z1048576", "1024,1024"])
def test_memory_bound_at_the_dense_cap(text):
    g = parse_group(text)
    s = GroupSubset.from_indices(g, np.random.default_rng(0).choice(g.order, 12, replace=False))
    tracemalloc.start()
    try:
        additive_dimension(s, "exact")
        span(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 1 MB bool input and N-bit span masks of 128 kB, one per open search node
    assert peak < 4 << 20


def _search_pruned_on_pop(g, elems, stop_at=None):
    """The exact search as an explicit stack, every exclude child pushed and
    pruned only when popped, with no exponent-2 shortcut."""
    n, best = len(elems), _greedy_scan(g, elems)
    if stop_at is not None and len(best) >= stop_at:
        return best[:stop_at]
    stack = [(0, [], 1)]
    while stack:
        i, chosen, mask = stack.pop()
        if len(chosen) > len(best):
            best = chosen
            if stop_at is not None and len(best) >= stop_at:
                break
        if i == n or len(chosen) + (n - i) <= len(best):
            continue
        e = elems[i]
        stack.append((i + 1, chosen, mask))
        if not mask >> e & 1:
            stack.append((i + 1, chosen + [e], _closure_insert(g, mask | 1 << e, e)))
    return best


# sets whose walk beats the greedy witness by two, so stop_at = greedy + 1 ends inside the walk
_GREEDY_PLUS_TWO = {
    "5,5,5": [5, 25, 46, 48, 51, 89, 106, 122],
    "6,6,6": [43, 56, 67, 74, 91, 111, 134, 171, 179, 205],
    "z1024": [37, 182, 252, 345, 534, 662, 740, 796, 934],
}


@pytest.mark.parametrize("text", _CLOSURE_GROUPS + ("f2^6",))
def test_push_time_pruning_keeps_the_witness(text, rnd):
    # the recursive walk, its stop_at exit and the exponent-2 shortcut against the stack
    g = parse_group(text)
    frozen = [_GREEDY_PLUS_TWO[text]] if text in _GREEDY_PLUS_TWO else []
    for elems in frozen + [random_nonempty(rnd, g, 16).to_index_list() for _ in range(30)]:
        for stop_at in (None, *range(1, 8)):
            assert _exact_search(g, elems, stop_at) == _search_pruned_on_pop(g, elems, stop_at)


def _gf2_scan_unskipped(indices):
    basis, witness = [], []
    for v in indices:
        cur = v
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis = sorted(basis + [cur], reverse=True)
            witness.append(v)
    return witness


def test_gf2_complete_basis_skip_keeps_the_witness(rnd):
    for k in range(1, 13):
        for _ in range(20):  # dense sets complete their basis early, sparse ones late or never
            size = rnd.randint(1, 1 << k)
            idx = sorted(rnd.sample(range(1 << k), size))
            assert _gf2_basis_scan(idx) == _gf2_scan_unskipped(idx)
            assert _gf2_basis_scan(np.array(idx)) == _gf2_scan_unskipped(idx)


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
