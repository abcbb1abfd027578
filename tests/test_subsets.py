"""Subsets, sumsets, representation functions, and additive energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import subsets
from cayleysum.errors import GuardError, StructuralError
from cayleysum.groups import parse_group
from cayleysum.subsets import (
    GroupSubset,
    additive_energy,
    additive_energy_oracle,
    parse_subset,
    rep_function,
    sumset,
)

from conftest import (
    oracle_energy,
    oracle_packed_words,
    oracle_rep_counts,
    oracle_sigma_parts,
    oracle_sumset,
    random_nonempty,
)


def test_subset_is_a_frozen_value():
    g = parse_group("z4")
    bits = np.array([True, False, True, False])
    s = GroupSubset(g, bits)
    bits[1] = True  # the constructor copied the vector
    assert s.to_index_list() == [0, 2]
    assert not s.bits.flags.writeable
    with pytest.raises(ValueError):
        s.bits[1] = True
    for name in ("group", "bits", "indices", "mask", "size", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
    same = GroupSubset.from_indices(parse_group("z4"), [0, 2])
    assert s == same and hash(s) == hash(same)
    assert s != GroupSubset.from_indices(g, [0, 3])
    # equal bits in a different group of the same order are a different subset
    assert s != GroupSubset(parse_group("2,2"), s.bits)


def test_from_indices_dedup_and_order():
    g = parse_group("z10")
    s = GroupSubset.from_indices(g, [5, 1, 5, 3])
    assert s.to_index_list() == [1, 3, 5]
    assert s.size == 3
    assert s.bits[5] and not s.bits[0]


def test_mask_roundtrip():
    g = parse_group("f2^3")
    s = GroupSubset.from_indices(g, [0, 2, 7])
    assert GroupSubset.from_mask(g, s.mask).to_index_list() == [0, 2, 7]
    assert s.mask == (1 << 0) | (1 << 2) | (1 << 7)


def test_mask_roundtrip_random(small_group, rnd):
    g = small_group
    for mask in [0, (1 << g.order) - 1] + [rnd.getrandbits(g.order) for _ in range(50)]:
        s = GroupSubset.from_mask(g, mask)
        assert s.to_index_list() == [i for i in range(g.order) if mask >> i & 1]
        assert s.mask == mask
        assert GroupSubset.from_indices(g, s.indices).mask == mask
    with pytest.raises(StructuralError):
        GroupSubset.from_mask(g, 1 << g.order)
    with pytest.raises(StructuralError):
        GroupSubset.from_mask(g, -1)


def test_full_mask_roundtrip_at_order_2_20():
    g = parse_group("f2^20")
    full = (1 << g.order) - 1
    assert GroupSubset.from_mask(g, full).size == g.order
    assert GroupSubset.full(g).mask == full


def test_set_algebra_matches_python_sets(small_group, rnd):
    g = small_group
    for _ in range(50):
        a = random_nonempty(rnd, g, g.order)
        b = random_nonempty(rnd, g, g.order)
        sa, sb = set(a.to_index_list()), set(b.to_index_list())
        assert set(a.union(b).to_index_list()) == sa | sb
        assert set(a.difference(b).to_index_list()) == sa - sb
        assert a.is_disjoint(b) == sa.isdisjoint(sb)


def test_out_of_range_rejected():
    g = parse_group("z6")
    with pytest.raises(StructuralError):
        GroupSubset.from_indices(g, [0, 6])
    with pytest.raises(StructuralError):
        GroupSubset.from_indices(g, [-1])


@pytest.mark.parametrize(
    "indices, bad",
    [
        ([3, 9, 12, -1], 12),
        ([-1, 12], -1),
        ([2**70, -5], 2**70),
        ([1, 2**63], 2**63),
        (np.array([4, -2, 99]), -2),
        (np.array([5, 2**63], dtype=np.uint64), 2**63),
        ((i for i in (0, 11)), 11),
    ],
)
def test_from_indices_names_first_bad_index(indices, bad):
    # bignum and negative indices raise the same error, never OverflowError or IndexError
    with pytest.raises(StructuralError, match=rf"^index {bad} out of range for group order 10$"):
        GroupSubset.from_indices(parse_group("z10"), indices)


def test_from_indices_input_forms_agree():
    g = parse_group("z10")
    expected = [0, 3, 9]
    for indices in ([9, 0, 3, 3], np.array([9, 0, 3]), np.array([9, 0, 3], dtype=np.uint8),
                    (i for i in (3, 9, 0)), [np.int64(9), 3, 0]):
        assert GroupSubset.from_indices(g, indices).to_index_list() == expected
    assert GroupSubset.from_indices(g, range(0, 10, 3)).to_index_list() == [0, 3, 6, 9]
    for empty in ([], np.array([], dtype=np.int64), np.array([])):
        assert GroupSubset.from_indices(g, empty).size == 0


def test_parse_subset_forms():
    g = parse_group("z8")
    assert parse_subset(g, "[0,1,5]").to_index_list() == [0, 1, 5]
    assert parse_subset(g, "0x2f").to_index_list() == [0, 1, 2, 3, 5]
    assert parse_subset(g, "[]").size == 0
    with pytest.raises(StructuralError):
        parse_subset(g, "[0,99]")


@pytest.mark.parametrize(
    "inserts, bad",
    [
        (((5000, -3), (20000, 2**70), (32770, 1 << 16)), -3),
        (((7, 2**70), (30000, -3), (32770, 1 << 16)), 2**70),
        (((32768, 1 << 16),), 1 << 16),
    ],
)
def test_parse_subset_names_first_bad_index_of_a_long_literal(inserts, bad):
    # the literal's indices reach from_indices as one int64 array, after a
    # range check on the Python ints that names the first bad one in input
    # order; a bignum raises StructuralError, never OverflowError
    g = parse_group("f2^16")
    indices = np.random.default_rng(5).permutation(g.order)[:32768].tolist()
    for position, value in inserts:
        indices.insert(position, value)
    literal = "[" + ",".join(map(str, indices)) + "]"
    with pytest.raises(StructuralError, match=rf"^index {bad} out of range for group order 65536$"):
        parse_subset(g, literal)
    kept = [i for i in indices if 0 <= i < g.order]
    parsed = parse_subset(g, "[" + ",".join(map(str, kept)) + "]")
    assert parsed.to_index_list() == sorted(kept)


def test_sumset_frozen():
    g = parse_group("z8")
    x = GroupSubset.from_indices(g, [1, 2])
    y = GroupSubset.from_indices(g, [3, 6])
    assert sumset(x, y).to_index_list() == [0, 4, 5, 7]


def test_sumset_matches_oracle(small_group, rnd):
    g = small_group
    for _ in range(30):
        x = random_nonempty(rnd, g, 6)
        y = random_nonempty(rnd, g, 6)
        assert set(sumset(x, y).to_index_list()) == oracle_sumset(
            g.moduli, x.to_index_list(), y.to_index_list()
        )


def test_rep_function_frozen():
    g = parse_group("z4")
    x = GroupSubset.from_indices(g, [0, 1])
    r = rep_function(x, x)
    assert r.values.tolist() == [1, 2, 1, 0]
    assert additive_energy(x, x) == 6


def test_energy_full_group_z2():
    g = parse_group("z2")
    full = GroupSubset.full(g)
    assert additive_energy(full, full) == 8


def test_rep_function_matches_oracle(small_group, rnd):
    g = small_group
    for _ in range(20):
        x = random_nonempty(rnd, g, 8)
        y = random_nonempty(rnd, g, 8)
        counts = oracle_rep_counts(g.moduli, x.to_index_list(), y.to_index_list())
        values = rep_function(x, y).values
        assert {z: int(v) for z, v in enumerate(values) if v} == dict(counts)


def test_energy_against_both_oracles(small_group, rnd):
    g = small_group
    for _ in range(40):
        x = random_nonempty(rnd, g, 8)
        y = random_nonempty(rnd, g, 8)
        e = additive_energy(x, y)
        assert e == additive_energy_oracle(x, y)
        assert e == oracle_energy(g.moduli, x.to_index_list(), y.to_index_list())


def test_energy_symmetric_in_arguments(small_group, rnd):
    g = small_group
    for _ in range(20):
        x = random_nonempty(rnd, g, 8)
        y = random_nonempty(rnd, g, 8)
        assert additive_energy(x, y) == additive_energy(y, x)


def test_energy_bounds(small_group, rnd):
    g = small_group
    for _ in range(40):
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        e = additive_energy(x, y)
        assert x.size * y.size <= e <= x.size * y.size * min(x.size, y.size)


def test_energy_full_group_row():
    # against the whole group every translate is uniform: E(G, Y) = N |Y|^2
    for name in ("z12", "f2^4", "3,5"):
        g = parse_group(name)
        full = GroupSubset.full(g)
        y = GroupSubset.from_indices(g, range(0, g.order, 2))
        assert additive_energy(full, y) == g.order * y.size**2


def _sqrt_subadditive(e_union: int, e_x: int, e_y: int) -> bool:
    # sqrt(e_union) <= sqrt(e_x) + sqrt(e_y), squared out in integers
    lhs = e_union - e_x - e_y
    return lhs <= 0 or lhs * lhs <= 4 * e_x * e_y


def test_union_energy_inequalities(small_group, rnd):
    g = small_group
    for _ in range(60):
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        z = random_nonempty(rnd, g, g.order)
        e_union = additive_energy(x.union(y), z)
        e_x, e_y = additive_energy(x, z), additive_energy(y, z)
        assert _sqrt_subadditive(e_union, e_x, e_y)
        if x.is_disjoint(y):
            assert e_union >= e_x + e_y


def test_disjoint_union_superadditive_forced(small_group, rnd):
    g = small_group
    for _ in range(30):
        x = random_nonempty(rnd, g, g.order)
        rest = GroupSubset.full(g).difference(x)
        if rest.size == 0:
            continue
        pick = rnd.sample(rest.to_index_list(), rnd.randint(1, rest.size))
        y = GroupSubset.from_indices(g, pick)
        z = random_nonempty(rnd, g, g.order)
        assert x.is_disjoint(y)
        assert additive_energy(x.union(y), z) >= additive_energy(x, z) + additive_energy(y, z)


def test_empty_inputs_give_zero():
    g = parse_group("z4")
    empty = GroupSubset.empty(g)
    x = GroupSubset.from_indices(g, [0])
    assert additive_energy(empty, x) == 0
    assert rep_function(x, empty).values.sum() == 0
    assert sumset(empty, x).size == 0


def test_oracle_guard():
    g = parse_group("z64")
    big = GroupSubset.full(g)
    # (|X||Y|)^2 = 64^4 = 1.6e7 is fine; push over 1e8 with a bigger group
    g2 = parse_group("z128")
    big2 = GroupSubset.full(g2)
    with pytest.raises(GuardError):
        additive_energy_oracle(big2, big2)
    assert additive_energy_oracle(big, big) == additive_energy(big, big)


@st.composite
def _packed_case(draw):
    # orders above 64, so translates straddle words and the last word is partial
    g = parse_group(draw(st.sampled_from(["z100", "z130", "3,5,7", "f2^7", "4,4,5"])))
    element = st.integers(0, g.order - 1)
    rows = draw(st.lists(st.sets(element), min_size=1, max_size=9))
    x_idx = sorted(draw(st.sets(element, max_size=40)))
    y_idx = draw(st.lists(element, min_size=1, max_size=8))
    return g, rows, x_idx, y_idx


@settings(max_examples=60, deadline=None, database=None)
@given(case=_packed_case())
def test_packed_row_counts_match_oracle(case):
    g, rows, x_idx, y_idx = case
    words = np.array(oracle_packed_words(g.order, rows), dtype=np.uint64)
    counts = subsets._packed_row_counts(
        g, words, np.array(x_idx, dtype=np.int64), np.array(y_idx, dtype=np.int64)
    )
    assert counts.shape == (len(rows), len(y_idx)) and counts.dtype == np.int64
    assert counts.tolist() == [
        [oracle_sigma_parts(g.moduli, s, x_idx, [y])[0] for y in y_idx] for s in rows
    ]
