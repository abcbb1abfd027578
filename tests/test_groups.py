"""Group arithmetic against an independent coordinate-level oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum.errors import StructuralError
from cayleysum.groups import DENSE_CAP, GroupSpec, parse_group

from conftest import coords_of, oracle_add, oracle_neg


def test_parse_group_forms():
    assert parse_group("z12").moduli == (12,)
    assert parse_group("12").moduli == (12,)
    assert parse_group("f2^4").moduli == (2, 2, 2, 2)
    assert parse_group("3,4").moduli == (3, 4)
    assert parse_group("Z12").moduli == (12,)  # case-insensitive prefix


def test_parse_group_rejects_garbage():
    for text in ("", "z", "f3^2x", "0", "1", "2,1", "-4"):
        with pytest.raises((StructuralError, ValueError)):
            parse_group(text)


def test_mixed_group_codec_frozen():
    g = parse_group("3,4")
    assert g.strides == (4, 1)  # index 9 is the element (2, 1)
    assert g.order == 12
    assert g.rank == 2
    assert not g.is_exponent_two


def test_codec_roundtrip_full(small_group):
    # indices are laid out row-major by strides: i = sum_c coord_c(i) * stride_c
    g = small_group
    for i in range(g.order):
        coords = coords_of(g.moduli, i)
        assert sum(c * s for c, s in zip(coords, g.strides)) == i


def test_group_axioms(small_group, rnd):
    g = small_group

    def add(i, j):
        return int(g.translate_array(np.array([i]), j)[0])

    for _ in range(200):
        a, b, c = (rnd.randrange(g.order) for _ in range(3))
        ab = add(a, b)
        assert ab == oracle_add(g.moduli, a, b)
        # commutative, associative, identity, inverse
        assert ab == add(b, a)
        assert add(ab, c) == add(a, add(b, c))
        assert add(a, 0) == a
        neg = int(g.neg_array(np.array([a]))[0])
        assert add(a, neg) == 0
        assert neg == oracle_neg(g.moduli, a)


# 2,3,4 puts a digit at a middle stride, which rank 2 never does
_WITH_RANK_THREE = ["z12", "f2^4", "3,5", "2,3,4"]


@pytest.mark.parametrize("small_group", _WITH_RANK_THREE, indirect=True)
def test_vector_ops_match_scalar(small_group, rnd):
    g = small_group
    idx = np.array(sorted(rnd.sample(range(g.order), min(7, g.order))))
    shift = rnd.randrange(g.order)
    assert [int(v) for v in g.neg_array(idx)] == [int(g.neg_array(int(i))) for i in idx]
    # the scalar and vector ops share one code path, so also check them
    # against the independent oracle
    assert [int(v) for v in g.translate_array(idx, shift)] == [
        oracle_add(g.moduli, int(i), shift) for i in idx
    ]
    assert [int(v) for v in g.neg_array(idx)] == [oracle_neg(g.moduli, int(i)) for i in idx]


@pytest.mark.parametrize("small_group", _WITH_RANK_THREE, indirect=True)
def test_pairsum_matrix_matches_oracle(small_group, rnd):
    g = small_group
    x = np.array(sorted(rnd.sample(range(g.order), 5)))
    y = np.array(sorted(rnd.sample(range(g.order), 6)))
    mat = g.pairsum_matrix(x, y)
    assert mat.shape == (5, 6)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            assert mat[i, j] == oracle_add(g.moduli, int(xi), int(yj))


@pytest.mark.parametrize("literal", ["1024,1024", "4,4,4,4,4,4,4,4,4,4"])
def test_group_holds_no_state_of_size_n(literal):
    # at the dense cap, rank x N coordinate tables would take 16 or 80 MB
    g = parse_group(literal)
    idx = np.arange(8, dtype=np.int64)
    tracemalloc.start()
    try:
        g.pairsum_matrix(idx, idx + 8)
        g.translate_array(idx, g.order - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for value in vars(g).values():
        inner = value if isinstance(value, tuple) else (value,)
        assert not any(isinstance(v, np.ndarray) for v in inner)


# 2-groups with bit fields of mixed widths; a field of width 1 has no bits in L
_TWO_GROUPS = ["2,8", "8,2", "4,1024", "2,2,4", "8,2,4,2", "1024,1024", "16,16,16,16"]


@st.composite
def _two_group_pairs(draw):
    g = parse_group(draw(st.sampled_from(_TWO_GROUPS)))
    n = draw(st.integers(1, 12))
    a, b = (draw(st.lists(st.integers(0, g.order - 1), min_size=n, max_size=n)) for _ in "ab")
    return g, a, b


@settings(max_examples=120, deadline=None, database=None)
@given(case=_two_group_pairs())
def test_two_group_masked_add_matches_oracle(case):
    g, a, b = case
    assert g._field_masks is not None
    diffs = [oracle_add(g.moduli, i, oracle_neg(g.moduli, j)) for i, j in zip(a, b)]
    for i, j, d in zip(a, b, diffs):  # ints stay int: callers format them
        total, diff = g._combine(i, j), g._combine(i, j, -1)
        assert type(total) is int and total == oracle_add(g.moduli, i, j)
        assert type(diff) is int and diff == d
    av, bv = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert g._combine(av, bv).tolist() == [oracle_add(g.moduli, i, j) for i, j in zip(a, b)]
    assert g._combine(av, bv, -1).tolist() == diffs
    # neg_array's mixed case: the int 0 minus an index array
    neg = g._combine(0, bv, -1)
    assert neg.dtype == np.int64 and neg.tolist() == [oracle_neg(g.moduli, j) for j in b]


def test_field_masks_mark_each_field():
    # 2,8: one 1-bit field at bit 3 (all H), one 3-bit field at bits 0-2 (H bit 2)
    assert parse_group("2,8")._field_masks == (0b1100, 0b0011)
    assert parse_group("16,16,16,16")._field_masks == (0x8888, 0x7777)
    assert parse_group("z16")._field_masks is None  # a cyclic group adds mod N


@pytest.mark.parametrize("literal", ["6,6,6", "3,9", "2,3"])
def test_non_two_groups_take_the_digit_loop(literal, rnd):
    g = parse_group(literal)
    assert g._field_masks is None
    a, b = rnd.randrange(g.order), rnd.randrange(g.order)
    assert g._combine(a, b) == oracle_add(g.moduli, a, b)
    assert g._combine(a, b, -1) == oracle_add(g.moduli, a, oracle_neg(g.moduli, b))


def test_exponent_two_pairsum_is_xor():
    g = parse_group("f2^5")
    idx = np.arange(g.order)
    mat = g.pairsum_matrix(idx, idx)
    assert np.array_equal(mat, idx[:, None] ^ idx[None, :])


def test_describe():
    d = parse_group("f2^3").describe()
    assert d["order"] == 8
    assert d["moduli"] == [2, 2, 2]
    assert d["exponent_two"] is True


def test_dense_cap_default_and_override(monkeypatch):
    assert parse_group("f2^20").order == DENSE_CAP == 1 << 20
    with pytest.raises(StructuralError):
        parse_group("f2^21")
    # no environment setting moves the cap
    monkeypatch.setenv("CAYLEY_DENSE_CAP", str(1 << 21))
    with pytest.raises(StructuralError):
        parse_group("f2^21")
    # oversized literals are refused with work bounded by the cap: no 80000-tuple,
    # no product of 40000 factors, and no digit-limit ValueError from int()
    for text in ("f2^80000", ",".join(["2"] * 40_000), "z" + "9" * 5000):
        with pytest.raises(StructuralError, match=str(DENSE_CAP)):
            parse_group(text)


def test_group_is_a_frozen_value():
    g = parse_group("z12")
    assert g == GroupSpec([12]) and hash(g) == hash(GroupSpec([12]))
    assert parse_group("3,4") != parse_group("4,3")
    for name in ("moduli", "order", "strides", "is_exponent_two", "rank", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
    assert g.moduli == (12,) and g.order == 12
