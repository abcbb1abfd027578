"""Group arithmetic against an independent coordinate-level oracle."""

import tracemalloc

import numpy as np
import pytest

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
