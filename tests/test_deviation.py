"""Edge-density deviations, row extraction, packing, and restriction draws."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cayleysum import subsets
from cayleysum.deviation import (
    deviation_packing_pipeline,
    edge_count,
    edge_density_deviation,
    greedy_low_overlap_packing,
    high_deviation_elements,
    random_subset,
    restriction_sample,
    row_edge_counts,
)
from cayleysum.errors import StructuralError
from cayleysum.groups import GroupSpec, parse_group
from cayleysum.subsets import GroupSubset, additive_energy

from conftest import oracle_add, oracle_fair_coins, oracle_sigma_parts, random_nonempty


def _sigma(a, x, y) -> Fraction:
    return edge_density_deviation(a, x, y).sigma


def test_sigma_extremes():
    g = parse_group("z6")
    x = GroupSubset.from_indices(g, [0, 1, 2])
    y = GroupSubset.from_indices(g, [0, 3])
    assert _sigma(GroupSubset.full(g), x, y) == Fraction(1, 2)
    assert _sigma(GroupSubset.empty(g), x, y) == Fraction(-1, 2)


def test_sigma_frozen_quarter():
    g = parse_group("f2^2")
    a = GroupSubset.from_indices(g, [0])
    full = GroupSubset.full(g)
    # each row hits A exactly once: sigma = 1/4 - 1/2
    assert _sigma(a, full, full) == Fraction(-1, 4)


def test_sigma_against_oracle(small_group, rnd):
    g = small_group
    for _ in range(40):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        edges, pairs = oracle_sigma_parts(
            g.moduli, a.to_index_list(), x.to_index_list(), y.to_index_list()
        )
        rep = edge_density_deviation(a, x, y)
        assert rep.edges == edges
        assert rep.sigma == Fraction(edges, pairs) - Fraction(1, 2)
        assert abs(rep.sigma) <= Fraction(1, 2)


def test_edge_count_and_query_consistent(rnd):
    g = parse_group("3,4")
    a = random_nonempty(rnd, g, g.order)
    x = random_nonempty(rnd, g, g.order)
    y = random_nonempty(rnd, g, g.order)
    total = 0
    for xi in x.to_index_list():
        for yi in y.to_index_list():
            total += int(a.bits[oracle_add(g.moduli, xi, yi)])
    assert edge_count(a, x, y) == total


def test_empty_sides_rejected():
    g = parse_group("z4")
    a = GroupSubset.from_indices(g, [0])
    empty = GroupSubset.empty(g)
    x = GroupSubset.from_indices(g, [1])
    with pytest.raises(StructuralError):
        edge_density_deviation(a, empty, x)
    with pytest.raises(StructuralError):
        edge_density_deviation(a, x, empty)


def test_random_subset_reproducible():
    g = parse_group("f2^8")
    s1 = random_subset(g, 1234)
    s2 = random_subset(g, 1234)
    assert s1 == s2
    other = random_subset(g, 1235)
    assert other.to_index_list() != s1.to_index_list()
    # density concentrates near 1/2: 10 sigma corridor for 256 coins
    assert abs(s1.size - 128) < 10 * math.sqrt(256) / 2
    # the documented seed-to-bits formula, also at an order that is not a multiple of 64
    for name, seed in (("f2^8", 1234), ("z100", 7)):
        h = parse_group(name)
        assert random_subset(h, seed).to_index_list() == oracle_fair_coins(seed, h.order)


def test_row_counts_sum_to_edges(small_group, rnd):
    g = small_group
    for _ in range(20):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        counts = row_edge_counts(a, x, y)
        assert counts.shape == (y.size,)
        assert counts.sum() == edge_density_deviation(a, x, y).edges
        for yi, c in zip(y.indices, counts):
            row = GroupSubset.from_indices(g, [int(yi)])
            assert edge_density_deviation(a, x, row).edges == int(c)


def test_weighted_block_identity(small_group, rnd):
    # sigma over Y is the size-weighted mean of sigma over any partition of Y
    g = small_group
    for _ in range(15):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        if y.size < 2:
            continue
        cuts = sorted(rnd.sample(range(1, y.size), rnd.randint(1, y.size - 1)))
        blocks = [GroupSubset.from_indices(g, part) for part in np.split(y.indices, cuts)]
        total = sum(_sigma(a, x, blk) * blk.size for blk in blocks)
        assert total == _sigma(a, x, y) * y.size


def test_high_deviation_rows_exact(small_group, rnd):
    g = small_group
    eps = Fraction(1, 4)
    for _ in range(30):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        rows = high_deviation_elements(a, x, y, eps)
        half = eps / 2
        for yi in y.to_index_list():
            row = GroupSubset.from_indices(g, [yi])
            big = abs(_sigma(a, x, row)) >= half
            assert rows.bits[yi] == big


def test_high_deviation_bignum_epsilon(small_group, rnd):
    # a denominator above 2^63 must not reach int64 arithmetic
    g = small_group
    eps = Fraction(1, 2**70)
    for _ in range(20):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        a_idx, x_idx = a.to_index_list(), x.to_index_list()
        expected = []
        for yi in y.to_index_list():
            edges, n = oracle_sigma_parts(g.moduli, a_idx, x_idx, [yi])
            if abs(2 * edges - n) * eps.denominator >= eps.numerator * n:
                expected.append(yi)
        assert high_deviation_elements(a, x, y, eps).to_index_list() == expected


def test_high_deviation_size_guarantee(small_group, rnd):
    g = small_group
    eps = Fraction(1, 4)
    hits = 0
    for trial in range(200):
        a = random_nonempty(rnd, g, g.order)
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        if abs(_sigma(a, x, y)) < eps:
            continue
        hits += 1
        rows = high_deviation_elements(a, x, y, eps)
        # the extraction keeps at least eps |Y| rows (asserted inside too)
        assert rows.size >= eps * y.size
    assert hits >= 5


def test_packing_conditions_recomputed(rnd):
    for name in ("f2^6", "z16"):
        g = parse_group(name)
        for _ in range(25):
            x = random_nonempty(rnd, g, g.order)
            y = random_nonempty(rnd, g, g.order)
            eps = Fraction(rnd.choice((1, 1, 1)), rnd.choice((2, 3, 4)))
            res = greedy_low_overlap_packing(x, y, eps)
            n = x.size
            union: set = set()
            admitted = set(res.ys)
            for yi in y.to_index_list():
                tr = {oracle_add(g.moduli, e, yi) for e in x.to_index_list()}
                if yi in admitted:
                    assert len(tr & union) * eps.denominator <= eps.numerator * n
                    union |= tr
            assert union == set(res.z.to_index_list())
            # maximality: every rejected row overlaps the final union too much
            for yi in y.to_index_list():
                if yi in admitted:
                    continue
                tr = {oracle_add(g.moduli, e, yi) for e in x.to_index_list()}
                assert len(tr & union) * eps.denominator > eps.numerator * n
            # counting lower bound with the actual energy ratio
            energy = additive_energy(x, y)
            ratio = Fraction(n**2 * y.size, energy)
            assert res.energy == energy
            assert res.energy_ratio == ratio
            assert res.k > eps**2 * y.size * ratio / n
            assert res.k == len(res.ys)


def test_packing_skips_rows_by_stale_bounds(monkeypatch):
    # one translate per row of Y would be 512 here; the union only grows, so a
    # refresh drops the rows whose overlap is already over the cap, and they need none
    g = parse_group("z4096")
    gen = np.random.default_rng(7)
    x, y = (GroupSubset.from_indices(g, gen.choice(g.order, 512, replace=False)) for _ in "xy")
    calls = Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(GroupSpec, "translate_array", counted(GroupSpec.translate_array, "translate"))
    monkeypatch.setattr(subsets, "_row_counts", counted(subsets._row_counts, "refresh"))
    res = greedy_low_overlap_packing(x, y, Fraction(1, 2))
    assert 0 < res.k < y.size
    assert calls["translate"] < y.size // 4
    assert 1 <= calls["refresh"] <= 4


def test_packing_empty_y():
    g = parse_group("z4")
    x = GroupSubset.from_indices(g, [0, 1])
    res = greedy_low_overlap_packing(x, GroupSubset.empty(g), Fraction(1, 2))
    assert res.k == 0 and res.ys == []


@pytest.mark.parametrize(
    "x_group, x_idx, y_group, y_idx",
    [("f2^3", [0, 1, 2], "f2^6", [3, 40, 60]), ("z8", [0, 1], "z64", [])],
)
def test_packing_refuses_sets_of_different_groups(x_group, x_idx, y_group, y_idx):
    x = GroupSubset.from_indices(parse_group(x_group), x_idx)
    y = GroupSubset.from_indices(parse_group(y_group), y_idx)
    with pytest.raises(StructuralError, match="different groups"):
        greedy_low_overlap_packing(x, y, Fraction(1, 2))


def test_pipeline_inequalities(rnd):
    ran = 0
    for name in ("f2^6", "z16"):
        g = parse_group(name)
        for trial in range(300):
            a = random_nonempty(rnd, g, g.order)
            x = random_nonempty(rnd, g, g.order)
            y = random_nonempty(rnd, g, g.order)
            eps = Fraction(1, 4)
            sigma = _sigma(a, x, y)
            res = deviation_packing_pipeline(a, x, y, eps)
            if abs(sigma) < eps:
                assert not res.ok
                continue
            ran += 1
            assert res.ok
            n = x.size
            ratio = Fraction(n**2 * y.size, additive_energy(x, y))
            # k > eps^4 |Y| K / (4 n)
            assert res.packing.k > eps**4 * y.size * ratio / (4 * n)
            assert res.k_floor == eps**4 * y.size * ratio / (4 * n)
            # extracted rows keep an energy-ratio floor K' >= eps K
            y2 = res.extracted
            assert y2.size >= eps * y.size
            ratio2 = Fraction(n**2 * y2.size, additive_energy(x, y2))
            assert ratio2 >= eps * ratio
            assert res.extracted_ratio == ratio2
        if ran == 0:
            continue
    assert ran >= 10


def test_restriction_full_sample_is_trivial():
    g = parse_group("f2^8")
    x = GroupSubset.full(g)
    y = GroupSubset.from_indices(g, [0])
    a = random_subset(g, 77)
    draw = restriction_sample(x, y, 1, seed=5, a=a)
    # K = N here, so both sample sizes clip to the full sets
    assert draw.s_subset.to_index_list() == x.to_index_list()
    assert draw.t_subset.to_index_list() == y.to_index_list()
    assert draw.energy_check is True
    assert draw.deviation_check is True  # sigma difference is exactly zero


def test_restriction_params_formulas(rnd):
    g = parse_group("f2^6")
    for _ in range(20):
        x = random_nonempty(rnd, g, g.order)
        y = random_nonempty(rnd, g, g.order)
        eps = Fraction(1, rnd.choice((1, 2, 3)))
        draw = restriction_sample(x, y, eps, seed=3)
        logn = math.log(g.order)
        ratio = Fraction(x.size**2 * y.size, additive_energy(x, y))
        s_raw = math.ceil(2000.0 * logn / float(eps) ** 4)
        t_raw = math.ceil(float(ratio) * y.size * float(eps) ** 2 / (10.0 * logn))
        assert draw.params.x_sample_size == max(1, min(s_raw, x.size))
        assert draw.params.y_sample_size == max(1, min(t_raw, y.size))
        assert draw.params.energy_ratio == ratio
        assert draw.s_subset.size == draw.params.x_sample_size
        assert draw.t_subset.size == draw.params.y_sample_size
        # subsets come from X and Y
        assert set(draw.s_subset.to_index_list()) <= set(x.to_index_list())
        assert set(draw.t_subset.to_index_list()) <= set(y.to_index_list())


@pytest.mark.parametrize("eps", ["1e-80", "1e-100"])
def test_restriction_sizes_at_tiny_epsilon(eps):
    # 2000 log N / eps^4 is beyond a double at 1e-80, and eps^4 underflows to
    # 0 at 1e-100: either way S is all of X, and T is one element
    g = parse_group("z12")
    x = GroupSubset.from_indices(g, [0, 1, 2, 3, 5, 8])
    y = GroupSubset.from_indices(g, [1, 4, 6, 7, 9])
    draw = restriction_sample(x, y, eps, seed=1)
    assert (draw.params.x_sample_size, draw.params.y_sample_size) == (6, 1)
    assert draw.s_subset.to_index_list() == x.to_index_list()
    assert draw.t_subset.size == 1


def test_restriction_checks_need_a():
    g = parse_group("z8")
    x = GroupSubset.full(g)
    y = GroupSubset.full(g)
    draw = restriction_sample(x, y, Fraction(1, 2), seed=1)
    assert draw.deviation_check is None
    assert isinstance(draw.energy_check, bool)


def test_restriction_deterministic():
    g = parse_group("f2^6")
    x = GroupSubset.from_indices(g, range(32))
    y = GroupSubset.from_indices(g, range(16, 48))
    d1 = restriction_sample(x, y, Fraction(1, 2), seed=9)
    d2 = restriction_sample(x, y, Fraction(1, 2), seed=9)
    assert d1.s_subset.to_index_list() == d2.s_subset.to_index_list()
    assert d1.t_subset.to_index_list() == d2.t_subset.to_index_list()
