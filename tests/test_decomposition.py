"""Structured-subset extraction and the iterative energy partition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleysum.decomposition import (
    ENERGY_KEEP_DENOMINATOR,
    EXHAUSTIVE_SUBSET_GUARD,
    energy_partition,
    find_structured_subset,
)
from cayleysum.dissociation import additive_dimension
from cayleysum.errors import GuardError, StructuralError
from cayleysum.groups import parse_group
from cayleysum.subsets import GroupSubset, additive_energy

from conftest import oracle_energy, oracle_greedy_finder, random_nonempty


def _actual_ratio(a: GroupSubset, b: GroupSubset) -> Fraction:
    return Fraction(a.size * b.size**2, additive_energy(a, b))


def _instance(rnd, g, max_b: int):
    b = random_nonempty(rnd, g, max_b)
    lo = b.size
    size_a = rnd.randint(lo, g.order)
    a = GroupSubset.from_indices(g, rnd.sample(range(g.order), size_a))
    return a, b


def test_full_group_extracts_singleton():
    g = parse_group("f2^2")
    full = GroupSubset.full(g)
    report = find_structured_subset(full, full)
    assert report.subset.to_index_list() == [0]
    assert report.dim_value == 0
    assert ENERGY_KEEP_DENOMINATOR * report.energy >= report.input_energy


def test_structured_subset_postcondition(rnd):
    for name in ("z12", "f2^4"):
        g = parse_group(name)
        for _ in range(25):
            a, b = _instance(rnd, g, 8)
            for mode in ("exhaustive", "greedy"):
                rep = find_structured_subset(a, b, mode=mode)
                assert rep.subset.size > 0
                assert set(rep.subset.to_index_list()) <= set(b.to_index_list())
                assert ENERGY_KEEP_DENOMINATOR * rep.energy >= rep.input_energy
                assert rep.energy == additive_energy(a, rep.subset)
                dim = additive_dimension(rep.subset, mode="greedy").value
                assert rep.dim_value >= dim or rep.dim_exact


def test_exhaustive_guard():
    g = parse_group("z16")
    b = GroupSubset.from_indices(g, range(EXHAUSTIVE_SUBSET_GUARD + 1))
    a = GroupSubset.full(g)
    with pytest.raises(GuardError):
        find_structured_subset(a, b)


def test_partition_invariants(rnd):
    checked_multi_step = 0
    for name in ("z12", "f2^4", "3,5"):
        g = parse_group(name)
        for _ in range(12):
            a, b = _instance(rnd, g, min(8, g.order))
            if b.size < 2:
                continue
            k = _actual_ratio(a, b)
            m = k * rnd.choice((2, 4, 8))
            res = energy_partition(a, b, m)

            # exact partition of B
            assert res.structured.is_disjoint(res.residual)
            assert res.structured.union(res.residual).to_index_list() == b.to_index_list()
            # steps partition the structured part
            step_union = GroupSubset.empty(g)
            for st in res.steps:
                assert step_union.is_disjoint(st.extracted)
                step_union = step_union.union(st.extracted)
            assert step_union.to_index_list() == res.structured.to_index_list()

            # halting condition, exactly
            if res.residual.size:
                e_res = additive_energy(a, res.residual)
                assert e_res * m.numerator < a.size * res.residual.size**2 * m.denominator
                assert e_res == res.residual_energy

            # per-step decay <= 31/32
            energies = [st.residual_energy_before for st in res.steps]
            energies.append(res.residual_energy)
            for before, after in zip(energies, energies[1:]):
                assert 32 * after <= 31 * before

            # step bound
            assert len(res.steps) == res.step_count <= res.step_bound

            # kept energy once at least two steps ran
            if res.step_count >= 2:
                checked_multi_step += 1
                assert 32 * res.structured_energy >= res.initial_energy
    assert checked_multi_step >= 1


def test_target_below_actual_ratio_stops_immediately():
    g = parse_group("z12")
    rnd = random.Random(7)
    a, b = _instance(rnd, g, 6)
    while b.size < 2:
        a, b = _instance(rnd, g, 6)
    k = _actual_ratio(a, b)
    res = energy_partition(a, b, k / 2)
    assert res.step_count == 0
    assert res.structured.size == 0
    assert res.residual.to_index_list() == b.to_index_list()


def test_step_bound_formula(rnd):
    # ceil(log_{32/31}(|B| M / K)) + 1 against a float reference
    g = parse_group("f2^4")
    for _ in range(20):
        a, b = _instance(rnd, g, 8)
        if b.size < 2:
            continue
        k = _actual_ratio(a, b)
        m = k * rnd.choice((2, 4, 8))
        res = energy_partition(a, b, m)
        ref = math.ceil(math.log(float(b.size * m / k)) / math.log(32 / 31)) + 1
        assert abs(res.step_bound - ref) <= 1  # float ref may round differently
        assert res.step_count <= res.step_bound


def test_small_b_rejected():
    g = parse_group("z8")
    a = GroupSubset.full(g)
    with pytest.raises(StructuralError):
        energy_partition(a, GroupSubset.from_indices(g, [1]), 4)


FINDER_GROUPS = {name: parse_group(name) for name in ("z12", "3,5", "4,4,4")}


@st.composite
def finder_inputs(draw):
    g = FINDER_GROUPS[draw(st.sampled_from(sorted(FINDER_GROUPS)))]
    b_idx = sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=1, max_size=8)))
    size_a = draw(st.integers(len(b_idx), min(g.order, 20)))
    a_idx = sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=size_a, max_size=size_a)))
    return g, a_idx, b_idx


def _finder_case(g, a_idx, b_idx):
    a, b = GroupSubset.from_indices(g, a_idx), GroupSubset.from_indices(g, b_idx)
    return a, b, oracle_energy(g.moduli, a_idx, b_idx)


# A a subgroup of order 16 and B two cosets' worth of it: E(A, B) = 32 |A|, so
# every singleton keeps exactly 1/32 of the energy
# The second example takes the same A with B = {0, h, -h} (h = index 1) and
# eight elements of the coset 2h + A, no two of them negatives of each other:
# E(A, B) = 16 (3 + 8^2), so the pairs of {0, h, -h} (energy 32) fall short of
# 1/32 of it while the pairs inside the coset (energy 64, dimension 2) and
# {0, h, -h} (energy 48, dimension 1) qualify; the size-3 winner comes after
# size-2 candidates of dimension 2, right at the stop's edge 3 * 3 = 3^2
@settings(max_examples=30, deadline=None, database=None)
@given(case=finder_inputs())
@example(case=(FINDER_GROUPS["4,4,4"], list(range(0, 64, 4)), [0, 1, 4, 5, 8, 9, 12, 13]))
@example(case=(FINDER_GROUPS["4,4,4"], list(range(0, 64, 4)),
               [0, 1, 2, 3, 6, 10, 18, 22, 26, 34, 42]))
def test_exhaustive_finder_matches_brute_force(case):
    g, a_idx, b_idx = case
    a, b, e_ab = _finder_case(g, a_idx, b_idx)
    best = None  # (dim, size, mask, energy) over the qualifying subsets
    for size in range(1, len(b_idx) + 1):
        for members in itertools.combinations(b_idx, size):
            energy = oracle_energy(g.moduli, a_idx, members)
            if ENERGY_KEEP_DENOMINATOR * energy < e_ab:
                continue
            sub = GroupSubset.from_indices(g, members)
            key = (additive_dimension(sub, mode="exact").value, size, sub.mask, energy)
            best = key if best is None else min(best, key)
    report = find_structured_subset(a, b, mode="exhaustive")
    assert report.input_energy == e_ab
    assert (report.dim_value, report.subset.size, report.subset.mask, report.energy) == best


@settings(max_examples=30, deadline=None, database=None)
@given(case=finder_inputs())
def test_greedy_finder_matches_oracle(case):
    g, a_idx, b_idx = case
    a, b, _ = _finder_case(g, a_idx, b_idx)
    picks = oracle_greedy_finder(g.moduli, a_idx, b_idx)
    report = find_structured_subset(a, b, mode="greedy")
    assert report.subset.to_index_list() == sorted(picks)
    assert report.energy == oracle_energy(g.moduli, a_idx, picks)
