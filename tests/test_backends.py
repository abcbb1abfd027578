"""The two backends of every set-level count, and the cost model between them.

Forcing the dispatch each way runs every count through one backend, and
each must agree with the independent oracles in conftest.  A transform
result that the exactness gate cannot certify must give way to the pairwise
kernel.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import subsets
from cayleysum.decomposition import find_structured_subset
from cayleysum.deviation import (
    edge_count,
    greedy_low_overlap_packing,
    high_deviation_elements,
    row_edge_counts,
)
from cayleysum.groups import DENSE_CAP, parse_group
from cayleysum.harness import run_joint_deviation_mc
from cayleysum.subsets import GroupSubset, additive_energy, rep_function, sumset

from conftest import (
    oracle_energy,
    oracle_packing,
    oracle_rep_counts,
    oracle_sigma_parts,
    oracle_sumset,
)

GROUPS = {name: parse_group(name) for name in ("z12", "3,5", "2,4,8", "6,10", "16,16")}
EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(2, 7), Fraction(1, 2**70))
BACKENDS = ("pairwise", "transform")


def force(mp, backend):
    mp.setattr(subsets, "_transform_cheaper", lambda group, pairs: backend == "transform")


@st.composite
def group_and_sets(draw):
    g = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    index_sets = [
        sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=min_size, max_size=24)))
        for min_size in (0, 1, 1)
    ]
    return g, index_sets


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None, database=None)
@given(case=group_and_sets(), eps=st.sampled_from(EPSILONS))
def test_backend_counts_match_oracles(backend, case, eps):
    g, (a_idx, x_idx, y_idx) = case
    a, x, y = (GroupSubset.from_indices(g, idx) for idx in (a_idx, x_idx, y_idx))
    empty = GroupSubset.empty(g)
    with pytest.MonkeyPatch.context() as mp:
        force(mp, backend)
        for p, q in ((x, y), (y, x), (a, y), (x, empty)):
            p_idx, q_idx = p.to_index_list(), q.to_index_list()
            counts = oracle_rep_counts(g.moduli, p_idx, q_idx)
            values = rep_function(p, q).values
            assert values.dtype == np.int64
            assert {z: int(v) for z, v in enumerate(values) if v} == dict(counts)
            assert set(sumset(p, q).to_index_list()) == oracle_sumset(g.moduli, p_idx, q_idx)
            edges, _ = oracle_sigma_parts(g.moduli, a_idx, p_idx, q_idx)
            assert edge_count(a, p, q) == edges

        rows = row_edge_counts(a, x, y)
        assert rows.dtype == np.int64
        n = len(x_idx)
        kept = []
        for yi, c in zip(y_idx, rows):
            assert c == oracle_sigma_parts(g.moduli, a_idx, x_idx, [yi])[0]
            if abs(2 * int(c) - n) * eps.denominator >= eps.numerator * n:
                kept.append(yi)
        assert high_deviation_elements(a, x, y, eps).to_index_list() == kept

        # the stacked kernel, one indicator row per set, against the oracle row by row
        stack = [a, x, y, empty]
        stacked = subsets._row_counts(g, np.stack([s.bits for s in stack]), x.indices, y.indices)
        assert stacked.shape == (len(stack), len(y_idx)) and stacked.dtype == np.int64
        for s, counts in zip(stack, stacked):
            s_idx = s.to_index_list()
            assert counts.tolist() == [
                oracle_sigma_parts(g.moduli, s_idx, x_idx, [yi])[0] for yi in y_idx
            ]


# the packing's refresh rule, as priced by subsets._recount_ns: (check, refresh) ns
REFRESH_RULES = {
    "every-row": lambda group, width, rows: (1.0, 0.0),
    "never": lambda group, width, rows: (1.0, math.inf),
    "priced": subsets._recount_ns,
}


@st.composite
def packing_case(draw):
    g = draw(st.sampled_from([*GROUPS.values(), parse_group("f2^6")]))
    x_idx, y_idx = (
        sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=min_size, max_size=40)))
        for min_size in (1, 0)
    )
    n = len(x_idx)
    eps = draw(st.sampled_from(EPSILONS))
    if n >= 2 and draw(st.booleans()):  # eps |X| an integer: an overlap can equal the cap
        eps = Fraction(draw(st.integers(1, n // 2)), n)
    return g, x_idx, y_idx, eps


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("rule", sorted(REFRESH_RULES))
@settings(max_examples=40, deadline=None, database=None)
@given(case=packing_case())
def test_packing_matches_oracle(backend, rule, case):
    g, x_idx, y_idx, eps = case
    x, y = (GroupSubset.from_indices(g, idx) for idx in (x_idx, y_idx))
    with pytest.MonkeyPatch.context() as mp:
        force(mp, backend)
        mp.setattr(subsets, "_recount_ns", REFRESH_RULES[rule])
        res = greedy_low_overlap_packing(x, y, eps)
    ys, union, k = oracle_packing(g.moduli, x_idx, y_idx, eps)
    assert (res.ys, res.z.to_index_list(), res.k) == (ys, union, k)


def _under_each_backend(run):
    out = []
    for backend in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            force(mp, backend)
            out.append(run())
    return out


@pytest.mark.parametrize(
    "group, n, ks", [("f2^4", 4, (1, 2)), ("z12", 3, (1, 2)), ("3,5", 5, (1,)), ("2,4,8", 8, (1, 2))]
)
def test_joint_deviation_bytes_equal_under_both_backends(group, n, ks):
    # every chunk's row counts and independence arm are one stacked count
    pairwise, transform = _under_each_backend(
        lambda: run_joint_deviation_mc(group, n=n, ks=ks, trials=300, seed=5).canonical_bytes()
    )
    assert pairwise == transform


@pytest.mark.parametrize(
    "group, sizes", [("z12", (8, 5)), ("3,5", (9, 6)), ("2,4,8", (20, 8)), ("16,16", (40, 9))]
)
def test_exhaustive_finder_report_equal_under_both_backends(group, sizes):
    # the finder's overlap matrix is the stacked count of the translates A + b
    g, (a, b) = _sets(group, sizes, seed=1)
    pairwise, transform = _under_each_backend(lambda: find_structured_subset(a, b).to_json())
    assert pairwise == transform
    chosen = pairwise["subset"]
    assert pairwise["energy"] == oracle_energy(g.moduli, a.to_index_list(), chosen)


def _sets(name, sizes, seed=0):
    g = parse_group(name)
    gen = np.random.default_rng(seed)
    return g, [GroupSubset.from_indices(g, gen.choice(g.order, s, replace=False)) for s in sizes]


def _bump(v, index, by):
    out = v.copy()
    out.flat[index] += by
    return out


@pytest.mark.parametrize(
    "corrupt",
    [
        # rounds to wrong integers with the right total: only the distance check sees it
        lambda v: _bump(_bump(v, 3, 0.6), 4, -0.6),
        # integers again, but the total is off by one
        lambda v: _bump(v, 3, 1.0),
    ],
    ids=["rounding", "total"],
)
def test_gate_falls_back_to_pairwise(monkeypatch, corrupt):
    g, (a, x, y) = _sets("6,10", (30, 12, 9))
    expected_rep = oracle_rep_counts(g.moduli, x.to_index_list(), y.to_index_list())
    expected_rows = [
        oracle_sigma_parts(g.moduli, a.to_index_list(), x.to_index_list(), [yi])[0]
        for yi in y.to_index_list()
    ]
    irfftn = np.fft.irfftn
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(1)
        return corrupt(irfftn(*args, **kwargs))

    force(monkeypatch, "transform")
    monkeypatch.setattr(np.fft, "irfftn", corrupted)
    values = rep_function(x, y).values
    assert {z: int(v) for z, v in enumerate(values) if v} == dict(expected_rep)
    assert edge_count(a, x, y) == oracle_sigma_parts(
        g.moduli, a.to_index_list(), x.to_index_list(), y.to_index_list()
    )[0]
    assert row_edge_counts(a, x, y).tolist() == expected_rows
    assert len(calls) == 3  # every count tried the transform before falling back


def test_a_priori_bound_skips_transform(monkeypatch):
    g, (x, y) = _sets("16,16", (40, 50))
    force(monkeypatch, "transform")
    monkeypatch.setattr(subsets, "_transform_error_bound", lambda order, norm: 0.25)
    monkeypatch.setattr(np.fft, "rfftn", None)  # would raise if called
    assert additive_energy(x, y) == oracle_energy(g.moduli, x.to_index_list(), y.to_index_list())


def test_a_priori_bound_admits_dense_groups():
    # full sets in the largest groups the dense cap allows are far inside 1/4
    for order in (12, 1 << 20, 1 << 24):
        assert subsets._transform_error_bound(order, float(order)) < 1e-5


# (group, |X|, |Y|) of every count in the benchmark's mc and structure
# workloads (largest shapes: sigma-tail tiers up to 64 x 64, restriction
# 64 x 64, decompose |A| <= 352 against |B| <= 32, worst-case at order 16)
# and of every dense cell on an exponent-2 group
PAIRWISE_SHAPES = [
    ("f2^10", 64, 64),
    ("4,4,4,4,4", 64, 64),
    ("f2^8", 64, 64),
    ("4,4,4,4", 64, 64),
    ("z4096", 352, 32),
    ("f2^12", 352, 32),
    ("16,16,16", 352, 32),
    ("f2^4", 16, 16),
    ("z16", 16, 16),
    ("4,4", 16, 16),
    ("2,8", 16, 16),
    ("f2^16", 256, 256),
    ("f2^16", 2304, 2304),
    ("f2^20", 256, 256),
    ("f2^20", 160, 32768),
]
TRANSFORM_SHAPES = [("16,16,16,16", 2304, 2304), ("z65536", 2304, 2304)]


@pytest.mark.parametrize("group, nx, ny", PAIRWISE_SHAPES)
def test_cost_model_keeps_small_and_exponent_two_cells_pairwise(group, nx, ny):
    assert not subsets._transform_cheaper(parse_group(group), nx * ny)


@pytest.mark.parametrize("group, nx, ny", TRANSFORM_SHAPES)
def test_cost_model_takes_transform_for_large_cells(group, nx, ny):
    assert subsets._transform_cheaper(parse_group(group), nx * ny)


def test_energy_of_full_group_at_the_cap():
    # E(G, G) = N^3 = 2^60, the largest energy any pair of sets can have
    g = parse_group("z1048576")
    full = GroupSubset.full(g)
    assert additive_energy(full, full) == g.order**3


def test_dense_cap_keeps_energy_in_int64():
    # E(X, Y) <= min(|X|, |Y|) |X||Y| <= N^3, so an int64 dot product holds it
    assert DENSE_CAP**3 < 2**63
