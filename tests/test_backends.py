"""The two backends of every set-level count, and the cost model between them.

Forcing the dispatch each way runs every count through one backend, and
each must agree with the independent oracles in conftest.  On groups of
exponent 2 the transform is the Walsh–Hadamard one, exact a priori; on every
other group an rfftn result that the exactness gate cannot certify must give
way to the pairwise kernel.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import subsets
from cayleysum.decomposition import energy_partition, find_structured_subset
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
    oracle_packed_words,
    oracle_packing,
    oracle_rep_counts,
    oracle_sigma_parts,
    oracle_sumset,
)

GROUPS = {
    name: parse_group(name) for name in ("z12", "3,5", "2,4,8", "6,10", "16,16", "f2^5", "2,2,2")
}
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

        # the packed kernel, one row of words per set, against the oracle row by row;
        # it takes no backend, so both settings must give the same counts
        stack = [a, x, y, empty]
        words = np.array(
            oracle_packed_words(g.order, [s.to_index_list() for s in stack]), dtype=np.uint64
        )
        stacked = subsets._packed_row_counts(g, words, x.indices, y.indices)
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
    # the packing that picks the rows takes either backend; the row counts
    # and the independence arm are popcounts, which take none
    pairwise, transform = _under_each_backend(
        lambda: run_joint_deviation_mc(group, n=n, ks=ks, trials=300, seed=5).canonical_bytes()
    )
    assert pairwise == transform


@pytest.mark.parametrize(
    "group, sizes", [("z12", (8, 5)), ("3,5", (9, 6)), ("2,4,8", (20, 8)), ("16,16", (40, 9))]
)
def test_exhaustive_finder_report_equal_under_both_backends(group, sizes):
    # both finders and the partition loop read every energy off B's overlap
    # matrix |A ∩ (A + b' - b)|, one row count of A over the differences b' - b
    g, (a, b) = _sets(group, sizes, seed=1)
    for mode in ("exhaustive", "greedy"):
        pairwise, transform = _under_each_backend(
            lambda: find_structured_subset(a, b, mode=mode).to_json()
        )
        assert pairwise == transform
        chosen = pairwise["subset"]
        assert pairwise["energy"] == oracle_energy(g.moduli, a.to_index_list(), chosen)
        pairwise, transform = _under_each_backend(
            lambda: energy_partition(a, b, 64, mode=mode).to_json()
        )
        assert pairwise == transform
        e_ab = oracle_energy(g.moduli, a.to_index_list(), b.to_index_list())
        assert pairwise["initial_energy"] == e_ab


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


def _transform_error_bound(order: int, norm_product: float) -> float:
    """A priori bound on max |computed - exact| of a float64 FFT convolution.

    Percival's bound (Math. Comp. 72, 2003), built on the per-transform
    analysis in Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 24: norm_product ((1+u)^(3L) (1+u sqrt 5)^(3L+1) (1+u)^(3L) - 1)
    for the unit roundoff u, L radix-2 stages and twiddle factors accurate to
    u.  L is taken as twice ceil(log2 N) plus 2, to cover mixed-radix passes
    and Bluestein's padded transforms of length below 4m.
    """
    u = 2.0**-53
    stages = 2 * math.ceil(math.log2(order)) + 2
    log_growth = 6 * stages * math.log1p(u) + (3 * stages + 1) * math.log1p(math.sqrt(5) * u)
    return norm_product * math.expm1(log_growth)


def test_a_priori_bound_admits_dense_groups():
    # full sets in the largest groups the dense cap allows are far inside 1/4,
    # which is why _exact_convolution does not check the bound per call
    assert 6e-8 < _transform_error_bound(1 << 20, float(1 << 20)) < 6.3e-8
    for order in (12, 1 << 20, 1 << 24):
        assert _transform_error_bound(order, float(order)) < 1e-5


# (group, |X|, |Y|) of every count in the benchmark's mc and structure
# workloads (largest shapes: sigma-tail tiers up to 64 x 64, restriction
# 64 x 64, decompose |A| <= 352 against |B| <= 32, worst-case at order 16),
# and the small dense cells and f2^20 dense cells, whose Walsh–Hadamard
# convolution costs as much as their pairs
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
    ("f2^20", 256, 256),
    ("f2^20", 160, 32768),
]
TRANSFORM_SHAPES = [("16,16,16,16", 2304, 2304), ("z65536", 2304, 2304), ("f2^16", 2304, 2304)]


@pytest.mark.parametrize("group, nx, ny", PAIRWISE_SHAPES)
def test_cost_model_keeps_small_and_exponent_two_cells_pairwise(group, nx, ny):
    assert not subsets._transform_cheaper(parse_group(group), nx * ny)


@pytest.mark.parametrize("group, nx, ny", TRANSFORM_SHAPES)
def test_cost_model_takes_transform_for_large_cells(group, nx, ny):
    assert subsets._transform_cheaper(parse_group(group), nx * ny)


def test_energy_of_full_group_at_the_cap():
    # E(G, G) = N^3 = 2^60, the largest energy any pair of sets can have; in
    # f2^20 the Walsh–Hadamard inverse sums N^2 = 2^40, its a priori bound
    for name in ("z1048576", "f2^20"):
        g = parse_group(name)
        full = GroupSubset.full(g)
        assert subsets._transform_cheaper(g, g.order**2)
        assert additive_energy(full, full) == g.order**3


def test_dense_cap_keeps_energy_in_int64():
    # E(X, Y) <= min(|X|, |Y|) |X||Y| <= N^3, so an int64 dot product holds it
    assert DENSE_CAP**3 < 2**63


def _oracle_walsh_hadamard(v):
    # the Sylvester matrix entry by entry: (-1)^popcount(s & x)
    idx = np.arange(v.shape[-1])
    signs = (-1.0) ** np.bitwise_count(idx[:, None] & idx[None, :])
    return v @ signs


@pytest.mark.parametrize("bits", [1, 4, 5, 6, 9, 10, 16])
def test_walsh_hadamard_gemms_stay_single_threaded(monkeypatch, bits):
    # OpenBLAS splits a GEMM of more than _GEMM_MNK multiply-adds across threads
    sizes = []
    matmul = np.matmul

    def recorded(a, b, **kwargs):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    v = np.random.default_rng(bits).integers(0, 2, size=(3, 1 << bits)).astype(np.float64)
    w = subsets._walsh_hadamard(v.copy())
    assert sizes and max(sizes) <= subsets._GEMM_MNK
    if bits <= 10:
        assert np.array_equal(w, _oracle_walsh_hadamard(v))
    else:  # W(W(v)) = N v
        assert np.array_equal(subsets._walsh_hadamard(w) / (1 << bits), v)


@pytest.mark.parametrize("group", ["f2^3", "f2^10", "4,4,4"])
def test_stacked_rows_equal_under_both_backends(group):
    # the stacks of the Monte Carlo chunks: one pair (X_i, Y_i) per row
    g = parse_group(group)
    gen = np.random.default_rng(7)
    rows, nx, ny = 6, min(g.order, 20), min(g.order, 7)
    xs = np.stack([gen.choice(g.order, nx, replace=False) for _ in range(rows)])
    ys = np.stack([gen.choice(g.order, ny, replace=False) for _ in range(rows)])
    pairwise, transform = _under_each_backend(lambda: subsets._rep_rows(g, xs, ys))
    assert transform.dtype == np.int64 and np.array_equal(pairwise, transform)
    for r, x, y in zip(transform, xs, ys):
        assert {z: int(v) for z, v in enumerate(r) if v} == dict(
            oracle_rep_counts(g.moduli, x.tolist(), y.tolist())
        )


def test_index_list_holds_python_ints():
    # the serializer passes a value through only when type(v) is exactly int
    g = parse_group("f2^20")
    s = GroupSubset.from_indices(g, np.random.default_rng(3).choice(g.order, 500, replace=False))
    listed = s.to_index_list()
    assert listed == sorted(int(i) for i in s.indices)
    assert all(type(v) is int for v in listed)


# ---- the three energy routes and their chooser ----

ENERGY_ROUTES = ("rep", "sort", "parseval")


def force_route(mp, route):
    """Make subsets._energy_route name `route` for every energy."""
    assert route in ENERGY_ROUTES
    mp.setattr(subsets, "_energy_route", lambda group, nx, ny: route)


def _route_calls(mp):
    """Record (route, |X|, |Y|) of each energy that sorts or takes Parseval; r_{X+Y} records none."""
    calls = []
    for route, name in (("sort", "_sorted_energy"), ("parseval", "_parseval_energy")):

        def recorded(group, xi, yi, route=route, run=getattr(subsets, name)):
            calls.append((route, len(xi), len(yi)))
            return run(group, xi, yi)

        mp.setattr(subsets, name, recorded)
    return calls


def _forced_energy(route, x, y):
    with pytest.MonkeyPatch.context() as mp:
        force_route(mp, route)
        calls = _route_calls(mp)
        energy = additive_energy(x, y)
    assert calls == ([] if route == "rep" else [(route, x.size, y.size)])
    return energy


@settings(max_examples=60, deadline=None, database=None)
@given(bits=st.integers(3, 6), data=st.data())
def test_parseval_energy_matches_the_oracle(bits, data):
    g = parse_group(f"f2^{bits}")
    x, y = (
        GroupSubset.from_indices(g, data.draw(st.sets(st.integers(0, g.order - 1), max_size=14)))
        for _ in range(2)
    )
    assert _forced_energy("parseval", x, y) == subsets.additive_energy_oracle(x, y)


@pytest.mark.parametrize("nx, ny", [(160, 32768), (2304, 2304)])
def test_parseval_energy_matches_pairwise_at_order_2_20(nx, ny):
    g, (x, y) = _sets("f2^20", (nx, ny), seed=4)
    by_parseval = _forced_energy("parseval", x, y)
    with pytest.MonkeyPatch.context() as mp:
        force(mp, "pairwise")
        assert _forced_energy("rep", x, y) == by_parseval


def _subgroup_and_coset(g, half):
    h = GroupSubset.from_indices(g, np.arange(half))
    return h, GroupSubset.from_indices(g, np.arange(half, 2 * half))


@pytest.mark.parametrize(
    "x_size, y_size, parseval",
    [
        (20642, 20642, True),  # 2^20 * 20642^3 < 2^63
        (20643, 20643, False),  # 2^20 * 20643^3 >= 2^63
        (20643, 20642, True),  # min(|X|, |Y|) |X||Y| = 20642 * 20643 * 20642
        (1 << 19, 1 << 19, False),  # the two halves of f2^20: N |X|^3 = 2^77
    ],
)
def test_parseval_route_stays_below_the_int64_guard(x_size, y_size, parseval):
    # named by the chooser, the route is still taken only while every int64
    # partial sum, at most N |X||Y| min(|X|, |Y|), is below 2^63
    g = parse_group("f2^20")
    gen = np.random.default_rng(x_size + y_size)
    if x_size == 1 << 19:
        x, y = _subgroup_and_coset(g, x_size)  # E(H, H + c) = |H|^3
        expected = x_size**3
    else:
        x, y = (GroupSubset.from_indices(g, gen.choice(g.order, s, replace=False))
                for s in (x_size, y_size))
        expected = subsets._squared_norms(rep_function(x, y).values[None])[0]
    with pytest.MonkeyPatch.context() as mp:
        force_route(mp, "parseval")
        calls = _route_calls(mp)
        assert additive_energy(x, y) == expected
    assert calls == ([("parseval", x_size, y_size)] if parseval else [])


def test_float32_walsh_hadamard_is_exact_at_order_2_20():
    # W(1_G) = N delta_0: the largest partial sums, N = 2^20 < 2^24, are exact in float32
    n = 1 << 20
    stack = np.ones((2, n), dtype=np.float32)
    stack[1] = np.random.default_rng(6).integers(0, 2, n)
    in_float64 = subsets._walsh_hadamard(stack[1:].astype(np.float64))
    w = subsets._walsh_hadamard(stack)
    assert w.dtype == np.float32
    assert w[0, 0] == n and not w[0, 1:].any()
    assert np.array_equal(w[1:], in_float64)
    small = np.random.default_rng(7).integers(0, 2, size=(2, 1 << 7)).astype(np.float32)
    assert np.array_equal(subsets._walsh_hadamard(small.copy()), _oracle_walsh_hadamard(small))


def _traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parseval_route_allocates_no_n_sized_int64_vector():
    # the float32 stack and its spare are 16 MB at N = 2^20; an int64 or
    # float64 vector of length N would add 8 MB more
    g, (x, y) = _sets("f2^20", (160, 32768), seed=8)
    peak = _traced_peak(lambda: subsets._parseval_energy(g, x.indices, y.indices))
    assert peak < 2 * 2 * 4 * g.order + (4 << 20)


SORT_GROUPS = ("f2^1", "f2^3", "f2^6", "z2", "z7", "z30", "3,9", "2,4,8", "2,3,4,5")


@settings(max_examples=80, deadline=None, database=None)
@given(name=st.sampled_from(SORT_GROUPS), data=st.data())
def test_sorted_energy_matches_both_oracles(name, data):
    g = parse_group(name)
    members = st.sets(st.integers(0, g.order - 1), max_size=min(g.order, 20))
    x_idx = sorted(data.draw(members))
    y_idx = x_idx if data.draw(st.booleans()) else sorted(data.draw(members))
    x, y = GroupSubset.from_indices(g, x_idx), GroupSubset.from_indices(g, y_idx)
    energy = _forced_energy("sort", x, y)
    assert energy == oracle_energy(g.moduli, x_idx, y_idx)
    assert energy == subsets.additive_energy_oracle(x, y)


@pytest.mark.parametrize("name", SORT_GROUPS)
def test_sorted_energy_of_empty_singleton_and_equal_sets(name):
    g = parse_group(name)
    some = GroupSubset.from_indices(g, range(0, g.order, 2))
    for x, y in [
        (GroupSubset.empty(g), some),
        (some, GroupSubset.empty(g)),
        (GroupSubset.empty(g), GroupSubset.empty(g)),
        (GroupSubset.from_indices(g, [g.order - 1]), some),  # r is 0 or 1: E = |Y|
        (GroupSubset.from_indices(g, [0]), GroupSubset.from_indices(g, [g.order - 1])),
        (some, some),
        (GroupSubset.full(g), GroupSubset.full(g)),  # E(G, G) = N^3
    ]:
        energy = _forced_energy("sort", x, y)
        assert energy == oracle_energy(g.moduli, x.to_index_list(), y.to_index_list())
    assert energy == g.order**3


@pytest.mark.parametrize("name", ["f2^20", "z1048576", "16,16,16,16"])
def test_sorted_energy_matches_pairwise_at_the_pair_cap(name):
    # 1024 x 1024 = _SORT_PAIRS_CAP sums, the most the route holds; the
    # pairwise r_{X+Y} shares only the combine with it
    g, (x, y) = _sets(name, (1024, 1024), seed=5)
    assert x.size * y.size == subsets._SORT_PAIRS_CAP
    with pytest.MonkeyPatch.context() as mp:
        force(mp, "pairwise")
        assert _forced_energy("sort", x, y) == _forced_energy("rep", x, y)


def test_sort_route_allocates_no_n_sized_vector():
    # 256 x 256 sums are 0.5 MB of int64; a vector of length N = 2^20 is 8 MB
    g, (x, y) = _sets("f2^20", (256, 256), seed=8)
    peak = _traced_peak(lambda: subsets._sorted_energy(g, x.indices, y.indices))
    assert peak < 4 * 8 * x.size * y.size < 8 * g.order // 2


def test_sort_route_is_capped_in_pairs(monkeypatch):
    # priced at the combine alone, sorting beats r_{X+Y} and its N-sized
    # floor at any size, so only the cap keeps it off larger cells
    monkeypatch.setattr(subsets, "_SORT_NS_PER_CALL", 0)
    monkeypatch.setattr(subsets, "_SORT_NS_PER_PAIR", 0)
    for name in ("z1048576", "f2^20"):
        g = parse_group(name)
        assert subsets._energy_route(g, 1024, 1024) == "sort"
        assert subsets._energy_route(g, 1024, 1025) != "sort"


@pytest.mark.parametrize("name", ["z4096", "f2^12", "16,16,16", "z1024", "4,4,4,4,4", "f2^4"])
def test_small_groups_never_sort(name):
    # below about 6700 elements the N-sized floor costs less than a sort call,
    # so the structure workload's energies keep r_{X+Y} or Parseval
    g = parse_group(name)
    assert all(
        subsets._energy_route(g, nx, ny) != "sort"
        for nx in range(0, 65, 4)
        for ny in (0, 1, 3, 9, 32, 300, g.order)
    )


# every energy cell of the benchmark's dense workload: (group, |X|, |Y|) -> by Parseval
DENSE_ENERGY_CELLS = [
    ("f2^16", 256, 256, False),
    ("f2^16", 2304, 2304, True),
    ("f2^20", 256, 256, False),
    ("f2^20", 160, 32768, True),
    ("z65536", 256, 256, False),
    ("z65536", 2304, 2304, False),
    ("16,16,16,16", 256, 256, False),
    ("16,16,16,16", 2304, 2304, False),
]
# and the route the chooser picks on each: sorting only for f2^20 at 256 x 256
DENSE_ENERGY_ROUTES = ["rep", "parseval", "sort", "parseval", "rep", "rep", "rep", "rep"]


@pytest.mark.parametrize("group, nx, ny, parseval", DENSE_ENERGY_CELLS)
def test_cost_model_picks_parseval_on_the_large_exponent_two_cells(group, nx, ny, parseval):
    g, (x, y) = _sets(group, (nx, ny), seed=9)
    with pytest.MonkeyPatch.context() as mp:
        calls = _route_calls(mp)
        additive_energy(x, y)
    assert [c for c in calls if c[0] == "parseval"] == ([("parseval", nx, ny)] if parseval else [])


@pytest.mark.parametrize(
    "group, nx, ny, route",
    [(*cell[:3], route) for cell, route in zip(DENSE_ENERGY_CELLS, DENSE_ENERGY_ROUTES)],
)
def test_energy_route_on_the_dense_cells(group, nx, ny, route):
    g, (x, y) = _sets(group, (nx, ny), seed=9)
    assert subsets._energy_route(g, nx, ny) == route
    with pytest.MonkeyPatch.context() as mp:
        calls = _route_calls(mp)
        additive_energy(x, y)
    assert calls == ([] if route == "rep" else [(route, nx, ny)])
