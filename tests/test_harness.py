"""Experiment runners: report shape, determinism, and exact scan results."""

import itertools
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import deviation, harness, subsets
from cayleysum.errors import PropertyError, StructuralError
from cayleysum.deviation import edge_density_deviation, random_subset
from cayleysum.groups import parse_group
from cayleysum.harness import (
    CSV_SCHEMA_VERSION,
    run_deviation_scan,
    run_joint_deviation_mc,
    run_restriction_mc,
    run_sigma_tail_mc,
    run_worst_case_scan,
    wilson_interval,
)
from cayleysum.subsets import GroupSubset

from conftest import (
    oracle_add,
    oracle_fair_coins,
    oracle_joint_deviation,
    oracle_mixing_lemma,
    oracle_restriction,
    oracle_sigma_tail,
    oracle_worst_case,
)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    assert math.isclose(hi - 0.5, 0.5 - lo, rel_tol=1e-9)
    # frozen against the closed form at z = 1.959963984540054
    z = 1.959963984540054
    p, n = 0.5, 100
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    assert math.isclose(lo, center - half, rel_tol=1e-12)
    zero_lo, zero_hi = wilson_interval(0, 10)
    assert zero_lo == 0.0 and zero_hi > 0.0
    with pytest.raises(StructuralError):
        wilson_interval(5, 0)
    with pytest.raises(StructuralError):
        wilson_interval(11, 10)


def test_report_canonical_bytes_strip_timing():
    rep1 = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
    rep2 = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
    assert rep1.canonical_bytes() == rep2.canonical_bytes()
    # with timing included the two runs differ
    assert rep1.timing["generated_at"] != "" and "elapsed_seconds" in rep1.timing
    assert "timing" not in json.loads(rep1.canonical_bytes())
    assert rep1.to_json()["timing"]


def test_report_is_a_frozen_record():
    rep = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
    assert set(rep.to_json()) == {"kind", "schema_version", "config", "results", "timing"}
    assert rep.to_json()["schema_version"] == CSV_SCHEMA_VERSION
    for name in ("kind", "schema_version", "config", "results", "timing"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    with pytest.raises(TypeError):
        harness.ExperimentReport(kind="scan", config={}, results={}, timing={}, schema_version=2)


def test_csv_has_schema_row():
    rep = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
    lines = rep.csv_text().splitlines()
    assert lines[0] == f"schema_version,{CSV_SCHEMA_VERSION}"
    assert lines[1].startswith("kind,")
    assert len(lines) == 3


def test_scan_kind_has_no_csv():
    rep = run_deviation_scan("f2^4", seed=3)
    with pytest.raises(StructuralError):
        rep.csv_text()


def test_worst_case_frozen_z4():
    rep = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
    res = rep.results
    assert res["max_abs_sigma"] == "1/2"
    assert res["max_abs_sigma_float"] == 0.5
    assert res["verified"] is True
    assert res["x_witness"] and res["y_witness"]


def test_worst_case_empty_a_hits_half():
    rep = run_worst_case_scan("z4", a_indices=[], floor=1)
    assert rep.results["max_abs_sigma"] == "1/2"


def _brute_max_sigma(g, a, floor):
    best = Fraction(0)
    order = g.order
    subsets = [
        GroupSubset.from_mask(g, mask)
        for mask in range(1, 1 << order)
    ]
    subsets = [s for s in subsets if s.size >= floor]
    for x in subsets:
        for y in subsets:
            val = abs(edge_density_deviation(a, x, y).sigma)
            if val > best:
                best = val
    return best


@pytest.mark.parametrize("floor", [1, 2, 3])
def test_worst_case_matches_bruteforce(floor):
    g = parse_group("z6")
    a = random_subset(g, 11)
    rep = run_worst_case_scan("z6", floor=floor, seed=11)
    want = _brute_max_sigma(g, a, floor)
    assert Fraction(rep.results["max_abs_sigma"]) == want


def test_worst_case_witness_recomputes():
    rep = run_worst_case_scan("f2^3", floor=2, seed=5)
    g = parse_group("f2^3")
    a = random_subset(g, 5)
    x = GroupSubset.from_indices(g, rep.results["x_witness"])
    y = GroupSubset.from_indices(g, rep.results["y_witness"])
    val = abs(edge_density_deviation(a, x, y).sigma)
    assert Fraction(rep.results["max_abs_sigma"]) == val
    assert x.size >= 2 and y.size >= 2


def test_worst_case_checks_the_mixing_lemma(monkeypatch):
    # E(A) = |A|^4 / N zeroes the lemma's right side, while the z4 witness of
    # A = {0, 1} has |sigma| = 1/2, so N e - |A||X||Y| = +-2|X||Y| != 0
    monkeypatch.setattr(subsets, "additive_energy", lambda x, y: x.size**4 // x.group.order)
    with pytest.raises(PropertyError, match="mixing lemma"):
        run_worst_case_scan("z4", a_indices=[0, 1], floor=1)


@st.composite
def _worst_case_inputs(draw):
    g = parse_group(draw(st.sampled_from(["z4", "z6", "f2^3", "2,4", "z8", "z10", "2,5"])))
    a = draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=g.order))
    return g, sorted(a), draw(st.integers(1, g.order))


# blocks of 1, 3 and 7 subsets cross block boundaries at every order and give
# blocks with no X of size >= floor
@settings(max_examples=30, deadline=None, database=None)
@given(case=_worst_case_inputs())
def test_worst_case_matches_gray_oracle_across_blocks(case):
    g, a, floor = case
    best, x_want, y_want = oracle_worst_case(g.moduli, a, floor)
    group = ",".join(map(str, g.moduli))
    for block in (1, 3, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_WORST_CASE_BLOCK", block)
            res = run_worst_case_scan(group, a_indices=a, floor=floor).results
        assert (Fraction(res["max_abs_sigma"]), res["x_witness"], res["y_witness"]) == (
            best, x_want, y_want
        )


def test_worst_case_order_cap():
    with pytest.raises(StructuralError):
        run_worst_case_scan("z32")


def test_joint_mc_small():
    rep = run_joint_deviation_mc(trials=2000, seed=0)
    res = rep.results
    assert res["forced_full_group_event"] is True
    assert res["all_accepted"] is True
    ks = [row["k"] for row in res["per_k"]]
    assert ks == [1, 2, 4]
    for row in res["per_k"]:
        assert 0.0 <= row["empirical"] <= 1.0
        assert row["empirical"] <= row["acceptance_threshold"]
        lo, hi = row["wilson_95"]
        assert lo <= row["empirical"] <= hi
    indep = res["independence_arm"]
    assert indep["product_reference"] == 0.25
    assert indep["within_5_sigma"] is True


def test_joint_mc_deterministic():
    rep1 = run_joint_deviation_mc(trials=500, seed=3)
    rep2 = run_joint_deviation_mc(trials=500, seed=3)
    assert rep1.canonical_bytes() == rep2.canonical_bytes()
    rep3 = run_joint_deviation_mc(trials=500, seed=4)
    assert rep1.canonical_bytes() != rep3.canonical_bytes()


def test_joint_mc_csv():
    rep = run_joint_deviation_mc(trials=200, seed=0)
    lines = rep.csv_text().splitlines()
    assert lines[0] == f"schema_version,{CSV_SCHEMA_VERSION}"
    assert len(lines) == 2 + 3  # header + one row per k


def test_sigma_tail_small():
    rep = run_sigma_tail_mc(tiers=((4, 4), (16, 16)), trials=60, seed=0)
    tiers = rep.results["tiers"]
    assert [t["x_size"] for t in tiers] == [4, 16]
    for t in tiers:
        assert 0.0 <= t["median_abs_sigma"] <= 0.5
        assert Fraction(t["max_abs_sigma_exact"]) <= Fraction(1, 2)
    assert rep.results["median_trend_nonincreasing"] is True
    again = run_sigma_tail_mc(tiers=((4, 4), (16, 16)), trials=60, seed=0)
    assert rep.canonical_bytes() == again.canonical_bytes()


def test_restriction_mc_small():
    rep = run_restriction_mc(trials=40, seed=0)
    res = rep.results
    for key in ("energy_check_freq", "deviation_check_freq", "joint_freq"):
        assert 0.0 <= res[key] <= 1.0
    assert res["smoke_ok"] is True
    assert res["params"]["x_sample_size"] >= 1
    lines = rep.csv_text().splitlines()
    assert len(lines) == 3


def test_deviation_scan_shape():
    rep = run_deviation_scan("f2^5", seed=2, epsilon="1/4")
    res = rep.results
    assert "sigma" in res and "pipeline" in res
    assert isinstance(res["high_deviation_rows"], list)
    sigma = Fraction(res["sigma"]["sigma"])
    assert abs(sigma) <= Fraction(1, 2)
    assert res["pipeline"]["ok"] == (abs(sigma) >= Fraction(1, 4))
    again = run_deviation_scan("f2^5", seed=2, epsilon="1/4")
    assert rep.canonical_bytes() == again.canonical_bytes()


def test_deviation_scan_explicit_sets():
    rep = run_deviation_scan(
        "z12", seed=0, epsilon="1/4", x_indices=[0, 1, 2], y_indices=[3, 4]
    )
    assert rep.config["x"] == [0, 1, 2]
    assert rep.config["y"] == [3, 4]


def _count_calls(monkeypatch, *functions):
    """Wrap every module attribute bound to each function; return the tally."""
    calls = Counter()

    def wrap(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return counted

    for fn in functions:
        counted = wrap(fn)
        for name, module in list(sys.modules.items()):
            if name == "cayleysum" or name.startswith("cayleysum."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "group,seed,sizes,ok,convolutions",
    [
        ("f2^4", 0, {}, True, 0),
        ("f2^4", 1, {}, False, 0),
        ("16,16,16", 3, {"x_size": 192, "y_size": 192}, False, 1),
    ],
)
def test_deviation_scan_counts_rows_once(monkeypatch, group, seed, sizes, ok, convolutions):
    calls = _count_calls(
        monkeypatch,
        deviation.edge_count,
        deviation.row_edge_counts,
        subsets._exact_convolution,
        subsets.additive_energy,
    )
    rep = run_deviation_scan(group, seed=seed, **sizes)
    assert rep.results["pipeline"]["ok"] is ok
    assert calls["row_edge_counts"] == 1 and calls["edge_count"] == 0
    assert calls["_exact_convolution"] == convolutions
    if ok:
        assert calls["additive_energy"] <= 2


def test_deviation_scan_extracts_rows_once(monkeypatch):
    calls = _count_calls(monkeypatch, deviation._deviating_rows)
    rep = run_deviation_scan("f2^6", seed=1, epsilon="1/8", x_size=3, y_size=4)
    assert rep.results["pipeline"]["ok"] is True
    assert rep.results["pipeline"]["extracted"] == rep.results["high_deviation_rows"]
    assert calls == Counter({"_deviating_rows": 1})


@st.composite
def _mc_inputs(draw):
    group = draw(st.sampled_from(["z5", "z12", "f2^4", "2,4", "3,5", "4,4,4"]))
    g = parse_group(group)
    size = st.integers(1, min(g.order, 9))
    return (
        g,
        group,
        draw(st.lists(st.tuples(size, size), min_size=1, max_size=3)),
        (draw(size), draw(size)),
        draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)])),
        draw(st.integers(1, 12)),
        draw(st.integers(-3, 2**64)),
    )


# chunks of 1, 3 and 7 trials cross chunk boundaries at every trial count,
# each count backend is forced in turn, and pair blocks of 5 sums split rows
# of the stacked pairwise count.  At these sizes both restriction
# checks almost always hold, so its draws are compared one by one.
@settings(max_examples=25, deadline=None, database=None)
@given(case=_mc_inputs())
def test_batched_mc_matches_per_trial_oracles(case):
    g, group, tiers, (x_size, y_size), eps, trials, seed = case
    sigma_tail = oracle_sigma_tail(g.moduli, tiers, trials, seed)
    (s, t, ratio), draws = oracle_restriction(g.moduli, x_size, y_size, eps, trials, seed)
    ks = (1,)
    joint_rows, successes, indep_hits, joint_trials = oracle_joint_deviation(
        g.moduli, x_size, eps, ks, trials, seed
    )
    # each trial's edge count between X and the first k rows obeys the mixing lemma
    for a, row_counts in joint_trials:
        for k in ks:
            holds = oracle_mixing_lemma(g.moduli, a, x_size, k, sum(row_counts[:k]))
            assert all(holds.values()), holds
    restriction_draws = deviation._restriction_draws
    seen = []

    def spy(x, y, plan, seeds, a_bits=None):
        out = restriction_draws(x, y, plan, seeds, a_bits)
        for bits, *row in zip(a_bits, *out):
            seen.append((np.flatnonzero(bits).tolist(), *(v.tolist() for v in row[:2]), *row[2:]))
        return out

    digests = Counter()
    for rows, backend, block in itertools.product(
        (1, 3, 7), ("pairwise", "transform"), (5, subsets._PAIR_BLOCK)
    ):
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_MC_BITS", rows * 64 * -(-g.order // 64))
            mp.setattr(subsets, "_PAIR_BLOCK", block)
            mp.setattr(subsets, "_transform_cheaper", lambda group, pairs: backend == "transform")
            mp.setattr(deviation, "_restriction_draws", spy)
            tail = run_sigma_tail_mc(group, tiers=tiers, trials=trials, seed=seed)
            restriction = run_restriction_mc(group, x_size, y_size, eps, trials=trials, seed=seed)
            joint = run_joint_deviation_mc(
                group, n=x_size, epsilon=eps, ks=ks, trials=trials, seed=seed
            )
        assert [
            (Fraction(row["median_abs_sigma_exact"]), Fraction(row["max_abs_sigma_exact"]))
            for row in tail.results["tiers"]
        ] == sigma_tail
        assert seen == [tuple(d) for d in draws]
        res = restriction.results
        params = res["params"]
        assert (params["x_sample_size"], params["y_sample_size"]) == (s, t)
        assert Fraction(params["energy_ratio"]) == ratio
        assert res["energy_check_freq"] == sum(d[3] for d in draws) / trials
        assert res["deviation_check_freq"] == sum(d[4] for d in draws) / trials
        assert res["joint_freq"] == sum(d[3] and d[4] for d in draws) / trials
        res = joint.results
        assert res["rows_used"] == joint_rows
        assert {row["k"]: row["successes"] for row in res["per_k"]} == successes
        assert res["independence_arm"]["empirical"] == indep_hits / trials
        digests.update(rep.canonical_bytes() for rep in (tail, restriction, joint))
    assert sorted(digests.values()) == [12, 12, 12]


def test_restriction_sizes_checked_up_front():
    for sizes, name in (({"y_size": -3}, "y_size"), ({"x_size": 0}, "x_size"),
                        ({"x_size": 257}, "x_size")):
        with pytest.raises(StructuralError, match=name):
            run_restriction_mc("f2^8", trials=2, **sizes)


def test_mc_runners_skip_per_trial_set_work(monkeypatch):
    calls = _count_calls(
        monkeypatch,
        subsets.rep_function,
        subsets.additive_energy,
        deviation.edge_density_deviation,
        deviation.restriction_sample,
    )
    monkeypatch.setattr(harness, "_MC_BITS", 7 * 256)  # three chunks of 20 trials
    run_restriction_mc("f2^8", trials=20, seed=1)
    # one rep_function call, for the fixed pair (X, Y); no per-trial energies or sigmas
    assert calls == Counter({"rep_function": 1})
    calls.clear()
    run_sigma_tail_mc("4,4,4,4", tiers=((4, 4), (8, 8)), trials=20, seed=1)
    assert not calls


def test_mc_set_mode_rows_never_reach_random_sample(sample_calls):
    # only pool-mode rows with 0 < k < n may take Random.sample: set-mode rows
    # are read off the Mersenne Twister words, and k == n draws nothing
    run_sigma_tail_mc("f2^10", trials=60)
    assert sample_calls == []
    for group in ("f2^8", "4,4,4,4"):
        run_restriction_mc(group, trials=150, seed=1)
        # X and Y (64 of 256) are pool-mode rows; S = X and T take no call
        assert sample_calls == [(256, 64), (256, 64)]
        sample_calls.clear()


# a spectral certificate for reported edge counts: each obeys the expander
# mixing lemma, with E(A) and lambda from oracles that share no subsets code
_MODULI = {
    "z64": (64,), "f2^6": (2,) * 6, "4,4,4": (4, 4, 4), "2,8": (2, 8),
    "f2^4": (2,) * 4, "z16": (16,),
}


@settings(max_examples=40, deadline=None, database=None)
@given(
    group=st.sampled_from(["z64", "f2^6", "4,4,4", "2,8"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_scan_edges_obey_the_mixing_lemma(group, seed, data):
    moduli = _MODULI[group]
    order = math.prod(moduli)
    x_size, y_size = (data.draw(st.integers(1, order)) for _ in range(2))
    res = run_deviation_scan(group, seed=seed, x_size=x_size, y_size=y_size).results
    a = oracle_fair_coins(seed, order)
    assert res["a_size"] == len(a)
    sigma = res["sigma"]
    holds = oracle_mixing_lemma(moduli, a, sigma["x_size"], sigma["y_size"], sigma["edges"])
    assert all(holds.values()), holds


@settings(max_examples=15, deadline=None, database=None)
@given(
    group=st.sampled_from(["f2^4", "z16", "2,8"]),
    seed=st.integers(0, 2**32 - 1),
    floor=st.integers(1, 16),
)
def test_worst_case_witness_obeys_the_mixing_lemma(group, seed, floor):
    moduli = _MODULI[group]
    res = run_worst_case_scan(group, floor=floor, seed=seed).results
    a, x, y = set(res["a"]), res["x_witness"], res["y_witness"]
    assert res["a"] == oracle_fair_coins(seed, 16)
    edges = sum(oracle_add(moduli, i, j) in a for i in x for j in y)
    holds = oracle_mixing_lemma(moduli, res["a"], len(x), len(y), edges)
    assert all(holds.values()), holds
