"""Experiment runners: report shape, determinism, and exact scan results."""

import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import deviation, harness, subsets
from cayleysum.errors import StructuralError
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

from conftest import oracle_worst_case


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
    doc = rep1.to_json(include_timing=False)
    assert "timing" not in doc
    assert rep1.to_json()["timing"]


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
    a = random_subset(g, 11).a
    rep = run_worst_case_scan("z6", floor=floor, seed=11)
    want = _brute_max_sigma(g, a, floor)
    assert Fraction(rep.results["max_abs_sigma"]) == want


def test_worst_case_witness_recomputes():
    rep = run_worst_case_scan("f2^3", floor=2, seed=5)
    g = parse_group("f2^3")
    a = random_subset(g, 5).a
    x = GroupSubset.from_indices(g, rep.results["x_witness"])
    y = GroupSubset.from_indices(g, rep.results["y_witness"])
    val = abs(edge_density_deviation(a, x, y).sigma)
    assert Fraction(rep.results["max_abs_sigma"]) == val
    assert x.size >= 2 and y.size >= 2


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
        ("16,16,16", 3, {"x_size": 160, "y_size": 160}, False, 1),
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
