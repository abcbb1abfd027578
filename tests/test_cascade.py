"""Proof-parameter cascade auditor: ledger rows, thresholds, determinism."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from cayleysum import cascade
from cayleysum.errors import GuardError, StructuralError

GENERAL_ROWS = (
    "growth_cap",
    "packed_bound_applicability",
    "ratio_floor_consistency",
    "ratio_ladder_exhaustion",
    "count_vs_decay_margin",
    "per_level_sum",
    "level_total",
)

EXP2_ROWS = (
    "deviation_floor_condition",
    "restricted_size_hypothesis",
    "count_vs_decay_margin",
    "clean_growth_margin",
)


def test_general_rows_present():
    led = cascade.cascade_audit("general", 230, math.log(230))
    assert led.mode == "general"
    assert tuple(r.name for r in led.rows) == GENERAL_ROWS
    for r in led.rows:
        assert r.relation in ("<", "<=", ">", ">=", "==")
        assert isinstance(r.passed, bool)


def test_small_logn_fails_applicability():
    # at desk scale the packed-bound applicability margin collapses
    w = math.log(230)
    led = cascade.cascade_audit("general", 230, w)
    row = led.row("packed_bound_applicability")
    assert not row.passed
    value = float(mp.mpf(row.lhs))
    assert abs(value - 0.0035) <= 0.1 * 0.0035 + 5e-4
    assert not led.all_pass


def test_bit_identical_rerun():
    led = cascade.cascade_audit("general", "230", 5.438)
    again = cascade.cascade_audit("general", led.inputs["logN"], led.inputs["w"])
    assert json.dumps(led.to_json(), sort_keys=True) == json.dumps(
        again.to_json(), sort_keys=True
    )


def test_input_canonicalization():
    # float and its repr string parse identically
    a = cascade.cascade_audit("general", 230.0, 5.438)
    b = cascade.cascade_audit("general", "230.0", "5.438")
    assert a.to_json() == b.to_json()


def test_growth_cap_binds():
    # w above loglog(N + 3) must fail the growth cap row
    led = cascade.cascade_audit("general", 230, 6.5)
    assert not led.row("growth_cap").passed
    led2 = cascade.cascade_audit("general", 230, 5.0)
    assert led2.row("growth_cap").passed


def test_exponent2_rows_present():
    led = cascade.cascade_audit("exponent2", 2000, 40)
    assert tuple(r.name for r in led.rows) == EXP2_ROWS


def test_mode_and_domain_validation():
    with pytest.raises(StructuralError):
        cascade.cascade_audit("nope", 230, 5.0)
    with pytest.raises(StructuralError):
        cascade.cascade_audit("general", 2.0, 5.0)  # logN must exceed e
    with pytest.raises(StructuralError):
        cascade.cascade_audit("general", 230, 1.0)  # w must exceed 1


def test_constants_override_marks_rows():
    base = cascade.cascade_audit("general", 230, 5.438)
    bumped = cascade.cascade_audit("general", 230, 5.438, constants={"count_rate": 2.0})
    assert float(base.constants["count_rate"]) == 1.0
    assert float(bumped.constants["count_rate"]) == 2.0
    dependent = [r.name for r in base.rows if r.constant_dependent]
    assert "count_vs_decay_margin" in dependent
    # the constant moves only constant-dependent rows
    for r0, r1 in zip(base.rows, bumped.rows):
        if not r0.constant_dependent:
            assert (r0.lhs, r0.rhs) == (r1.lhs, r1.rhs)


def test_find_threshold_exponent2():
    search = cascade.find_threshold("exponent2")
    assert search.mode == "exponent2"
    # all rows pass at the found point, reusing the stored string inputs
    led = cascade.cascade_audit(
        "exponent2", search.passing_log_order, search.passing_w
    )
    assert led.all_pass
    # probes move monotonically: pass flags sorted False -> True along u
    probes = sorted(search.probes, key=lambda p: float(p["u"]))
    flags = [p["all_pass"] for p in probes]
    assert flags == sorted(flags)


def test_find_threshold_general():
    search = cascade.find_threshold("general")
    led = cascade.cascade_audit("general", search.passing_log_order, search.passing_w)
    assert led.all_pass
    # the threshold is astronomically large but finite
    u = search.passing_u
    assert 400 < u < 520
    doc = search.to_json()
    assert "passing_logN" in doc and "probes" in doc


def test_find_threshold_formats_only_probe_inputs(monkeypatch):
    # each probe records its w and logN strings; the ledger values it
    # evaluates are never formatted
    calls = []
    nstr = cascade.mp.nstr

    def counting_nstr(*args, **kwargs):
        calls.append(args)
        return nstr(*args, **kwargs)

    monkeypatch.setattr(cascade.mp, "nstr", counting_nstr)
    search = cascade.find_threshold("general")
    assert len(calls) == 2 * len(search.probes)


def test_mpf_input_keeps_ledger_precision():
    with mp.workdps(50):
        log_order = mp.mpf(1000) / 3
    led = cascade.cascade_audit("general", log_order, "5.5", dps=50)
    stored = led.inputs["logN"]
    assert len(stored.replace(".", "")) >= 40
    again = cascade.cascade_audit("general", stored, led.inputs["w"], dps=50)
    assert again.to_json() == led.to_json()


def test_numpy_float_input_matches_float():
    a = cascade.cascade_audit("general", np.float64(230.0), np.float64(5.438))
    assert a.to_json() == cascade.cascade_audit("general", 230.0, 5.438).to_json()


def test_find_threshold_bad_bracket():
    with pytest.raises(GuardError):
        cascade.find_threshold("exponent2", bracket=(0.1, 0.2))


def test_safe_exp_extremes():
    assert cascade.safe_exp(mp.mpf("1e16")) == mp.inf
    assert cascade.safe_exp(mp.mpf("-1e16")) == 0
    assert abs(cascade.safe_exp(mp.mpf(1)) - mp.e) < mp.mpf("1e-20")


def test_ledger_json_shape():
    led = cascade.cascade_audit("general", 230, 5.438)
    doc = led.to_json()
    assert doc["mode"] == "general"
    assert doc["inputs"]["logN"] == "230"
    assert len(doc["rows"]) == len(GENERAL_ROWS)
    for row in doc["rows"]:
        assert set(row) >= {"name", "anchor", "lhs", "rhs", "relation", "passed"}
