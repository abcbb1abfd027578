"""Proof-parameter cascade auditor: ledger rows, thresholds, determinism."""

import functools
import json
import math
from fractions import Fraction
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleysum import cascade
from cayleysum.errors import GuardError, StructuralError
from conftest import oracle_certified_rows

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
    nstr = cascade._nstr

    def counting_nstr(*args):
        calls.append(args)
        return nstr(*args)

    monkeypatch.setattr(cascade, "_nstr", counting_nstr)
    search = cascade.find_threshold("general")
    assert len(calls) == 2 * len(search.probes)


# binary exponents whose to_digits_exp power of ten 10^b has b = 10^6 - 1,
# 10^6 (cascade._FAST_POW10_MIN) and 10^6 + 1
_CUTOFF_EXPS = {3321928: False, 3321929: True, 3321932: True}


@st.composite
def _huge_mpf(draw):
    """(digits, x): an mpf at one of the tested dps with a random odd
    mantissa, placed at the cut-down edge |exp + bc| = 3500 or 3501, at the
    fast-power cutoff, above it up to the general threshold's magnitude, or
    as far below 1."""
    dps = draw(st.sampled_from([15, 20, 30, 50, 1000]))
    prec = mp.libmp.dps_to_prec(dps)
    man = draw(st.integers(1, 2**prec - 1)) | 1
    where = draw(st.one_of(
        st.sampled_from([3500, 3501, -3500, -3501]).map(lambda mag: mag - man.bit_length()),
        st.sampled_from(sorted(_CUTOFF_EXPS)),
        st.integers(min(_CUTOFF_EXPS), 10**230),
        st.integers(-(10**230), -3502),
    ))
    x = mp.mp.make_mpf(mp.libmp.from_man_exp(man if draw(st.booleans()) else -man, where))
    return draw(st.sampled_from([dps, cascade._NSTR_DIGITS])), x


@pytest.mark.parametrize("forced", [False, True], ids=["guarded", "forced-fallback"])
@given(sample=_huge_mpf())
@settings(max_examples=100, deadline=None)
def test_nstr_equals_mpmath(forced, sample):
    # the formatter mirrors mpmath 1.3's to_digits_exp; an mpmath upgrade
    # that changes mp.nstr fails here
    digits, x = sample
    guard = 2**63 + 1 if forced else cascade._GUARD_UNITS  # forced: every guard trips
    with mock.patch.object(cascade, "_GUARD_UNITS", guard):
        assert cascade._nstr(x, digits) == mp.nstr(x, digits)


@pytest.mark.parametrize("forced", [False, True], ids=["guarded", "forced-fallback"])
@pytest.mark.parametrize(
    "rnd", [mp.libmp.round_down, mp.libmp.round_nearest], ids=["round_down", "round_nearest"]
)
@given(b=st.integers(cascade._FAST_POW10_MIN, 10**230), dps=st.sampled_from([15, 30, 1000]))
@settings(max_examples=60, deadline=None)
def test_pow10_is_the_truncated_power(forced, rnd, b, dps):
    prec = int((dps + 3) * math.log(10, 2)) + 10
    guard = 2**63 + 1 if forced else cascade._GUARD_UNITS  # forced: every guard trips
    with mock.patch.object(cascade, "_GUARD_UNITS", guard):
        assert cascade._pow10(b, prec, rnd) == mp.libmp.mpf_pow_int(mp.libmp.ften, b, prec, rnd)


@pytest.mark.parametrize("exp,fast", sorted(_CUTOFF_EXPS.items()))
def test_nstr_takes_the_exp_route_from_the_cutoff(monkeypatch, exp, fast):
    calls = []
    pow10 = cascade._pow10
    monkeypatch.setattr(cascade, "_pow10", lambda *args: calls.append(args) or pow10(*args))
    x = mp.ldexp(mp.mpf(3), exp)
    assert cascade._nstr(x, 20) == mp.nstr(x, 20)
    assert bool(calls) == fast


@pytest.mark.parametrize("dps", [15, 30, 50])
def test_general_search_needs_no_power_fallback(monkeypatch, dps):
    def refuse(*args):
        raise AssertionError("mpf_pow_int fallback")

    monkeypatch.setattr(cascade, "mpf_pow_int", refuse)
    assert cascade.find_threshold("general", dps=dps).passing_log_order


_F = cascade._FAST_POW10_MIN


@st.composite
def _decimal_texts(draw):
    """(dps, text): a signed decimal of up to dps + 5 digits in one of the
    spellings mpf reads, whose from_str exponent sits at its +-400/401 path
    switch, at the fast-power cutoff, above it up to 10^230 or as far below;
    or a "p/q", infinite or nan text."""
    dps = draw(st.sampled_from([15, 30, 50, 1000]))
    special = st.sampled_from(["3/7", "-22/7", " 1/3 ", "inf", "+inf", "-inf", "nan"])
    if draw(st.integers(0, 9)) == 0:
        return dps, draw(special)
    n = draw(st.integers(1, dps + 5))
    digits = str(draw(st.integers(0, 10**n - 1))).zfill(n)
    point = draw(st.integers(0, n))
    frac = digits[point:]
    if frac:
        frac = frac[:-1] + draw(st.sampled_from("123456789"))  # from_str strips trailing zeros
    mantissa = digits[:point] + ("." + frac if frac else "")
    exp = draw(st.one_of(
        st.sampled_from([400, 401, _F - 1, _F, _F + 1]),
        # every digit count up to 230, the general threshold's exponent having 214
        st.integers(7, 230).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)),
    )) * draw(st.sampled_from([1, -1]))
    text = (
        draw(st.sampled_from(["", "+", "-"])) + mantissa + draw(st.sampled_from(["e", "E", "e+"]))
        + str(exp + len(frac))
    )
    if draw(st.booleans()):
        text = " " + text + " "
    return dps, text.replace("e+-", "e-")


@pytest.mark.parametrize("forced", [False, True], ids=["guarded", "forced-fallback"])
@given(sample=_decimal_texts())
# from_str cuts this mantissa to prec + 10 bits before rounding, which moves its last bit
@example(sample=(15, "78924748816819081820e1000000"))
@settings(max_examples=100, deadline=None)
def test_parse_input_equals_mpmath(forced, sample):
    # the fast route mirrors mpmath 1.3's from_str; an upgrade that moves it fails here
    dps, text = sample
    guard = 2**63 + 1 if forced else cascade._GUARD_UNITS  # forced: every guard trips
    with mock.patch.object(cascade, "_GUARD_UNITS", guard), mp.workdps(dps):
        expected = mp.mpf(text)
        if mp.isfinite(expected):
            assert cascade._parse_input(text, "logN")._mpf_ == expected._mpf_
        else:
            with pytest.raises(StructuralError):
                cascade._parse_input(text, "logN")


@pytest.mark.parametrize("exp,fast", [(_F - 1, False), (_F, True), (_F + 1, True)])
def test_parse_input_takes_the_exp_route_from_the_cutoff(monkeypatch, exp, fast):
    calls = []
    pow10 = cascade._pow10
    monkeypatch.setattr(cascade, "_pow10", lambda *args: calls.append(args) or pow10(*args))
    text = f"3.5e{exp + 1}"  # 35 * 10^exp to from_str
    assert cascade._parse_input(text, "logN") == mp.mpf(text)
    assert bool(calls) == fast


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


@pytest.mark.parametrize("log_order", [np.int64(230), Fraction(460, 2)], ids=["int64", "Fraction"])
def test_integer_valued_inputs_match_int(log_order):
    a = cascade.cascade_audit("general", log_order, 5.438)
    assert a.inputs["logN"] == "230"
    assert a.to_json() == cascade.cascade_audit("general", 230, 5.438).to_json()


def _exponent2_bracket(monkeypatch, bracket):
    rows, constants, _ = cascade._MODE_TABLE["exponent2"]
    monkeypatch.setitem(cascade._MODE_TABLE, "exponent2", (rows, constants, bracket))


def test_find_threshold_bad_bracket(monkeypatch):
    _exponent2_bracket(monkeypatch, (0.1, 0.2))
    with pytest.raises(GuardError) as info:
        cascade.find_threshold("exponent2")
    assert str(info.value) == "bracket high end u=0.2 still fails; widen upward"


def test_find_threshold_low_end_already_passes(monkeypatch):
    _exponent2_bracket(monkeypatch, (11.0, 12.0))
    with pytest.raises(GuardError) as info:
        cascade.find_threshold("exponent2")
    assert str(info.value) == "bracket low end u=11.0 already passes; widen downward"


# both entry points check mode, dps and constants, in that order, with one message each
@pytest.mark.parametrize(
    "entry",
    [
        lambda mode, **kw: cascade.cascade_audit(mode, 230, 5.0, **kw),
        lambda mode, **kw: cascade.find_threshold(mode, **kw),
    ],
    ids=["cascade_audit", "find_threshold"],
)
@pytest.mark.parametrize(
    "mode,kwargs,error,message",
    [
        ("nope", {}, StructuralError, "mode must be one of ('general', 'exponent2'), got 'nope'"),
        ("nope", {"dps": 14}, StructuralError,
         "mode must be one of ('general', 'exponent2'), got 'nope'"),
        ("general", {"dps": 14}, StructuralError, "dps must be >= 15, got 14"),
        ("general", {"dps": 1001}, GuardError, "dps 1001 exceeds the cap MAX_DPS = 1000"),
        ("exponent2", {"dps": 14, "constants": {"count_rate": 2}}, StructuralError,
         "dps must be >= 15, got 14"),
        ("exponent2", {"constants": {"count_rate": 2}}, StructuralError,
         "unknown constant 'count_rate' for mode 'exponent2'; known: ['dim_rate']"),
    ],
)
def test_entry_checks(entry, mode, kwargs, error, message):
    with pytest.raises(error) as info:
        entry(mode, **kwargs)
    assert str(info.value) == message


def test_ledger_row_unknown_name():
    led = cascade.cascade_audit("exponent2", 2000, 40)
    with pytest.raises(StructuralError) as info:
        led.row("nope")
    assert str(info.value) == "no ledger row named 'nope'"


# the stored (logN, w) of a probe re-audit to that probe's pass flag
@pytest.mark.parametrize("dim_rate", [1.0, 0.5, 2.0])
def test_exponent2_probes_reaudit_to_their_flags(dim_rate):
    constants = {"dim_rate": dim_rate}
    search = cascade.find_threshold("exponent2", constants)
    for p in search.probes:
        led = cascade.cascade_audit("exponent2", p["logN"], p["w"], constants)
        assert led.all_pass == p["all_pass"], p["u"]


def test_general_probes_reaudit_to_their_flags():
    # every probe through the full ledger, which formats numbers up to
    # 10^(10^213), the ladder top among them
    for p in cascade.find_threshold("general").probes:
        led = cascade.cascade_audit("general", p["logN"], p["w"])
        assert led.all_pass == p["all_pass"], p["u"]


@pytest.mark.parametrize("mode", cascade.MODES)
def test_every_probe_reaudits_to_its_flag(mode):
    # the ledger's flags without its formatting: parse each probe's stored
    # strings and evaluate them, as cascade_audit does
    mode_rows, consts, _ = cascade._mode_setup(mode, cascade.DEFAULT_DPS, None)
    search = cascade.find_threshold(mode)
    with mp.workdps(search.dps):
        for p in search.probes:
            _, rows = cascade._evaluate(mode_rows, p["logN"], p["w"], consts)
            assert all(r["passed"] for r in rows) == p["all_pass"], p["u"]


@functools.cache
def _certified_probes(mode, dps):
    """(u, ledger rows, interval flags) for each probe of the default search."""
    search = cascade.find_threshold(mode, dps=dps)
    return [
        (
            p["u"],
            cascade.cascade_audit(mode, p["logN"], p["w"], dps=dps).rows,
            oracle_certified_rows(mode, p["logN"], p["w"], search.constants, dps),
        )
        for p in search.probes
    ]


@pytest.mark.parametrize("dps", [15, 30])
@pytest.mark.parametrize("mode", cascade.MODES)
def test_decided_interval_flags_equal_the_ledger_flags(mode, dps):
    for u, rows, flags in _certified_probes(mode, dps):
        assert [name for name, _ in flags] == [r.name for r in rows]
        for (name, flag), r in zip(flags, rows):
            assert flag in (None, r.passed), (u, name)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: the probe at u = 493.6293 records w rounded to 15 digits, "
    "which eats the 1e-15 margin, and growth_cap passes on a tie",
)
def test_dps15_general_probes_are_certified():
    flags = _certified_probes("general", 15)
    assert [(u, name) for u, _, row_flags in flags for name, f in row_flags if f is None] == []


def test_each_probe_parses_its_two_strings_once(monkeypatch):
    calls = []
    parse = cascade._parse_input

    def counting_parse(text, name):
        calls.append((name, text))
        return parse(text, name)

    monkeypatch.setattr(cascade, "_parse_input", counting_parse)
    search = cascade.find_threshold("general")
    assert calls == [(name, p[name]) for p in search.probes for name in ("logN", "w")]


@pytest.mark.parametrize("dps", [15, 30])
@pytest.mark.parametrize("mode", cascade.MODES)
def test_each_probe_evaluates_its_rows_once(monkeypatch, mode, dps):
    rows, constants, bracket = cascade._MODE_TABLE[mode]
    calls = []

    def counting_rows(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setitem(cascade._MODE_TABLE, mode, (counting_rows, constants, bracket))
    search = cascade.find_threshold(mode, dps=dps)
    assert len(calls) == len(search.probes)


@st.composite
def _ladders(draw):
    """(dps, j0): j0 from the fast-power cutoff up to 2^720."""
    dps = draw(st.sampled_from([15, 30, 1000]))
    return dps, draw(st.one_of(st.sampled_from([_F, _F + 1]), st.integers(_F, 2**720)))


@settings(max_examples=150, deadline=None, database=None)
@given(ladder=_ladders())
def test_ladder_top_is_the_rounded_power(ladder):
    # the ladder row's top from j0 = _FAST_POW10_MIN on is mp.power(10, j0)
    dps, j0 = ladder
    with mp.workdps(dps):
        top = mp.mp.make_mpf(cascade._pow10(j0, mp.mp.prec, mp.libmp.round_nearest))
        assert top == mp.power(10, j0)


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
