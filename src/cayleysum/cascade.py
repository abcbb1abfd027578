"""Extended-precision audits of the two proof-parameter cascades.

The headline density guarantees only kick in once the group is enormous, and
no double-precision sweep can see where.  This module recomputes every
derived parameter and required inequality at a concrete (log N, w) in
arbitrary-precision arithmetic (mpmath) and reports each inequality as a
pass/fail ledger row.  The audit reports; it never raises on a failed row,
since which rows fail at a given size is the interesting output.

log N is the primary input.  Every formula depends on the group only through
log N and loglog N, and the passing region begins near log N ~ exp(2^700)
under unit constants, far beyond any representable integer N.  mpf bignum
exponents carry such values exactly; only exp() of arguments of that own
magnitude must be saturated (safe_exp).

Evaluation and formatting are separate steps.  The cascade formulas compute
raw mpf values and pass flags; only cascade_audit turns them into the
ledger's 20-significant-digit strings, at the ledger's own precision.
find_threshold reads nothing but the pass flags.  Each probe evaluates the
w and logN strings it records, exactly as a ledger of them would, so a probe
re-audits to its flag by construction.  Near the general threshold the
ladder top 10^j0 has a j0 of about 700 bits; from j0 = _FAST_POW10_MIN on it
comes from _pow10, rounded to nearest as mp.power would round it.  Reading a
logN near 10^(10^213) back costs no mpmath power either: for a decimal
exponent of at least _FAST_POW10_MIN, _parse_input mirrors mpmath 1.3's
from_str with its power of ten from _pow10.

Numbers print through _nstr, which equals mp.nstr byte for byte.  For an
mpf near 10^(10^213) it mirrors mpmath 1.3's to_digits_exp but builds that
function's power of ten as exp(b ln 10) instead of by repeated squaring; a
hypothesis test holds it equal to mp.nstr, so an mpmath upgrade that moves
mp.nstr fails there rather than changing a ledger.

Each mode is one _MODE_TABLE entry (row function, default constants, the u
range find_threshold bisects); both entry points check mode, dps and
constants through _mode_setup.

Ledger determinism: inputs are canonicalized to strings at the ledger's
precision before parsing, so re-auditing at a ledger's stored inputs
reproduces every field bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from mpmath import mp, mpf
from mpmath.libmp import (
    bin_to_radix,
    bitcount,
    from_int,
    from_man_exp,
    ften,
    mpf_div,
    mpf_exp,
    mpf_ln2,
    mpf_ln10,
    mpf_mul,
    mpf_pow_int,
    numeral,
    round_down,
    round_nearest,
    str_to_man_exp,
    to_fixed,
    to_int,
)

from ._record import Record
from .errors import GuardError, StructuralError, positive, to_float

__all__ = [
    "MAX_DPS",
    "LedgerRow",
    "CascadeLedger",
    "ThresholdSearch",
    "cascade_audit",
    "find_threshold",
    "safe_exp",
]

DEFAULT_DPS = 30
# precision cap: a general-mode threshold search at this dps took 0.4-0.7 s
# as a CLI process (0.2-0.4 s at the default) on a 2-vCPU x86-64 VM, while
# 10^8 digits did not finish in a minute
MAX_DPS = 1000
_NSTR_DIGITS = 20
# beyond this magnitude the result's own exponent becomes an astronomically
# long integer; saturate instead of materializing it
_EXP_ARG_LIMIT = mpf("1e15")


def safe_exp(x: mpf) -> mpf:
    if x < -_EXP_ARG_LIMIT:
        return mp.zero
    if x > _EXP_ARG_LIMIT:
        return mp.inf
    return mp.exp(x)


# 10^b comes from _pow10, as exp(b ln 10), from this b on; below it mpf_pow_int is cheap
_FAST_POW10_MIN = 10**6
# a rounding within this many units of 2^-64 ulp of its boundary goes to mpf_pow_int
_GUARD_UNITS = 4


def _pow10(b: int, prec: int, rnd=round_down) -> tuple:
    """10^b rounded to prec bits by rnd, the raw mpf that mpf_pow_int(ften, b, prec, rnd) returns.

    mpf_pow_int carries prec + 4 bitcount(b) + 4 bits through about
    2 bitcount(b) products, so it returns 10^b rounded by rnd unless 10^b
    lies within its tiny error of a rounding boundary: a multiple of the ulp
    for round_down, a half-ulp for round_nearest.  exp(b ln 10) at 64 +
    bitcount(b) + 10 bits beyond prec is off by far less than one unit of the
    64 bits below prec; where those bits lie within _GUARD_UNITS of the
    boundary, the rounding is left to mpf_pow_int itself.
    """
    wp = prec + 64 + bitcount(b) + 10
    _, man, exp, bc = mpf_exp(mpf_mul(from_int(b), mpf_ln10(wp), wp), wp)
    shift = bc - prec - 64
    top = man >> shift if shift >= 0 else man << -shift
    guard = (top - (0 if rnd == round_down else 2**63)) % 2**64
    if min(guard, 2**64 - guard) <= _GUARD_UNITS:
        return mpf_pow_int(ften, b, prec, rnd)
    return from_man_exp(top, exp + shift, prec, rnd)


def _nstr(x, digits: int) -> str:
    """mp.nstr(x, digits), byte for byte, without mpmath's costly power of ten.

    mpmath 1.3's to_digits_exp cuts an mpf with |exp + bc| > 3500 down by
    10^b, b = int(exp log 2 / log 10), built by mpf_pow_int; near the general
    threshold b has about 700 bits and that power costs milliseconds.  For
    b >= _FAST_POW10_MIN this mirrors the cut-down step with _pow10, then
    to_digits_exp's round-down division and digit conversion and to_str's
    rounding and layout.  Every other value goes to mp.nstr.
    """
    s = getattr(x, "_mpf_", None)
    if s is None or not s[1] or abs(s[2] + s[3]) <= 3500:
        return mp.nstr(x, digits)
    sign, man, exp, bc = s
    expprec = bitcount(abs(exp)) + 5
    b = to_int(mpf_div(mpf_mul(from_int(exp), mpf_ln2(expprec)), mpf_ln10(expprec), expprec))
    if b < _FAST_POW10_MIN:
        return mp.nstr(x, digits)
    dps = digits + 3  # to_str asks to_digits_exp for 3 digits more
    bitprec = int(dps * math.log(10, 2)) + 10
    s = mpf_div((0, man, exp, bc), _pow10(b, bitprec), bitprec)
    fixprec = max(bitprec - s[2] - s[3], 0)
    fixdps = int(fixprec / math.log(10, 2) + 0.5)
    text = numeral(bin_to_radix(to_fixed(s, fixprec), fixprec, 10, fixdps), base=10, size=dps)
    exponent = b + len(text) - fixdps - 1
    head = text[:digits]
    if len(text) > digits and text[digits] in "56789":
        head = str(int(head) + 1).zfill(digits)
        if len(head) > digits:
            head, exponent = head[:digits], exponent + 1
    mantissa = (head[0] + "." + head[1:]).rstrip("0")
    if mantissa.endswith("."):
        mantissa += "0"
    # an exponent near b >= 10^6 lies far beyond to_str's fixed-point range
    return ("-" if sign else "") + mantissa + "e+" + str(exponent)


def _fmt(x) -> str:
    """A ledger field; mpf(x) rounds to the working precision, so call it under
    the ledger's workdps.  Ints (a step count) print exactly."""
    if isinstance(x, int):
        return str(x)
    return _nstr(mpf(x), _NSTR_DIGITS)


def _canonical_input(value) -> str:
    """The input string a ledger stores and audits; an mpf keeps every digit
    of the working precision, so call it under the ledger's workdps."""
    if isinstance(value, str):
        return value.strip()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64's own repr names its type
    return _nstr(value, mp.dps)


def _parse_input(text: str, name: str) -> mpf:
    """mpf(text), which also reads "p/q"; a bad or non-finite text names its input.

    mpmath 1.3's from_str reads a decimal man e exp with exp > 400 as man
    times mpf_pow_int(ften, exp, prec + 10), rounded to nearest.  From exp >=
    _FAST_POW10_MIN that power comes from _pow10, which returns the same
    truncated power; every other text goes to mpf(text).
    """
    try:
        man, exp = str_to_man_exp(text.strip())
    except ValueError:  # "p/q", "inf", "nan" or a bad text: mpf(text) decides
        man, exp = 0, 0
    if exp >= _FAST_POW10_MIN:
        prec = mp.prec + 10
        return mp.make_mpf(mpf_mul(from_int(man, prec), _pow10(exp, prec), mp.prec, round_nearest))
    try:
        value = mpf(text)
        if mp.isfinite(value):
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise StructuralError(f"{name} must be a finite number, got {text!r}")


def _loglog_shifted(log_order: mpf) -> mpf:
    """loglog(N + 3) computed from log N; above 1e6 the +3 is below precision."""
    if log_order > mpf("1e6"):
        return mp.log(log_order)
    return mp.log(mp.log(mp.exp(log_order) + 3))


@dataclass(frozen=True)
class LedgerRow(Record):
    name: str
    anchor: str
    lhs: str
    rhs: str
    relation: str
    passed: bool
    constant_dependent: bool
    note: str = ""


_RELATIONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    # two forms of one quantity: equal up to the last 5 working digits
    "==": lambda a, b: abs(a - b) <= abs(b) * mp.power(10, -(mp.dps - 5)),
}


def _row(name, anchor, lhs, relation, rhs, constant_dependent, note="") -> dict:
    """LedgerRow fields for lhs <relation> rhs, with the raw sides compared once."""
    return dict(
        name=name,
        anchor=anchor,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
        passed=bool(_RELATIONS[relation](lhs, rhs)),
        constant_dependent=constant_dependent,
        note=note,
    )


@dataclass(frozen=True)
class CascadeLedger(Record):
    mode: str
    dps: int
    inputs: dict
    constants: dict
    derived: dict
    rows: tuple
    all_pass: bool

    def row(self, name: str) -> LedgerRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise StructuralError(f"no ledger row named {name!r}")


def _mode_setup(mode: str, dps: int, constants: dict | None):
    """Check mode, dps and constants in turn; (row function, constants, bracket)."""
    if mode not in MODES:
        raise StructuralError(f"mode must be one of {MODES}, got {mode!r}")
    if dps < 15:
        raise StructuralError(f"dps must be >= 15, got {dps}")
    if dps > MAX_DPS:
        raise GuardError(f"dps {dps} exceeds the cap MAX_DPS = {MAX_DPS}")
    mode_rows, defaults, bracket = _MODE_TABLE[mode]
    merged = dict(defaults)
    for key, value in (constants or {}).items():
        if key not in merged:
            raise StructuralError(
                f"unknown constant {key!r} for mode {mode!r}; known: {sorted(merged)}"
            )
        merged[key] = positive(value, f"constant {key!r}", to_float)
    return mode_rows, merged, bracket


def _evaluate(mode_rows, log_order_str: str, w_str: str, consts: dict):
    """Check the canonical inputs and evaluate one cascade at the working precision.

    Returns (derived, rows) with raw values; see _row for the row fields.
    The caller holds mp.workdps(dps) for the ledger's dps.
    """
    logn = _parse_input(log_order_str, "logN")
    wv = _parse_input(w_str, "w")
    if not logn > mp.e:
        raise StructuralError(f"need log N > e, got {log_order_str}")
    if not wv > 1:
        raise StructuralError(f"need w > 1, got {w_str}")
    return mode_rows(logn, wv, consts)


def cascade_audit(
    mode: str,
    log_order,
    w,
    constants: dict | None = None,
    dps: int = DEFAULT_DPS,
) -> CascadeLedger:
    """Evaluate one cascade at (log N, w) and return the inequality ledger."""
    mode_rows, consts, _ = _mode_setup(mode, dps, constants)
    with mp.workdps(dps):
        log_order_str = _canonical_input(log_order)
        w_str = _canonical_input(w)
        derived, raw_rows = _evaluate(mode_rows, log_order_str, w_str, consts)
        rows = tuple(
            LedgerRow(**{**r, "lhs": _fmt(r["lhs"]), "rhs": _fmt(r["rhs"])}) for r in raw_rows
        )
        derived = {key: _fmt(value) for key, value in derived.items()}
    return CascadeLedger(
        mode=mode,
        dps=dps,
        inputs={"logN": log_order_str, "w": w_str},
        constants=consts,
        derived=derived,
        rows=rows,
        all_pass=all(r.passed for r in rows),
    )


def _general_rows(logn: mpf, wv: mpf, consts: dict):
    ll = mp.log(logn)
    ll_shifted = _loglog_shifted(logn)
    w1 = mp.sqrt(wv)
    eps = mp.power(wv, mpf(-1) / 13)
    eps_t = eps / 4
    nt0 = mp.ceil(w1 * logn * ll**2)
    nt1 = 2 * nt0
    m = wv * logn * ll**10
    j0 = mp.ceil(ll / 2)
    n0 = eps_t * w1 * logn * ll
    nu0 = int(mp.floor(mp.log(2 * ll / eps_t, 2)))
    ratio_floor0 = n0**2 / (4 * w1**2 * logn**2 * ll**4)
    budget = w1 * logn * ll**4
    rate = mpf(consts["count_rate"])

    rows: list[dict] = []

    rows.append(_row(
        "growth_cap", "w <= loglog(N + 3)", wv, "<=", ll_shifted, constant_dependent=False
    ))

    applicability = eps_t**2 * w1 / 32
    rows.append(_row(
        "packed_bound_applicability", "(eps/4)^2 sqrt(w) / 32 > 1",
        applicability, ">", mpf(1), constant_dependent=False,
        note="smallest block size must clear the packed-bound size floor",
    ))

    form_a = (n0 / (2 * w1 * logn * ll**2)) ** 2
    rows.append(_row(
        "ratio_floor_consistency",
        "(n_v / (2 sqrt(w) logN llN^2))^2 == n_v^2 / (4 w logN^2 llN^4)",
        form_a, "==", ratio_floor0, constant_dependent=False,
        note="both printed forms of the per-level energy-ratio floor, at level 0",
    ))

    if j0 >= _FAST_POW10_MIN:
        ladder_top = mp.make_mpf(_pow10(int(j0), mp.prec, round_nearest))
    else:
        ladder_top = mp.power(10, j0)
    rows.append(_row(
        "ratio_ladder_exhaustion", "10^ceil(llN/2) > 2 ceil(sqrt(w) logN llN^2)",
        ladder_top, ">", nt1, constant_dependent=False,
        note="top of the energy-ratio ladder exceeds any admissible |X|",
    ))

    count_exp = 2 * rate * w1 * logn * ll**4
    decay_exp = eps**6 * mp.power(ll, -6) * m / mp.power(2, 26)
    rows.append(_row(
        "count_vs_decay_margin", "2 C sqrt(w) logN llN^4 < eps^6 llN^-6 m / 2^26",
        count_exp, "<", decay_exp, constant_dependent=True,
        note="level 0; both sides scale by the same 10^j at higher levels",
    ))

    per_level = mp.log(nu0 + 1) + count_exp - decay_exp
    rows.append(_row(
        "per_level_sum", "log(nu0 + 1) + (count - decay) <= -sqrt(w) logN llN^4 / 2",
        per_level, "<=", -budget / 2, constant_dependent=True,
        note="log scale; summing the doubling sizes within one level",
    ))

    level_cap = int(j0) if j0 < 64 else 64
    correction = mp.zero
    for j in range(1, level_cap):
        correction += safe_exp(-(mp.power(10, j) - 1) * budget / 2)
    total_log = -budget / 2 + mp.log1p(correction)
    rows.append(_row(
        "level_total",
        "sum_j exp(-10^j sqrt(w) logN llN^4 / 2) <= exp(-sqrt(w) logN llN^4 / 3)",
        total_log, "<=", -budget / 3, constant_dependent=False,
        note="log scale; geometric-in-the-exponent sum over levels",
    ))

    derived = {
        "loglogN": ll,
        "loglogN_shifted": ll_shifted,
        "w1": w1,
        "epsilon": eps,
        "epsilon_quarter": eps_t,
        "block_floor": nt0,
        "block_cap": nt1,
        "row_count_floor": m,
        "ladder_levels": j0,
        "doubling_base": n0,
        "doubling_steps": nu0,
        "ratio_floor_level0": ratio_floor0,
        "level_budget": budget,
    }
    return derived, rows


def _exponent2_rows(logn: mpf, wv: mpf, consts: dict):
    ll = mp.log(logn)
    eps = mp.power(wv, mpf(-1) / 13)
    ratio_floor = mp.sqrt(logn) / ll
    dim_cap = mpf(consts["dim_rate"]) * ratio_floor * ll**2
    n_prime = (eps / 2) * wv * ll * mp.power(logn, mpf(3) / 2)
    span_log = dim_cap * mp.log(3)

    rows: list[dict] = []

    floor_cond = eps**7 * wv * ll * mp.sqrt(logn)
    rows.append(_row(
        "deviation_floor_condition", "eps^7 w llN sqrt(logN) >= 2^25",
        floor_cond, ">=", mp.power(2, 25), constant_dependent=False,
    ))

    size_lhs = min(eps * n_prime / 8, n_prime)
    size_rhs = 2000 * mp.power(eps / 4, -4) * span_log
    rows.append(_row(
        "restricted_size_hypothesis", "min(eps n'/8, n') >= 2000 (eps/4)^-4 d log 3",
        size_lhs, ">=", size_rhs, constant_dependent=True,
        note="surviving row/column sizes clear the low-energy bound's floor "
        "inside the spanned subgroup",
    ))

    margin_lhs = eps**2 * n_prime / 160
    margin_rhs = mp.power(2, 19) * dim_cap**2 / eps**4 + dim_cap * logn
    rows.append(_row(
        "count_vs_decay_margin", "eps^2 n'/160 > 2^19 d^2/eps^4 + d logN",
        margin_lhs, ">", margin_rhs, constant_dependent=True,
        note="decay beats the subgroup entropy cost N^d",
    ))

    clean_lhs = eps**2 * n_prime
    clean_rhs = dim_cap**2 / eps**4 + dim_cap * logn
    rows.append(_row(
        "clean_growth_margin", "eps^2 n' >= d^2/eps^4 + d logN",
        clean_lhs, ">=", clean_rhs, constant_dependent=True,
        note="unit-constant form of the growth requirement",
    ))

    derived = {
        "loglogN": ll,
        "epsilon": eps,
        "ratio_floor": ratio_floor,
        "dim_cap": dim_cap,
        "surviving_size": n_prime,
        "span_log": span_log,
    }
    return derived, rows


# mode -> (row function, default constants, the u range find_threshold bisects)
_MODE_TABLE = {
    "general": (_general_rows, {"count_rate": 1.0}, (0.7, 520.0)),
    "exponent2": (_exponent2_rows, {"dim_rate": 1.0}, (0.2, 12.0)),
}
MODES = tuple(_MODE_TABLE)


@dataclass(frozen=True)
class ThresholdSearch(Record):
    """Bisection record for the least all-pass size along logN = exp(w)."""

    mode: str
    constants: dict
    dps: int
    bracket: tuple
    tolerance: float
    probes: tuple = field(default=())
    passing_u: float = 0.0
    passing_w: str = ""
    passing_log_order: str = field(default="", metadata={"json": "passing_logN"})


_THRESHOLD_TOLERANCE = 1e-3  # bisection stops once the u bracket is this narrow


def find_threshold(
    mode: str,
    constants: dict | None = None,
    dps: int = DEFAULT_DPS,
) -> ThresholdSearch:
    """Bisect for the least u with an all-pass ledger at w = e^u, logN = e^w.

    The probe curve sets loglog N a relative 1e-15 above w, so the growth
    cap binds but cannot flap on last-ulp rounding, and a single parameter
    sweeps both inputs.  Probes are recorded in evaluation order; sorted by
    u their pass flags must form a monotone step, which the caller can
    verify.

    Each probe records w and logN as strings and evaluates those strings as
    a ledger does, so they re-audit to its flag.
    """
    mode_rows, consts, (lo, hi) = _mode_setup(mode, dps, constants)
    probes: list[dict] = []

    def probe(u: float) -> dict:
        with mp.workdps(dps):
            wv = mp.exp(mpf(repr(u)))
            w_str = _canonical_input(wv)
            logn_str = _canonical_input(mp.exp(wv * (1 + mpf("1e-15"))))
            _, rows = _evaluate(mode_rows, logn_str, w_str, consts)
        entry = {
            "u": u,
            "w": w_str,
            "logN": logn_str,
            "all_pass": all(r["passed"] for r in rows),
        }
        probes.append(entry)
        return entry

    low = probe(lo)
    high = probe(hi)
    if low["all_pass"]:
        raise GuardError(f"bracket low end u={lo} already passes; widen downward")
    if not high["all_pass"]:
        raise GuardError(f"bracket high end u={hi} still fails; widen upward")
    lo_u, hi_u = lo, hi
    hi_entry = high
    while hi_u - lo_u > _THRESHOLD_TOLERANCE:
        mid = (lo_u + hi_u) / 2.0
        entry = probe(mid)
        if entry["all_pass"]:
            hi_u, hi_entry = mid, entry
        else:
            lo_u = mid
    return ThresholdSearch(
        mode=mode,
        constants=consts,
        dps=dps,
        bracket=(lo, hi),
        tolerance=_THRESHOLD_TOLERANCE,
        probes=tuple(probes),
        passing_u=hi_u,
        passing_w=hi_entry["w"],
        passing_log_order=hi_entry["logN"],
    )
