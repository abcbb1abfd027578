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
find_threshold reads nothing but the pass flags, so its probes skip that
formatting, which dominates at huge exponents.

Ledger determinism: inputs are canonicalized to strings at the ledger's
precision before parsing, so re-auditing at a ledger's stored inputs
reproduces every field bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from mpmath import mp, mpf

from ._record import Record
from .errors import GuardError, StructuralError

__all__ = [
    "MAX_DPS",
    "LedgerRow",
    "CascadeLedger",
    "ThresholdSearch",
    "cascade_audit",
    "find_threshold",
    "safe_exp",
]

MODES = ("general", "exponent2")
DEFAULT_DPS = 30
# precision cap: a general-mode threshold search at this dps took about 3.3 s
# (1.2 s at the default) on a 2-vCPU x86-64 VM, while 10^8 digits did not
# finish in a minute
MAX_DPS = 1000
_NSTR_DIGITS = 20
# beyond this magnitude the result's own exponent becomes an astronomically
# long integer; saturate instead of materializing it
_EXP_ARG_LIMIT = mpf("1e15")

_DEFAULT_CONSTANTS = {
    "general": {"count_rate": 1.0},
    "exponent2": {"dim_rate": 1.0},
}


def safe_exp(x: mpf) -> mpf:
    if x < -_EXP_ARG_LIMIT:
        return mp.zero
    if x > _EXP_ARG_LIMIT:
        return mp.inf
    return mp.exp(x)


def _fmt(x) -> str:
    """A ledger field; mpf(x) rounds to the working precision, so call it under
    the ledger's workdps.  Ints (a step count) print exactly."""
    if isinstance(x, int):
        return str(x)
    return mp.nstr(mpf(x), _NSTR_DIGITS)


def _canonical_input(value) -> str:
    """The input string a ledger stores and audits; an mpf keeps every digit
    of the working precision, so call it under the ledger's workdps."""
    if isinstance(value, str):
        return value.strip()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64's own repr names its type
    return mp.nstr(value, mp.dps)


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


def _merge_constants(mode: str, constants: dict | None) -> dict:
    merged = dict(_DEFAULT_CONSTANTS[mode])
    for key, value in (constants or {}).items():
        if key not in merged:
            raise StructuralError(
                f"unknown constant {key!r} for mode {mode!r}; known: {sorted(merged)}"
            )
        merged[key] = float(value)
        if not 0 < merged[key] < math.inf:
            raise StructuralError(f"constant {key!r} must be positive and finite, got {value!r}")
    return merged


def _check_dps(dps: int) -> None:
    if dps < 15:
        raise StructuralError(f"dps must be >= 15, got {dps}")
    if dps > MAX_DPS:
        raise GuardError(f"dps {dps} exceeds the cap MAX_DPS = {MAX_DPS}")


def _evaluate(mode: str, log_order_str: str, w_str: str, consts: dict):
    """Check the canonical inputs and evaluate one cascade at the working precision.

    Returns (derived, rows) with raw values; see _row for the row fields.
    The caller holds mp.workdps(dps) for the ledger's dps.
    """
    try:
        logn = mpf(log_order_str)
        wv = mpf(w_str)
    except ZeroDivisionError:  # mpf parses "p/q" strings
        raise StructuralError(
            f"zero denominator in log N or w: {log_order_str}, {w_str}"
        ) from None
    if not logn > mp.e:
        raise StructuralError(f"need log N > e, got {log_order_str}")
    if not wv > 1:
        raise StructuralError(f"need w > 1, got {w_str}")
    if mp.isinf(logn) or mp.isinf(wv):
        raise StructuralError(f"need finite log N and w, got {log_order_str}, {w_str}")
    if mode == "general":
        return _general_rows(logn, wv, consts)
    return _exponent2_rows(logn, wv, consts)


def cascade_audit(
    mode: str,
    log_order,
    w,
    constants: dict | None = None,
    dps: int = DEFAULT_DPS,
) -> CascadeLedger:
    """Evaluate one cascade at (log N, w) and return the inequality ledger."""
    if mode not in MODES:
        raise StructuralError(f"mode must be one of {MODES}, got {mode!r}")
    _check_dps(dps)
    consts = _merge_constants(mode, constants)
    with mp.workdps(dps):
        log_order_str = _canonical_input(log_order)
        w_str = _canonical_input(w)
        derived, raw_rows = _evaluate(mode, log_order_str, w_str, consts)
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


_DEFAULT_BRACKETS = {"general": (0.7, 520.0), "exponent2": (0.2, 12.0)}


def find_threshold(
    mode: str,
    constants: dict | None = None,
    dps: int = DEFAULT_DPS,
    bracket: tuple | None = None,
    tolerance: float = 1e-3,
) -> ThresholdSearch:
    """Bisect for the least u with an all-pass ledger at w = e^u, logN = e^w.

    The probe curve sets loglog N a relative 1e-15 above w, so the growth
    cap binds but cannot flap on last-ulp rounding, and a single parameter
    sweeps both inputs.  Probes are recorded in evaluation order; sorted by
    u their pass flags must form a monotone step, which the caller can
    verify.
    """
    if mode not in MODES:
        raise StructuralError(f"mode must be one of {MODES}, got {mode!r}")
    lo, hi = bracket if bracket is not None else _DEFAULT_BRACKETS[mode]
    if not (0 < lo < hi):
        raise StructuralError(f"need 0 < lo < hi, got ({lo}, {hi})")
    _check_dps(dps)
    consts = _merge_constants(mode, constants)
    probes: list[dict] = []

    def probe(u: float) -> dict:
        with mp.workdps(dps):
            wv = mp.exp(mpf(repr(u)))
            logn = mp.exp(wv * (1 + mpf("1e-15")))
            # the recorded strings are what is audited, so the stored
            # inputs reproduce the ledger; only the pass flags are read
            w_str = mp.nstr(wv, mp.dps)
            logn_str = mp.nstr(logn, mp.dps)
            _, rows = _evaluate(mode, logn_str, w_str, consts)
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
    while hi_u - lo_u > tolerance:
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
        tolerance=tolerance,
        probes=tuple(probes),
        passing_u=hi_u,
        passing_w=hi_entry["w"],
        passing_log_order=hi_entry["logN"],
    )
