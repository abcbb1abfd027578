"""Closed-form tail bounds, counting bounds, and size thresholds.

Every function evaluates a probability bound or threshold as a plain float.
Exponents are computed first and clipped before exponentiation, so parameter
ranges that would under- or overflow a double still produce meaningful
values (0.0, 1.0, or inf for a vacuous unnormalized bound).

Unnamed absolute constants default to 1 and are explicit keyword arguments;
callers that care can override them.  Exact combinatorial checks live in the
set-level modules, not here: this module is float arithmetic by design.  The
one exception is a flag that compares a rounded log N with its boundary:
within 4 ulps of it, mpmath at 50 digits decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._record import Record
from .errors import StructuralError, epsilon_in, positive, to_float

__all__ = [
    "tail_probability",
    "hoeffding_tail",
    "joint_deviation_bound",
    "ExistentialBounds",
    "existential_deviation_bounds",
    "low_energy_exponent",
    "low_energy_deviation_bound",
    "ThresholdBound",
    "threshold_deviation_bound",
    "packed_deviation_bound",
    "LowDimCountBound",
    "low_dimension_count_bound",
    "SizeThresholds",
    "size_thresholds",
]

# doubles underflow exp() near -745 and overflow near +709
_EXP_FLOOR = -745.0
_EXP_CEIL = 709.0


def _clipped_exp(exponent: float, floor: float = _EXP_FLOOR) -> float:
    """exp(exponent), or inf above _EXP_CEIL and 0.0 below floor."""
    if exponent > _EXP_CEIL:
        return math.inf
    if exponent < floor:
        return 0.0
    return math.exp(exponent)


def tail_probability(exponent: float) -> float:
    """exp(exponent) clipped into [0, 1]."""
    return 1.0 if exponent >= 0.0 else _clipped_exp(exponent)


def hoeffding_tail(deviation: float, count: int) -> float:
    """P(|sum of count fair +-1/2 coins| >= deviation) <= exp(-2 deviation^2 / count)."""
    if count < 1:
        raise StructuralError(f"count must be >= 1, got {count}")
    if not deviation >= 0:
        raise StructuralError(f"deviation must be >= 0, got {deviation}")
    deviation = float(deviation)
    try:
        exponent = -2.0 * deviation**2 / count
    except OverflowError:  # deviation^2 is beyond a double, deviation / count is not
        exponent = -2.0 * deviation * (deviation / count)
    return tail_probability(exponent)


def joint_deviation_bound(epsilon: float, k: int, n: int) -> float:
    """Tail bound exp(-eps^2 k n / 2) for k jointly low-overlap deviation events."""
    if k < 0:
        raise StructuralError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1.0
    eps = epsilon_in(epsilon, parse=to_float)
    if n < 1:
        raise StructuralError(f"n must be >= 1, got {n}")
    return tail_probability(-(eps**2) * k * n / 2.0)


@dataclass(frozen=True)
class ExistentialBounds(Record):
    """Union bound and its clean refinement for existential deviation events.

    union_bound = (N exp(-eps^2 n / 2))^k counts all placements directly;
    refined_bound = exp(-eps^2 n k / 4) absorbs the N^k factor, valid once
    n >= 4 log N / eps^2 (threshold_ok).  Both are reported unconditionally.
    """

    union_bound: float
    refined_bound: float
    threshold_ok: bool
    threshold: float


def existential_deviation_bounds(
    order: float, epsilon: float, n: int, k: int
) -> ExistentialBounds:
    eps = epsilon_in(epsilon, parse=to_float)
    order = positive(order, "order", to_float)
    if order < 2:
        raise StructuralError(f"group order must be >= 2, got {order}")
    if n < 1 or k < 1:
        raise StructuralError(f"need n, k >= 1, got n={n}, k={k}")
    log_order = math.log(order)
    union_exp = k * (log_order - eps**2 * n / 2.0)
    union = _clipped_exp(union_exp)
    refined = tail_probability(-(eps**2) * n * k / 4.0)
    threshold = 4.0 * log_order / eps**2 if eps**2 else math.inf  # eps^2 may underflow
    return ExistentialBounds(
        union_bound=union,
        refined_bound=refined,
        threshold_ok=n >= threshold,
        threshold=threshold,
    )


def low_energy_exponent(order: float, epsilon: float, r: float, big_k: float) -> float:
    """2000 log^2 N / eps^4 - eps^2 r K / 40, the raw exponent; a term beyond a
    double is inf, and where both are, the sign of their exact difference decides."""
    eps = epsilon_in(epsilon, 1, to_float)
    order = positive(order, "order", to_float)
    log_order = math.log(order)
    # eps^4 may underflow to 0; the quotient is then inf, or 0 at log N = 0
    gain = 2000.0 * log_order**2 / eps**4 if eps**4 else math.inf if log_order else 0.0
    loss = eps**2 * float(r) * float(big_k) / 40.0
    if gain == loss == math.inf:  # log(gain / loss), a sum of finite logs
        return math.copysign(math.inf, math.log(80000.0 * log_order**2) - 6.0 * math.log(eps)
                             - math.log(abs(r)) - math.log(abs(big_k)))
    return gain - loss


def low_energy_deviation_bound(
    order: float, epsilon: float, r: float, big_k: float, constant: float = 1.0
) -> float:
    """C exp(2000 log^2 N / eps^4 - eps^2 r K / 40) for low-energy pairs.

    Bounds the probability that some pair (X, Y) with |Y| >= |X| >=
    2000 eps^-4 log N, |Y| >= r and energy ratio at least K deviates by eps.
    Values above 1 are vacuous but returned as computed.
    """
    if not (1 <= r < math.inf and 1 <= big_k < math.inf):
        raise StructuralError(f"need finite r, K >= 1, got r={r}, K={big_k}")
    constant = positive(constant, "constant", to_float)
    return _clipped_exp(low_energy_exponent(order, epsilon, r, big_k) + math.log(constant))


@dataclass(frozen=True)
class ThresholdBound(Record):
    """Low-energy bound specialized to the root-log energy-ratio floor.

    ratio_floor M = (loglog N)^-1 sqrt(log N); row_threshold is the |Y| floor
    (eps/4) w loglog N log^(3/2) N; value applies the low-energy bound at
    deviation eps/2 with K = M.  epsilon_ok records the admissibility
    condition eps^7 >= 2^25 / (w loglog N sqrt(log N)).
    """

    value: float
    ratio_floor: float
    row_threshold: float
    epsilon_ok: bool


def threshold_deviation_bound(
    order: float, epsilon: float, w: float, constant: float = 1.0
) -> ThresholdBound:
    eps = epsilon_in(epsilon, 1, to_float)
    order = positive(order, "order", to_float)
    w = positive(w, "w", to_float)
    log_order = math.log(order)
    if log_order <= 1.0:
        raise StructuralError("order must satisfy log(order) > 1")
    loglog = math.log(log_order)
    ratio_floor = math.sqrt(log_order) / loglog
    row_threshold = (eps / 4.0) * w * loglog * log_order**1.5
    epsilon_ok = eps**7 * w * loglog * math.sqrt(log_order) >= 2.0**25
    value = low_energy_deviation_bound(
        order, eps / 2.0, max(row_threshold, 1.0), max(ratio_floor, 1.0), constant
    )
    return ThresholdBound(
        value=value,
        ratio_floor=ratio_floor,
        row_threshold=row_threshold,
        epsilon_ok=epsilon_ok,
    )


def packed_deviation_bound(epsilon: float, m: float, big_k: float) -> float:
    """exp(-eps^6 m K / 64): deviation by eps on some Y with |Y| >= m, ratio >= K."""
    eps = epsilon_in(epsilon, parse=to_float)
    if not (m >= 1 and big_k >= 1):
        raise StructuralError(f"need m, K >= 1, got m={m}, K={big_k}")
    return tail_probability(-(eps**6) * float(m) * float(big_k) / 64.0)


@dataclass(frozen=True)
class LowDimCountBound(Record):
    """Counting bound e^(2nd) for sets of size <= n and dimension <= d."""

    log_bound: float
    log_intermediate: float
    bound: float
    intermediate: float
    threshold_ok: bool
    chain_ok: bool


def _log_order_at_most(order: float, log_order: float, tenths: int, n: float) -> bool:
    """log N <= (tenths / 10) n, given log_order = math.log(order).

    The rounded log decides unless it lies within 4 ulps of the boundary,
    where 50 digits do; order and n are doubles, so only the log is rounded.
    """
    bound = tenths / 10 * n
    if abs(log_order - bound) > 4 * math.ulp(bound):
        return log_order <= bound
    # imported here: importing mpmath ahead of the CLI's other modules raised
    # its peak RSS by about 1.2 MB
    from mpmath import mp

    with mp.workdps(50):
        return bool(10 * mp.log(order) <= tenths * mp.mpf(n))


def low_dimension_count_bound(order: float, n: float, d: float) -> LowDimCountBound:
    """e^(2nd) vs the raw count N^d 3^(nd), with the bridging chain checked.

    For d >= 1 the chain N^d 3^(nd) < e^((log N + 1.1 n) d) <= e^(2nd) holds
    exactly when log N <= 0.9 n, since its first link, nd log 3 < 1.1 nd,
    always holds; chain_ok reports that (and is true for d < 1, where no
    chain is claimed).  threshold_ok reports n >= 2 log N, which implies it.
    """
    order = positive(order, "order", to_float)
    if not (1 <= n < math.inf and 0 <= d < math.inf):
        raise StructuralError(f"need finite n >= 1 and d >= 0, got n={n}, d={d}")
    log_order = math.log(order)
    n, d = float(n), float(d)
    log_bound = 2.0 * d * n  # 2d is exact, so this is 2nd wherever 2nd is a double
    log_intermediate = d * log_order + n * d * math.log(3.0)
    if math.isnan(log_intermediate):  # d log N = -inf against nd log 3 = +inf
        log_intermediate = d * (log_order + n * math.log(3.0))
    threshold_ok = _log_order_at_most(order, log_order, 5, n)
    chain_ok = d < 1 or _log_order_at_most(order, log_order, 9, n)
    # log_bound >= 0 never meets the floor; log_intermediate keeps exp()'s own underflow
    bound = _clipped_exp(log_bound)
    inter = _clipped_exp(log_intermediate, -math.inf)
    return LowDimCountBound(
        log_bound=log_bound,
        log_intermediate=log_intermediate,
        bound=bound,
        intermediate=inter,
        threshold_ok=threshold_ok,
        chain_ok=chain_ok,
    )


@dataclass(frozen=True)
class SizeThresholds(Record):
    """Minimum |X| and |Y| for which a density guarantee kicks in."""

    x_min: float
    y_min: float


_THRESHOLD_KINDS = ("baseline", "refined", "exponent-two")


def size_thresholds(kind: str, order: float, w: float) -> SizeThresholds:
    """Headline size thresholds: baseline (w log N, w log^2 N); refined
    (w log N (loglog N)^2, w log N (loglog N)^10); exponent-two (both
    w loglog N log^(3/2) N)."""
    if kind not in _THRESHOLD_KINDS:
        raise StructuralError(f"kind must be one of {_THRESHOLD_KINDS}, got {kind!r}")
    order = positive(order, "order", to_float)
    w = positive(w, "w", to_float)
    if order < 16:
        raise StructuralError(f"order must be >= 16, got {order}")
    log_order = math.log(order)
    loglog = math.log(log_order)
    if kind == "baseline":
        return SizeThresholds(x_min=w * log_order, y_min=w * log_order**2)
    if kind == "refined":
        return SizeThresholds(
            x_min=w * log_order * loglog**2, y_min=w * log_order * loglog**10
        )
    both = w * loglog * log_order**1.5
    return SizeThresholds(x_min=both, y_min=both)
