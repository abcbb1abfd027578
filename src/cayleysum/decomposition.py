"""Energy-driven decomposition of a set into structured and unstructured parts.

find_structured_subset realizes an existence guarantee as a checked search:
given A, B with |A| >= |B| and K = |A||B|^2 / E(A, B), the least K for which
E(A,B) >= |A||B|^2 / K holds, it returns B_* inside B with
E(A, B_*) >= E(A,B) / 32 (hard postcondition) and reports whether the
witness dimension stays below dim_constant * K * log|A| (soft check, the
guarantee's shape, with a configurable constant).

Every energy here is a sum over B's overlap matrix: with b_1..b_m the
elements of B, O[j, k] = |(A + b_j) ∩ (A + b_k)| = |A ∩ (A + b_k - b_j)|
(diagonal |A|), so E(A, S) = 1_S' O 1_S and E(A, B) is the sum of O.  O is
counted once per partition, by one _row_counts call over the m^2 differences.
Exhaustive mode evaluates the form for all 2^m - 1 subsets in one product;
greedy mode keeps O 1_S and takes each candidate's gain 2 (O 1_S)_j + |A|.

energy_partition iterates the finder: while the residual part keeps energy
ratio at most M, extract a structured piece and continue.  Each extraction
drops the residual energy by a factor of at most 31/32, which bounds the
step count by ceil(log_{32/31}(|B| M / K)) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._record import Record
from .dissociation import EXACT_DIMENSION_GUARD, _exact_search, additive_dimension
from .errors import GuardError, StructuralError, check, positive, to_float
from .subsets import GroupSubset, _row_counts, additive_energy

__all__ = [
    "ENERGY_KEEP_DENOMINATOR",
    "EXHAUSTIVE_SUBSET_GUARD",
    "FINDER_MODES",
    "DEFAULT_DIMENSION_CONSTANT",
    "StructuredSubsetReport",
    "DecompositionStep",
    "DecompositionResult",
    "find_structured_subset",
    "energy_partition",
]

# the structured-subset finder's modes
FINDER_MODES = ("exhaustive", "greedy")
# the finder must keep at least 1/32 of the input energy
ENERGY_KEEP_DENOMINATOR = 32
# exhaustive mode enumerates all subsets of B: refuse above this size
EXHAUSTIVE_SUBSET_GUARD = 12
# default multiplier in the soft dimension target K * log|A|
DEFAULT_DIMENSION_CONSTANT = 16.0


@dataclass
class StructuredSubsetReport(Record):
    """Finder output: the subset, its energy, and dimension bookkeeping."""

    subset: GroupSubset
    energy: int
    input_energy: int
    dim_value: int
    dim_exact: bool
    dim_target: float
    dim_within_target: bool


def find_structured_subset(
    a: GroupSubset,
    b: GroupSubset,
    mode: str = "exhaustive",
    dim_constant: float = DEFAULT_DIMENSION_CONSTANT,
) -> StructuredSubsetReport:
    """Find B_* in B keeping at least 1/32 of E(A, B), preferring low dimension.

    K = |A||B|^2 / E(A, B) sets the dimension target dim_constant * K * log|A|.
    Exhaustive mode scans all nonempty subsets of B (guard: |B| <= 12) and
    returns the qualifying subset minimizing (dimension, size, bitmask).
    Greedy mode grows B_* by the element with the largest energy gain until
    the threshold is met.
    """
    overlap = _overlap_matrix(a, b, mode, min_size=1)
    dim_constant = positive(dim_constant, "dim_constant", to_float)
    return _find(a, b.indices, overlap, mode, dim_constant)


def _overlap_matrix(a: GroupSubset, b: GroupSubset, mode: str, min_size: int) -> np.ndarray:
    """The entry check both public functions share, then B's overlap matrix.

    overlap[j, k] = |A ∩ (A + b_k - b_j)|: the row counts |S ∩ (X + y)| for
    S = X = A and y over the |B|^2 differences, in one _row_counts call.
    """
    if a.group != b.group:
        raise StructuralError("A and B live in different groups")
    if b.size < min_size:
        raise StructuralError(
            "B must be nonempty" if min_size == 1 else f"need |B| >= {min_size}, got {b.size}"
        )
    if a.size < b.size:
        raise StructuralError(f"need |A| >= |B|, got {a.size} < {b.size}")
    if mode not in FINDER_MODES:
        raise StructuralError(f"unknown finder mode {mode!r}")
    diffs = a.group._combine(b.indices[None, :], b.indices[:, None], -1)  # b_k - b_j
    return _row_counts(a.group, a.bits, a.indices, diffs.ravel()).reshape(diffs.shape)


def _find(
    a: GroupSubset, b_idx: np.ndarray, overlap: np.ndarray, mode: str, dim_constant: float
) -> StructuredSubsetReport:
    """find_structured_subset on B = b_idx (ascending), given B's overlap matrix."""
    g = a.group
    m = len(b_idx)
    e_ab = int(overlap.sum())  # E(A, B) <= N^3 <= 2^60 under DENSE_CAP: no int64 overflow
    if mode == "exhaustive":
        if m > EXHAUSTIVE_SUBSET_GUARD:
            raise GuardError(
                f"exhaustive mode over {m} elements exceeds the guard "
                f"{EXHAUSTIVE_SUBSET_GUARD}; use mode='greedy'"
            )
        masks = np.arange(1, 1 << m, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(m)) & 1
        energies = ((bits @ overlap) * bits).sum(axis=1)
        keep = ENERGY_KEEP_DENOMINATOR * energies >= e_ab
        # b_idx ascends, so ordering local masks orders the subsets' global
        # bitmasks too: this is the tie-break order (size, bitmask), in which a
        # later candidate wins only with a strictly smaller dimension
        qualifying = sorted(
            zip(masks[keep].tolist(), energies[keep].tolist()),
            key=lambda q: (q[0].bit_count(), q[0]),
        )
        check(bool(qualifying), "the full set B always qualifies; none found")
        # For m <= 11 some singleton or pair qualifies.  Else 32 (2|A| + 2 O[j, k])
        # < E(A, B) for all j != k; summed over the m(m - 1) ordered pairs, with
        # sum O[j, k] = E(A, B) - m|A|, that is 2m(m - 2)|A| < E(A, B) (m(m - 1)/32 - 2),
        # false for m <= 8 (the right side is negative) and, as E(A, B) <= m^2 |A|,
        # for m <= 11.  So best_dim <= 2 after the pairs, the break below comes
        # before |S| = 4, and on at most 3 elements the greedy witness is maximum:
        # the walk in _exact_search cannot change the report.  At m = 12 the
        # argument fails: no pair qualifies only if E(A, B) > 240|A| / 2.125.
        best_dim = m + 1  # above every dimension: the first candidate wins
        for local_mask, sub_energy in qualifying:
            # S lies in the span of its greedy witness: |S| <= 3^greedy <= 3^dim(S),
            # and sizes only grow, so once 3|S| > 3^best_dim no candidate left wins
            if 3 * local_mask.bit_count() > 3**best_dim:
                break
            elems = b_idx[bits[local_mask - 1] == 1].tolist()
            # a candidate wins only below best_dim, so its search stops on reaching it
            dim_value = len(_exact_search(g, elems, stop_at=best_dim))
            if dim_value < best_dim:
                best_dim, winner, chosen_energy = dim_value, elems, sub_energy
        subset = GroupSubset.from_indices(g, winner)
        dim_value, dim_exact = best_dim, True  # |S| <= 12 < EXACT_DIMENSION_GUARD
    else:
        inner = np.zeros(m, dtype=np.int64)  # overlap 1_S
        taken = np.zeros(m, dtype=bool)
        chosen_energy = 0
        while ENERGY_KEEP_DENOMINATOR * chosen_energy < e_ab:
            check(not taken.all(), "greedy ran out of elements before reaching the threshold")
            # adding b_j adds 2 (overlap 1_S)_j + |A| to E(A, S)
            gains = 2 * inner + a.size
            gains[taken] = -1
            j = int(np.argmax(gains))  # the first j on ties
            taken[j] = True
            inner += overlap[j]
            chosen_energy += int(gains[j])
        subset = GroupSubset.from_indices(g, b_idx[taken])
        exact = g.is_exponent_two or subset.size <= EXACT_DIMENSION_GUARD
        dim = additive_dimension(subset, mode="exact" if exact else "greedy")
        dim_value, dim_exact = dim.value, dim.exact
    K = Fraction(a.size * m**2, e_ab)  # E(A, B) >= |A||B| > 0

    check(
        ENERGY_KEEP_DENOMINATOR * chosen_energy >= e_ab,
        "finder postcondition failed: kept energy below 1/32 of the input",
    )
    check(
        chosen_energy == additive_energy(a, subset),
        "finder energy disagrees with recomputation",
    )
    log_a = math.log(a.size)
    dim_target = dim_constant * float(K) * log_a
    return StructuredSubsetReport(
        subset=subset,
        energy=chosen_energy,
        input_energy=e_ab,
        dim_value=dim_value,
        dim_exact=dim_exact,
        dim_target=dim_target,
        dim_within_target=dim_value <= dim_target,
    )


@dataclass
class DecompositionStep(Record):
    extracted: GroupSubset
    residual_energy_before: int
    dim_value: int
    dim_exact: bool


@dataclass
class DecompositionResult(Record):
    """Partition of B into a structured union and a low-ratio residual."""

    structured: GroupSubset
    residual: GroupSubset
    steps: list[DecompositionStep]
    energy_ratio: Fraction  # K with E(A,B) = |A| |B|^2 / K
    target_ratio: Fraction  # M, the stopping threshold
    initial_energy: int
    structured_energy: int
    residual_energy: int
    step_bound: int
    step_count: int


def energy_partition(
    a: GroupSubset,
    b: GroupSubset,
    target_ratio,
    mode: str = "exhaustive",
    dim_constant: float = DEFAULT_DIMENSION_CONSTANT,
) -> DecompositionResult:
    """Split B into structured pieces and a residual whose ratio beats M.

    Loop invariant: the residual's energy drops by a factor <= 31/32 at every
    extraction, asserted exactly.  Stops when the residual is empty or
    E(A, residual) < |A| |residual|^2 / M.
    """
    overlap = _overlap_matrix(a, b, mode, min_size=2)
    M = positive(target_ratio, "target_ratio")
    dim_constant = positive(dim_constant, "dim_constant", to_float)

    initial_energy = int(overlap.sum())
    K = Fraction(a.size * b.size**2, initial_energy)

    structured = GroupSubset.empty(a.group)
    at = np.arange(b.size)  # the residual's positions in B
    sub = overlap  # the residual's overlap matrix
    steps: list[DecompositionStep] = []
    residual_energy = initial_energy
    while at.size > 0:
        # halt when E(A, residual) < |A| |residual|^2 / M, compared exactly
        if residual_energy * M.numerator < a.size * at.size**2 * M.denominator:
            break
        report = _find(a, b.indices[at], sub, mode, dim_constant)
        steps.append(DecompositionStep(
            report.subset, residual_energy, report.dim_value, report.dim_exact
        ))
        structured = structured.union(report.subset)
        at = at[~structured.bits[b.indices[at]]]
        sub = overlap[np.ix_(at, at)]
        next_energy = int(sub.sum())
        check(
            ENERGY_KEEP_DENOMINATOR * next_energy
            <= (ENERGY_KEEP_DENOMINATOR - 1) * residual_energy,
            "extraction failed to shave a 1/32 energy fraction off the residual",
        )
        residual_energy = next_energy
    residual = GroupSubset.from_indices(a.group, b.indices[at])

    if M >= K:
        # log(|B| M / K) via integer logs so huge rationals cannot overflow
        ratio_log = math.log(b.size * M.numerator * K.denominator) - math.log(
            M.denominator * K.numerator
        )
        decay = ENERGY_KEEP_DENOMINATOR / (ENERGY_KEEP_DENOMINATOR - 1)
        step_bound = math.ceil(ratio_log / math.log(decay)) + 1
    else:
        step_bound = 0
    check(len(steps) <= step_bound, "step count exceeded its logarithmic bound")

    structured_energy = additive_energy(a, structured)
    if steps:
        check(
            ENERGY_KEEP_DENOMINATOR * structured_energy >= initial_energy,
            "structured part kept less than 1/32 of the initial energy",
        )
    check(
        structured.is_disjoint(residual) and structured.union(residual) == b,
        "structured and residual parts must partition B",
    )
    return DecompositionResult(
        structured=structured,
        residual=residual,
        steps=steps,
        energy_ratio=K,
        target_ratio=M,
        initial_energy=initial_energy,
        structured_energy=structured_energy,
        residual_energy=residual_energy,
        step_bound=step_bound,
        step_count=len(steps),
    )
