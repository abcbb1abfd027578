"""Energy-driven decomposition of a set into structured and unstructured parts.

find_structured_subset realizes an existence guarantee as a checked search:
given A, B with |A| >= |B| and K = |A||B|^2 / E(A, B), the least K for which
E(A,B) >= |A||B|^2 / K holds, it returns B_* inside B with
E(A, B_*) >= E(A,B) / 32 (hard postcondition) and reports whether the
witness dimension stays below dim_constant * K * log|A| (soft check, the
guarantee's shape, with a configurable constant).

Every subset energy in the finder is one quadratic form: with b_1..b_m the
elements of B and overlap[j, k] = |(A + b_j) ∩ (A + b_k)| (diagonal |A|),
E(A, S) = sum_{j,k in S} |(A + b_j) ∩ (A + b_k)| = 1_S' overlap 1_S.
Exhaustive mode evaluates it for all 2^m - 1 subsets in one product; greedy
mode reads every candidate's gain 2 (overlap 1_S)_j + |A| off one gather.

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
from .dissociation import EXACT_DIMENSION_GUARD, additive_dimension
from .errors import GuardError, StructuralError, check, positive, to_float
from .subsets import GroupSubset, _row_counts, additive_energy

__all__ = [
    "ENERGY_KEEP_DENOMINATOR",
    "EXHAUSTIVE_SUBSET_GUARD",
    "DEFAULT_DIMENSION_CONSTANT",
    "StructuredSubsetReport",
    "DecompositionStep",
    "DecompositionResult",
    "find_structured_subset",
    "energy_partition",
]

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
    if a.group != b.group:
        raise StructuralError("A and B live in different groups")
    if b.size == 0:
        raise StructuralError("B must be nonempty")
    if a.size < b.size:
        raise StructuralError(f"need |A| >= |B|, got {a.size} < {b.size}")
    dim_constant = positive(dim_constant, "dim_constant", to_float)

    e_ab = additive_energy(a, b)  # at least |A||B| > 0
    K = Fraction(a.size * b.size**2, e_ab)

    g = a.group
    n_a = a.size
    b_idx = [int(y) for y in b.indices]
    translates = g.pairsum_matrix(b.indices, a.indices)  # row j is A + b_j

    if mode == "exhaustive":
        if b.size > EXHAUSTIVE_SUBSET_GUARD:
            raise GuardError(
                f"exhaustive mode over {b.size} elements exceeds the guard "
                f"{EXHAUSTIVE_SUBSET_GUARD}; use mode='greedy'"
            )
        # overlap[j, k] = |(A + b_j) ∩ (A + b_k)|, the row counts of the stacked
        # translates A + b_j against X = A and Y = B, so E(A, S) = 1_S' overlap 1_S
        m = len(b_idx)
        member = np.zeros((m, g.order), dtype=bool)
        member[np.arange(m)[:, None], translates] = True
        overlap = _row_counts(g, member, a.indices, b.indices)
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
        best_dim = m + 1  # above every dimension: the first candidate wins
        for local_mask, sub_energy in qualifying:
            # S lies in the span of its greedy witness: |S| <= 3^greedy <= 3^dim(S),
            # and sizes only grow, so once 3|S| > 3^best_dim no candidate left wins
            if 3 * local_mask.bit_count() > 3**best_dim:
                break
            members = [b_idx[j] for j in range(m) if local_mask >> j & 1]
            candidate = GroupSubset.from_indices(g, members)
            # the exact dim is at least the greedy one, so once some candidate
            # has won, one whose greedy dim is best_dim or more cannot win
            if best_dim <= m and additive_dimension(candidate, mode="greedy").value >= best_dim:
                continue
            dim_value = additive_dimension(candidate, mode="exact").value
            if dim_value < best_dim:
                best_dim, subset, chosen_energy = dim_value, candidate, sub_energy
        dim_value, dim_exact = best_dim, True  # |S| <= 12 < EXACT_DIMENSION_GUARD
    elif mode == "greedy":
        rep = np.zeros(g.order, dtype=np.int64)
        taken = np.zeros(len(b_idx), dtype=bool)
        energy = 0
        chosen: list[int] = []
        while ENERGY_KEEP_DENOMINATOR * energy < e_ab:
            check(not taken.all(), "greedy ran out of elements before reaching the threshold")
            # adding b_j adds 2 sum_{k in S} overlap[j, k] + |A| to E(A, S), and
            # rep counts the chosen translates covering each point
            gains = 2 * rep[translates].sum(axis=1) + n_a
            gains[taken] = -1
            j = int(np.argmax(gains))  # the first j on ties
            taken[j] = True
            chosen.append(b_idx[j])
            rep[translates[j]] += 1
            energy += int(gains[j])
        subset = GroupSubset.from_indices(g, chosen)
        chosen_energy = energy
        exact = g.is_exponent_two or subset.size <= EXACT_DIMENSION_GUARD
        dim = additive_dimension(subset, mode="exact" if exact else "greedy")
        dim_value, dim_exact = dim.value, dim.exact
    else:
        raise StructuralError(f"unknown finder mode {mode!r}")

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
    if a.group != b.group:
        raise StructuralError("A and B live in different groups")
    if b.size < 2:
        raise StructuralError(f"need |B| >= 2, got {b.size}")
    if a.size < b.size:
        raise StructuralError(f"need |A| >= |B|, got {a.size} < {b.size}")
    M = positive(target_ratio, "target_ratio")
    dim_constant = positive(dim_constant, "dim_constant", to_float)

    g = a.group
    initial_energy = additive_energy(a, b)
    K = Fraction(a.size * b.size**2, initial_energy)

    structured = GroupSubset.empty(g)
    residual = b
    steps: list[DecompositionStep] = []
    residual_energy = initial_energy
    while residual.size > 0:
        # halt when E(A, residual) < |A| |residual|^2 / M, compared exactly
        if residual_energy * M.numerator < a.size * residual.size**2 * M.denominator:
            break
        report = find_structured_subset(a, residual, mode=mode, dim_constant=dim_constant)
        extracted = report.subset
        steps.append(
            DecompositionStep(
                extracted=extracted,
                residual_energy_before=residual_energy,
                dim_value=report.dim_value,
                dim_exact=report.dim_exact,
            )
        )
        structured = structured.union(extracted)
        residual = residual.difference(extracted)
        next_energy = additive_energy(a, residual)
        check(
            ENERGY_KEEP_DENOMINATOR * next_energy
            <= (ENERGY_KEEP_DENOMINATOR - 1) * residual_energy,
            "extraction failed to shave a 1/32 energy fraction off the residual",
        )
        residual_energy = next_energy

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
