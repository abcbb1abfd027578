"""Dissociated sets, spans, and additive dimension.

A set S is dissociated when the only coefficient vector eps in {-1,0,1}^S
with sum(eps_s * s) = 0 is all zeros.  Span(S) is the set of all such signed
subset sums.  The additive dimension of A is the size of its largest
dissociated subset.

Three facts drive the implementation:

* Span(S) is symmetric and S + {e} stays dissociated exactly when S is
  dissociated and e lies outside Span(S).  So membership tests reduce to a
  dense span closure grown one element at a time, with no sign-vector
  enumeration.  One ascending greedy scan does this: S is dissociated
  exactly when the scan admits every element, so `is_dissociated` and the
  greedy dimension share `_greedy_scan`.
* One closure step, Span + {e, -e}, is either one pair-sum scatter over
  the span, O(|span|), or span | span[T_-e] | span[T_+e], bool gathers
  through the translation tables T_-+e = (z -> z -+ e), O(N).  Building the
  tables costs about a scatter over the whole group, so they pay only for
  an element inserted again and again, as at the nodes of the exact search;
  a one-pass scan (`span`, `is_dissociated`, greedy dimension) never
  builds them.  Per search and element, the scatters are tallied in span
  entries, each call also counting _SCATTER_CALL_COST for its fixed cost,
  and once the tally reaches N the tables are built (rent or buy: at most
  about twice the cheaper choice).  Gathers run only up to order
  _GATHER_ORDER_LIMIT: a gather costs about 3 ns per group element, which
  at order 4096 is one scatter's fixed cost (12.7 against 10.4 us on a
  near-empty span), and above it the sparse spans of a search scatter
  cheaper (z65536, a span of N/64 entries: 200 us to gather, 50 us to
  scatter).  The tables are intp (int64) arrays, since numpy casts any
  other index dtype on every gather (13 against 5 us at N = 4096, numpy
  2.4), live for one search, and are never stored on the group.
* In exponent-2 groups, dissociated means linearly independent over the
  2-element field, and the index codec makes every element its own bit
  vector, so rank is Gaussian elimination over int bitmasks and greedy
  selection is exact (independence is a matroid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._record import Record
from .bounds import low_dimension_count_bound
from .errors import GuardError, StructuralError
from .groups import GroupSpec
from .subsets import GroupSubset

__all__ = [
    "SPAN_ENUMERATION_GUARD",
    "EXACT_DIMENSION_GUARD",
    "DimensionResult",
    "LowDimensionSetCount",
    "is_dissociated",
    "span",
    "additive_dimension",
    "count_low_dimension_sets",
]

# span refuses above this set size outside exponent-2 groups, as it inserts every
# element; a greedy scan inserts at most log2 N (2^|D| <= N for a dissociated D)
SPAN_ENUMERATION_GUARD = 24
# exact dimension search refuses above this set size (non-exponent-2)
EXACT_DIMENSION_GUARD = 20
# span closures gather through cached tables only up to this group order
_GATHER_ORDER_LIMIT = 4096
# a pair-sum scatter's fixed cost, counted in span entries
_SCATTER_CALL_COST = 512
# count_low_dimension_sets enumerates exhaustively only up to this group order
_COUNT_ORDER_LIMIT = 32
# ... and only up to this many candidate sets
_COUNT_SUBSET_LIMIT = 2_000_000


def _gf2_basis_scan(indices) -> list[int]:
    """Greedy witness of a family of F_2 vectors given as int bitmasks; its length is the rank."""
    basis: list[int] = []  # kept in echelon form, distinct leading bits
    witness: list[int] = []
    for raw in indices:
        v = int(raw)
        cur = v
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            witness.append(v)
    return witness


def _closure_insert(g: GroupSpec, span_bits: np.ndarray, e: int, tables: dict) -> None:
    """Grow a span closure in place by one generator: Span + {e, -e}.

    With T_-e and T_+e the index permutations z -> z - e and z -> z + e,
    span[T_-e] marks S + e and span[T_+e] marks S - e, and the old span stays
    set (the zero coefficient).  Per element, `tables` holds for one search
    either the span entries its scatters have covered so far or its tables:
    once those scatters have covered g.order entries, about what building
    the tables costs, the tables are built (up to _GATHER_ORDER_LIMIT).
    """
    entry = tables.get(e, 0)
    if isinstance(entry, int):
        signed = list({e, g.neg_index(e)})  # one element when e = -e
        if entry < g.order or g.order > _GATHER_ORDER_LIMIT:
            members = np.flatnonzero(span_bits)
            tables[e] = entry + members.size + _SCATTER_CALL_COST
            span_bits[g.pairsum_matrix(signed, members)] = True
            return
        z = np.arange(g.order)  # intp: other index dtypes are cast on every gather
        entry = tables[e] = tuple(g.translate_array(z, t) for t in signed)
    for t in entry:
        span_bits |= span_bits[t]


def is_dissociated(s: GroupSubset) -> bool:
    """Whether no nontrivial {-1,0,1} combination of s sums to zero."""
    return len(_greedy_scan(s, {})) == s.size


def span(s: GroupSubset) -> GroupSubset:
    """All signed subset sums of s (always contains 0, closed under negation)."""
    g = s.group
    if not g.is_exponent_two and s.size > SPAN_ENUMERATION_GUARD:
        raise GuardError(
            f"span over {s.size} elements exceeds the guard {SPAN_ENUMERATION_GUARD} "
            "outside exponent-2 groups"
        )
    span_bits = np.zeros(g.order, dtype=bool)
    span_bits[0] = True
    tables: dict = {}
    for e in s.indices:
        _closure_insert(g, span_bits, int(e), tables)
    return GroupSubset(g, span_bits)


@dataclass
class DimensionResult(Record):
    """Additive dimension value with a dissociated witness subset."""

    value: int
    witness: GroupSubset
    exact: bool


def _greedy_scan(a: GroupSubset, tables: dict) -> list[int]:
    """Maximal-by-inclusion dissociated subset, scanning indices ascending."""
    g = a.group
    if g.is_exponent_two:
        return _gf2_basis_scan(a.indices)
    span_bits = np.zeros(g.order, dtype=bool)
    span_bits[0] = True
    chosen: list[int] = []
    for e in a.indices:
        e = int(e)
        if not span_bits[e]:
            chosen.append(e)
            _closure_insert(g, span_bits, e, tables)
    return chosen


def _exact_search(a: GroupSubset, stop_at: int | None = None) -> list[int]:
    """Largest dissociated subset by branch and bound over indices ascending.

    A depth-first search, taking e before leaving it out.  With stop_at set,
    returns early once a dissociated subset of that size is found (used for
    dim <= d tests).
    """
    g = a.group
    elems = [int(e) for e in a.indices]
    n = len(elems)
    tables: dict = {}  # one cache for the whole search: its nodes reinsert the same elements
    best = _greedy_scan(a, tables)
    if stop_at is not None and len(best) >= stop_at:
        return best[:stop_at]
    root = np.zeros(g.order, dtype=bool)
    root[0] = True
    stack = [(0, [], root)]  # (next position, chosen, span of chosen)
    while stack:
        i, chosen, span_bits = stack.pop()
        if len(chosen) > len(best):
            best = chosen
            if stop_at is not None and len(best) >= stop_at:
                break
        if i == n or len(chosen) + (n - i) <= len(best):
            continue
        e = elems[i]
        stack.append((i + 1, chosen, span_bits))
        if not span_bits[e]:
            grown = span_bits.copy()
            grown[e] = True  # e itself is a one-term signed sum
            _closure_insert(g, grown, e, tables)
            stack.append((i + 1, chosen + [e], grown))
    return best


def additive_dimension(a: GroupSubset, mode: str = "exact") -> DimensionResult:
    """Largest dissociated subset of a, exact or greedy lower bound.

    Greedy mode returns a maximal-by-inclusion witness and is flagged inexact.
    Exact mode uses F_2 rank in exponent-2 groups and a branch-and-bound
    search elsewhere, refusing above EXACT_DIMENSION_GUARD elements.
    """
    g = a.group
    if mode not in ("greedy", "exact"):
        raise StructuralError(f"unknown dimension mode {mode!r}")
    if mode == "greedy" or g.is_exponent_two:  # exponent 2: a matroid, greedy is maximum
        chosen = _greedy_scan(a, {})
    elif a.size > EXACT_DIMENSION_GUARD:
        raise GuardError(
            f"exact dimension over {a.size} elements exceeds the guard "
            f"{EXACT_DIMENSION_GUARD}; use mode='greedy'"
        )
    else:
        chosen = _exact_search(a)
    return DimensionResult(
        len(chosen), GroupSubset.from_indices(g, chosen), exact=(mode == "exact")
    )


def _dimension_at_most(g: GroupSpec, indices: tuple[int, ...], d: int) -> bool:
    if len(indices) <= d:
        return True
    if g.is_exponent_two:
        return len(_gf2_basis_scan(indices)) <= d
    found = _exact_search(GroupSubset.from_indices(g, indices), stop_at=d + 1)
    return len(found) <= d


@dataclass
class LowDimensionSetCount(Record):
    """Count of nonempty sets X with |X| <= n and dim(X) <= d, plus bounds.

    The closed-form ceiling is exp(2nd); the intermediate quantity
    N^d * 3^(nd) < exp((log N + 1.1 n) d) feeds the chain that proves it
    whenever n >= 2 log N.
    """

    exact: int | None
    bound: float
    intermediate: float
    log_bound: float
    log_intermediate: float
    chain_ok: bool
    threshold_ok: bool
    enumerated: bool


def count_low_dimension_sets(g: GroupSpec, n: int, d: int) -> LowDimensionSetCount:
    """Count (when feasible) and bound the nonempty X with |X| <= n, dim(X) <= d."""
    N = g.order
    chain = low_dimension_count_bound(N, n, d)
    exact: int | None = None
    enumerated = False
    top = min(n, N)
    total_subsets = sum(math.comb(N, i) for i in range(1, top + 1))
    if N <= _COUNT_ORDER_LIMIT and total_subsets <= _COUNT_SUBSET_LIMIT:
        enumerated = True
        count = 0
        for size in range(1, top + 1):
            if size <= d:
                count += math.comb(N, size)
                continue
            for combo in combinations(range(N), size):
                if _dimension_at_most(g, combo, d):
                    count += 1
        exact = count

    return LowDimensionSetCount(
        exact=exact,
        bound=chain.bound,
        intermediate=chain.intermediate,
        log_bound=chain.log_bound,
        log_intermediate=chain.log_intermediate,
        chain_ok=chain.chain_ok,
        threshold_ok=chain.threshold_ok,
        enumerated=enumerated,
    )
