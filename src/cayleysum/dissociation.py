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
  greedy dimension share `_greedy_scan`, which skips the elements already in
  its span; `span` folds the same closure step over every element.  An exact
  witness is dissociated and no smaller than the scan's, so S is dissociated
  iff dim(S) = |S| in either mode.
* One closure step, Span + {e, -e} = span | (span + e) | (span - e), acts on
  the span held as a Python int bit mask over the indices.  Translating by e
  takes two masked shifts per coordinate: with m the modulus, s the stride
  and d e's digit there, the indices whose digit is below m - d move up by
  d * s and the others down by (m - d) * s.  The mask of a digit below k is
  (r << k * s) - r, where r marks the indices whose digits at this
  coordinate and every faster one are all 0; the r are built once per moduli.
  Membership in a scan reads a bytes view of the mask, refreshed after each
  admission, since `mask >> e & 1` copies the whole int.
* In exponent-2 groups, dissociated means linearly independent over the
  2-element field, and the index codec makes every element its own bit
  vector, so rank is Gaussian elimination over int bitmasks and greedy
  selection is exact (independence is a matroid).

The exact dimension is one include-first recursive walk from the greedy
witness.  Its one early exit, `stop_at`, ends it once the best set reaches the
size a caller asks about: d + 1 for dim <= d, or the finder's best so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import combinations

import numpy as np

from ._record import Record
from .bounds import LowDimCountBound, low_dimension_count_bound
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
# count_low_dimension_sets enumerates exhaustively only up to this group order
_COUNT_ORDER_LIMIT = 32
# ... and only up to this many candidate sets
_COUNT_SUBSET_LIMIT = 2_000_000


def _gf2_basis_scan(indices) -> list[int]:
    """Greedy witness of a family of F_2 vectors given as int bitmasks; its length is the rank."""
    basis: list[int] = []  # kept in echelon form, distinct leading bits
    witness: list[int] = []
    spanned = 0  # 2^k once the k leading bits are 0 .. k - 1: every v below is in the span
    for raw in indices:
        v = int(raw)
        if v < spanned:
            continue
        cur = v
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            witness.append(v)
            if len(basis) == basis[0].bit_length():
                spanned = 1 << len(basis)
    return witness


@lru_cache(maxsize=4)
def _coordinates(moduli: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(m, s, r) per coordinate: modulus, stride, and the int mask r with one bit
    per block of m * s indices, at the indices whose digits here and at every
    faster coordinate are all 0."""
    n = math.prod(moduli)
    out = []
    s = n
    for m in moduli:
        s //= m
        r, width = 1, m * s
        while width < n:  # 250x faster at f2^20 than (2^n - 1) // (2^(m s) - 1)
            r |= r << width
            width *= 2
        out.append((m, s, r & ((1 << n) - 1)))
    return tuple(out)


def _closure_insert(g: GroupSpec, mask: int, e: int) -> int:
    """The span mask grown by one generator: Span + {e, -e}."""
    plus = minus = mask
    for m, s, r in _coordinates(g.moduli):
        d = e // s % m
        if d:  # digits below m - d move up by d, the others wrap down by m - d; -e the reverse
            a, b = d * s, (m - d) * s
            up = plus & (r << b) - r
            plus = up << a | (plus ^ up) >> b
            up = minus & (r << a) - r
            minus = up << b | (minus ^ up) >> a
    return mask | plus | minus


def is_dissociated(s: GroupSubset) -> bool:
    """Whether no nontrivial {-1,0,1} combination of s sums to zero."""
    return len(_greedy_scan(s.group, s.indices.tolist())) == s.size


def span(s: GroupSubset) -> GroupSubset:
    """All signed subset sums of s (always contains 0, closed under negation)."""
    g = s.group
    if g.is_exponent_two:  # every XOR of a basis, doubling the members per basis element
        members = np.zeros(1, dtype=np.int64)
        for v in _gf2_basis_scan(s.indices):
            members = np.concatenate([members, members ^ v])
        return GroupSubset.from_indices(g, members)
    if s.size > SPAN_ENUMERATION_GUARD:
        raise GuardError(
            f"span over {s.size} elements exceeds the guard {SPAN_ENUMERATION_GUARD} "
            "outside exponent-2 groups"
        )
    return GroupSubset.from_mask(g, reduce(partial(_closure_insert, g), s.indices.tolist(), 1))


@dataclass
class DimensionResult(Record):
    """Additive dimension value with a dissociated witness subset."""

    value: int
    witness: GroupSubset
    exact: bool


def _greedy_scan(g: GroupSpec, elems: list[int]) -> list[int]:
    """Maximal-by-inclusion dissociated subset of the ascending index list elems."""
    if g.is_exponent_two:
        return _gf2_basis_scan(elems)
    mask, nbytes = 1, (g.order + 7) // 8
    view = mask.to_bytes(nbytes, "little")  # O(1) membership; `mask >> e & 1` copies the int
    chosen: list[int] = []
    for e in elems:
        if not view[e >> 3] >> (e & 7) & 1:
            chosen.append(e)
            mask = _closure_insert(g, mask, e)
            view = mask.to_bytes(nbytes, "little")
    return chosen


def _walk(g: GroupSpec, elems, i, chosen, mask, best, stop) -> list[int]:
    """best, or a longer dissociated extension of chosen (span mask `mask`) by elems[i:]:
    each later element outside the span, in index order, is walked before the next
    is tried, until best reaches stop or the elements left cannot beat it."""
    if len(chosen) > len(best):
        best = chosen
    for j in range(i, len(elems)):
        if len(best) >= stop or len(chosen) + len(elems) - j <= len(best):
            break
        e = elems[j]
        if not mask >> e & 1:  # e itself is a one-term signed sum
            best = _walk(
                g, elems, j + 1, chosen + [e], _closure_insert(g, mask | 1 << e, e), best, stop
            )
    return best


def _exact_search(g: GroupSpec, elems: list[int], stop_at: int | None = None) -> list[int]:
    """Largest dissociated subset of the ascending index list elems, or the first one
    of size stop_at: the greedy witness, cut, when it is long enough, and always in
    exponent-2 groups (independence is a matroid, greedy is maximum)."""
    stop_at = len(elems) if stop_at is None else stop_at
    best = _greedy_scan(g, elems)
    if len(best) >= stop_at or g.is_exponent_two:
        return best[:stop_at]
    return _walk(g, elems, 0, [], 1, best, stop_at)


def additive_dimension(a: GroupSubset, mode: str = "exact") -> DimensionResult:
    """Largest dissociated subset of a, exact or greedy lower bound.

    Greedy mode returns a maximal-by-inclusion witness and is flagged inexact.
    Exact mode is `_exact_search`, F_2 rank in exponent-2 groups, and refuses
    above EXACT_DIMENSION_GUARD elements elsewhere.
    """
    g = a.group
    if mode not in ("greedy", "exact"):
        raise StructuralError(f"unknown dimension mode {mode!r}")
    if mode == "exact" and a.size > EXACT_DIMENSION_GUARD and not g.is_exponent_two:
        raise GuardError(
            f"exact dimension over {a.size} elements exceeds the guard "
            f"{EXACT_DIMENSION_GUARD}; use mode='greedy'"
        )
    chosen = (_exact_search if mode == "exact" else _greedy_scan)(g, a.indices.tolist())
    return DimensionResult(
        len(chosen), GroupSubset.from_indices(g, chosen), exact=(mode == "exact")
    )


def _dimension_at_most(g: GroupSpec, indices: tuple[int, ...], d: int) -> bool:
    return len(_exact_search(g, indices, d + 1)) <= d


@dataclass(frozen=True)
class LowDimensionSetCount(LowDimCountBound):
    """The counting bound's record plus the count of nonempty sets X with
    |X| <= n and dim(X) <= d, when enumerated (exact is None otherwise)."""

    exact: int | None
    enumerated: bool


def count_low_dimension_sets(g: GroupSpec, n: int, d: int) -> LowDimensionSetCount:
    """Count (when feasible) and bound the nonempty X with |X| <= n, dim(X) <= d."""
    N = g.order
    chain = low_dimension_count_bound(N, n, d)
    top = min(n, N)
    # the binomial sum is formed only in groups small enough to enumerate
    if N > _COUNT_ORDER_LIMIT or (
        sum(math.comb(N, i) for i in range(1, top + 1)) > _COUNT_SUBSET_LIMIT
    ):
        return LowDimensionSetCount(**vars(chain), exact=None, enumerated=False)
    count = 0
    for size in range(1, top + 1):
        if size <= d:
            count += math.comb(N, size)
            continue
        for combo in combinations(range(N), size):
            if _dimension_at_most(g, combo, d):
                count += 1
    return LowDimensionSetCount(**vars(chain), exact=count, enumerated=True)
