"""Dense subsets of a group and exact additive-energy computations.

A GroupSubset is an immutable bitset over the index space [0, N).  The
additive energy of (X, Y) counts quadruples (x1, y1, x2, y2) with
x1 + y1 = x2 + y2.  The production path computes the representation counts
r(z) = #{(x, y) : x + y = z} and sums r(z)^2; the quartic literal count is
kept as an independent oracle and never shares that code path.

Every set-level count (representation counts, sumsets, edge and row counts)
is a functional of one group convolution, computed by one of two backends:

* pairwise: a reduction over _pair_sum_blocks, which streams the |X| x |Y|
  matrix of index sums in row blocks of at most _PAIR_BLOCK entries, so the
  temporary memory stays bounded however large X and Y are;
* transform: numpy's rfftn/irfftn over the moduli shape, rounded to
  integers, in O(N log N) whatever the sizes of X and Y.

_transform_cheaper, a cost model measured on the kernels themselves, picks
the backend for each call from |X||Y|, N and the moduli; no option selects
it.  The transform result is kept only when it is certified exact: an a
priori float64 error bound must lie below 1/4, every value must lie within
1/4 of an integer, and the rounded counts must add up to |X||Y|.  Otherwise
the call recomputes pairwise, so both backends return the same integers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import GuardError, StructuralError
from .groups import GroupSpec

__all__ = [
    "GroupSubset",
    "parse_subset",
    "sumset",
    "RepFunction",
    "rep_function",
    "additive_energy",
    "additive_energy_oracle",
    "ORACLE_QUADRUPLE_GUARD",
]

# additive_energy_oracle refuses above this many quadruples
ORACLE_QUADRUPLE_GUARD = 10**8

# entries per block of index sums: bounds the temporary memory of every
# set-level count (a block is never narrower than one row of Y)
_PAIR_BLOCK = 1 << 18

# Backend cost model, in ns.  Measured on the kernels of this module (two
# rfftn, one irfftn and the exactness gate; pairwise bincount, edge and row
# reductions), numpy 2.4.6, Python 3.11, 2-vCPU x86-64 VM, minimum of 9 runs:
# - pairwise: 3-7 ns per pair for XOR (exponent 2), 8-15 ns for rank 1, and
#   18-53 ns for the coordinate loop of rank 2-5, i.e. about 10 ns per pair
#   and coordinate;
# - transform: about 60 us of call overhead per axis, 4 ns per element and
#   radix-2 stage (35-80 ns per element for z65536, 16,16,16 and 16,16,16,16),
#   eight times that on an axis whose length has a prime factor above 7
#   (pocketfft's generic-radix and Bluestein paths: z1009, z65521), and
#   220 ns per one-dimensional line, N/m of them along an axis of length m.
#   Lines of length 2 dominate on f2^k (1.4-2.3 us per element), so exponent-2
#   groups stay pairwise at every size this package handles.
_PAIR_NS_XOR = 5
_PAIR_NS_PER_COORD = 10
_FFT_NS_PER_AXIS = 60_000
_FFT_NS_PER_STAGE = 4
_FFT_NS_PER_LINE = 220
_FFT_ROUGH_FACTOR = 8

# float64 unit roundoff
_UNIT_ROUNDOFF = 2.0**-53


class GroupSubset:
    """Immutable dense subset of a group, indexed by the group's codec."""

    __slots__ = ("group", "_bits", "_indices", "_mask")

    def __init__(self, group: GroupSpec, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (group.order,):
            raise StructuralError(
                f"bit vector of length {bits.shape} does not match group order {group.order}"
            )
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_indices", None)
        object.__setattr__(self, "_mask", None)

    def __setattr__(self, name, value):
        raise AttributeError("GroupSubset is immutable")

    # ---- constructors ----

    @classmethod
    def empty(cls, group: GroupSpec) -> "GroupSubset":
        return cls(group, np.zeros(group.order, dtype=bool))

    @classmethod
    def full(cls, group: GroupSpec) -> "GroupSubset":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "GroupSubset":
        bits = np.zeros(group.order, dtype=bool)
        for i in indices:
            i = int(i)
            if not 0 <= i < group.order:
                raise StructuralError(f"index {i} out of range for group order {group.order}")
            bits[i] = True
        return cls(group, bits)

    @classmethod
    def from_mask(cls, group: GroupSpec, mask: int) -> "GroupSubset":
        if mask < 0:
            raise StructuralError("subset mask must be nonnegative")
        if mask >> group.order:
            raise StructuralError(f"mask 0x{mask:x} has bits beyond group order {group.order}")
        bits = np.zeros(group.order, dtype=bool)
        i = 0
        while mask:
            if mask & 1:
                bits[i] = True
            mask >>= 1
            i += 1
        return cls(group, bits)

    # ---- views ----

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            object.__setattr__(self, "_indices", np.flatnonzero(self._bits))
        return self._indices

    @property
    def size(self) -> int:
        return int(self._bits.sum())

    @property
    def mask(self) -> int:
        """The subset as a Python int bitmask (bit i = index i)."""
        if self._mask is None:
            acc = 0
            for i in self.indices:
                acc |= 1 << int(i)
            object.__setattr__(self, "_mask", acc)
        return self._mask

    def contains(self, index: int) -> bool:
        return bool(self._bits[index])

    def to_index_list(self) -> list[int]:
        return [int(i) for i in self.indices]

    # ---- set algebra ----

    def _require_same_group(self, other: "GroupSubset") -> None:
        if self.group != other.group:
            raise StructuralError("subsets live in different groups")

    def union(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_group(other)
        return GroupSubset(self.group, self._bits | other._bits)

    def intersection(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_group(other)
        return GroupSubset(self.group, self._bits & other._bits)

    def difference(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_group(other)
        return GroupSubset(self.group, self._bits & ~other._bits)

    def is_disjoint(self, other: "GroupSubset") -> bool:
        self._require_same_group(other)
        return not bool((self._bits & other._bits).any())

    def translate(self, by: int) -> "GroupSubset":
        """The shifted set {x + by : x in self}."""
        bits = np.zeros(self.group.order, dtype=bool)
        bits[self.group.translate_array(self.indices, by)] = True
        return GroupSubset(self.group, bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSubset)
            and self.group == other.group
            and bool(np.array_equal(self._bits, other._bits))
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    def __repr__(self) -> str:
        shown = self.to_index_list()
        if len(shown) > 12:
            shown = shown[:12] + ["..."]
        return f"GroupSubset({self.group!r}, {shown})"


def parse_subset(group: GroupSpec, text: str) -> GroupSubset:
    """Parse a subset literal: an index list "[0,1,5]" or a hex mask "0x2f"."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise StructuralError("empty subset literal")
    if cleaned.startswith("[") and cleaned.endswith("]"):
        body = cleaned[1:-1]
        if not body:
            return GroupSubset.empty(group)
        try:
            indices = [int(part) for part in body.split(",")]
        except ValueError as exc:
            raise StructuralError(f"bad index list {text!r}") from exc
        return GroupSubset.from_indices(group, indices)
    if cleaned.lower().startswith("0x"):
        try:
            mask = int(cleaned, 16)
        except ValueError as exc:
            raise StructuralError(f"bad hex mask {text!r}") from exc
        return GroupSubset.from_mask(group, mask)
    raise StructuralError(
        f"unrecognized subset literal {text!r}; use an index list like [0,1,5] or a hex mask like 0x2f"
    )


def _pair_sum_blocks(x: GroupSubset, y: GroupSubset) -> Iterator[np.ndarray]:
    """Row blocks, in X order, of the |X| x |Y| matrix of index sums x + y."""
    x._require_same_group(y)
    xi, yi = x.indices, y.indices
    if len(yi) == 0:
        return
    step = max(1, _PAIR_BLOCK // len(yi))
    for lo in range(0, len(xi), step):
        yield x.group.pairsum_matrix(xi[lo : lo + step], yi)


def sumset(x: GroupSubset, y: GroupSubset) -> GroupSubset:
    """The set {a + b : a in X, b in Y}."""
    return GroupSubset(x.group, rep_function(x, y).values > 0)


@dataclass
class RepFunction:
    """Representation counts r(z) = #{(x, y) in X x Y : x + y = z}."""

    values: np.ndarray
    x_size: int
    y_size: int

    def total(self) -> int:
        return int(self.values.sum())


def _seven_smooth(m: int) -> bool:
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


@functools.lru_cache(maxsize=64)
def _transform_ns(moduli: tuple[int, ...]) -> float:
    n = math.prod(moduli)
    total = 0.0
    for m in moduli:
        stage_ns = _FFT_NS_PER_STAGE * (1 if _seven_smooth(m) else _FFT_ROUGH_FACTOR)
        total += _FFT_NS_PER_AXIS + n * (_FFT_NS_PER_LINE / m + stage_ns * math.log2(m))
    return total


def _transform_cheaper(group: GroupSpec, pairs: int) -> bool:
    """Whether the transform backend is cheaper than `pairs` pairwise sums."""
    pair_ns = _PAIR_NS_XOR if group.is_exponent_two else _PAIR_NS_PER_COORD * group.rank
    return pairs * pair_ns > _transform_ns(group.moduli)


def _transform_error_bound(order: int, norm_product: float) -> float:
    """A priori bound on max |computed - exact| of a float64 FFT convolution.

    Percival's bound (Math. Comp. 72, 2003), built on the per-transform
    analysis in Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., ch. 24: norm_product ((1+u)^(3L) (1+u sqrt 5)^(3L+1) (1+u)^(3L) - 1)
    for L radix-2 stages and twiddle factors accurate to u.  L is taken as
    twice ceil(log2 N) plus 2, to cover mixed-radix passes and Bluestein's
    padded transforms of length below 4m.
    """
    stages = 2 * math.ceil(math.log2(order)) + 2
    log_growth = 6 * stages * math.log1p(_UNIT_ROUNDOFF) + (3 * stages + 1) * math.log1p(
        math.sqrt(5) * _UNIT_ROUNDOFF
    )
    return norm_product * math.expm1(log_growth)


def _exact_convolution(group: GroupSpec, f: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """(1_F * 1_H)(z) for every index z, from indicator vectors f and h, by rfftn.

    Returns None when the float result cannot be certified exact; the caller
    then computes pairwise.
    """
    f_size, h_size = int(np.count_nonzero(f)), int(np.count_nonzero(h))
    if _transform_error_bound(group.order, math.sqrt(f_size * h_size)) >= 0.25:
        return None
    shape = group.moduli
    axes = tuple(range(len(shape)))
    spectrum = np.fft.rfftn(f.reshape(shape), axes=axes)
    spectrum *= np.fft.rfftn(h.reshape(shape), axes=axes)
    values = np.fft.irfftn(spectrum, s=shape, axes=axes).ravel()
    rounded = np.rint(values)
    if not np.abs(values - rounded).max() < 0.25:
        return None
    counts = rounded.astype(np.int64)
    if int(counts.sum()) != f_size * h_size:
        return None
    return counts


def rep_function(x: GroupSubset, y: GroupSubset) -> RepFunction:
    x._require_same_group(y)
    g = x.group
    x_size, y_size = x.size, y.size
    counts = None
    if _transform_cheaper(g, x_size * y_size):
        counts = _exact_convolution(g, x.bits, y.bits)
    if counts is None:
        counts = np.zeros(g.order, dtype=np.int64)
        for ps in _pair_sum_blocks(x, y):
            counts += np.bincount(ps.ravel(), minlength=g.order)
    return RepFunction(values=counts, x_size=x_size, y_size=y_size)


def additive_energy(x: GroupSubset, y: GroupSubset) -> int:
    """Number of quadruples (x1, y1, x2, y2) with x1 + y1 = x2 + y2, exactly."""
    rep = rep_function(x, y)
    v = rep.values
    # sum r^2 <= max r * sum r <= min(|X|, |Y|) |X||Y|: below 2^63 int64 holds it
    if min(rep.x_size, rep.y_size) * rep.x_size * rep.y_size < 1 << 63:
        return int(np.dot(v, v))
    histogram = np.bincount(v)
    return sum(int(c) ** 2 * int(histogram[c]) for c in np.flatnonzero(histogram))


def additive_energy_oracle(x: GroupSubset, y: GroupSubset) -> int:
    """Literal quadruple count; independent of the rep-function path.

    Refuses when |X|^2 |Y|^2 exceeds ORACLE_QUADRUPLE_GUARD.
    """
    x._require_same_group(y)
    g = x.group
    quads = (x.size * y.size) ** 2
    if quads > ORACLE_QUADRUPLE_GUARD:
        raise GuardError(
            f"oracle would count {quads} quadruples, above the guard {ORACLE_QUADRUPLE_GUARD}"
        )
    xi = x.indices
    yi = y.indices
    if len(xi) == 0 or len(yi) == 0:
        return 0
    sums = [g.translate_array(yi, int(a)) for a in xi]
    total = 0
    for z1 in sums:
        for z2 in sums:
            total += int((z1[:, None] == z2[None, :]).sum())
    return total
