"""Dense subsets of a group and exact additive-energy computations.

A GroupSubset is an immutable bitset over the index space [0, N), a frozen
dataclass of its group and a read-only copy of its bit vector.  The additive
energy of (X, Y) counts quadruples (x1, y1, x2, y2) with x1 + y1 = x2 + y2.
The production path computes the representation counts
r(z) = #{(x, y) : x + y = z} and sums r(z)^2; the quartic literal count is
kept as an independent oracle and never shares that code path.

Every set-level count (representation counts, sumsets, edge and row counts)
is a functional of one group convolution, computed by one of two backends:

* pairwise: a reduction over the |X| x |Y| matrix of index sums, streamed
  in row blocks of at most _PAIR_BLOCK entries, so the temporary memory
  stays bounded however large X and Y are;
* transform: in O(N log N) whatever the sizes of X and Y, a Walsh–Hadamard
  transform on groups of exponent 2, and numpy's rfftn/irfftn over the
  moduli shape, rounded to integers, on every other group.

Representation counts come from one function, _rep_rows, which counts a
whole stack of pairs (X_i, Y_i) at once, one row per pair: rep_function is
its one-row case, and the Monte Carlo runners take one stack per chunk of
trials.  Row counts |S ∩ (X + y)| come from one function, _row_counts, for
one indicator row S or a stack: the scan and joint-deviation counts, the
decomposition's overlap matrix |A ∩ (A + b' - b)| (S = X = A, Y = B - B),
and the packing's refreshes of its overlap bounds (S = the union so far).

_transform_cheaper, a cost model measured on the kernels themselves, picks
the backend for each call from |X||Y|, N and the moduli; no option selects
it.  _recount_ns prices, from the same model, one _row_counts call against
one row counted by a translate and a gather.  The Walsh–Hadamard result
is exact a priori: every intermediate is an integer below 2^53.  The rfftn
result is kept only when it is certified exact: every value must lie within
1/4 of an integer, and the rounded counts must add up to |X||Y|.  Otherwise
the call recomputes pairwise, so both backends return the same integers.
The a priori float64 error bound, _transform_error_bound, is not checked
per call: for full sets at the dense cap, N = 2^20, it is 6.2e-8 < 1/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

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
#   and coordinate; the masked add of another 2-group takes 3-11 ns per pair
#   up to order 2^16 (|X| >= 128) and 9-15 ns at 2^20 (|X| >= 1024), with no
#   trend in the rank.  On 75-85 cells (9 such groups, |X| = |Y| from 16 to
#   16384, best of 3 or 5), 3 pick the slower backend at 6 ns per coordinate,
#   4-6 at 10 ns, and 6-8 at a flat 8 ns, which the transform model's price
#   of short axes (2,2,4,1024) punishes;
# - transform: about 60 us of call overhead per axis, 4 ns per element and
#   radix-2 stage (35-80 ns per element for z65536, 16,16,16 and 16,16,16,16),
#   eight times that on an axis whose length has a prime factor above 7
#   (pocketfft's generic-radix and Bluestein paths: z1009, z65521), and
#   220 ns per one-dimensional line, N/m of them along an axis of length m;
# - Walsh–Hadamard (exponent 2; three transforms, the product and the integer
#   conversion, with the index scatters of _rep_rows): about 40 us per call
#   and 15-20 ns per element up to order 2^18, rising to 42-45 ns at 2^20,
#   where the float64 vectors no longer fit in cache.  The model takes 40 ns,
#   so f2^20 cells of about 8 million pairs or fewer stay pairwise, which also
#   keeps their float64 vectors (8 MB each) out of the peak memory.
_PAIR_NS_XOR = 5
_PAIR_NS_PER_COORD = 10
_PAIR_NS_PER_FIELD = 6
_FFT_NS_PER_AXIS = 60_000
_FFT_NS_PER_STAGE = 4
_FFT_NS_PER_LINE = 220
_FFT_ROUGH_FACTOR = 8
_WHT_NS_PER_CALL = 40_000
_WHT_NS_PER_ELEMENT = 40
# - a row check (one translate, gather and count in Python): about 4 us
#   beyond its pairs (3-5 us measured at |X| = 4, rank 1);
# - a _row_counts call: its pairs or transform, as above, plus a 200 us
#   margin (the call's own fixed cost is about 15 us; the packing scans of
#   the benchmark's dense cells take the same time with either).
_ROW_CHECK_NS = 4_000
_ROW_COUNTS_CALL_NS = 200_000

# Walsh–Hadamard transform: Hadamard blocks of at most 2^5 x 2^5, in GEMMs
# of at most 2^18 multiply-adds, which OpenBLAS runs on the calling thread.
# A larger GEMM may be split across threads: on a 2-vCPU VM a pass over
# (2, 32, 1024) blocks in one matmul took 24-40 ms instead of about 0.2 ms.
_HADAMARD_BITS = 5
_GEMM_MNK = 1 << 18

# float64 unit roundoff
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True, eq=False)
class GroupSubset:
    """Immutable dense subset of a group: bit i is set when element index i is a member."""

    group: GroupSpec
    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=bool)  # a copy: the caller's array may change
        if bits.shape != (self.group.order,):
            raise StructuralError(
                f"bit vector of length {bits.shape} does not match group order {self.group.order}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

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
        if isinstance(indices, np.ndarray):
            # one range check and one scatter: a loop costs about 0.3 us an index
            if indices.size and (indices.min() < 0 or indices.max() >= group.order):
                raise _out_of_range(group, next(i for i in indices if not 0 <= i < group.order))
            bits[indices.astype(np.int64, copy=False)] = True
            return cls(group, bits)
        # anything else one index at a time, which keeps bignums out of int64
        # and is cheaper than converting the short lists most callers pass
        for i in indices:
            i = int(i)
            if not 0 <= i < group.order:
                raise _out_of_range(group, i)
            bits[i] = True
        return cls(group, bits)

    @classmethod
    def from_mask(cls, group: GroupSpec, mask: int) -> "GroupSubset":
        if mask < 0:
            raise StructuralError("subset mask must be nonnegative")
        if mask >> group.order:
            raise StructuralError(f"mask 0x{mask:x} has bits beyond group order {group.order}")
        raw = np.frombuffer(mask.to_bytes((group.order + 7) // 8, "little"), dtype=np.uint8)
        return cls(group, np.unpackbits(raw, count=group.order, bitorder="little"))

    # ---- views ----

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.bits))

    @functools.cached_property
    def mask(self) -> int:
        """The subset as a Python int bitmask (bit i = index i)."""
        return int.from_bytes(np.packbits(self.bits, bitorder="little").tobytes(), "little")

    def to_index_list(self) -> list[int]:
        return self.indices.tolist()

    # ---- set algebra ----

    def _require_same_group(self, other: "GroupSubset") -> None:
        if self.group != other.group:
            raise StructuralError("subsets live in different groups")

    def union(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_group(other)
        return GroupSubset(self.group, self.bits | other.bits)

    def difference(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_group(other)
        return GroupSubset(self.group, self.bits & ~other.bits)

    def is_disjoint(self, other: "GroupSubset") -> bool:
        self._require_same_group(other)
        return not bool((self.bits & other.bits).any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSubset)
            and self.group == other.group
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    def __repr__(self) -> str:
        shown = self.to_index_list()
        if len(shown) > 12:
            shown = shown[:12] + ["..."]
        return f"GroupSubset({self.group!r}, {shown})"


def _out_of_range(group: GroupSpec, index) -> StructuralError:
    return StructuralError(f"index {index} out of range for group order {group.order}")


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


def sumset(x: GroupSubset, y: GroupSubset) -> GroupSubset:
    """The set {a + b : a in X, b in Y}."""
    return GroupSubset(x.group, rep_function(x, y).values > 0)


@dataclass
class RepFunction:
    """Representation counts r(z) = #{(x, y) in X x Y : x + y = z}."""

    values: np.ndarray
    x_size: int
    y_size: int


def _seven_smooth(m: int) -> bool:
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


@functools.lru_cache(maxsize=64)
def _transform_ns(moduli: tuple[int, ...]) -> float:
    n = math.prod(moduli)
    if all(m == 2 for m in moduli):
        return _WHT_NS_PER_CALL + _WHT_NS_PER_ELEMENT * n
    total = 0.0
    for m in moduli:
        stage_ns = _FFT_NS_PER_STAGE * (1 if _seven_smooth(m) else _FFT_ROUGH_FACTOR)
        total += _FFT_NS_PER_AXIS + n * (_FFT_NS_PER_LINE / m + stage_ns * math.log2(m))
    return total


def _pair_ns(group: GroupSpec) -> int:
    if group.is_exponent_two:
        return _PAIR_NS_XOR
    return group.rank * (_PAIR_NS_PER_COORD if group._field_masks is None else _PAIR_NS_PER_FIELD)


def _transform_cheaper(group: GroupSpec, pairs: int) -> bool:
    """Whether the transform backend is cheaper than `pairs` pairwise sums."""
    return pairs * _pair_ns(group) > _transform_ns(group.moduli)


def _recount_ns(group: GroupSpec, width: int, rows: int) -> tuple[float, float]:
    """Estimated ns of counting one row |S ∩ (X + y)| by a translate and a
    gather, and of one _row_counts call over `rows` rows, for |X| = width."""
    pair_ns = _pair_ns(group)
    return (
        _ROW_CHECK_NS + width * pair_ns,
        _ROW_COUNTS_CALL_NS + min(width * rows * pair_ns, _transform_ns(group.moduli)),
    )


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
    """(1_F * 1_H)(z) for every index z, from indicator vectors f and h.

    f may also be a stack of indicator rows, one convolution per row, and h
    a stack of the same shape or one row shared by every row of f.

    A group of exponent 2 convolves by Walsh–Hadamard transforms,
    W(W(f) W(h)) / N, which is exact a priori: every forward partial sum is
    an integer of size at most |F| <= 2^20, every pointwise product one of
    at most |F||H| <= 2^40, and every inverse partial sum one of at most
    sum_s |W(f)(s) W(h)(s)| <= N sqrt(|F||H|) <= 2^40 (Cauchy–Schwarz, with
    Parseval's sum_s W(f)(s)^2 = N |F|), all below 2^53; dividing by N = 2^k
    is exact.  Any other group convolves by rfftn and returns None when the
    float result cannot be certified exact for every row; the caller then
    computes pairwise.
    """
    if group.is_exponent_two:
        spectrum = _walsh_hadamard(f.astype(np.float64, order="C"))
        spectrum *= _walsh_hadamard(h.astype(np.float64, order="C"))
        values = _walsh_hadamard(spectrum)
        values /= group.order
        return values.astype(np.int64)
    sizes = np.count_nonzero(f, axis=-1) * np.count_nonzero(h, axis=-1)
    axes = tuple(range(-len(group.moduli), 0))
    spectrum = np.fft.rfftn(f.reshape(f.shape[:-1] + group.moduli), axes=axes)
    spectrum *= np.fft.rfftn(h.reshape(h.shape[:-1] + group.moduli), axes=axes)
    values = np.fft.irfftn(spectrum, s=group.moduli, axes=axes).reshape(f.shape)
    rounded = np.rint(values)
    if not np.abs(values - rounded).max() < 0.25:
        return None
    counts = rounded.astype(np.int64)
    if not np.array_equal(counts.sum(axis=-1), sizes):
        return None
    return counts


@functools.lru_cache(maxsize=_HADAMARD_BITS + 1)
def _hadamard(bits: int) -> np.ndarray:
    """The 2^bits x 2^bits Sylvester matrix, entry (s, x) = (-1)^popcount(s & x)."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """W(v)(s) = sum_x (-1)^popcount(s & x) v(x) along the last axis of v, of length 2^k.

    The k index bits are split into ceil(k / _HADAMARD_BITS) axes, and each
    axis is multiplied by its Hadamard block: from the left in column blocks
    of at most _GEMM_MNK // m^2, or, on the last axis, from the right in row
    blocks as narrow, so no one GEMM exceeds _GEMM_MNK.  The passes alternate
    between v and one buffer of its shape, so v (float64, C-contiguous) is
    overwritten, and the result is whichever of the two the last pass wrote.
    """
    n = v.shape[-1]
    bits = n.bit_length() - 1
    passes = -(-bits // _HADAMARD_BITS)
    spare = np.empty_like(v)
    after = n  # the product of the lengths of the axes after the current one
    for p in range(passes):
        b = bits * (p + 1) // passes - bits * p // passes
        m = 1 << b
        after //= m
        cols = _GEMM_MNK // (m * m)
        if after == 1:
            rows = (-1, min(cols, n // m), m)
            np.matmul(v.reshape(rows), _hadamard(b), out=spare.reshape(rows))
        else:
            c = min(cols, after)
            blocks = (-1, m, after // c, c)
            v_blocks, out = v.reshape(blocks).swapaxes(1, 2), spare.reshape(blocks).swapaxes(1, 2)
            np.matmul(_hadamard(b), v_blocks, out=out)
        v, spare = spare, v
    return v


def rep_function(x: GroupSubset, y: GroupSubset) -> RepFunction:
    x._require_same_group(y)
    counts = _rep_rows(x.group, x.indices[None], y.indices[None])[0]
    return RepFunction(values=counts, x_size=x.size, y_size=y.size)


def _rep_rows(group: GroupSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """r_{X_i + Y_i} for each row i of the index matrices xs and ys; shape (len(xs), N).

    The cost model picks one backend for the whole stack from one row's
    |X_i||Y_i| pairs: a batched transform, or the pair sums of whole rows
    (of X-row blocks when one row is wider) in blocks of at most _PAIR_BLOCK
    sums and bins, each bincounted once at row offsets i N.
    """
    rows, n = len(xs), group.order
    width = xs.shape[1] * ys.shape[1]
    if _transform_cheaper(group, width):
        f = np.zeros((rows, n), dtype=bool)
        h = np.zeros((rows, n), dtype=bool)
        f[np.arange(rows)[:, None], xs] = True
        h[np.arange(rows)[:, None], ys] = True
        counts = _exact_convolution(group, f, h)
        if counts is not None:
            return counts
    counts = np.zeros((rows, n), dtype=np.int64)
    row_step = max(1, _PAIR_BLOCK // max(width, n))
    x_step = max(1, _PAIR_BLOCK // max(1, ys.shape[1]))
    for lo in range(0, rows, row_step):
        hi = min(lo + row_step, rows)
        offsets = (np.arange(hi - lo, dtype=np.int64) * n)[:, None, None]
        for x_lo in range(0, xs.shape[1], x_step):
            sums = group._combine(xs[lo:hi, x_lo : x_lo + x_step, None], ys[lo:hi, None, :])
            if hi - lo > 1:  # one row needs no offset pass
                sums += offsets
            counts[lo:hi] += np.bincount(sums.ravel(), minlength=(hi - lo) * n).reshape(hi - lo, n)
    return counts


def _row_counts(group: GroupSpec, s_bits: np.ndarray, xi: np.ndarray, yi: np.ndarray):
    """|S ∩ (X + y)| for each y in yi and each row S of the indicator row or stack s_bits.

    The transform reads them off 1_S * 1_{-X}; pairwise blocks x + y by _PAIR_BLOCK sums.
    """
    if _transform_cheaper(group, len(xi) * len(yi)):
        neg_x = np.bincount(group.neg_array(xi), minlength=group.order)
        conv = _exact_convolution(group, s_bits, neg_x)
        if conv is not None:
            return conv[..., yi]
    step = max(1, _PAIR_BLOCK // max(1, len(yi)))
    sums = (group.pairsum_matrix(xi[lo : lo + step], yi) for lo in range(0, max(1, len(xi)), step))
    # s_bits[i] gathers one row 2-3x faster than s_bits[..., i], which stacks need
    hits = (s_bits[i] if s_bits.ndim == 1 else s_bits[..., i] for i in sums)
    return functools.reduce(np.add, (h.sum(axis=-2, dtype=np.int64) for h in hits))


def _squared_norms(r: np.ndarray) -> list[int]:
    """sum_z r_i(z)^2 for each row r_i of r, exactly: at most N^3 < 2^63 under DENSE_CAP."""
    return np.einsum("ij,ij->i", r, r).tolist()


def additive_energy(x: GroupSubset, y: GroupSubset) -> int:
    """Number of quadruples (x1, y1, x2, y2) with x1 + y1 = x2 + y2, exactly."""
    return _squared_norms(rep_function(x, y).values[None])[0]


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
