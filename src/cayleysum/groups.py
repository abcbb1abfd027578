"""Finite abelian groups presented as products of cyclic factors.

A GroupSpec is a frozen dataclass of its moduli (m_1, ..., m_k), each >= 2,
standing for Z_{m_1} x ... x Z_{m_k}.  Elements are indices in [0, N), laid
out row-major by `strides` (mixed radix, the last coordinate varying
fastest), so they double as dense array indices.  Dense representations are
capped at N <= DENSE_CAP = 2^20, which keeps every count exact in int64; a
larger group is refused with work bounded by the cap.

All index arithmetic goes through one method, `GroupSpec._combine`, with
exponent-2, rank-1 and 2-group branches.  In a group of exponent 2 (all
moduli equal to 2) an element's index is its coordinate vector read as a
bitmask, addition is XOR, and negation is the identity; in a cyclic group
addition is integer addition mod N.  In another 2-group (every modulus a
power of two) the index is one bit field per coordinate, and one masked add
(SWAR) sums them all: a carry stops at its field's top bit, and a borrow
never leaves the field.  Otherwise coordinate c of index i is read as
`i // strides[c] % moduli[c]`.  No branch holds state of size N.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError

__all__ = [
    "DENSE_CAP",
    "GroupSpec",
    "parse_group",
]

# The largest count, an energy sum_z r(z)^2 <= max r * sum r <= min(|X|, |Y|) |X||Y|,
# is at most N^3 = 2^60 at this order, so int64 holds every count exactly.
DENSE_CAP = 1 << 20


def _over_cap(what: str) -> StructuralError:
    return StructuralError(f"{what} exceeds the dense representation cap {DENSE_CAP}")


@dataclass(frozen=True)
class GroupSpec:
    """Product-of-cyclic-factors group whose elements are row-major indices."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        moduli = tuple(int(m) for m in self.moduli)
        object.__setattr__(self, "moduli", moduli)
        if not moduli:
            raise StructuralError("a group needs at least one cyclic factor")
        order = 1
        for m in moduli:  # stops at the first partial product above the cap
            if m < 2:
                raise StructuralError(f"every modulus must be >= 2, got {m}")
            order *= m
            if order > DENSE_CAP:
                raise _over_cap("group order")

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        return tuple(math.prod(self.moduli[c + 1 :]) for c in range(self.rank))

    @cached_property
    def is_exponent_two(self) -> bool:
        return all(m == 2 for m in self.moduli)

    @cached_property
    def _field_masks(self) -> tuple[int, int] | None:
        """(top bit, other bits) of every coordinate's bit field in a 2-group of rank >= 2."""
        if self.rank == 1 or any(m & (m - 1) for m in self.moduli):
            return None
        high = sum(s * (m >> 1) for m, s in zip(self.moduli, self.strides))
        return high, (self.order - 1) ^ high

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def describe(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "order": self.order,
            "exponent_two": self.is_exponent_two,
        }

    # ---- index arithmetic ----

    def _combine(self, a, b, sign: int = 1):
        """Index of coords(a) + sign * coords(b); broadcasts over index arrays."""
        if self.is_exponent_two:  # index is a bitmask, and -x = x
            return a ^ b
        if self.rank == 1:
            return (a + b if sign == 1 else a - b) % self.order
        if self._field_masks is not None:  # a carry stops at the top bit, a borrow at the field
            high, low = self._field_masks
            if sign == 1:
                return ((a & low) + (b & low)) ^ ((a ^ b) & high)
            return ((a | high) - (b & low)) ^ ((a ^ ~b) & high)
        out = 0
        for m, s in zip(self.moduli, self.strides):
            # v // s is v's digit at stride s, mod m; a fresh array or an int, so in place is safe
            t = a // s + b // s if sign == 1 else a // s - b // s
            t %= m
            t *= s
            out += t
        return out

    def translate_array(self, idx: np.ndarray, by: int) -> np.ndarray:
        """Index array of {i + by : i in idx}."""
        return self._combine(np.asarray(idx, dtype=np.int64), by)

    def neg_array(self, idx: np.ndarray) -> np.ndarray:
        return self._combine(0, np.asarray(idx, dtype=np.int64), -1)

    def pairsum_matrix(self, xi: np.ndarray, yi: np.ndarray) -> np.ndarray:
        """Matrix of index sums, shape (len(xi), len(yi))."""
        xi, yi = np.asarray(xi, dtype=np.int64), np.asarray(yi, dtype=np.int64)
        return self._combine(xi[:, None], yi[None, :])


_GROUP_CYCLIC = re.compile(r"^z(\d+)$")
_GROUP_BOOLEAN = re.compile(r"^f2\^(\d+)$")


def parse_group(text: str) -> GroupSpec:
    """Parse a group literal: "2,2,2,2", "z8", or "f2^10"."""
    cleaned = text.strip().lower().replace(" ", "")
    if not cleaned:
        raise StructuralError("empty group literal")
    if max(map(len, re.split(r"\D", cleaned))) > sys.int_info.default_max_str_digits:
        raise _over_cap(f"a number of more than {sys.int_info.default_max_str_digits} digits")
    m = _GROUP_CYCLIC.match(cleaned)
    if m:
        return GroupSpec((int(m.group(1)),))
    m = _GROUP_BOOLEAN.match(cleaned)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise StructuralError("f2^k needs k >= 1")
        if k >= DENSE_CAP.bit_length():  # refused before the k-tuple is built
            raise _over_cap(f"group order 2^{k}")
        return GroupSpec((2,) * k)
    try:
        moduli = tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:
        raise StructuralError(f"unrecognized group literal {text!r}") from exc
    return GroupSpec(moduli)
