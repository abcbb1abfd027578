"""Random Cayley sum graphs and exact edge-density deviation machinery.

For a subset A of a group G, the Cayley sum graph on G has an edge (x, y)
exactly when x + y lies in A (loops allowed, orientation ignored).  For sets
X, Y the normalized deviation

    sigma_A(X, Y) = edges(X, Y) / (|X| |Y|) - 1/2

measures how far the bipartite edge density sits from the fair-coin mean.
All sigma values and threshold comparisons here are exact rationals; floats
only appear in reports.

The constructive side mirrors the probabilistic argument it supports:
extract the rows of large deviation (|sigma_A(X,{y})| >= eps/2), greedily
pack translates X + y with pairwise-small overlap, and chain the two.  Each
step asserts the counting inequality it is meant to witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng, subsets
from ._record import Record
from .errors import PropertyError, StructuralError, check
from .groups import Element, GroupSpec
from .subsets import GroupSubset, _pair_sum_blocks, additive_energy

__all__ = [
    "CayleySample",
    "DeviationReport",
    "PackingResult",
    "PipelineResult",
    "RestrictionParams",
    "RestrictionDraw",
    "random_subset",
    "edge_query",
    "edge_count",
    "edge_density_deviation",
    "row_edge_counts",
    "high_deviation_elements",
    "greedy_low_overlap_packing",
    "deviation_packing_pipeline",
    "split_blocks",
    "restriction_sample",
]


def to_fraction(value, name: str = "value") -> Fraction:
    """Exact rational from int, float, str, or Fraction input."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise StructuralError(f"{name} must be rational, got {value!r}") from exc


def epsilon_in(value, hi: Fraction = Fraction(1, 2)) -> Fraction:
    """The rational epsilon in (0, hi], or StructuralError."""
    eps = to_fraction(value, "epsilon")
    if not 0 < eps <= hi:
        raise StructuralError(f"epsilon must lie in (0, {hi}], got {eps}")
    return eps


@dataclass(frozen=True)
class CayleySample:
    """A sampled vertex-label set A with its provenance (group, seed).

    Regenerating with the same group and seed reproduces A bit for bit:
    element e is included iff bit (e mod 64) of
    splitmix64(seed + (e // 64 + 1) * GAMMA) is set.
    """

    group: GroupSpec
    seed: int
    a: GroupSubset
    density: Fraction = field(default=Fraction(1, 2))


def random_subset(group: GroupSpec, seed: int) -> CayleySample:
    """Sample A by independent fair coins, one per group element."""
    bits = rng.bernoulli_bits(seed, group.order)
    return CayleySample(group=group, seed=seed, a=GroupSubset(group, bits))


def edge_query(sample: CayleySample, x: Element, y: Element) -> bool:
    """Whether (x, y) is an edge: x + y lands in A."""
    g = sample.group
    return sample.a.contains(g.encode(g.add(x, y)))


def edge_count(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> int:
    """Number of pairs (x, y) in X x Y with x + y in A."""
    if a.group != x.group or a.group != y.group:
        raise StructuralError("A, X, Y must share one group")
    if subsets._transform_cheaper(a.group, len(x.indices) * len(y.indices)):
        # sum over z in A of r(z), r = 1_X * 1_Y
        r = subsets._exact_convolution(a.group, x.bits, y.bits)
        if r is not None:
            return int(r[a.bits].sum())
    return sum(int(a.bits[ps].sum()) for ps in _pair_sum_blocks(x, y))


@dataclass
class DeviationReport(Record):
    """Exact normalized deviation of the (X, Y) edge density from 1/2."""

    sigma: Fraction
    x_size: int
    y_size: int
    edges: int

    def to_json(self) -> dict:
        return {**super().to_json(), "sigma_float": float(self.sigma)}


def edge_density_deviation(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> DeviationReport:
    if x.size == 0 or y.size == 0:
        raise StructuralError("X and Y must be nonempty")
    edges = edge_count(a, x, y)
    sigma = Fraction(edges, x.size * y.size) - Fraction(1, 2)
    check(abs(sigma) <= Fraction(1, 2), "sigma must lie in [-1/2, 1/2]")
    return DeviationReport(sigma=sigma, x_size=x.size, y_size=y.size, edges=edges)


def row_edge_counts(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> np.ndarray:
    """For each y in Y (ascending index order), |A ∩ (X + y)|."""
    if a.group != x.group or a.group != y.group:
        raise StructuralError("A, X, Y must share one group")
    g = a.group
    if subsets._transform_cheaper(g, len(x.indices) * len(y.indices)):
        # |A ∩ (X + y)| = (1_A * 1_{-X})(y)
        neg_x = np.zeros(g.order, dtype=bool)
        neg_x[g.neg_array(x.indices)] = True
        conv = subsets._exact_convolution(g, a.bits, neg_x)
        if conv is not None:
            return conv[y.indices]
    counts = np.zeros(y.size, dtype=np.int64)
    for ps in _pair_sum_blocks(x, y):
        counts += a.bits[ps].sum(axis=0)
    return counts


def high_deviation_elements(
    a: GroupSubset, x: GroupSubset, y: GroupSubset, epsilon
) -> GroupSubset:
    """The rows y in Y with |sigma_A(X, {y})| >= eps/2.

    When the whole pair deviates (|sigma_A(X, Y)| >= eps), at least an eps
    fraction of Y survives; that lower bound is asserted.
    """
    eps = epsilon_in(epsilon)
    if x.size == 0 or y.size == 0:
        raise StructuralError("X and Y must be nonempty")
    n = x.size
    counts = row_edge_counts(a, x, y)
    # |c/n - 1/2| >= eps/2  <=>  |2c - n| >= ceil(num * n / den) with eps = num/den;
    # the integer threshold keeps a bignum denominator out of int64 arithmetic
    keep = np.abs(2 * counts - n) >= -(-eps.numerator * n // eps.denominator)
    chosen = y.indices[keep]
    result = GroupSubset.from_indices(y.group, chosen)
    whole = edge_density_deviation(a, x, y).sigma
    if abs(whole) >= eps:
        check(
            result.size >= eps * y.size,
            "high-deviation rows must cover an eps fraction of Y when the pair deviates",
        )
    return result


@dataclass
class PackingResult(Record):
    """Greedy low-overlap packing of translates X + y inside Y.

    ys lists the admitted elements in scan order; z is the union of their
    translates; energy and energy_ratio describe E(X, Y) with
    E = |X|^2 |Y| / energy_ratio; lower_bound is the counting floor that the
    packing size must exceed.
    """

    ys: list[int]
    k: int
    epsilon: Fraction
    z: GroupSubset = field(metadata={"json": None})
    x_size: int
    y_size: int
    energy: int
    energy_ratio: Fraction | None
    lower_bound: Fraction | None

    def to_json(self) -> dict:
        return {**super().to_json(), "z_size": self.z.size}


def greedy_low_overlap_packing(x: GroupSubset, y: GroupSubset, epsilon) -> PackingResult:
    """Scan Y ascending, admitting y while |(X+y) ∩ union-so-far| <= eps |X|.

    The result is maximal: every rejected y overlaps the final union in more
    than eps |X| points.  Its size beats eps^2 |Y| K / |X| where
    K = |X|^2 |Y| / E(X, Y); that floor is asserted.
    """
    eps = epsilon_in(epsilon)
    if x.size == 0:
        raise StructuralError("X must be nonempty")
    g = x.group
    n = x.size
    xi = x.indices
    z_bits = np.zeros(g.order, dtype=bool)
    ys: list[int] = []
    for e in y.indices:
        e = int(e)
        tr = g.translate_array(xi, e)
        overlap = int(z_bits[tr].sum())
        # overlap <= eps * n, exactly
        if overlap * eps.denominator <= eps.numerator * n:
            ys.append(e)
            z_bits[tr] = True
    z = GroupSubset(g, z_bits)
    if y.size == 0:
        return PackingResult(
            ys=[], k=0, epsilon=eps, z=z, x_size=n, y_size=0,
            energy=0, energy_ratio=None, lower_bound=None,
        )
    energy = additive_energy(x, y)
    ratio = Fraction(n**2 * y.size, energy)
    floor = eps**2 * y.size * ratio / n
    check(Fraction(len(ys)) > floor, "packing size must exceed its counting floor")
    return PackingResult(
        ys=ys,
        k=len(ys),
        epsilon=eps,
        z=z,
        x_size=n,
        y_size=y.size,
        energy=energy,
        energy_ratio=ratio,
        lower_bound=floor,
    )


@dataclass
class PipelineResult(Record):
    """Extraction-then-packing pipeline outcome.

    When the deviation hypothesis |sigma_A(X, Y)| >= eps fails, ok is False
    and reason says so; no exception is raised.  On success the packing ran
    on the extracted rows with eps/2, every packed row individually deviates
    by at least eps/2, the extracted-row energy ratio grew by a factor >= eps,
    and k exceeds eps^4 |Y| K / (4 |X|).
    """

    ok: bool
    reason: str | None
    epsilon: Fraction
    sigma: Fraction
    energy_ratio: Fraction | None = None
    extracted: GroupSubset | None = None
    extracted_ratio: Fraction | None = None
    packing: PackingResult | None = None
    k_floor: Fraction | None = None


def deviation_packing_pipeline(
    a: GroupSubset, x: GroupSubset, y: GroupSubset, epsilon
) -> PipelineResult:
    """Extract deviating rows, then pack their translates at eps/2."""
    eps = epsilon_in(epsilon)
    sigma = edge_density_deviation(a, x, y).sigma
    if abs(sigma) < eps:
        return PipelineResult(
            ok=False,
            reason=f"deviation hypothesis fails: |sigma| = {abs(sigma)} < eps = {eps}",
            epsilon=eps,
            sigma=sigma,
        )
    n = x.size
    energy = additive_energy(x, y)
    ratio = Fraction(n**2 * y.size, energy)

    rows = high_deviation_elements(a, x, y, eps)
    check(rows.size > 0, "a deviating pair must produce at least one deviating row")
    row_energy = additive_energy(x, rows)
    row_ratio = Fraction(n**2 * rows.size, row_energy)
    check(row_ratio >= eps * ratio, "extracted rows must keep an eps fraction of the energy ratio")

    packing = greedy_low_overlap_packing(x, rows, eps / 2)

    # every packed row deviates by >= eps/2 (they came from the extraction)
    counts = row_edge_counts(a, x, GroupSubset.from_indices(x.group, packing.ys))
    half = eps / 2
    for c in counts:
        dev = abs(Fraction(int(c), n) - Fraction(1, 2))
        check(dev >= half, "packed rows must individually deviate by eps/2")

    k_floor = eps**4 * y.size * ratio / (4 * n)
    check(Fraction(packing.k) > k_floor, "pipeline packing must beat the composed floor")
    return PipelineResult(
        ok=True,
        reason=None,
        epsilon=eps,
        sigma=sigma,
        energy_ratio=ratio,
        extracted=rows,
        extracted_ratio=row_ratio,
        packing=packing,
        k_floor=k_floor,
    )


def split_blocks(y: GroupSubset, lo: int, hi: int) -> list[GroupSubset]:
    """Partition Y (ascending index order) into blocks with sizes in [lo, hi].

    Rule: use the fewest blocks, q = ceil(|Y| / hi), sized as evenly as
    possible (the first |Y| mod q blocks get one extra element).  A partition
    exists iff q * lo <= |Y|; otherwise StructuralError.
    """
    if lo < 1 or hi < lo:
        raise StructuralError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    total = y.size
    if total < lo:
        raise StructuralError(f"|Y| = {total} is below the minimum block size {lo}")
    q = -(-total // hi)
    base, extra = divmod(total, q)
    if base < lo:
        raise StructuralError(
            f"cannot split {total} elements into blocks of size in [{lo}, {hi}]"
        )
    sizes = [base + 1] * extra + [base] * (q - extra)
    blocks: list[GroupSubset] = []
    idx = y.indices
    at = 0
    for s in sizes:
        blocks.append(GroupSubset.from_indices(y.group, idx[at : at + s]))
        at += s
    check(sum(b.size for b in blocks) == total, "blocks must cover Y exactly")
    return blocks


@dataclass
class RestrictionParams(Record):
    """Subsample sizes for the energy-preserving restriction draw."""

    x_sample_size: int
    y_sample_size: int
    y_threshold: int
    energy_ratio: Fraction
    log_order: float


@dataclass
class RestrictionDraw(Record):
    """One seeded restriction draw with its two inequality checks.

    energy_check: E(S,T) <= 2 s t + 2 s^2 t^2 E(X,Y) / (|X|^2 |Y|^2), exact.
    deviation_check (needs A): |sigma_A(X,Y) - sigma_A(S,T)|^2 <= 36 |Y| / (s t),
    compared exactly after squaring.  Both hold with positive probability by
    design, not always; callers measure empirical frequencies.
    """

    s_subset: GroupSubset = field(metadata={"json": "s"})
    t_subset: GroupSubset = field(metadata={"json": "t"})
    params: RestrictionParams
    energy_check: bool
    deviation_check: bool | None


def restriction_sample(
    x: GroupSubset,
    y: GroupSubset,
    epsilon,
    seed: int,
    a: GroupSubset | None = None,
) -> RestrictionDraw:
    """Draw uniform S in X and T in Y at deviation-preserving sizes.

    s = ceil(2000 log N / eps^4) and t = ceil(K |Y| eps^2 / (10 log N)),
    clipped to the available sizes, with K = |X|^2 |Y| / E(X, Y).
    """
    eps = epsilon_in(epsilon, Fraction(1))
    if x.size == 0 or y.size == 0:
        raise StructuralError("X and Y must be nonempty")
    g = x.group
    log_order = math.log(g.order)
    energy = additive_energy(x, y)
    ratio = Fraction(x.size**2 * y.size, energy)
    eps_f = float(eps)
    s_raw = math.ceil(2000.0 * log_order / eps_f**4)
    t_raw = math.ceil(float(ratio) * y.size * eps_f**2 / (10.0 * log_order))
    s = max(1, min(s_raw, x.size))
    t = max(1, min(t_raw, y.size))
    params = RestrictionParams(
        x_sample_size=s,
        y_sample_size=t,
        y_threshold=y.size,
        energy_ratio=ratio,
        log_order=log_order,
    )
    s_idx = rng.sample_without_replacement(x.indices, s, rng.derive_seed(seed, 1))
    t_idx = rng.sample_without_replacement(y.indices, t, rng.derive_seed(seed, 2))
    s_sub = GroupSubset.from_indices(g, s_idx)
    t_sub = GroupSubset.from_indices(g, t_idx)

    e_st = additive_energy(s_sub, t_sub)
    # E(S,T) * |X|^2 |Y|^2 <= 2 s t |X|^2 |Y|^2 + 2 s^2 t^2 E(X,Y), in integers
    lhs = e_st * x.size**2 * y.size**2
    rhs = 2 * s * t * x.size**2 * y.size**2 + 2 * s**2 * t**2 * energy
    energy_check = lhs <= rhs

    deviation_check: bool | None = None
    if a is not None:
        big = edge_density_deviation(a, x, y).sigma
        small = edge_density_deviation(a, s_sub, t_sub).sigma
        deviation_check = (big - small) ** 2 <= Fraction(36 * y.size, s * t)
    return RestrictionDraw(
        s_subset=s_sub,
        t_subset=t_sub,
        params=params,
        energy_check=energy_check,
        deviation_check=deviation_check,
    )
