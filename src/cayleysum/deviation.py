"""Random Cayley sum graphs and exact edge-density deviation machinery.

For a subset A of a group G, the Cayley sum graph on G has an edge (x, y)
exactly when x + y lies in A (loops allowed, orientation ignored);
random_subset(group, seed) returns A itself, a GroupSubset of seeded fair
coins.  For sets X, Y the normalized deviation

    sigma_A(X, Y) = edges(X, Y) / (|X| |Y|) - 1/2

measures how far the bipartite edge density sits from the fair-coin mean.
All sigma values and threshold comparisons here are exact rationals; floats
only appear in reports.

The constructive side mirrors the probabilistic argument it supports:
extract the rows of large deviation (|sigma_A(X,{y})| >= eps/2), greedily
pack translates X + y with pairwise-small overlap, and chain the two.  Each
step asserts the counting inequality it is meant to witness.

Apart from the restriction draws, A enters only through row_edge_counts, the
vector c(y) = |A ∩ (X + y)| over y in Y, one call to the row-count kernel
subsets._row_counts.  Edges are its sum, so one pass
fixes sigma, the deviating rows and every per-row check of the pipeline.
The restriction draws, batched over many A, read edges as the inner product
<1_A, r_{X+Y}> with the representation counts instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import rng, subsets
from ._record import Record
from .errors import StructuralError, check, epsilon_in
from .groups import GroupSpec
from .subsets import GroupSubset, additive_energy

__all__ = [
    "DeviationReport",
    "PackingResult",
    "PipelineResult",
    "RestrictionParams",
    "RestrictionDraw",
    "random_subset",
    "edge_count",
    "edge_density_deviation",
    "row_edge_counts",
    "high_deviation_elements",
    "greedy_low_overlap_packing",
    "deviation_packing_pipeline",
    "restriction_sample",
]

# a restriction draw, and so run_restriction_mc, takes any epsilon in (0, 1]
_RESTRICTION_EPSILON_MAX = Fraction(1)


def random_subset(group: GroupSpec, seed: int) -> GroupSubset:
    """The vertex-label set A, sampled by independent fair coins, one per element.

    The same group and seed reproduce A bit for bit: element e is included
    iff bit (e mod 64) of splitmix64(seed + (e // 64 + 1) * GAMMA) is set.
    """
    return GroupSubset(group, rng.bernoulli_bits(seed, group.order))


def edge_count(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> int:
    """Number of pairs (x, y) in X x Y with x + y in A."""
    return int(row_edge_counts(a, x, y).sum())


@dataclass
class DeviationReport(Record):
    """Exact normalized deviation of the (X, Y) edge density from 1/2."""

    sigma: Fraction
    x_size: int
    y_size: int
    edges: int

    def to_json(self) -> dict:
        return {**super().to_json(), "sigma_float": float(self.sigma)}


def _deviation_report(counts: np.ndarray, x: GroupSubset, y: GroupSubset) -> DeviationReport:
    if x.size == 0 or y.size == 0:
        raise StructuralError("X and Y must be nonempty")
    edges = int(counts.sum())
    sigma = Fraction(edges, x.size * y.size) - Fraction(1, 2)
    check(abs(sigma) <= Fraction(1, 2), "sigma must lie in [-1/2, 1/2]")
    return DeviationReport(sigma=sigma, x_size=x.size, y_size=y.size, edges=edges)


def edge_density_deviation(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> DeviationReport:
    return _deviation_report(row_edge_counts(a, x, y), x, y)


def row_edge_counts(a: GroupSubset, x: GroupSubset, y: GroupSubset) -> np.ndarray:
    """For each y in Y (ascending index order), |A ∩ (X + y)|."""
    if a.group != x.group or a.group != y.group:
        raise StructuralError("A, X, Y must share one group")
    return subsets._row_counts(a.group, a.bits, x.indices, y.indices)


def high_deviation_elements(
    a: GroupSubset, x: GroupSubset, y: GroupSubset, epsilon
) -> GroupSubset:
    """The rows y in Y with |sigma_A(X, {y})| >= eps/2.

    When the whole pair deviates (|sigma_A(X, Y)| >= eps), at least an eps
    fraction of Y survives; that lower bound is asserted.
    """
    eps = epsilon_in(epsilon)
    counts = row_edge_counts(a, x, y)
    return _deviating_rows(counts, x, y, eps, _deviation_report(counts, x, y).sigma)


def _row_deviates(counts: np.ndarray, n: int, eps: Fraction) -> np.ndarray:
    # |c/n - 1/2| >= eps/2  <=>  |2c - n| >= ceil(num * n / den) with eps = num/den;
    # the integer threshold keeps a bignum denominator out of int64 arithmetic
    return np.abs(2 * counts - n) >= -(-eps.numerator * n // eps.denominator)


def _deviating_rows(
    counts: np.ndarray, x: GroupSubset, y: GroupSubset, eps: Fraction, sigma: Fraction
):
    """The deviating rows of Y, given sigma_A(X, Y) read off the same counts."""
    result = GroupSubset.from_indices(y.group, y.indices[_row_deviates(counts, x.size, eps)])
    if abs(sigma) >= eps:
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

    The test is overlap <= cap = floor(eps.numerator |X| / eps.denominator),
    in Python integers, so a bignum denominator never reaches int64.  The
    scan walks the live rows in order, and each gets one translate and one
    gather.  Once the checks that rejected their row have cost about one
    refresh, as priced by subsets._recount_ns, one subsets._row_counts call
    against the union recounts the live rows after it, and drops those whose
    overlap is already above cap: the union only grows, so the scan would
    reject them anyway.  A check that admits its row is not counted: the
    admission needs its translate anyway.
    """
    eps = epsilon_in(epsilon)
    x._require_same_group(y)
    if x.size == 0:
        raise StructuralError("X must be nonempty")
    g = x.group
    n = x.size
    # the scan's refresh buffers are freed before the energy count
    ys, z_bits = _greedy_scan(g, x.indices, y.indices, eps.numerator * n // eps.denominator)
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


def _greedy_scan(g: GroupSpec, xi: np.ndarray, cand: np.ndarray, cap: int):
    """(admitted rows, union bits) of the scan greedy_low_overlap_packing describes."""
    z_bits = np.zeros(g.order, dtype=bool)
    ys: list[int] = []
    live = cand
    while len(live):
        check_ns, refresh_ns = subsets._recount_ns(g, len(xi), len(live))
        rejected = 0
        for i, e in enumerate(live.tolist(), 1):
            tr = g.translate_array(xi, e)
            if np.count_nonzero(z_bits[tr]) <= cap:
                ys.append(e)
                z_bits[tr] = True
                continue
            rejected += 1
            if rejected * check_ns >= refresh_ns:  # the checks cost what a refresh saves
                break
        live = live[i:]  # the rows after the break, or none
        if len(live):
            live = live[subsets._row_counts(g, z_bits, xi, live) <= cap]
    return ys, z_bits


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
    counts = row_edge_counts(a, x, y)
    sigma = _deviation_report(counts, x, y).sigma
    return _packing_pipeline(counts, x, y, eps, sigma, _deviating_rows(counts, x, y, eps, sigma))


def _packing_pipeline(
    counts: np.ndarray,
    x: GroupSubset,
    y: GroupSubset,
    eps: Fraction,
    sigma: Fraction,
    rows: GroupSubset,
):
    """The pipeline on the row counts, their sigma and their deviating rows."""
    if abs(sigma) < eps:
        return PipelineResult(
            ok=False,
            reason=f"deviation hypothesis fails: |sigma| = {abs(sigma)} < eps = {eps}",
            epsilon=eps,
            sigma=sigma,
        )
    n = x.size
    ratio = Fraction(n**2 * y.size, additive_energy(x, y))

    # nonempty: with |sigma| >= eps, _deviating_rows asserts at least eps |Y| > 0 rows
    packing = greedy_low_overlap_packing(x, rows, eps / 2)
    row_ratio = packing.energy_ratio  # |X|^2 |rows| / E(X, rows)
    check(row_ratio >= eps * ratio, "extracted rows must keep an eps fraction of the energy ratio")

    # every packed row is a row of Y that deviates by >= eps/2 (it was extracted)
    at = np.searchsorted(y.indices, packing.ys).clip(max=len(y.indices) - 1)
    check(
        np.array_equal(y.indices[at], packing.ys) and _row_deviates(counts[at], n, eps).all(),
        "packed rows must be rows of Y that individually deviate by eps/2",
    )

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
    clipped to the available sizes, with K = |X|^2 |Y| / E(X, Y).  S and T
    are rng.sample_rows rows, trial-set stream 2 (rng.TRIAL_STREAM), keyed
    by derive_seed(seed, 1) and derive_seed(seed, 2), with the seed taken
    mod 2^64.  This is the one-draw case of the batched draws
    run_restriction_mc makes.
    """
    eps = epsilon_in(epsilon, _RESTRICTION_EPSILON_MAX)
    if a is not None and a.group != x.group:
        raise StructuralError("A, X, Y must share one group")
    plan = _restriction_plan(x, y, eps)
    seeds = np.array([int(seed) & rng._MASK], dtype=np.uint64)
    s_rows, t_rows, energy_ok, deviation_ok = _restriction_draws(
        x, y, plan, seeds, None if a is None else a.bits[None]
    )
    return RestrictionDraw(
        s_subset=GroupSubset.from_indices(x.group, s_rows[0]),
        t_subset=GroupSubset.from_indices(x.group, t_rows[0]),
        params=plan.params,
        energy_check=energy_ok[0],
        deviation_check=None if deviation_ok is None else deviation_ok[0],
    )


class _RestrictionPlan(NamedTuple):
    """What every restriction draw from (X, Y) shares."""

    params: RestrictionParams
    rep: np.ndarray  # r_{X+Y}
    energy: int  # E(X, Y) = <r_{X+Y}, r_{X+Y}>


def _restriction_plan(x: GroupSubset, y: GroupSubset, eps: Fraction) -> _RestrictionPlan:
    if x.size == 0 or y.size == 0:
        raise StructuralError("X and Y must be nonempty")
    log_order = math.log(x.group.order)
    rep = subsets.rep_function(x, y).values
    (energy,) = subsets._squared_norms(rep[None])
    ratio = Fraction(x.size**2 * y.size, energy)
    eps_f = float(eps)
    s_raw = 2000.0 * log_order / eps_f**4 if eps_f**4 else math.inf  # eps^4 underflows
    t_raw = math.ceil(float(ratio) * y.size * eps_f**2 / (10.0 * log_order))
    params = RestrictionParams(
        x_sample_size=x.size if s_raw >= x.size else max(1, math.ceil(s_raw)),
        y_sample_size=max(1, min(t_raw, y.size)),
        y_threshold=y.size,
        energy_ratio=ratio,
        log_order=log_order,
    )
    return _RestrictionPlan(params, rep, energy)


def _restriction_draws(
    x: GroupSubset, y: GroupSubset, plan: _RestrictionPlan, seeds: np.ndarray, a_bits=None
):
    """S and T index rows and both checks of the draws keyed by seeds.

    Draw i samples S with derive_seed(seeds[i], 1) and T with
    derive_seed(seeds[i], 2).  Its representation counts r_i = r_{S_i + T_i}
    give E(S_i, T_i) = <r_i, r_i>; against the A row a_bits[i] they give
    edges(S_i, T_i) = <A_i, r_i>, and edges(X, Y) = <A_i, r_{X+Y}>.
    Returns (S rows, T rows, energy checks, deviation checks or None).
    """
    s, t = plan.params.x_sample_size, plan.params.y_sample_size
    xy = x.size * y.size
    draw_seeds = rng.derive_seed_array(seeds[:, None], np.arange(1, 3))
    s_rows = rng.sample_rows(x.indices, s, draw_seeds[:, 0])
    t_rows = rng.sample_rows(y.indices, t, draw_seeds[:, 1])
    r = subsets._rep_rows(x.group, s_rows, t_rows)
    # E(S,T) * |X|^2 |Y|^2 <= 2 s t |X|^2 |Y|^2 + 2 s^2 t^2 E(X,Y), in integers
    rhs = 2 * s * t * xy**2 + 2 * s**2 * t**2 * plan.energy
    energy_ok = [e * xy**2 <= rhs for e in subsets._squared_norms(r)]
    if a_bits is None:
        return s_rows, t_rows, energy_ok, None
    big = a_bits @ plan.rep
    small = np.einsum("ij,ij->i", r, a_bits)
    check(
        0 <= big.min() and big.max() <= xy and 0 <= small.min() and small.max() <= s * t,
        "sigma must lie in [-1/2, 1/2]",
    )
    # |sigma_A(X,Y) - sigma_A(S,T)|^2 <= 36 |Y| / (s t): the difference is
    # (e_XY s t - e_ST |X||Y|) / (|X||Y| s t), so square and clear denominators
    bound = 36 * y.size * xy**2 * s * t
    deviation_ok = [
        (e_big * s * t - e_small * xy) ** 2 <= bound
        for e_big, e_small in zip(big.tolist(), small.tolist())
    ]
    return s_rows, t_rows, energy_ok, deviation_ok
