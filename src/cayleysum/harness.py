"""Seeded Monte Carlo experiments, exhaustive desk-scale scans, and reports.

Every experiment is a pure function of its config: per-trial seeds derive
from the master seed by the package-wide splitmix chain, aggregation is
commutative, and reports embed the full config, so rerunning a report's own
config reproduces it byte for byte.  Wall-clock data lives in a separate
"timing" object that comparisons strip.

Tail-bound experiments take their theoretical reference values from the
bounds module; nothing here re-derives a formula.

Every Monte Carlo runner walks its trials with one loop, _trial_chunks: it
cuts the trials into chunks of about _MC_BITS bits of A, as bit_matrix
unpacks them (64 ceil(N / 64) bytes per trial), and hands each chunk its
trial seeds derive_seed(master, first + t) from one array pass.  A chunk
draws all its A rows with one rng call and all its X, Y, S and T sets with
one rng.sample_rows call per set, by the trial-set stream whose version,
rng.TRIAL_STREAM, sigma-tail and restriction write into their configs as
"stream"; restriction's fixed X and Y, like scan's, are single sets drawn
by rng.sample_without_replacement.  The sampled-set runners unpack their A
rows with bit_matrix, take one stacked count r_t = r_{X_t + Y_t} per trial
and read every quantity off it as an inner product: edges_A(X, Y) = <1_A, r>
and E(X, Y) = <r, r>.  The joint-deviation rows c(y) = |A ∩ (X + y)| are
popcounts of a chunk's packed A words, rng._bit_words, against the packed
translates (subsets._packed_row_counts); the scan rows of one A come from
subsets._row_counts.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import _record, bounds, deviation, rng, subsets
from ._record import Record
from .deviation import edge_density_deviation, greedy_low_overlap_packing, random_subset
from .errors import StructuralError, check, epsilon_in
from .groups import GroupSpec, parse_group
from .subsets import GroupSubset

__all__ = [
    "CSV_SCHEMA_VERSION",
    "ExperimentReport",
    "wilson_interval",
    "run_joint_deviation_mc",
    "run_sigma_tail_mc",
    "run_restriction_mc",
    "run_worst_case_scan",
    "run_deviation_scan",
]

CSV_SCHEMA_VERSION = 1
# bits of A per Monte Carlo chunk, one byte each when unpacked: 8192 trials at N = 256
_MC_BITS = 1 << 21
_WORST_CASE_BLOCK = 1 << 9  # Gray-code subsets per bit-matrix product
_WORST_CASE_ORDER_CAP = 16
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise StructuralError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise StructuralError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    z2 = _Z95**2
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2))
    # the interval must contain the point estimate even at the endpoints,
    # where center - half cancels to rounding noise
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentReport(Record):
    kind: str
    schema_version: int = field(default=CSV_SCHEMA_VERSION, init=False)
    config: dict
    results: dict
    timing: dict

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization without the timing block."""
        doc = self.to_json()
        del doc["timing"]
        return _record.canonical_bytes(doc)

    def csv_text(self) -> str:
        spec = _CSV_COLUMNS.get(self.kind)
        if spec is None:
            raise StructuralError(f"kind {self.kind!r} has no CSV schema; use JSON")
        rows_key, config_cols, row_cols = spec
        cols = [c if isinstance(c, tuple) else (c, c, None) for c in row_cols]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["schema_version", self.schema_version])
        writer.writerow(["kind", *config_cols, *(header for header, _, _ in cols)])
        for row in self.results[rows_key] if rows_key else [self.results]:
            cells = [row[key] if i is None else row[key][i] for _, key, i in cols]
            writer.writerow([
                self.kind, *(self.config[c] for c in config_cols),
                *(" ".join(map(str, v)) if isinstance(v, list) else v for v in cells),
            ])
        return buf.getvalue()


def _finish(kind: str, config: dict, results: dict, started: float) -> ExperimentReport:
    timing = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.monotonic() - started,
    }
    return ExperimentReport(kind=kind, config=config, results=results, timing=timing)


def _set_size(g: GroupSpec, name: str, size: int) -> int:
    if not 1 <= size <= g.order:
        raise StructuralError(f"{name} must lie in [1, {g.order}], got {size}")
    return size


def _subgroup_prefix(g: GroupSpec, n: int) -> GroupSubset:
    # first n indices; in an exponent-2 group with n a power of two this is
    # a subgroup, so its translates by coset representatives are disjoint
    return GroupSubset.from_indices(g, np.arange(_set_size(g, "n", n)))


def _trial_chunks(trials: int, order: int, master: int, first: int = 0):
    """The Monte Carlo trial loop: per chunk, (lo, hi, seeds) for trials [lo, hi).

    seeds[t - lo] = derive_seed(master, first + t).  bit_matrix unpacks whole
    64-bit words, one byte per bit, so a trial's A row costs
    64 ceil(order / 64) bytes; a chunk holds at most _MC_BITS of them, and at
    least one trial.  Joint-deviation keeps its rows packed, 8 ceil(order / 64)
    bytes a trial, in chunks of the same size.
    """
    step = max(1, _MC_BITS // (64 * -(-order // 64)))
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        yield lo, hi, rng.derive_seed_array(master, np.arange(first + lo, first + hi))


def _independence_shifts(g: GroupSpec) -> np.ndarray:
    """Two shifts y with disjoint translates {0, 1} + y: 2 and 4 when N >= 5,
    else 0 and 2, which are disjoint in z4 and 2,2, the only such N < 5."""
    if g.order >= 4:
        shifts = np.array((2, 4) if g.order >= 5 else (0, 2))
        if len(set(g.pairsum_matrix(shifts, np.arange(2)).flat)) == 4:
            return shifts
    raise StructuralError(
        f"N={g.order} has no two disjoint translates of a 2-element set for the independence arm"
    )


def _sampled_set(g: GroupSpec, name: str, size: int, seed: int) -> GroupSubset:
    """Seeded uniform size-element subset of g (positions drawn without replacement)."""
    positions = rng.sample_without_replacement(range(g.order), _set_size(g, name, size), seed)
    return GroupSubset.from_indices(g, positions)


def run_joint_deviation_mc(
    group: str = "f2^8",
    n: int = 32,
    epsilon="1/2",
    ks: tuple = (1, 2, 4),
    trials: int = 100_000,
    seed: int = 0,
) -> ExperimentReport:
    """Empirical frequency of k simultaneous large row deviations vs its bound.

    X is an index-prefix subgroup of size n; the packing rows come from the
    greedy scan over the whole group, so the admitted translates satisfy the
    low-overlap condition by construction.  Acceptance slack per k is
    bound + 3 sqrt(bound (1 - bound) / trials).
    """
    started = time.monotonic()
    g = parse_group(group)
    eps = epsilon_in(epsilon)
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 1:
        raise StructuralError(f"ks must be positive, got {ks}")
    x = _subgroup_prefix(g, n)
    packing = greedy_low_overlap_packing(x, GroupSubset.full(g), eps)
    if packing.k < ks[-1]:
        raise StructuralError(
            f"packing yields only {packing.k} rows, need {ks[-1]}"
        )
    row_targets = np.array(packing.ys[: ks[-1]], dtype=np.int64)

    # a row deviates when |c/n - 1/2| >= eps: the eps/2 row test at 2 eps
    row_eps = 2 * eps
    successes = {k: 0 for k in ks}
    indep_hits = 0
    pair_x, pair_shifts = np.arange(2), _independence_shifts(g)
    for _, _, seeds in _trial_chunks(trials, g.order, seed):
        words = rng._bit_words(seeds, g.order)
        counts = subsets._packed_row_counts(g, words, x.indices, row_targets)
        events = deviation._row_deviates(counts, n, row_eps)
        for k in ks:
            successes[k] += int(events[:, :k].all(axis=1).sum())
        pair = subsets._packed_row_counts(g, words, pair_x, pair_shifts)
        pair_events = deviation._row_deviates(pair, 2, row_eps)
        indep_hits += int(pair_events.all(axis=1).sum())

    per_k = []
    for k in ks:
        bound = bounds.joint_deviation_bound(float(eps), k, n)
        sigma_ref = math.sqrt(bound * (1.0 - bound) / trials)
        empirical = successes[k] / trials
        lo, hi = wilson_interval(successes[k], trials)
        per_k.append(
            {
                "k": k,
                "bound": bound,
                "successes": successes[k],
                "empirical": empirical,
                "wilson_95": [lo, hi],
                "acceptance_threshold": bound + 3.0 * sigma_ref,
                "accepted": empirical <= bound + 3.0 * sigma_ref,
            }
        )

    # with A = G every row count equals n, which deviates whenever eps <= 1/2:
    # the bound constrains random A only
    forced = bool(deviation._row_deviates(n, n, row_eps))

    product_ref = 0.25  # P(both rows deviate) = (1/2)^2 for the disjoint pair
    indep_emp = indep_hits / trials
    indep_sigma = math.sqrt(product_ref * (1 - product_ref) / trials)

    results = {
        "rows_used": [int(y) for y in row_targets],
        "per_k": per_k,
        "all_accepted": all(entry["accepted"] for entry in per_k),
        "forced_full_group_event": forced,
        "independence_arm": {
            "x_size": 2,
            "k": 2,
            "empirical": indep_emp,
            "product_reference": product_ref,
            "within_5_sigma": abs(indep_emp - product_ref) <= 5 * indep_sigma,
        },
    }
    config = {
        "group": group,
        "n": n,
        "epsilon": str(eps),
        "ks": list(ks),
        "trials": trials,
        "seed": seed,
    }
    return _finish("joint-deviation", config, results, started)


def run_sigma_tail_mc(
    group: str = "f2^10",
    tiers: tuple = ((4, 4), (8, 8), (16, 16), (32, 32), (64, 64)),
    trials: int = 2000,
    seed: int = 0,
) -> ExperimentReport:
    """Distribution of |sigma| across random (A, X, Y) draws per size tier.

    Trial t of tier i keys A, X and Y by derive_seed(base, 0), (base, 1) and
    (base, 2) with base = derive_seed(derive_seed(seed, 1000 + i), t); X and
    Y are rng.sample_rows rows, trial-set stream 2.  A
    chunk of trials takes its A rows from one bit_matrix call and its
    representation counts r_t = r_{X_t + Y_t} from one stacked count, so
    edges_t = <A_t, r_t> and |sigma_t| = |2 edges_t - |X||Y|| / (2 |X||Y|),
    kept as integer numerators until the median and maximum.
    """
    started = time.monotonic()
    g = parse_group(group)
    if g.order > 1 << 16:
        raise StructuralError(f"group order {g.order} exceeds the 2^16 throughput cap")
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    tiers = tuple((int(a), int(b)) for a, b in tiers)
    if not tiers:
        raise StructuralError("tiers must be nonempty")
    for sx, sy in tiers:
        if not (1 <= sx <= g.order and 1 <= sy <= g.order):
            raise StructuralError(f"tier ({sx}, {sy}) out of range for N={g.order}")

    tier_rows = []
    for i, (sx, sy) in enumerate(tiers):
        pairs = sx * sy
        spread = np.empty(trials, dtype=np.int64)  # |2 edges - |X||Y||
        for lo, hi, bases in _trial_chunks(trials, g.order, rng.derive_seed(seed, 1000 + i)):
            seeds = rng.derive_seed_array(bases[:, None], np.arange(3))
            bits = rng.bit_matrix(seeds[:, 0], g.order)
            xs = rng.sample_rows(range(g.order), sx, seeds[:, 1])
            ys = rng.sample_rows(range(g.order), sy, seeds[:, 2])
            edges = np.einsum("ij,ij->i", subsets._rep_rows(g, xs, ys), bits)
            spread[lo:hi] = np.abs(2 * edges - pairs)
        check(bool((spread <= pairs).all()), "sigma must lie in [-1/2, 1/2]")
        spread.sort()
        # statistics.median of the exact |sigma| values: the middle one, or
        # the mean of the middle two
        med = Fraction(int(spread[trials // 2]) + int(spread[(trials - 1) // 2]), 4 * pairs)
        peak = Fraction(int(spread[-1]), 2 * pairs)
        tier_rows.append(
            {
                "x_size": sx,
                "y_size": sy,
                "trials": trials,
                "median_abs_sigma": float(med),
                "median_abs_sigma_exact": str(med),
                "max_abs_sigma": float(peak),
                "max_abs_sigma_exact": str(peak),
            }
        )

    medians = [row["median_abs_sigma"] for row in tier_rows]
    trend_ok = all(b <= a for a, b in zip(medians, medians[1:]))
    results = {"tiers": tier_rows, "median_trend_nonincreasing": trend_ok}
    config = {
        "group": group,
        "tiers": [list(t) for t in tiers],
        "trials": trials,
        "seed": seed,
        "stream": rng.TRIAL_STREAM,
    }
    return _finish("sigma-tail", config, results, started)


def run_restriction_mc(
    group: str = "f2^8",
    x_size: int = 64,
    y_size: int = 64,
    epsilon="1/2",
    trials: int = 1000,
    seed: int = 0,
) -> ExperimentReport:
    """Frequency with which the seeded restriction draw keeps energy and sigma.

    X and Y are drawn once, by rng.sample_without_replacement with
    derive_seed(seed, 1) and (seed, 2), and r_{X+Y} and E(X, Y) = <r, r> are
    computed once.  Trial t keys A by derive_seed(base, 0) and the draw of S
    and T (rng.sample_rows rows, trial-set stream 2) by derive_seed(base, 1),
    with base = derive_seed(seed, 100 + t).  Chunks of trials run as
    batched restriction draws: sigma_A(X, Y) for every A row of a chunk is
    one product with r_{X+Y}.  The two per-draw checks hold with positive
    probability, not always; the smoke threshold asks the joint frequency
    to reach 1/2.
    """
    started = time.monotonic()
    g = parse_group(group)
    eps = epsilon_in(epsilon, deviation._RESTRICTION_EPSILON_MAX)
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    x = _sampled_set(g, "x_size", x_size, rng.derive_seed(seed, 1))
    y = _sampled_set(g, "y_size", y_size, rng.derive_seed(seed, 2))
    plan = deviation._restriction_plan(x, y, eps)
    energy_ok = 0
    deviation_ok = 0
    joint = 0
    for _, _, bases in _trial_chunks(trials, g.order, seed, first=100):
        seeds = rng.derive_seed_array(bases[:, None], np.arange(2))
        bits = rng.bit_matrix(seeds[:, 0], g.order)
        _, _, energy_checks, deviation_checks = deviation._restriction_draws(
            x, y, plan, seeds[:, 1], bits
        )
        energy_ok += sum(energy_checks)
        deviation_ok += sum(deviation_checks)
        joint += sum(e and d for e, d in zip(energy_checks, deviation_checks))
    freq = joint / trials
    lo, hi = wilson_interval(joint, trials)
    results = {
        "params": plan.params.to_json(),
        "energy_check_freq": energy_ok / trials,
        "deviation_check_freq": deviation_ok / trials,
        "joint_freq": freq,
        "joint_wilson_95": [lo, hi],
        "smoke_ok": freq >= 0.5,
    }
    config = {
        "group": group,
        "x_size": x_size,
        "y_size": y_size,
        "epsilon": str(eps),
        "trials": trials,
        "seed": seed,
        "stream": rng.TRIAL_STREAM,
    }
    return _finish("restriction", config, results, started)


def run_worst_case_scan(
    group: str = "z4",
    a_indices=None,
    floor: int = 1,
    seed: int = 0,
) -> ExperimentReport:
    """Exact max of |sigma| over all X, Y with |X|, |Y| >= floor, tiny N only.

    X runs over the subsets of G in Gray-code order, _WORST_CASE_BLOCK at a
    time: the row counts c(y) = |A ∩ (X + y)| of a whole block are one
    product of its member bit matrix with the hit matrix A(x + y).  For each
    X and size m the extreme Y are the m rows of largest and of smallest
    deviation 2c(y) - |X|, so row sorts and prefix sums make the scan exact
    without enumerating Y.  Values compare as integers |sigma| * 2 lcm(1..N)^2.
    The witness is the first X in Gray order that reaches the maximum and,
    within it, the first of (largest rows, then smallest rows; each in
    ascending m) that does; its Y is a prefix of the stable argsort of the
    deviations.  The witness is re-verified by direct recomputation, and its
    edge count is checked against the expander mixing lemma.
    """
    started = time.monotonic()
    g = parse_group(group)
    n_total = g.order
    if n_total > _WORST_CASE_ORDER_CAP:
        raise StructuralError(
            f"group order {n_total} exceeds the exhaustive cap {_WORST_CASE_ORDER_CAP}"
        )
    if not 1 <= floor <= n_total:
        raise StructuralError(f"floor must lie in [1, {n_total}], got {floor}")
    if a_indices is None:
        a = random_subset(g, seed)
    else:
        a = GroupSubset.from_indices(g, a_indices)

    all_idx = np.arange(n_total)
    pair_matrix = g.pairsum_matrix(all_idx, all_idx)
    hits = a.bits[pair_matrix].astype(np.int64)  # hits[x, y] = A(x + y)

    # |sigma| = |S| / (2 n m) for the deviation sum S of m rows against an
    # n-element X, and 2 n m divides scale, so key = |S| * weight[n - 1, col]
    # is |sigma| * scale exactly; it is at most lcm(1..N)^2 < 2^40 under the cap.
    # Columns are the top-side m = floor..N, then the bottom-side ones.
    scale = 2 * math.lcm(*range(1, n_total + 1)) ** 2
    ms = np.tile(np.arange(floor, n_total + 1, dtype=np.int64), 2)
    weight = scale // (2 * np.arange(1, n_total + 1, dtype=np.int64)[:, None] * ms)
    best_key, best_gray, best_col = -1, 0, 0  # keys are >= 0: the first feasible X can win
    for start in range(0, 1 << n_total, _WORST_CASE_BLOCK):
        i = np.arange(start, min(start + _WORST_CASE_BLOCK, 1 << n_total), dtype=np.int64)
        gray = i ^ (i >> 1)
        bits = (gray[:, None] >> all_idx) & 1
        n = bits.sum(axis=1)
        feasible = n >= floor
        if not feasible.any():
            continue
        gray, bits, n = gray[feasible], bits[feasible], n[feasible]
        dev = np.sort(2 * (bits @ hits) - n[:, None], axis=1)
        sums = np.concatenate(
            (np.cumsum(dev[:, ::-1], axis=1)[:, floor - 1 :],
             np.cumsum(dev, axis=1)[:, floor - 1 :]),
            axis=1,
        )
        keys = np.abs(sums) * weight[n - 1]
        row, col = divmod(int(np.argmax(keys)), keys.shape[1])  # first maximum
        if int(keys[row, col]) > best_key:
            best_key, best_col = int(keys[row, col]), col
            best_gray = int(gray[row])

    check(best_key >= 0, "scan must find a witness at any feasible floor")
    best_x = [j for j in range(n_total) if best_gray >> j & 1]
    dev = 2 * hits[best_x].sum(axis=0) - len(best_x)
    side, offset = divmod(best_col, n_total - floor + 1)
    order = np.argsort(dev if side else -dev, kind="stable")
    best_y = sorted(int(v) for v in order[: floor + offset])
    x_w = GroupSubset.from_indices(g, best_x)
    y_w = GroupSubset.from_indices(g, best_y)
    witness = edge_density_deviation(a, x_w, y_w)
    claimed = Fraction(best_key, scale)
    check(abs(witness.sigma) == claimed, "witness recomputation must match the scan maximum")
    # expander mixing lemma: |N e - |A||X||Y|| <= lambda N sqrt(|X||Y|), and by Parseval
    # lambda^4 <= sum_{chi != 1} |A^(chi)|^4 = N E(A) - |A|^4; fourth powers stay integers
    gap = n_total * witness.edges - a.size * x_w.size * y_w.size
    fourth_moment = n_total * subsets.additive_energy(a, a) - a.size**4
    check(
        gap**4 <= n_total**4 * fourth_moment * (x_w.size * y_w.size) ** 2,
        "witness edge count must obey the expander mixing lemma",
    )

    results = {
        "a": a.to_index_list(),
        "floor": floor,
        "max_abs_sigma": str(claimed),
        "max_abs_sigma_float": float(claimed),
        "x_witness": best_x,
        "y_witness": best_y,
        "verified": True,
    }
    config = {
        "group": group,
        "a_indices": None if a_indices is None else list(a_indices),
        "floor": floor,
        "seed": seed,
    }
    return _finish("worst-case", config, results, started)


def run_deviation_scan(
    group: str,
    seed: int = 0,
    epsilon="1/4",
    x_indices=None,
    y_indices=None,
    x_size: int | None = None,
    y_size: int | None = None,
) -> ExperimentReport:
    """Sample A, then report sigma, extraction, and the packing pipeline."""
    started = time.monotonic()
    for name, indices, size in (("x", x_indices, x_size), ("y", y_indices, y_size)):
        if indices is not None and size is not None:
            raise StructuralError(f"give {name}_indices or {name}_size, not both")
    g = parse_group(group)
    eps = epsilon_in(epsilon)
    a = random_subset(g, seed)
    if x_indices is not None:
        x = GroupSubset.from_indices(g, x_indices)
    else:
        size = x_size if x_size is not None else max(1, g.order // 4)
        x = _sampled_set(g, "x_size", size, rng.derive_seed(seed, 1))
    if y_indices is not None:
        y = GroupSubset.from_indices(g, y_indices)
    else:
        size = y_size if y_size is not None else max(x.size, g.order // 4)
        y = _sampled_set(g, "y_size", size, rng.derive_seed(seed, 2))
    # one row-count pass, one sigma and one row extraction feed the report,
    # the extracted rows and the pipeline
    counts = deviation.row_edge_counts(a, x, y)
    report = deviation._deviation_report(counts, x, y)
    rows = deviation._deviating_rows(counts, x, y, eps, report.sigma)
    results = {
        "a_size": a.size,
        "sigma": report.to_json(),
        "high_deviation_rows": rows.to_index_list(),
        "pipeline": deviation._packing_pipeline(counts, x, y, eps, report.sigma, rows).to_json(),
    }
    config = {
        "group": group,
        "seed": seed,
        "epsilon": str(eps),
        "x": x.to_index_list(),
        "y": y.to_index_list(),
    }
    return _finish("scan", config, results, started)


# kind -> (the results list that supplies the rows, or None for one row read
# from results itself; the config columns; the row columns).  A row column is
# a key, or a (header, key, i) triple that takes entry i of a list; any other
# list is written space-separated.  Every row starts with the kind.
_CSV_COLUMNS = {
    "joint-deviation": (
        "per_k", ("group", "n", "epsilon", "trials", "seed"),
        ("k", "successes", "empirical", ("wilson_lo", "wilson_95", 0),
         ("wilson_hi", "wilson_95", 1), "bound", "acceptance_threshold", "accepted"),
    ),
    "sigma-tail": (
        "tiers", ("group", "trials", "seed"),
        ("x_size", "y_size", "median_abs_sigma", "max_abs_sigma"),
    ),
    "restriction": (
        None, ("group", "x_size", "y_size", "epsilon", "trials", "seed"),
        ("energy_check_freq", "deviation_check_freq", "joint_freq",
         ("wilson_lo", "joint_wilson_95", 0), ("wilson_hi", "joint_wilson_95", 1), "smoke_ok"),
    ),
    "worst-case": (
        None, ("group", "floor", "seed"),
        ("max_abs_sigma", "max_abs_sigma_float", "x_witness", "y_witness"),
    ),
}
