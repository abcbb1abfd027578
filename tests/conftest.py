"""Shared fixtures and independent oracles.

Oracles here redo the arithmetic from the moduli alone (own codec, own
elimination, own sign-vector enumeration), so they share no code path with
the implementations they judge.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import iv, libmp

from cayleysum.groups import parse_group
from cayleysum.rng import GAMMA, derive_seed, splitmix64
from cayleysum.subsets import GroupSubset


# ---------------------------------------------------------------- group math

def coords_of(moduli, index: int) -> tuple:
    out = []
    for m in reversed(moduli):
        index, r = divmod(index, m)
        out.append(r)
    return tuple(reversed(out))


def index_of(moduli, coords) -> int:
    idx = 0
    for m, c in zip(moduli, coords):
        idx = idx * m + (c % m)
    return idx


def oracle_add(moduli, i: int, j: int) -> int:
    ci, cj = coords_of(moduli, i), coords_of(moduli, j)
    return index_of(moduli, tuple(a + b for a, b in zip(ci, cj)))


def oracle_neg(moduli, i: int) -> int:
    return index_of(moduli, tuple(-c for c in coords_of(moduli, i)))


# ------------------------------------------------------------ energy oracles

def oracle_rep_counts(moduli, x_idx, y_idx) -> Counter:
    counts: Counter = Counter()
    for x in x_idx:
        for y in y_idx:
            counts[oracle_add(moduli, x, y)] += 1
    return counts


def oracle_energy(moduli, x_idx, y_idx) -> int:
    return sum(v * v for v in oracle_rep_counts(moduli, x_idx, y_idx).values())


def oracle_sumset(moduli, x_idx, y_idx) -> set:
    return set(oracle_rep_counts(moduli, x_idx, y_idx))


def oracle_packing(moduli, x_idx, y_idx, eps: Fraction) -> tuple:
    """(admitted rows, union, k) of the greedy scan, one translate per row of Y.

    Each y in ascending order is admitted iff |(X + y) ∩ union| <= eps |X|.
    """
    union: set = set()
    ys = []
    for y in sorted(y_idx):
        translate = {oracle_add(moduli, x, y) for x in x_idx}
        if len(translate & union) * eps.denominator <= eps.numerator * len(x_idx):
            ys.append(y)
            union |= translate
    return ys, sorted(union), len(ys)


# ------------------------------------------------------ dissociation oracles

def oracle_dissociated(moduli, s_idx) -> bool:
    """Sign-vector enumeration; feasible up to |S| around 8."""
    items = list(s_idx)
    if not items:
        return True
    zero = (0,) * len(moduli)
    for signs in itertools.product((-1, 0, 1), repeat=len(items)):
        if not any(signs):
            continue
        total = [0] * len(moduli)
        for c, e in zip(signs, items):
            for pos, v in enumerate(coords_of(moduli, e)):
                total[pos] += c * v
        if tuple(t % m for t, m in zip(total, moduli)) == zero:
            return False
    return True


def oracle_span(moduli, s_idx) -> set:
    """Every signed subset sum, by sign-vector enumeration; feasible up to |S| around 8."""
    coords = [coords_of(moduli, e) for e in s_idx]
    return {
        index_of(moduli, [sum(c * v[pos] for c, v in zip(signs, coords)) for pos in range(len(moduli))])
        for signs in itertools.product((-1, 0, 1), repeat=len(coords))
    }


def oracle_gf2_rank(indices) -> int:
    """Gaussian elimination over int bitmasks, written independently."""
    pivots: dict[int, int] = {}
    rank = 0
    for raw in indices:
        v = int(raw)
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = v
                rank += 1
                break
            v ^= pivots[lead]
    return rank


def oracle_dimension(moduli, s_idx) -> int:
    """Max dissociated subset size by direct subset enumeration."""
    items = list(s_idx)
    for size in range(len(items), 0, -1):
        for combo in itertools.combinations(items, size):
            if oracle_dissociated(moduli, combo):
                return size
    return 0


def oracle_sigma_parts(moduli, a_idx, x_idx, y_idx) -> tuple:
    """(edge count, |X||Y|) so callers can form sigma exactly."""
    a = set(a_idx)
    edges = sum(
        1 for x in x_idx for y in y_idx if oracle_add(moduli, x, y) in a
    )
    return edges, len(x_idx) * len(y_idx)


def oracle_packed_words(order: int, index_sets) -> list:
    """One row of ceil(order / 64) words per set: element e is bit e mod 64 of word e // 64."""
    mask = (1 << 64) - 1
    rows = [sum(1 << e for e in set(s)) for s in index_sets]
    return [[row >> (64 * w) & mask for w in range(-(-order // 64))] for row in rows]


def oracle_worst_case(moduli, a_idx, floor: int) -> tuple:
    """(max |sigma|, x_witness, y_witness) over |X|, |Y| >= floor, by a Gray loop.

    The witness is the first X in Gray order reaching the maximum and, within
    it, the first of (largest rows, then smallest rows; each in ascending m)
    that does; Y is a prefix of a stable sort of the rows by deviation.  When
    the maximum is 0, the first feasible position is its witness.
    """
    order = math.prod(moduli)
    a = set(a_idx)
    hits = [[int(oracle_add(moduli, x, y) in a) for y in range(order)] for x in range(order)]
    best, best_x, best_y = Fraction(-1), [], []
    counts = [0] * order
    members: set = set()
    prev = 0
    for i in range(1, 1 << order):
        gray = i ^ (i >> 1)
        j = (gray ^ prev).bit_length() - 1
        prev = gray
        step = 1 if gray >> j & 1 else -1
        counts = [c + step * h for c, h in zip(counts, hits[j])]
        (members.add if step == 1 else members.discard)(j)
        n = len(members)
        if n < floor:
            continue
        dev = [2 * c - n for c in counts]
        for rows in (
            sorted(range(order), key=lambda y: -dev[y]),
            sorted(range(order), key=lambda y: dev[y]),
        ):
            total = 0
            for m, y in enumerate(rows, start=1):
                total += dev[y]
                value = Fraction(abs(total), 2 * n * m)
                if m >= floor and value > best:
                    best, best_x, best_y = value, sorted(members), sorted(rows[:m])
    return best, best_x, best_y


# --------------------------------------------------------- spectral oracles

def oracle_spectral_radius_f2(order: int, a_idx) -> int:
    """lambda = max over s != 0 of |sum over a in A of (-1)^popcount(s & a)|.

    On an exponent-2 group an index is its coordinate bit vector, so these
    sums are the nontrivial Fourier coefficients of A.
    """
    return max(
        (abs(sum(-1 if bin(s & a).count("1") & 1 else 1 for a in a_idx)) for s in range(1, order)),
        default=0,
    )


def oracle_mixing_lemma(moduli, a_idx, x_size: int, y_size: int, edges: int) -> dict:
    """The expander mixing lemma for e = #{(x, y) in X x Y : x + y in A}, in integers.

    N e - |A||X||Y| is the sum over nontrivial characters of A^ X^ Y^, so it is
    at most lambda N sqrt(|X||Y|), and lambda^4 <= N E(A) - |A|^4 by Parseval:
    "energy" on every group, and "spectral" with lambda itself when every
    modulus is 2.
    """
    order = math.prod(moduli)
    size = len(a_idx)
    gap = order * edges - size * x_size * y_size
    energy = oracle_energy(moduli, a_idx, a_idx)
    holds = {"energy": gap**4 <= order**4 * (order * energy - size**4) * (x_size * y_size) ** 2}
    if set(moduli) == {2}:
        lam = oracle_spectral_radius_f2(order, a_idx)
        holds["spectral"] = gap**2 <= order**2 * lam**2 * x_size * y_size
    return holds


# ---------------------------------------------------------- finder oracles

def oracle_greedy_finder(moduli, a_idx, b_idx) -> list:
    """Greedy structured-subset picks, in order, from energies alone.

    Each round adds the first b of B (ascending) that maximizes E(A, S + {b}),
    until 32 E(A, S) >= E(A, B).
    """
    target = oracle_energy(moduli, a_idx, b_idx)
    picks: list = []
    while 32 * oracle_energy(moduli, a_idx, picks) < target:
        rest = [b for b in sorted(b_idx) if b not in picks]
        picks.append(max(rest, key=lambda b: oracle_energy(moduli, a_idx, picks + [b])))
    return picks


# -------------------------------------------------------- Monte Carlo oracles
# The seeded streams are redrawn from the documented contracts in cayleysum.rng
# (scalar derive_seed, splitmix64 words, random.Random(seed).sample for the
# one-set sampler and stream 2 for trial sets), one trial at a time, as the
# runners did before they batched their trials.

def oracle_fair_coins(seed: int, order: int) -> list:
    """Indices e with bit e mod 64 of splitmix64(seed + (e // 64 + 1) GAMMA) set."""
    mask = (1 << 64) - 1
    return [
        e for e in range(order)
        if splitmix64((seed + (e // 64 + 1) * GAMMA) & mask) >> (e % 64) & 1
    ]


def oracle_sample(pool, k: int, seed: int) -> list:
    pool = list(pool)
    return sorted(pool[i] for i in random.Random(seed).sample(range(len(pool)), k))


def oracle_trial_sample(pool, k: int, seed: int) -> list:
    """Stream version 2, one word at a time: the first min(k, n - k) distinct
    positions (h n) >> 32, h the high half of splitmix64(seed + j GAMMA),
    j = 1, 2, ..., skipping every draw whose product's low half is below
    2^32 mod n; the complement of those when k > n / 2.  A range pool is
    indexed, never listed."""
    n = len(pool)
    mask = (1 << 64) - 1
    drawn = []
    j = 0
    while len(drawn) < min(k, n - k):
        j += 1
        product = (splitmix64((seed + j * GAMMA) & mask) >> 32) * n
        position = product >> 32
        if product % 2**32 >= 2**32 % n and position not in drawn:
            drawn.append(position)
    chosen = drawn if len(drawn) == k else [i for i in range(n) if i not in drawn]
    return sorted(int(pool[i]) for i in chosen)


def _oracle_sigma(moduli, a_idx, x_idx, y_idx) -> Fraction:
    edges, pairs = oracle_sigma_parts(moduli, a_idx, x_idx, y_idx)
    return Fraction(edges, pairs) - Fraction(1, 2)


def oracle_sigma_tail(moduli, tiers, trials: int, seed: int) -> list:
    """Per tier, (median, max) of |sigma_A(X, Y)| over the seeded trials."""
    order = math.prod(moduli)
    out = []
    for i, (sx, sy) in enumerate(tiers):
        tier_seed = derive_seed(seed, 1000 + i)
        values = []
        for t in range(trials):
            base = derive_seed(tier_seed, t)
            a = oracle_fair_coins(derive_seed(base, 0), order)
            x = oracle_trial_sample(range(order), sx, derive_seed(base, 1))
            y = oracle_trial_sample(range(order), sy, derive_seed(base, 2))
            values.append(abs(_oracle_sigma(moduli, a, x, y)))
        out.append((statistics.median(values), max(values)))
    return out


def oracle_restriction(moduli, x_size: int, y_size: int, eps: Fraction, trials: int, seed: int):
    """((s, t, K), per-trial (A, S, T, energy check, deviation check))."""
    order = math.prod(moduli)
    x = oracle_sample(range(order), x_size, derive_seed(seed, 1))
    y = oracle_sample(range(order), y_size, derive_seed(seed, 2))
    energy = oracle_energy(moduli, x, y)
    ratio = Fraction(x_size**2 * y_size, energy)
    log_order = math.log(order)
    s = max(1, min(math.ceil(2000.0 * log_order / float(eps) ** 4), x_size))
    t = max(1, min(math.ceil(float(ratio) * y_size * float(eps) ** 2 / (10.0 * log_order)), y_size))
    scale = x_size**2 * y_size**2
    draws = []
    for trial in range(trials):
        base = derive_seed(seed, 100 + trial)
        a = oracle_fair_coins(derive_seed(base, 0), order)
        draw = derive_seed(base, 1)
        s_idx = oracle_trial_sample(x, s, derive_seed(draw, 1))
        t_idx = oracle_trial_sample(y, t, derive_seed(draw, 2))
        energy_ok = oracle_energy(moduli, s_idx, t_idx) * scale <= (
            2 * s * t * scale + 2 * s**2 * t**2 * energy
        )
        gap = _oracle_sigma(moduli, a, x, y) - _oracle_sigma(moduli, a, s_idx, t_idx)
        draws.append((a, s_idx, t_idx, energy_ok, gap**2 <= Fraction(36 * y_size, s * t)))
    return (s, t, ratio), draws


def oracle_joint_deviation(moduli, n: int, eps: Fraction, ks, trials: int, seed: int):
    """(rows used, {k: successes}, independence hits, per-trial (A, row counts)).

    X = {0, ..., n - 1} and the rows are the first max(ks) of its greedy
    packing in G at eps.  Trial t's A is keyed by derive_seed(seed, t); a row
    count c = |A ∩ (X + y)| deviates when |2c - |X|| >= 2 eps |X|.  Trial t
    succeeds at k when its first k rows all deviate.  The independence arm
    asks the same of X = {0, 1} at the shifts 2 and 4 (0 and 2 when N < 5).
    """
    order = math.prod(moduli)
    rows = oracle_packing(moduli, range(n), range(order), eps)[0][: max(ks)]
    pair_rows = (2, 4) if order >= 5 else (0, 2)

    def counts(a, size, ys):
        return [sum(oracle_add(moduli, x, y) in a for x in range(size)) for y in ys]

    def deviates(c, size):
        return abs(2 * c - size) * eps.denominator >= 2 * eps.numerator * size

    successes = {k: 0 for k in ks}
    indep_hits = 0
    per_trial = []
    for trial in range(trials):
        a = oracle_fair_coins(derive_seed(seed, trial), order)
        members = set(a)
        row_counts = counts(members, n, rows)
        for k in ks:
            successes[k] += all(deviates(c, n) for c in row_counts[:k])
        indep_hits += all(deviates(c, 2) for c in counts(members, 2, pair_rows))
        per_trial.append((a, row_counts))
    return rows, successes, indep_hits, per_trial


# ----------------------------------------------------------- cascade oracles
# Both cascades redone in mpmath's interval context from the formulas' anchors;
# a row is decided when its two sides' intervals do not overlap.

def _iv_read(text: str, prec: int):
    """The decimal text as an interval, from from_str's floor and ceiling.

    Past a decimal exponent of 400 from_str builds its power of ten rounded
    down before the directed rounding, so the ends are widened by 2^-prec.
    """
    lo, hi = (libmp.from_str(text, prec, rnd) for rnd in (libmp.round_floor, libmp.round_ceiling))
    x = iv.make_mpf((lo, hi))
    if abs(libmp.str_to_man_exp(text, base=10)[1]) <= 400:
        return x
    return x * (1 + iv.mpf([-1, 1]) * iv.ldexp(1, -prec))


def _iv_integer(x, rounding):
    """floor or ceil of every point of x, as an interval."""
    return iv.make_mpf(tuple(rounding(end) for end in x._mpi_))


def _iv_exp_neg(x):
    """exp(-x); past x = 10^6 an enclosure [0, e^-10^6], as exp(-x) would need a bignum exponent."""
    if x > 10**6:
        return iv.mpf([0, iv.exp(-iv.mpf(10**6)).b])
    return iv.exp(-x)


def _iv_general_rows(logn, w, constants):
    ll = iv.log(logn)
    w1 = iv.sqrt(w)
    eps = iv.exp(-iv.log(w) / 13)
    n0 = eps / 4 * w1 * logn * ll
    nt1 = 2 * _iv_integer(w1 * logn * ll**2, libmp.mpf_ceil)
    j0 = _iv_integer(ll / 2, libmp.mpf_ceil)
    nu0 = _iv_integer(iv.log(8 * ll / eps) / iv.log(2), libmp.mpf_floor)
    budget = w1 * logn * ll**4
    count = 2 * constants["count_rate"] * budget
    decay = eps**6 * ll**-6 * (w * logn * ll**10) / 2**26
    # the levels 1 <= j < min(j0, 64); each term lies in [0, its upper end]
    levels = range(1, min(int(libmp.to_int(j0._mpi_[1])), 64))
    correction = iv.mpf([0, sum(_iv_exp_neg((10**j - 1) * budget / 2).b for j in levels)])
    return [
        ("growth_cap", w, "<=", iv.log(logn + iv.log(1 + 3 * _iv_exp_neg(logn)))),
        ("packed_bound_applicability", (eps / 4) ** 2 * w1 / 32, ">", iv.mpf(1)),
        ("ratio_floor_consistency",
         (n0 / (2 * w1 * logn * ll**2)) ** 2, "==", n0**2 / (4 * w * logn**2 * ll**4)),
        # 10^j0 > nt1 on the log scale
        ("ratio_ladder_exhaustion", j0 * iv.log(10), ">", iv.log(nt1)),
        ("count_vs_decay_margin", count, "<", decay),
        ("per_level_sum", iv.log(nu0 + 1) + count - decay, "<=", -budget / 2),
        ("level_total", -budget / 2 + iv.log(1 + correction), "<=", -budget / 3),
    ]


def _iv_exponent2_rows(logn, w, constants):
    ll = iv.log(logn)
    eps = iv.exp(-iv.log(w) / 13)
    d = constants["dim_rate"] * iv.sqrt(logn) * ll
    n_prime = eps / 2 * w * ll * logn * iv.sqrt(logn)
    return [
        ("deviation_floor_condition", eps**7 * w * ll * iv.sqrt(logn), ">=", iv.mpf(2**25)),
        # min(eps n'/8, n') is eps n'/8, as w > 1 puts eps below 1
        ("restricted_size_hypothesis",
         eps * n_prime / 8, ">=", 2000 * (eps / 4) ** -4 * d * iv.log(3)),
        ("count_vs_decay_margin", eps**2 * n_prime / 160, ">", 2**19 * d**2 / eps**4 + d * logn),
        ("clean_growth_margin", eps**2 * n_prime, ">=", d**2 / eps**4 + d * logn),
    ]


def oracle_certified_rows(mode: str, log_order: str, w: str, constants: dict, dps: int) -> list:
    """(row name, flag) per ledger row in interval arithmetic at dps digits.

    The flag is True or False where the row's sides decide it for every
    point of their intervals, and None where they overlap.  "==" asks that
    the sides agree to the last 5 of dps digits, as the ledger does.
    """
    saved, iv.dps = iv.dps, dps  # the interval context has no workdps
    try:
        rows = {"general": _iv_general_rows, "exponent2": _iv_exponent2_rows}[mode](
            _iv_read(log_order, iv.prec), _iv_read(w, iv.prec), constants
        )
        decide = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
        flags = []
        for name, lhs, relation, rhs in rows:
            if relation == "==":
                lhs, relation, rhs = abs(lhs - rhs), "<=", abs(rhs) * iv.mpf(10) ** (5 - dps)
            flags.append((name, decide[relation](lhs, rhs)))
    finally:
        iv.dps = saved
    return flags


# ------------------------------------------------------------------ sampling

def random_subset_indices(rnd: random.Random, order: int, size: int) -> list:
    return sorted(rnd.sample(range(order), size))


def random_nonempty(rnd: random.Random, g, max_size: int) -> GroupSubset:
    size = rnd.randint(1, min(max_size, g.order))
    return GroupSubset.from_indices(g, random_subset_indices(rnd, g.order, size))


@pytest.fixture
def rnd() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def sample_calls(monkeypatch) -> list:
    """(len(population), k) of each random.Random.sample call in the test."""
    sample = random.Random.sample
    shapes = []

    def counted(self, population, k, **kwargs):
        shapes.append((len(population), k))
        return sample(self, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", counted)
    return shapes


@pytest.fixture(params=["z12", "f2^4", "3,5"])
def small_group(request):
    return parse_group(request.param)
