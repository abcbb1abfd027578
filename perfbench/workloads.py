"""Seeded op lists for the four benchmark workloads.

An op is one `cayleysum.cli.main(argv)` call.  A workload is a list of op
templates.  For an exact op the workload seed picks one of `VARIANTS` input
variants per template, so every argv comes from the seed while references
exist for every input a seed can produce (`perfbench/refs/<workload>.json`).
A Monte Carlo op takes its `--seed` from the workload seed directly and is
checked by repetition instead of a reference.

Variant contents come from numpy's PCG64 keyed by (template, variant).  The
scan's sampled set A is rebuilt here from the documented splitmix64 stream,
so the inputs do not depend on the program's own code.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

VARIANTS = 8
WORKLOADS = ("dense", "mc", "audit", "structure")

# rep_function and edge_count switch from the pairwise bincount to the
# per-element translate loop above this many pairs
PAIRWISE_LIMIT = 1 << 22


@dataclass(frozen=True)
class Op:
    template: str
    argv: tuple
    check: str  # "ref": byte-identical to a recorded reference; "repeat": MC
    smoke: bool


@dataclass(frozen=True)
class Template:
    name: str  # stable name of the input shape, e.g. "energy/f2^16/large"
    make: Callable  # numpy Generator -> argv
    check: str = "ref"
    smoke: bool = False  # cheap enough for the seconds-long smoke mode
    copies: int = 1  # ops per round, each with its own variant

    def op(self, variant: int) -> Op:
        gen = np.random.default_rng([zlib.crc32(self.name.encode()), variant])
        return Op(self.name, tuple(str(a) for a in self.make(gen)), self.check, self.smoke)


# ------------------------------------------------------------------ helpers

def _literal(indices) -> str:
    return "[" + ",".join(str(int(i)) for i in np.sort(np.asarray(indices))) + "]"


def _moduli(group: str) -> tuple:
    if group.startswith("z"):
        return (int(group[1:]),)
    if group.startswith("f2^"):
        return (2,) * int(group[3:])
    return tuple(int(p) for p in group.split(","))


def _add(moduli: tuple, i, j) -> np.ndarray:
    """Index of coords(i) + coords(j), row-major with the last factor fastest."""
    if set(moduli) == {2}:
        return np.bitwise_xor(i, j)
    if len(moduli) == 1:
        return (i + j) % moduli[0]
    out = np.zeros(np.broadcast(i, j).shape, dtype=np.int64)
    stride = 1
    for m in reversed(moduli):
        out += ((i // stride % m + j // stride % m) % m) * stride
        stride *= m
    return out


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(1 << 62))


def sampled_a(seed: int, order: int) -> np.ndarray:
    """The scan's A for `--seed seed`: fair coins from splitmix64 words."""
    gamma, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    counters = np.arange(1, (order + 63) // 64 + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + counters * np.uint64(gamma)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(c1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(c2)
        z = z ^ (z >> np.uint64(31))
    bits = np.unpackbits(z.astype("<u8").view(np.uint8), bitorder="little")
    return bits[:order].astype(bool)


# -------------------------------------------------------------------- dense

# (group, small cell, large cell) with cells (|X|, |Y|).  The large cell sits
# above PAIRWISE_LIMIT; f2^20's is lopsided so one op stays under a second.
DENSE_GROUPS = (
    ("f2^16", (256, 256), (2304, 2304)),
    ("z65536", (256, 256), (2304, 2304)),
    ("16,16,16,16", (256, 256), (2304, 2304)),
    ("f2^20", (256, 256), (160, 32768)),
)
DEVIATING_X = 16
DEVIATING_HITS = 13


def _order(group: str) -> int:
    return int(np.prod(_moduli(group)))


def _set_pair_op(cmd: str, group: str, nx: int, ny: int):
    def make(gen):
        n = _order(group)
        argv = [cmd, "--group", group,
                "--set-x", _literal(gen.choice(n, nx, replace=False)),
                "--set-y", _literal(gen.choice(n, ny, replace=False))]
        return argv + ["--epsilon", "1/2"] if cmd == "pack" else argv
    return make


def _sized_scan(group: str, nx: int, ny: int):
    return lambda gen: ["scan", "--group", group, "--seed", _seed(gen),
                        "--x-size", nx, "--y-size", ny]


def _deviating_scan(group: str):
    """A 16-element X and Y = the rows with >= 13 hits under the scan's own A.

    |sigma(X, Y)| >= 13/16 - 1/2 > 1/4, so the scan's extract-then-pack
    pipeline runs to the end instead of stopping at its hypothesis check.
    """
    def make(gen):
        n = _order(group)
        seed = _seed(gen)
        x = gen.choice(n, DEVIATING_X, replace=False)
        a = sampled_a(seed, n)
        rows = np.arange(n, dtype=np.int64)
        hits = np.zeros(n, dtype=np.int64)
        for e in x:
            hits += a[_add(_moduli(group), rows, np.int64(e))]
        return ["scan", "--group", group, "--seed", seed,
                "--set-x", _literal(x), "--set-y", _literal(rows[hits >= DEVIATING_HITS])]
    return make


def _dense() -> list[Template]:
    out = []
    for group, small, large in DENSE_GROUPS:
        for cell, (nx, ny) in (("small", small), ("large", large)):
            assert (nx * ny > PAIRWISE_LIMIT) == (cell == "large")
            # two inputs per small cell, one per large: 36 ops a round, so p90
            # is the 4th-slowest op, the compute-bound 16,16,16,16 energy,
            # not one of the memory-bound f2^20 ops the host probe tracks worst
            quick = cell == "small"
            copies = 2 if quick else 1
            out.append(Template(f"energy/{group}/{cell}", _set_pair_op("energy", group, nx, ny),
                                smoke=quick, copies=copies))
            out.append(Template(f"pack/{group}/{cell}", _set_pair_op("pack", group, nx, ny),
                                smoke=quick, copies=copies))
            out.append(Template(f"scan/{group}/{cell}", _sized_scan(group, nx, ny), smoke=quick))
        out.append(Template(f"scan/{group}/deviating", _deviating_scan(group)))
    return out


# ----------------------------------------------------------------------- mc

# README default set sizes with fewer trials per op; (kind, group, trials, copies)
MC_KINDS = (
    ("sigma-tail", "f2^10", 60, 6),
    ("sigma-tail", "4,4,4,4,4", 60, 6),
    ("restriction", "f2^8", 150, 8),
    ("restriction", "4,4,4,4", 150, 8),
    ("joint-deviation", "f2^8", 20000, 8),
    ("joint-deviation", "4,4,4,4", 20000, 8),
)


def _mc_run(kind: str, group: str, trials: int):
    return lambda gen: ["mc", "--kind", kind, "--group", group, "--trials", trials,
                        "--seed", _seed(gen)]


def _mc() -> list[Template]:
    return [Template(f"mc/{kind}/{group}/{c}", _mc_run(kind, group, trials),
                     check="repeat", smoke=c == 0)
            for kind, group, trials, copies in MC_KINDS for c in range(copies)]


# -------------------------------------------------------------------- audit

AUDIT_LEDGER_DECADES = 12  # ledgers at logN ~ 1e2 up to ~ 1e38, both modes
EXPONENT2_THRESHOLDS = 6


def _ledger(mode: str, decade: int):
    def make(gen):
        exp10 = 2 + 3 * decade + gen.uniform(0, 3)
        w = gen.uniform(1.5, min(60.0, exp10 * 2.3))
        return ["audit", "--mode", mode, "--logN", "%.6e" % 10**exp10, "--w", "%.4f" % w]
    return make


def _exponent2_threshold(gen):
    return ["audit", "--mode", "exponent2", "--find-threshold",
            "--constant", "dim_rate=%.3f" % gen.uniform(0.5, 2.0)]


def _p(name, fmt, lo, hi):
    return lambda gen: f"{name}={fmt % gen.uniform(lo, hi)}"


def _order_param(gen):
    return "order=%d" % (1 << int(gen.integers(10, 40)))


BOUND_PARAMS = {
    "hoeffding": (_p("deviation", "%.4f", 0.01, 0.4), _p("count", "%.0f", 16, 4096)),
    "joint-deviation": (_p("epsilon", "%.3f", 0.05, 0.5), _p("k", "%.0f", 1, 8), _p("n", "%.0f", 8, 256)),
    "existential": (_order_param, _p("epsilon", "%.3f", 0.05, 0.5), _p("n", "%.0f", 8, 256), _p("k", "%.0f", 1, 8)),
    "low-energy": (_order_param, _p("epsilon", "%.3f", 0.05, 0.5), _p("r", "%.0f", 8, 256), _p("K", "%.2f", 1, 64)),
    "threshold": (_order_param, _p("epsilon", "%.3f", 0.05, 0.5), _p("w", "%.3f", 1.5, 12)),
    "packed": (_p("epsilon", "%.3f", 0.05, 0.5), _p("m", "%.0f", 2, 64), _p("K", "%.2f", 1, 64)),
    "low-dim-count": (_order_param, _p("n", "%.0f", 8, 64), _p("d", "%.0f", 2, 8)),
    "size-thresholds": (lambda gen: "kind=" + ("baseline", "refined", "exponent-two")[int(gen.integers(3))],
                        _order_param, _p("w", "%.3f", 1.5, 12)),
}


def _bounds(name: str):
    return lambda gen: ["bounds", "--name", name, "--params", *(p(gen) for p in BOUND_PARAMS[name])]


def _audit() -> list[Template]:
    out = []
    for d in range(AUDIT_LEDGER_DECADES):
        for mode in ("general", "exponent2"):
            out.append(Template(f"audit/{mode}/ledger{d}", _ledger(mode, d), smoke=d == 0))
    for i in range(EXPONENT2_THRESHOLDS):
        out.append(Template(f"audit/exponent2/threshold{i}", _exponent2_threshold, smoke=i == 0))
    out.append(Template("audit/general/threshold",
                        lambda gen: ["audit", "--mode", "general", "--find-threshold"]))
    for name in BOUND_PARAMS:
        out.append(Template(f"bounds/{name}", _bounds(name), smoke=True))
    return out


# ---------------------------------------------------------------- structure

DECOMPOSE_GROUPS = ("z4096", "f2^12", "16,16,16")
DECOMPOSE_FINDERS = (("exhaustive", 9), ("greedy", 32))  # (finder, |B|)
DIM_GROUPS = ("z101", "4,4,4", "5,5,5", "z1024", "6,6,6", "3,3,3,3")
DIM_SIZES = (12, 14, 16)
WORST_CASE_GROUPS = ("f2^4", "z16", "4,4", "2,8")


def _decompose(group: str, finder: str, b_size: int):
    """B: b_size points of a progression (an AP, or a coset of a 4-dim
    subspace in f2^k), so the partition loop finds structure; A: B's
    progression plus 256 random points."""
    def make(gen):
        moduli, n = _moduli(group), _order(group)
        start = int(gen.integers(n))
        if set(moduli) == {2}:
            span = [0]
            for v in gen.choice(np.arange(1, n), 4, replace=False):
                span += [s ^ int(v) for s in span]
            prog = [start ^ s for s in span]
        else:
            step = int(gen.integers(1, n))
            prog = [int(_add(moduli, np.int64(start), np.int64(step) * k)) for k in range(3 * b_size)]
            prog = list(dict.fromkeys(prog))
        b = gen.choice(prog, min(b_size, len(prog)), replace=False)
        a = np.union1d(gen.choice(n, 256, replace=False), prog)
        return ["decompose", "--group", group, "--set-a", _literal(a), "--set-b", _literal(b),
                "-M", "64", "--finder", finder]
    return make


def _dim(group: str, size: int):
    return lambda gen: ["dim", "--group", group, "--mode", "exact",
                        "--set", _literal(gen.choice(_order(group), size, replace=False))]


def _worst_case(gen):
    group = WORST_CASE_GROUPS[int(gen.integers(len(WORST_CASE_GROUPS)))]
    return ["worst-case", "--group", group, "--seed", _seed(gen)]


def _structure() -> list[Template]:
    out = []
    for group in DECOMPOSE_GROUPS:
        for finder, b_size in DECOMPOSE_FINDERS:
            out.append(Template(f"decompose/{group}/{finder}", _decompose(group, finder, b_size),
                                smoke=finder == "greedy", copies=3))
    for group in DIM_GROUPS:
        for size in DIM_SIZES:
            out.append(Template(f"dim/{group}/{size}", _dim(group, size), smoke=size == 12, copies=4))
    out.append(Template("worst-case", _worst_case))
    return out


TEMPLATES = {"dense": _dense, "mc": _mc, "audit": _audit, "structure": _structure}


def _variants(workload: str, seed: int, template: Template) -> list[int]:
    if template.check == "repeat":
        return [seed]
    return random.Random(f"{workload}/{seed}/{template.name}").sample(range(VARIANTS), template.copies)


def build_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The op list of one round, in a seeded order."""
    ops = [t.op(v) for t in TEMPLATES[workload]() if t.smoke or not smoke
           for v in _variants(workload, seed, t)[:1 if smoke else None]]
    random.Random(f"order/{workload}/{seed}").shuffle(ops)
    return ops


def reference_ops(workload: str) -> list[Op]:
    """Every exact op any seed can produce: the ops references are kept for."""
    return [t.op(v) for t in TEMPLATES[workload]() if t.check == "ref" for v in range(VARIANTS)]
