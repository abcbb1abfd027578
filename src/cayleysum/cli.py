"""Command-line interface: seeded experiments and report emission.

Exit codes: 0 success, 1 violated property assertion, 2 usage or structural
error, 3 internal error (an unexpected exception, reported on one line).
JSON goes to stdout or --out, as _record.to_text writes it: the text of
json.dumps(doc, indent=2, sort_keys=True).  mc and worst-case, whose
reports declare a CSV schema, also take --format csv.  Each subcommand
takes only the shared options it reads.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import _record, bounds, cascade, harness
from .decomposition import (
    DEFAULT_DIMENSION_CONSTANT, FINDER_MODES, energy_partition, find_structured_subset,
)
from .deviation import greedy_low_overlap_packing
from .dissociation import additive_dimension
from .errors import GuardError, PropertyError, StructuralError, to_float, to_int
from .groups import parse_group
from .harness import run_deviation_scan, run_worst_case_scan
from .subsets import GroupSubset, additive_energy, parse_subset

__all__ = ["build_parser", "main"]


# the options several subcommands share; each names the ones it reads
_SHARED = {
    "--group": dict(required=True, help="group literal, e.g. z12, f2^4, 3,4"),
    "--seed": dict(type=int, default=0, help="master seed (default 0)"),
    "--format": dict(choices=("json", "csv"), default="json", help="output format"),
}


def _add_common(sub: argparse.ArgumentParser, *shared: str) -> None:
    """--out, plus the named shared options."""
    for flag in shared:
        sub.add_argument(flag, **_SHARED[flag])
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleysum",
        description="Random Cayley sum graphs: energies, packings, bounds, audits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("group", help="describe a group literal")
    _add_common(p, "--group")

    p = subs.add_parser("energy", help="additive energy of two subsets")
    _add_common(p, "--group")
    p.add_argument("--set-x", required=True, help="subset, e.g. [0,1,5] or 0x2f")
    p.add_argument("--set-y", required=True)

    p = subs.add_parser("dim", help="dissociation and additive dimension")
    _add_common(p, "--group")
    p.add_argument("--set", dest="the_set", required=True)
    p.add_argument("--mode", choices=("greedy", "exact"), default="greedy")

    p = subs.add_parser("decompose", help="structured/pseudorandom energy split")
    _add_common(p, "--group")
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument(
        "--target-ratio", "-M", "--M", dest="target_ratio",
        help="energy-ratio target M of the partition loop, e.g. 8 or 17/2",
    )
    p.add_argument("--finder", choices=FINDER_MODES, default="exhaustive")
    p.add_argument("--dim-constant", default=DEFAULT_DIMENSION_CONSTANT)
    p.add_argument("--single-step", action="store_true",
                   help="run one structured-subset extraction instead of the loop")

    p = subs.add_parser("pack", help="greedy low-overlap packing of translates")
    _add_common(p, "--group")
    p.add_argument("--set-x", required=True)
    p.add_argument("--set-y", required=True)
    p.add_argument("--epsilon", default="1/2")

    p = subs.add_parser("scan", help="sample A and report deviations and packings")
    _add_common(p, "--group", "--seed")
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--set-x", default=None)
    p.add_argument("--set-y", default=None)
    p.add_argument("--x-size", type=int, default=None)
    p.add_argument("--y-size", type=int, default=None)

    p = subs.add_parser("mc", help="Monte Carlo experiments")
    p.add_argument("--group", help="group literal (default: the kind's own)")
    _add_common(p, "--seed", "--format")
    p.add_argument(
        "--kind", choices=("joint-deviation", "sigma-tail", "restriction"),
        required=True,
    )
    # defaults left unset here come from the run_*_mc signatures in harness
    p.add_argument("--trials", type=int)
    p.add_argument("--epsilon")
    p.add_argument("--n", type=int, help="|X| for joint-deviation")
    p.add_argument("--ks", help="comma list of k values")
    p.add_argument("--tiers", help="sigma-tail size tiers, e.g. 4x4,8x8")
    p.add_argument("--x-size", type=int)
    p.add_argument("--y-size", type=int)

    p = subs.add_parser("bounds", help="evaluate a named bound")
    _add_common(p)
    p.add_argument("--name", required=True, choices=sorted(_BOUNDS))
    p.add_argument("--params", nargs="*", default=[], help="key=val pairs")

    p = subs.add_parser("audit", help="proof-parameter cascade ledger")
    _add_common(p)
    p.add_argument("--mode", choices=cascade.MODES, required=True)
    p.add_argument("--logN", dest="log_order", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--dps", type=int, default=cascade.DEFAULT_DPS)
    p.add_argument("--constant", action="append", default=[],
                   help="override an unnamed constant, key=val")
    p.add_argument("--find-threshold", action="store_true")

    p = subs.add_parser("worst-case", help="exhaustive |sigma| maximum at tiny N")
    _add_common(p, "--group", "--seed", "--format")
    p.add_argument("--set-a", default=None)
    p.add_argument("--floor", type=int, default=1)

    return parser


def _kv_pairs(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise StructuralError(f"expected key=val, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# --name -> (bounds function, its parameters in call order, the optional ones,
# the ones truncated to int); the function is looked up on the bounds module
# at call time, and size-thresholds' kind is text
_BOUNDS = {
    "hoeffding": ("hoeffding_tail", ("deviation", "count"), (), ("count",)),
    "joint-deviation": ("joint_deviation_bound", ("epsilon", "k", "n"), (), ("k", "n")),
    "existential": ("existential_deviation_bounds", ("order", "epsilon", "n", "k"),
                    (), ("n", "k")),
    "low-energy": ("low_energy_deviation_bound", ("order", "epsilon", "r", "K", "constant"),
                   ("constant",), ()),
    "threshold": ("threshold_deviation_bound", ("order", "epsilon", "w", "constant"),
                  ("constant",), ()),
    "packed": ("packed_deviation_bound", ("epsilon", "m", "K"), (), ()),
    "low-dim-count": ("low_dimension_count_bound", ("order", "n", "d"), (), ()),
    "size-thresholds": ("size_thresholds", ("kind", "order", "w"), (), ()),
}


def _bound_doc(name: str, raw: dict) -> dict:
    """Check raw key=val params against the _BOUNDS row, then evaluate the bound."""
    func, params, optional, ints = _BOUNDS[name]
    text = {}
    if "kind" in params:  # checked before the numbers
        if "kind" not in raw:
            raise StructuralError("missing params: kind")
        text["kind"] = raw.pop("kind")
    missing = [n for n in params if n not in raw and n not in optional and n not in text]
    if missing:
        raise StructuralError(f"missing params: {', '.join(missing)}")
    unknown = sorted(set(raw) - set(params))
    if unknown:
        raise StructuralError(f"unknown params: {', '.join(unknown)}")
    values = {k: to_float(v, k) for k, v in raw.items()}
    values.update({k: int(values[k]) for k in ints}, **text)
    args = [values[n] for n in params if n in values]
    result = getattr(bounds, func)(*args)
    if name == "low-energy":
        return {"value": result, "exponent": bounds.low_energy_exponent(*args[:4])}
    return result.to_json() if hasattr(result, "to_json") else {"value": result}


def _dispatch(args):
    """Run one subcommand; returns (json_doc, report or None)."""
    cmd = args.command

    if cmd == "group":
        g = parse_group(args.group)
        return {"command": "group", **g.describe()}, None

    if cmd == "energy":
        g = parse_group(args.group)
        x = parse_subset(g, args.set_x)
        y = parse_subset(g, args.set_y)
        energy = additive_energy(x, y)
        return {
            "command": "energy",
            "group": args.group,
            "x": x.to_index_list(),
            "y": y.to_index_list(),
            "energy": energy,
            "lower": x.size * y.size,
            "upper": x.size * y.size * min(x.size, y.size),
        }, None

    if cmd == "dim":
        g = parse_group(args.group)
        s = parse_subset(g, args.the_set)
        result = additive_dimension(s, mode=args.mode)
        return {
            "command": "dim",
            "group": args.group,
            "set": s.to_index_list(),
            "dissociated": result.value == s.size,  # dim(S) = |S| iff S is dissociated
            **result.to_json(),
        }, None

    if cmd == "decompose":
        if args.single_step != (args.target_ratio is None):
            raise StructuralError("decompose needs -M, except with --single-step, which takes none")
        g = parse_group(args.group)
        a = parse_subset(g, args.set_a)
        b = parse_subset(g, args.set_b)
        if args.single_step:
            report = find_structured_subset(a, b, mode=args.finder, dim_constant=args.dim_constant)
            return {"command": "decompose", "single_step": True, **report.to_json()}, None
        result = energy_partition(
            a, b, args.target_ratio,
            mode=args.finder, dim_constant=args.dim_constant,
        )
        return {"command": "decompose", "single_step": False, **result.to_json()}, None

    if cmd == "pack":
        g = parse_group(args.group)
        x = parse_subset(g, args.set_x)
        y = parse_subset(g, args.set_y)
        result = greedy_low_overlap_packing(x, y, args.epsilon)
        return {"command": "pack", "group": args.group, **result.to_json()}, None

    if cmd == "scan":
        g = parse_group(args.group)
        x_idx = parse_subset(g, args.set_x).indices if args.set_x else None
        y_idx = parse_subset(g, args.set_y).indices if args.set_y else None
        report = run_deviation_scan(
            args.group, seed=args.seed, epsilon=args.epsilon,
            x_indices=x_idx, y_indices=y_idx,
            x_size=args.x_size, y_size=args.y_size,
        )
        return report.to_json(), report

    if cmd == "mc":
        return _dispatch_mc(args)

    if cmd == "bounds":
        doc = _bound_doc(args.name, _kv_pairs(args.params))
        return {"command": "bounds", "name": args.name, **doc}, None

    if cmd == "audit":
        constants = _kv_pairs(args.constant)
        if args.find_threshold:
            if args.log_order is not None or args.w is not None:
                raise StructuralError("audit --find-threshold takes no --logN or --w")
            search = cascade.find_threshold(
                args.mode, constants=constants or None, dps=args.dps
            )
            return {"command": "audit", "find_threshold": True, **search.to_json()}, None
        if args.log_order is None or args.w is None:
            raise StructuralError("audit needs --logN and --w (or --find-threshold)")
        ledger = cascade.cascade_audit(
            args.mode, args.log_order, args.w,
            constants=constants or None, dps=args.dps,
        )
        return {"command": "audit", "find_threshold": False, **ledger.to_json()}, None

    if cmd == "worst-case":
        a_idx = None
        if args.set_a is not None:
            a_idx = parse_subset(parse_group(args.group), args.set_a).to_index_list()
        report = run_worst_case_scan(
            args.group, a_indices=a_idx, floor=args.floor, seed=args.seed
        )
        return report.to_json(), report

    raise StructuralError(f"unknown command {cmd!r}")


# --kind -> (harness runner, the options it takes); the runner is looked up
# on the harness module at call time
_MC_RUNNERS = {
    "joint-deviation": ("run_joint_deviation_mc", ("group", "n", "epsilon", "ks", "trials")),
    "sigma-tail": ("run_sigma_tail_mc", ("group", "tiers", "trials")),
    "restriction": ("run_restriction_mc", ("group", "x_size", "y_size", "epsilon", "trials")),
}


def _parse_tiers(text: str) -> tuple:
    tiers = []
    for token in text.split(","):
        if not token:
            continue
        sx, _, sy = token.partition("x")
        if not sy:
            raise StructuralError(f"tier must look like 8x8, got {token!r}")
        tiers.append((to_int(sx, "each --tiers size"), to_int(sy, "each --tiers size")))
    return tuple(tiers)


# every option some mc kind takes; one given to a kind that does not take it is an error
_MC_OPTIONS = frozenset(name for _, options in _MC_RUNNERS.values() for name in options)


def _dispatch_mc(args):
    runner, options = _MC_RUNNERS[args.kind]
    stray = sorted(
        name for name in _MC_OPTIONS.difference(options) if getattr(args, name) is not None
    )
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise StructuralError(f"mc --kind {args.kind} does not take {flags}")
    given = {name: getattr(args, name) for name in options if getattr(args, name) is not None}
    if "ks" in given:
        given["ks"] = tuple(to_int(k, "each --ks value") for k in given["ks"].split(",") if k)
    if "tiers" in given:
        given["tiers"] = _parse_tiers(given["tiers"])
    report = getattr(harness, runner)(seed=args.seed, **given)
    return report.to_json(), report


def _emit(args, doc, report) -> None:
    if getattr(args, "format", "json") == "csv":  # only mc and worst-case take --format
        text = report.csv_text()
    else:
        text = _record.to_text(doc) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise StructuralError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        doc, report = _dispatch(args)
        _emit(args, doc, report)
    except PropertyError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except (StructuralError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: keep exit 1 for PropertyError alone
        import traceback  # imported here: no run that succeeds pays for it

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"({Path(where.filename).name}:{where.lineno})",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
