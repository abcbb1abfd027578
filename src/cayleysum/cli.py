"""Command-line interface: seeded experiments and report emission.

Exit codes: 0 success, 1 violated property assertion, 2 usage or structural
error, 3 internal error (an unexpected exception, reported on one line).
JSON goes to stdout or --out; CSV only for report kinds that declare a
schema.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds, cascade
from .decomposition import energy_partition, find_structured_subset
from .deviation import greedy_low_overlap_packing
from .dissociation import additive_dimension, is_dissociated
from .errors import GuardError, PropertyError, StructuralError
from .groups import parse_group
from .harness import (
    run_deviation_scan,
    run_joint_deviation_mc,
    run_restriction_mc,
    run_sigma_tail_mc,
    run_worst_case_scan,
)
from .subsets import GroupSubset, additive_energy, parse_subset

__all__ = ["build_parser", "main"]


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", help="group literal, e.g. z12, f2^4, 3,4", default=None)
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleysum",
        description="Random Cayley sum graphs: energies, packings, bounds, audits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("group", help="describe a group literal")
    _add_common(p)

    p = subs.add_parser("energy", help="additive energy of two subsets")
    _add_common(p)
    p.add_argument("--set-x", required=True, help="subset, e.g. [0,1,5] or 0x2f")
    p.add_argument("--set-y", required=True)

    p = subs.add_parser("dim", help="dissociation and additive dimension")
    _add_common(p)
    p.add_argument("--set", dest="the_set", required=True)
    p.add_argument("--mode", choices=("greedy", "exact"), default="greedy")

    p = subs.add_parser("decompose", help="structured/pseudorandom energy split")
    _add_common(p)
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument(
        "--target-ratio", "-M", "--M", dest="target_ratio", required=True,
        help="energy-ratio target M as an integer or fraction, e.g. 8 or 17/2",
    )
    p.add_argument("--finder", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument("--dim-constant", type=float, default=16.0)
    p.add_argument("--single-step", action="store_true",
                   help="run one structured-subset extraction instead of the loop")

    p = subs.add_parser("pack", help="greedy low-overlap packing of translates")
    _add_common(p)
    p.add_argument("--set-x", required=True)
    p.add_argument("--set-y", required=True)
    p.add_argument("--epsilon", default="1/2")

    p = subs.add_parser("scan", help="sample A and report deviations and packings")
    _add_common(p)
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--set-x", default=None)
    p.add_argument("--set-y", default=None)
    p.add_argument("--x-size", type=int, default=None)
    p.add_argument("--y-size", type=int, default=None)

    p = subs.add_parser("mc", help="Monte Carlo experiments")
    _add_common(p)
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
    p.add_argument("--name", required=True, choices=sorted(_BOUND_ADAPTERS))
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
    _add_common(p)
    p.add_argument("--set-a", default=None)
    p.add_argument("--floor", type=int, default=1)

    return parser


def _require_group(args) -> str:
    if not args.group:
        raise StructuralError("this command needs --group")
    return args.group


def _kv_pairs(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise StructuralError(f"expected key=val, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _float_params(raw: dict, *names: str, optional: tuple = ()) -> dict:
    missing = [n for n in names if n not in raw]
    if missing:
        raise StructuralError(f"missing params: {', '.join(missing)}")
    known = set(names) | set(optional)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise StructuralError(f"unknown params: {', '.join(unknown)}")
    values = {k: float(v) for k, v in raw.items() if k in known}
    non_finite = sorted(k for k, v in values.items() if not math.isfinite(v))
    if non_finite:
        raise StructuralError(f"params must be finite: {', '.join(non_finite)}")
    return values


def _bound_hoeffding(raw):
    p = _float_params(raw, "deviation", "count")
    return {"value": bounds.hoeffding_tail(p["deviation"], int(p["count"]))}


def _bound_joint(raw):
    p = _float_params(raw, "epsilon", "k", "n")
    return {"value": bounds.joint_deviation_bound(p["epsilon"], int(p["k"]), int(p["n"]))}


def _bound_existential(raw):
    p = _float_params(raw, "order", "epsilon", "n", "k")
    return bounds.existential_deviation_bounds(
        p["order"], p["epsilon"], int(p["n"]), int(p["k"])
    ).to_json()


def _bound_low_energy(raw):
    p = _float_params(raw, "order", "epsilon", "r", "K", optional=("constant",))
    return {
        "value": bounds.low_energy_deviation_bound(
            p["order"], p["epsilon"], p["r"], p["K"], p.get("constant", 1.0)
        ),
        "exponent": bounds.low_energy_exponent(p["order"], p["epsilon"], p["r"], p["K"]),
    }


def _bound_threshold(raw):
    p = _float_params(raw, "order", "epsilon", "w", optional=("constant",))
    return bounds.threshold_deviation_bound(
        p["order"], p["epsilon"], p["w"], p.get("constant", 1.0)
    ).to_json()


def _bound_packed(raw):
    p = _float_params(raw, "epsilon", "m", "K")
    return {"value": bounds.packed_deviation_bound(p["epsilon"], p["m"], p["K"])}


def _bound_low_dim_count(raw):
    p = _float_params(raw, "order", "n", "d")
    return bounds.low_dimension_count_bound(p["order"], p["n"], p["d"]).to_json()


def _bound_size_thresholds(raw):
    kind = raw.pop("kind", None)
    if kind is None:
        raise StructuralError("missing params: kind")
    p = _float_params(raw, "order", "w")
    return bounds.size_thresholds(kind, p["order"], p["w"]).to_json()


_BOUND_ADAPTERS = {
    "hoeffding": _bound_hoeffding,
    "joint-deviation": _bound_joint,
    "existential": _bound_existential,
    "low-energy": _bound_low_energy,
    "threshold": _bound_threshold,
    "packed": _bound_packed,
    "low-dim-count": _bound_low_dim_count,
    "size-thresholds": _bound_size_thresholds,
}


def _dispatch(args):
    """Run one subcommand; returns (json_doc, report or None)."""
    cmd = args.command

    if cmd == "group":
        g = parse_group(_require_group(args))
        return {"command": "group", **g.describe()}, None

    if cmd == "energy":
        g = parse_group(_require_group(args))
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
        g = parse_group(_require_group(args))
        s = parse_subset(g, args.the_set)
        result = additive_dimension(s, mode=args.mode)
        return {
            "command": "dim",
            "group": args.group,
            "set": s.to_index_list(),
            "dissociated": is_dissociated(s),
            **result.to_json(),
        }, None

    if cmd == "decompose":
        g = parse_group(_require_group(args))
        a = parse_subset(g, args.set_a)
        b = parse_subset(g, args.set_b)
        if args.single_step:
            # the actual ratio makes the energy hypothesis hold with equality;
            # only an empty A or B has zero energy, and the finder rejects both
            energy = additive_energy(a, b)
            ratio = Fraction(a.size * b.size**2, energy) if energy else 0
            report = find_structured_subset(
                a, b, ratio, mode=args.finder, dim_constant=args.dim_constant
            )
            return {"command": "decompose", "single_step": True, **report.to_json()}, None
        result = energy_partition(
            a, b, args.target_ratio,
            mode=args.finder, dim_constant=args.dim_constant,
        )
        return {"command": "decompose", "single_step": False, **result.to_json()}, None

    if cmd == "pack":
        g = parse_group(_require_group(args))
        x = parse_subset(g, args.set_x)
        y = parse_subset(g, args.set_y)
        result = greedy_low_overlap_packing(x, y, args.epsilon)
        return {"command": "pack", "group": args.group, **result.to_json()}, None

    if cmd == "scan":
        group = _require_group(args)
        g = parse_group(group)
        x_idx = parse_subset(g, args.set_x).to_index_list() if args.set_x else None
        y_idx = parse_subset(g, args.set_y).to_index_list() if args.set_y else None
        report = run_deviation_scan(
            group, seed=args.seed, epsilon=args.epsilon,
            x_indices=x_idx, y_indices=y_idx,
            x_size=args.x_size, y_size=args.y_size,
        )
        return report.to_json(), report

    if cmd == "mc":
        return _dispatch_mc(args)

    if cmd == "bounds":
        adapter = _BOUND_ADAPTERS[args.name]
        doc = adapter(_kv_pairs(args.params))
        return {"command": "bounds", "name": args.name, **doc}, None

    if cmd == "audit":
        constants = {k: float(v) for k, v in _kv_pairs(args.constant).items()}
        if args.find_threshold:
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
        group = _require_group(args)
        a_idx = None
        if args.set_a is not None:
            a_idx = parse_subset(parse_group(group), args.set_a).to_index_list()
        report = run_worst_case_scan(
            group, a_indices=a_idx, floor=args.floor, seed=args.seed
        )
        return report.to_json(), report

    raise StructuralError(f"unknown command {cmd!r}")


_MC_RUNNERS = {
    "joint-deviation": (run_joint_deviation_mc, ("group", "n", "epsilon", "ks", "trials")),
    "sigma-tail": (run_sigma_tail_mc, ("group", "tiers", "trials")),
    "restriction": (run_restriction_mc, ("group", "x_size", "y_size", "epsilon", "trials")),
}


def _parse_tiers(text: str) -> tuple:
    tiers = []
    for token in text.split(","):
        if not token:
            continue
        sx, _, sy = token.partition("x")
        if not sy:
            raise StructuralError(f"tier must look like 8x8, got {token!r}")
        tiers.append((int(sx), int(sy)))
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
        given["ks"] = tuple(int(k) for k in given["ks"].split(",") if k)
    if "tiers" in given:
        given["tiers"] = _parse_tiers(given["tiers"])
    report = runner(seed=args.seed, **given)
    return report.to_json(), report


def _emit(args, doc, report) -> None:
    if args.format == "csv":
        if report is None:
            raise StructuralError("this command emits JSON only; drop --format csv")
        text = report.csv_text()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
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
    except (StructuralError, GuardError, ValueError) as exc:
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
