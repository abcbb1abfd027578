"""Steadiness check: run one workload k times and compare each spread with its bound.

    python3 perfbench/steady.py --workload dense --runs 10
    python3 perfbench/steady.py --workload dense --runs 10 --sets 2

Each run is a fresh `perfbench/run.py --trace 0` with its own seed (first
seed `--first-seed`, then consecutive).  For every end-to-end metric this
prints the median, the quartiles from `statistics.quantiles(values, n=4)`,
the spread (Q3 - Q1) / median, and the metric's bound from BENCHMARK.json.
With `--sets 2` the same seeds run again and the second median's shift in
the worse direction is printed beside the bound too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workload: str, seeds, seconds: int) -> list[dict]:
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=400)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items())
            + f", attempted={results[-1]['attempted']}, failed={results[-1]['failed']}", flush=True)
    return results


def summarize(results: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in results]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets = []
    for i in range(args.sets):
        print(f"set {i + 1}: {args.workload}, seeds {seeds.start}..{seeds.stop - 1}", flush=True)
        sets.append(run_set(args.workload, seeds, bench["run_seconds"]))
    report = {"workload": args.workload, "seeds": list(seeds), "metrics": {}}
    ok = True
    print(f"{'metric':<14}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>7}  "
          + ("shift" if args.sets == 2 else ""))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        summary = [summarize(s, name) for s in sets]
        first = summary[0]
        line = (f"{name:<14}{first['median']:>12.5g}{first['q1']:>12.5g}{first['q3']:>12.5g}"
                f"{first['spread']:>9.3f}{bound:>7.2f}")
        entry = {"bound": bound, "sets": summary}
        # the spread of setup_s is not gated; the shift between sets is, for every metric
        gated = name != "setup_s"
        steady = all(s["spread"] < bound / 3 for s in summary) or not gated
        if args.sets == 2:
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (summary[1]["median"] - first["median"]) / first["median"]
            entry["shift"] = shift
            line += f"  {shift:+.3f}"
            steady = steady and shift <= bound
        line += "" if steady else "  <-- not steady"
        ok = ok and steady
        print(line)
        report["metrics"][name] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
