"""cayleysum benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-refs all

Run from the repository root.  Each run starts one fresh worker process
(perfbench/worker.py) with one caller in a closed loop: every op is one
in-process `cayleysum.cli.main(argv)` call, the next starting when the last
has returned.  With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1` the per-layer ones, from a run that alternates
untraced and traced rounds.  A full record, host included, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # fresh processes timed for setup_s; the median is reported
# latencies are scaled to a host on which the worker's probe takes 1 ms
NOMINAL_PROBE_NS = 1e6
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s", "error_rate": "ratio"}


class WorkerFailed(RuntimeError):
    pass


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: with n >= 100 values at least n // 10 lie above p90."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_worker(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0-ns", str(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def adjusted_ms(record: dict, traced: bool = False) -> list[list[float]]:
    """Per round, each op's latency in ms scaled to nominal host speed.

    The factor is NOMINAL_PROBE_NS over the median of the eight probes
    nearest the op: the four timed before it and the four after.
    """
    rounds = []
    for r in record["rounds"]:
        if r["traced"] == traced:
            p = r["probe_ns"]  # p[i] precedes op i, p[i + 1] follows it
            rounds.append([ns * NOMINAL_PROBE_NS / statistics.median(p[max(0, i - 3):i + 5]) / 1e6
                           for i, ns in enumerate(r["latency_ns"])])
    return rounds


def op_medians(rounds: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*rounds)]


def latency_metrics(rounds: list[list[float]]) -> dict:
    """Throughput and percentiles from each op's median over the rounds.

    Percentiles are taken over every op sample with each sample replaced by
    its op's median; a run has at least 100 samples, so at least ten lie
    beyond p90.
    """
    medians = op_medians(rounds)
    samples = [m for m in medians for _ in rounds]
    return {"ops_per_s": len(medians) / (sum(medians) / 1e3),
            "op_p50_ms": percentile(samples, 0.5),
            "op_p90_ms": percentile(samples, 0.9)}


def end_to_end(record: dict, setups: list[dict]) -> dict:
    attempted = sum(len(r["latency_ns"]) for r in record["rounds"])
    failed = sum(len(r["failures"]) for r in record["rounds"])
    return {
        **latency_metrics(adjusted_ms(record)),
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] * NOMINAL_PROBE_NS / s["probe_ns"] for s in setups),
        "error_rate": failed / attempted,
    }


def wall_clock(record: dict, setups: list[dict]) -> dict:
    """The same metrics unadjusted, for the record."""
    rounds = [[ns / 1e6 for ns in r["latency_ns"]] for r in record["rounds"] if not r["traced"]]
    return {**latency_metrics(rounds), "setup_s": statistics.median(s["setup_s"] for s in setups)}


def per_layer(record: dict) -> dict:
    m = dict(record["per_layer"])
    traced, untraced = adjusted_ms(record, traced=True), adjusted_ms(record)
    m["trace.overhead_ratio"] = sum(op_medians(traced)) / sum(op_medians(untraced))
    m["cli.import_s"] = record["import_s"]
    m["host.calib_ms"] = statistics.mean(record["calib_ms"])
    return m


def template_summary(record: dict) -> dict:
    """Median latency (ms) per op template over untraced rounds."""
    by = {}
    for r in record["rounds"]:
        if not r["traced"]:
            for template, ns in zip(record["ops"], r["latency_ns"]):
                by.setdefault(template, []).append(ns / 1e6)
    return {t: statistics.median(v) for t, v in sorted(by.items())}


def git_commit() -> str | None:
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(args.workload, args.seed, 0, 0, "--setup-only"))
    extra = ["--spans-out", str(OUT / f"spans-{args.workload}.jsonl")] if args.trace else []
    OUT.mkdir(exist_ok=True)
    record = run_worker(args.workload, args.seed, args.seconds, args.trace, *extra)
    setups.append(record["setup"])
    e2e = end_to_end(record, setups)
    attempted = sum(len(r["latency_ns"]) for r in record["rounds"])
    failures = [(i, reason) for r in record["rounds"] for i, reason in r["failures"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": {**record["host"], "commit": git_commit(), "src_digest": src_digest(),
                 "calib_ms": record["calib_ms"]},
        "attempted": attempted, "failed": len(failures),
        "rounds": len(record["rounds"]), "ops_per_round": len(record["ops"]),
        "setups": setups, "end_to_end": e2e, "wall_clock": wall_clock(record, setups),
        "failures": [{"template": record["ops"][i], "reason": reason} for i, reason in failures[:50]],
        "template_median_ms": template_summary(record),
    }
    if args.trace:
        result["per_layer"] = per_layer(record)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(result, indent=1))
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.raw.json").write_text(json.dumps(record))
    return result


def metric_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<48} {value:>14.6g} {unit}"


def report(result: dict) -> dict:
    """Print the human summary; return the object for the last stdout line."""
    print(f"workload {result['workload']} seed {result['seed']}: {result['attempted']} ops in "
          f"{result['rounds']} rounds of {result['ops_per_round']}, commit {result['host']['commit']}")
    print("host " + json.dumps(result["host"], sort_keys=True))
    for f in result["failures"]:
        print(f"  FAILED {f['template']}: {f['reason']}")
    if result["trace"]:
        layer = result["per_layer"]
        metrics = {k: {"value": layer[k], "unit": layertrace.unit_of(k)} for k in layertrace.PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
        # error_rate stays in the summary; the JSON line carries it as failed / attempted
        metrics.pop("error_rate")
        print(metric_line("error_rate", result["end_to_end"]["error_rate"], "ratio"))
        for k, v in result["wall_clock"].items():
            print(metric_line(f"{k} (wall clock, unadjusted)", v, END_TO_END_UNITS[k]))
    for name, m in metrics.items():
        print(metric_line(name, m["value"], m["unit"]))
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke() -> int:
    """A few cheap ops of every workload, traced; nonzero exit on any failure."""
    bad = 0
    for workload in WORKLOADS:
        record = run_worker(workload, 0, 0, 1, "--smoke")
        failures = [reason for r in record["rounds"] for _i, reason in r["failures"]]
        layer = per_layer(record)
        missing = set(layertrace.PER_LAYER) - layer.keys()
        print(f"{workload}: {sum(len(r['latency_ns']) for r in record['rounds'])} ops, "
              f"{len(failures)} failed, {len(missing)} per-layer metrics missing")
        for reason in failures[:5]:
            print(f"  {reason}")
        bad += len(failures) + len(missing)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long traced pass over every workload")
    p.add_argument("--record-refs", metavar="WORKLOAD", choices=(*WORKLOADS, "all"),
                   help="record reference digests of every exact op (at a trusted commit)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    try:
        if args.smoke:
            return smoke()
        if args.record_refs:
            import worker

            for workload in WORKLOADS if args.record_refs == "all" else (args.record_refs,):
                worker.record_refs(workload)
            return 0
        if not args.workload:
            p.error("--workload is required")
        result = run(args)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
