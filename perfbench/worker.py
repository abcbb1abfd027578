"""One workload process: set up, then run rounds of ops in a closed loop.

Started by run.py, which passes the monotonic clock reading taken just
before it started this process (`--t0-ns`), so set-up time covers
interpreter start, `import cayleysum`, input generation and warm-up.  Every
op is one in-process `cayleysum.cli.main(argv)` call with stdout captured;
its output is checked outside the timed region.  The last stdout line is a
JSON record of raw timings for run.py to turn into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
MIN_OPS = 100
HARD_LIMIT_S = 150.0  # stop adding rounds here whatever the minimums say
MC_RESULT_KEYS = {
    "sigma-tail": {"tiers", "median_trend_nonincreasing"},
    "restriction": {"params", "energy_check_freq", "deviation_check_freq", "joint_freq",
                    "joint_wilson_95", "smoke_ok"},
    "joint-deviation": {"rows_used", "per_k", "all_accepted", "forced_full_group_event",
                        "independence_arm"},
}
REPORT_KEYS = {"kind", "schema_version", "config", "results", "timing"}


def calibrate() -> float:
    """host.calib_ms: milliseconds for 60 runs of the host probe."""
    return sum(probe() for _ in range(60)) / 1e6


def host_info() -> dict:
    import mpmath

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for level in (2, 3):
        try:
            text = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            text = ""
        caches[f"l{level}_bytes"] = int(text) if text.isdigit() else None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "cpu": cpu, **caches}


def import_program():
    """Import cayleysum from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    from cayleysum import cli

    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"cayleysum imported from {cli.__file__}, not from {src}")
    return cli, elapsed


def argv_key(argv) -> str:
    return hashlib.sha256(json.dumps(list(argv)).encode()).hexdigest()[:24]


def exact_digest(text: str) -> str:
    """Digest of an exact op's JSON with the report's timing block removed."""
    doc = json.loads(text)
    doc.pop("timing", None)
    return hashlib.sha256((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


def load_refs(workload: str) -> dict:
    path = HERE / "refs" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


class Checker:
    """Judges op outputs: references for exact ops, repetition for MC ops."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.seen: dict = {}  # argv key -> canonical digest of the first MC output

    def __call__(self, op, rc: int, out: str) -> str | None:
        """None if the output is right, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc}"
        key = argv_key(op.argv)
        try:
            if op.check == "ref":
                want = self.refs.get(key)
                if want is None:
                    return "no reference recorded for this argv"
                return None if exact_digest(out) == want else "output differs from the reference"
            doc = json.loads(out)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        missing = (REPORT_KEYS - doc.keys()) or (MC_RESULT_KEYS[doc["kind"]] - doc["results"].keys())
        if missing:
            return f"report lacks keys {sorted(missing)}"
        doc.pop("timing")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        first = self.seen.setdefault(key, digest)
        return None if digest == first else "repeated argv gave different canonical bytes"


def record_refs(workload: str) -> None:
    """Run every exact op any seed can produce twice; store its output digest."""
    cli, _ = import_program()
    refs = {}
    for op in workloads.reference_ops(workload):
        key = argv_key(op.argv)
        if key in refs:
            continue
        digests = set()
        for _ in range(2):
            rc, out = call_cli(cli, op.argv)
            if rc != 0:
                raise SystemExit(f"{op.template} exited with {rc}: {' '.join(op.argv)[:200]}")
            digests.add(exact_digest(out))
        if len(digests) != 1:
            raise SystemExit(f"{op.template} is not deterministic")
        refs[key] = digests.pop()
    path = HERE / "refs" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{workload}: {len(refs)} references written to {path.relative_to(ROOT)}")


def call_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 16, 1 << 15)
_PROBE_TABLE = np.random.default_rng(1).integers(0, 1 << 30, 1 << 16)
_PROBE_OUT = np.empty(1 << 15, dtype=_PROBE_TABLE.dtype)


def probe() -> int:
    """Nanoseconds for a fixed ~1 ms mix of interpreter work and cache-bound numpy.

    It allocates nothing, so its time does not depend on the allocator state
    the program leaves behind.
    """
    start = time.perf_counter_ns()
    table = {}
    for i in range(2000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    np.take(_PROBE_TABLE, _PROBE_KEYS, out=_PROBE_OUT)
    _PROBE_OUT.sort()
    return time.perf_counter_ns() - start


def run_round(ops, call, check) -> dict:
    """Run each op once, timing the host probe before the first op and after each.

    The probe is timed twice and the faster kept, so the second run finds its
    data in cache whatever the op left there.  Latency excludes the probe and
    the output check.
    """
    latencies, failures, out_bytes = [], [], 0
    probes = [min(probe(), probe())]
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        start = clock()
        try:
            rc, out = call(op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc, out = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        probes.append(min(probe(), probe()))
        if rc is None:
            failures.append((i, out))
            continue
        out_bytes += len(out)
        reason = check(op, rc, out)
        if reason is not None:
            failures.append((i, reason))
    return {"latency_ns": latencies, "probe_ns": probes, "failures": failures,
            "output_bytes": out_bytes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true", help="only the cheap ops, two rounds")
    p.add_argument("--spans-out", default=None, help="write the first traced round's spans here")
    args = p.parse_args(argv)

    calib_start = calibrate()
    cli, import_s = import_program()
    ops = workloads.build_ops(args.workload, args.seed, smoke=args.smoke)
    check = Checker(load_refs(args.workload))
    call = lambda argv: call_cli(cli, argv)  # noqa: E731
    warm = list({op.template: op for op in ops if op.smoke}.values())
    run_round(warm, call, lambda *a: None)
    setup = {"setup_s": (time.monotonic_ns() - args.t0_ns) / 1e9,
             "probe_ns": statistics.median(probe() for _ in range(9))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        op_ids = itertools.count()

        def traced_call(argv):
            tracer.op_id = next(op_ids)
            return call_cli(cli, argv)
    rounds, round_s, per_layer, first_spans = [], [], [], None
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        n_ops = sum(len(r["latency_ns"]) for r in rounds)
        # stop before a round that would end past --seconds, once the minimums are met
        past = round_s and elapsed + statistics.median(round_s) > args.seconds
        done = args.smoke and len(rounds) >= 2 or (
            past and n_ops >= MIN_OPS and len(rounds) >= MIN_ROUNDS)
        if done or elapsed >= HARD_LIMIT_S:
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_round(ops, traced_call if traced else call, check)
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        round_s.append(time.perf_counter() - begin - elapsed)
        if traced:
            spans, counts, distinct = tracer.take_round()
            metrics = layertrace.round_metrics(spans, counts, distinct)
            metrics["cli.output_bytes"] = result["output_bytes"]
            metrics["trace.round_s"] = sum(result["latency_ns"]) / 1e9
            per_layer.append(metrics)
            if first_spans is None:
                first_spans = spans
        rounds.append(result)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.template for op in ops],
        "rounds": rounds,
        "setup": setup,
        "import_s": import_s,
        "calib_ms": [calib_start, calibrate()],
        "host": host_info(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["per_layer"] = layertrace.combine_rounds(per_layer)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span in first_spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
