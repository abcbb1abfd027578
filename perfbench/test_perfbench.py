"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, op=0, raised=False):
    return (name, start, end, parent, op, raised)


def test_self_time_of_nested_same_module_spans():
    # energy_partition -> find_structured_subset -> additive_energy, a groups
    # call under the finder, and an nstr call under a cascade ledger
    spans = [
        _span("decomposition.energy_partition", 0, 100, -1),
        _span("decomposition.find_structured_subset", 10, 90, 0),
        _span("subsets.additive_energy", 20, 50, 1),
        _span("groups.translate_array", 60, 70, 1),
        _span("cascade.cascade_audit", 200, 260, -1, op=1),
        _span(layertrace.NSTR, 210, 240, 4, op=1),
    ]
    assert layertrace.self_times(spans) == [20, 40, 30, 10, 60, 30]
    m = layertrace.round_metrics(spans, {}, {})
    assert m["decomposition.self_s"] == pytest.approx(60e-9)
    assert m["subsets.self_s"] == pytest.approx(30e-9)
    assert m["groups.self_s"] == pytest.approx(10e-9)
    # nstr time stays in the cascade span and is reported again on its own
    assert m["cascade.self_s"] == pytest.approx(60e-9)
    assert m["cascade.nstr_s"] == pytest.approx(30e-9)
    layer_total = sum(m[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert layer_total == pytest.approx(160e-9)  # each nanosecond charged once


@pytest.mark.parametrize("n", [100, 101, 109, 250])
def test_p90_leaves_ten_samples_beyond(n):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    p90 = run.percentile(values, 0.9)
    assert sum(v > p90 for v in values) >= 10
    assert sum(v >= p90 for v in values) >= n // 10


def _record(latency_ms_by_round, probe_ns=1e6):
    return {
        "ops": [f"t{i}" for i in range(len(latency_ms_by_round[0]))],
        "rounds": [{"latency_ns": [int(ms * 1e6) for ms in lat], "failures": [], "traced": False,
                    "probe_ns": [probe_ns] * (len(lat) + 1)}
                   for lat in latency_ms_by_round],
        "peak_rss_mb": 50.0,
    }


_SETUPS = [{"setup_s": 1.0, "probe_ns": 1e6}]


def test_per_op_medians_ignore_a_stall_in_one_round():
    steady = [[10.0] * 20 + [100.0] * 5 for _ in range(4)]
    stalled = [list(r) for r in steady]
    stalled[2][24] = 1100.0  # one op stalls by a second in one round
    a, b = run.end_to_end(_record(steady), _SETUPS), run.end_to_end(_record(stalled), _SETUPS)
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        assert a[name] == pytest.approx(b[name])
    assert a["ops_per_s"] == pytest.approx(25 / 0.7)
    assert a["op_p50_ms"] == pytest.approx(10.0) and a["op_p90_ms"] == pytest.approx(100.0)


def test_host_adjustment_cancels_a_uniformly_slower_host():
    rounds = [[10.0 + i for i in range(30)] for _ in range(4)]
    slow = [[1.5 * ms for ms in r] for r in rounds]
    a = run.end_to_end(_record(rounds), _SETUPS)
    b = run.end_to_end(_record(slow, probe_ns=1.5e6), [{"setup_s": 1.5, "probe_ns": 1.5e6}])
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s"):
        assert a[name] == pytest.approx(b[name])
    assert run.wall_clock(_record(slow), _SETUPS)["op_p50_ms"] == pytest.approx(1.5 * a["op_p50_ms"])


@pytest.fixture(scope="module")
def cli():
    return worker.import_program()[0]


def test_corrupted_output_counts_in_error_rate(cli):
    ops = workloads.build_ops("audit", 3, smoke=True)
    check = worker.Checker(worker.load_refs("audit"))

    def corrupting_call(argv):
        rc, out = worker.call_cli(cli, argv)
        if argv == ops[1].argv:
            doc = json.loads(out)
            doc["command"] = "corrupted"
            out = json.dumps(doc)
        return rc, out

    rounds = [worker.run_round(ops, corrupting_call, check) for _ in range(2)]
    assert [i for r in rounds for i, _reason in r["failures"]] == [1, 1]
    for r in rounds:
        r["traced"] = False
    record = {"ops": [op.template for op in ops], "rounds": rounds, "peak_rss_mb": 1.0}
    assert run.end_to_end(record, _SETUPS)["error_rate"] == pytest.approx(2 / (2 * len(ops)))


def test_mc_repeat_check_catches_drift(cli):
    op = next(op for op in workloads.build_ops("mc", 3, smoke=True) if "joint" in op.template)
    check = worker.Checker({})
    rc, out = worker.call_cli(cli, op.argv)
    assert check(op, rc, out) is None
    rc, again = worker.call_cli(cli, op.argv)
    assert check(op, rc, again) is None  # timing differs, canonical bytes do not
    doc = json.loads(again)
    doc["results"]["all_accepted"] = not doc["results"]["all_accepted"]
    assert check(op, 0, json.dumps(doc)) == "repeated argv gave different canonical bytes"
    del doc["results"]["per_k"]
    assert "lacks keys" in check(op, 0, json.dumps(doc))
    assert check(op, 2, out) == "exit code 2"


def test_distinct_ratio_counts_repeats_within_an_op(cli):
    import cayleysum.subsets as subsets
    from cayleysum.groups import parse_group

    g = parse_group("z8")
    x, y = subsets.GroupSubset.from_indices(g, [1, 2]), subsets.GroupSubset.from_indices(g, [3])
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        subsets.additive_energy(x, y)
        subsets.additive_energy(x, y)
        tracer.op_id = 1
        subsets.additive_energy(x, y)
    finally:
        tracer.uninstall()
    m = layertrace.round_metrics(*tracer.take_round())
    assert m["subsets.additive_energy.calls"] == 3
    assert m["subsets.additive_energy.distinct_ratio"] == pytest.approx(2 / 3)
    assert not hasattr(subsets.additive_energy, "__wrapped__")


def test_every_seed_has_references():
    for workload in workloads.WORKLOADS:
        refs = worker.load_refs(workload)
        for seed in (0, 17, 123456789):
            for op in workloads.build_ops(workload, seed):
                assert op.check == "repeat" or worker.argv_key(op.argv) in refs, op.template


def test_benchmark_json_names_match_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(layertrace.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} <= set(run.END_TO_END_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _smoke_counts(workload):
    record = run.run_worker(workload, 5, 0, 1, "--smoke")
    assert not [f for r in record["rounds"] for f in r["failures"]]
    layer = run.per_layer(record)
    assert set(layertrace.PER_LAYER) <= layer.keys()
    return {k: v for k, v in layer.items() if layertrace.unit_of(k) == "count"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_counts_repeat_exactly(workload):
    assert _smoke_counts(workload) == _smoke_counts(workload)


def test_smoke_mode_exits_zero():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
