"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each public function of each `cayleysum` module
(and GroupSpec's three vectorized methods) with a wrapper that records a
span (name, start_ns, end_ns, parent, op id, raised) and updates a few work
counters.  The package uses from-imports, so every `cayleysum.*` module
attribute bound to an original is replaced, not only the defining one.
`mpmath.mp.nstr` is wrapped too; its spans are not layer spans, so their
time stays in the calling cascade span's self time and is reported again
as `cascade.nstr_s`.

Spans stay in memory; `take_round()` hands over one round's spans and
counters and clears them.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("groups", "subsets", "deviation", "rng", "harness", "cascade", "bounds",
          "dissociation", "decomposition", "cli")
GROUP_METHODS = ("translate_array", "neg_array", "pairsum_matrix")
NSTR = "mpmath.nstr"

# the per-layer metrics one traced run reports, in BENCHMARK.json order
PER_LAYER = (
    "groups.translate_array.calls", "groups.translate_array.elements",
    "groups.pairsum_matrix.pairs", "groups.self_s",
    "subsets.rep_function.calls", "subsets.rep_function.pairs", "subsets.rep_function.self_s",
    "subsets.sumset.self_s", "subsets.additive_energy.calls",
    "subsets.additive_energy.distinct_ratio", "subsets.self_s",
    "deviation.edge_count.self_s", "deviation.row_edge_counts.self_s",
    "deviation.high_deviation_elements.self_s", "deviation.greedy_low_overlap_packing.self_s",
    "deviation.greedy_low_overlap_packing.admit_ratio", "deviation.deviation_packing_pipeline.ok_ratio",
    "deviation.edge_density_deviation.calls", "deviation.edge_density_deviation.distinct_ratio",
    "deviation.restriction_sample.self_s", "deviation.self_s",
    "rng.derive_seed.calls", "rng.sample_without_replacement.calls",
    "rng.sample_without_replacement.self_s", "rng.bit_matrix.rows", "rng.self_s",
    "harness.trials", "harness.run_sigma_tail_mc.self_s", "harness.run_restriction_mc.self_s",
    "harness.run_joint_deviation_mc.self_s", "harness.run_worst_case_scan.self_s", "harness.self_s",
    "cascade.cascade_audit.calls", "cascade.find_threshold.probes", "cascade.nstr_s", "cascade.self_s",
    "bounds.calls", "bounds.self_s",
    "dissociation.additive_dimension.calls", "dissociation.additive_dimension.greedy_share",
    "dissociation.is_dissociated.calls", "dissociation.self_s",
    "decomposition.find_structured_subset.calls", "decomposition.energy_partition.steps",
    "decomposition.self_s",
    "cli.self_s", "cli.output_bytes", "cli.import_s",
    *(f"{layer}.errors" for layer in LAYERS),
    "trace.overhead_ratio", "trace.round_s", "host.calib_ms",
)
UNITS = {"_s": "s", "_ratio": "ratio", "_share": "ratio", "_ms": "ms", "_bytes": "bytes"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _bits_key(subset) -> int:
    return hash(subset.bits.tobytes())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict = defaultdict(int)
        self.keys: dict = defaultdict(set)  # (metric, op id) -> distinct argument keys
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, raised)
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_groups_translate_array(self, args, kwargs, result):
        self.counts["groups.translate_array.elements"] += len(result)

    def _count_groups_pairsum_matrix(self, args, kwargs, result):
        self.counts["groups.pairsum_matrix.pairs"] += result.size

    def _count_subsets_rep_function(self, args, kwargs, result):
        self.counts["subsets.rep_function.pairs"] += result.x_size * result.y_size

    def _count_subsets_additive_energy(self, args, kwargs, result):
        x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
        self.keys["subsets.additive_energy", self.op_id].add((_bits_key(x), _bits_key(y)))

    def _count_deviation_edge_density_deviation(self, args, kwargs, result):
        key = tuple(_bits_key(_arg(args, kwargs, i, n)) for i, n in enumerate("axy"))
        self.keys["deviation.edge_density_deviation", self.op_id].add(key)

    def _count_deviation_greedy_low_overlap_packing(self, args, kwargs, result):
        self.counts["deviation.greedy_low_overlap_packing.admitted"] += result.k
        self.counts["deviation.greedy_low_overlap_packing.scanned"] += _arg(args, kwargs, 1, "y").size

    def _count_deviation_deviation_packing_pipeline(self, args, kwargs, result):
        self.counts["deviation.deviation_packing_pipeline.ok"] += bool(result.ok)

    def _count_rng_bit_matrix(self, args, kwargs, result):
        self.counts["rng.bit_matrix.rows"] += result.shape[0]

    def _count_trials(self, args, kwargs, result):
        config = result.config
        self.counts["harness.trials"] += config["trials"] * len(config.get("tiers", [0]))

    _count_harness_run_sigma_tail_mc = _count_trials
    _count_harness_run_restriction_mc = _count_trials
    _count_harness_run_joint_deviation_mc = _count_trials

    def _count_cascade_find_threshold(self, args, kwargs, result):
        self.counts["cascade.find_threshold.probes"] += len(result.probes)

    def _count_dissociation_additive_dimension(self, args, kwargs, result):
        if _arg(args, kwargs, 1, "mode", "exact") == "greedy":
            self.counts["dissociation.additive_dimension.greedy"] += 1

    def _count_decomposition_energy_partition(self, args, kwargs, result):
        self.counts["decomposition.energy_partition.steps"] += len(result.steps)

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced function at every cayleysum attribute bound to it."""
        import mpmath

        from cayleysum.groups import GroupSpec

        modules = {n: m for n, m in sys.modules.items() if n == "cayleysum" or n.startswith("cayleysum.")}
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = modules[f"cayleysum.{layer}"]
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        for attr in GROUP_METHODS:
            self._patch(GroupSpec, attr, self._wrap(f"groups.{attr}", GroupSpec.__dict__[attr]))
        self._patch(mpmath.mp, "nstr", self._wrap(NSTR, mpmath.mp.nstr))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self):
        """This round's spans, counters and per-op distinct-key counts; then clear."""
        distinct = defaultdict(int)
        for (metric, _op), keys in self.keys.items():
            distinct[metric] += len(keys)
        out = (list(self.spans), dict(self.counts), dict(distinct))
        self.spans.clear()
        self.counts.clear()
        self.keys.clear()
        return out


_ABSENT = object()


# --------------------------------------------------------------- aggregation

def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus its layer children's durations.

    A span's children are the spans whose parent it is, so a chain such as
    energy_partition -> find_structured_subset -> additive_energy charges
    each nanosecond to exactly one span.  nstr spans are not layer spans and
    are not subtracted.
    """
    own = [end - start for _name, start, end, _parent, _op, _raised in spans]
    for name, start, end, parent, _op, _raised in spans:
        if parent >= 0 and name != NSTR:
            own[parent] -= end - start
    return own


def _inside(spans, index: int, layer: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0].startswith(layer + "."):
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def round_metrics(spans, counts: dict, distinct: dict) -> dict:
    """Per-layer metrics of one traced round (times in seconds)."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    errors = defaultdict(int)
    nstr_ns = 0
    for i, (name, start, end, _parent, _op, raised) in enumerate(spans):
        if name == NSTR:
            if _inside(spans, i, "cascade"):
                nstr_ns += end - start
            continue
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_ns[name] += own[i]
        self_ns[layer] += own[i]
        calls[layer] += 1
        errors[layer] += raised
    m = {f"{layer}.errors": errors[layer] for layer in LAYERS}
    m.update({f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS})
    for name in ("groups.translate_array", "subsets.rep_function", "subsets.additive_energy",
                 "deviation.edge_density_deviation", "rng.derive_seed",
                 "rng.sample_without_replacement", "cascade.cascade_audit",
                 "dissociation.additive_dimension", "dissociation.is_dissociated",
                 "decomposition.find_structured_subset"):
        m[f"{name}.calls"] = calls[name]
    for name in ("subsets.rep_function", "subsets.sumset", "deviation.edge_count",
                 "deviation.row_edge_counts", "deviation.high_deviation_elements",
                 "deviation.greedy_low_overlap_packing", "deviation.restriction_sample",
                 "rng.sample_without_replacement", "harness.run_sigma_tail_mc",
                 "harness.run_restriction_mc", "harness.run_joint_deviation_mc",
                 "harness.run_worst_case_scan"):
        m[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in ("groups.translate_array.elements", "groups.pairsum_matrix.pairs",
                 "subsets.rep_function.pairs", "rng.bit_matrix.rows", "harness.trials",
                 "cascade.find_threshold.probes", "decomposition.energy_partition.steps"):
        m[name] = counts.get(name, 0)
    m["subsets.additive_energy.distinct_ratio"] = _ratio(
        distinct.get("subsets.additive_energy", 0), calls["subsets.additive_energy"])
    m["deviation.edge_density_deviation.distinct_ratio"] = _ratio(
        distinct.get("deviation.edge_density_deviation", 0), calls["deviation.edge_density_deviation"])
    m["deviation.greedy_low_overlap_packing.admit_ratio"] = _ratio(
        counts.get("deviation.greedy_low_overlap_packing.admitted", 0),
        counts.get("deviation.greedy_low_overlap_packing.scanned", 0))
    m["deviation.deviation_packing_pipeline.ok_ratio"] = _ratio(
        counts.get("deviation.deviation_packing_pipeline.ok", 0),
        calls["deviation.deviation_packing_pipeline"])
    m["dissociation.additive_dimension.greedy_share"] = _ratio(
        counts.get("dissociation.additive_dimension.greedy", 0), calls["dissociation.additive_dimension"])
    m["bounds.calls"] = calls["bounds"]
    m["cascade.nstr_s"] = nstr_ns / 1e9
    return m


def combine_rounds(per_round: list[dict]) -> dict:
    """Counts from the first traced round (they repeat exactly); times as medians."""
    out = dict(per_round[0])
    for name in out:
        if unit_of(name) == "s":
            out[name] = statistics.median(r[name] for r in per_round)
    return out
