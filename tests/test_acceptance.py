"""Acceptance sweep: the twelve package-level guarantees.

Each test prints exactly one `criterion NN [PASS|FAIL]` line (visible with
-s; under plain pytest the test name itself is the pass/fail line).  Checks
are exact integer/rational arithmetic unless stated otherwise.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import pytest

from cayleysum import bounds, cascade
from cayleysum.cli import main as cli_main
from cayleysum.decomposition import energy_partition
from cayleysum.deviation import (
    deviation_packing_pipeline,
    edge_density_deviation,
    greedy_low_overlap_packing,
    high_deviation_elements,
    random_subset,
)
from cayleysum.dissociation import (
    additive_dimension,
    count_low_dimension_sets,
    is_dissociated,
)
from cayleysum.groups import parse_group
from cayleysum.harness import (
    run_deviation_scan,
    run_joint_deviation_mc,
    run_restriction_mc,
    run_sigma_tail_mc,
    run_worst_case_scan,
)
from cayleysum.subsets import GroupSubset, additive_energy, additive_energy_oracle

from conftest import oracle_gf2_rank


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [FAIL] {label}")
        raise
    print(f"criterion {num:02d} [PASS] {label}")


def _energy_sweep_instances():
    rnd = random.Random(20260819)
    out = []
    for name in ("z12", "f2^4", "3,5"):
        g = parse_group(name)
        for _ in range(70):
            sx = rnd.randint(1, min(10, g.order))
            sy = rnd.randint(1, min(10, g.order))
            x = GroupSubset.from_indices(g, rnd.sample(range(g.order), sx))
            y = GroupSubset.from_indices(g, rnd.sample(range(g.order), sy))
            out.append((x, y))
    return out


def test_criterion_01_energy_oracle_equivalence():
    with criterion(1, "energy oracle equivalence, 210 pairs, < 5 s"):
        start = time.perf_counter()
        pairs = _energy_sweep_instances()
        assert len(pairs) >= 200
        for x, y in pairs:
            assert additive_energy(x, y) == additive_energy_oracle(x, y)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_union_energy_inequalities():
    with criterion(2, "500 triples: sqrt subadditivity + disjoint superadditivity"):
        rnd = random.Random(2)
        names = ("z12", "f2^4", "3,5", "z60", "f2^6")
        checked = 0
        for name in itertools.cycle(names):
            g = parse_group(name)
            sx = rnd.randint(1, g.order - 1)
            x = GroupSubset.from_indices(g, rnd.sample(range(g.order), sx))
            rest = GroupSubset.full(g).difference(x).to_index_list()
            y = GroupSubset.from_indices(g, rnd.sample(rest, rnd.randint(1, len(rest))))
            z = GroupSubset.from_indices(
                g, rnd.sample(range(g.order), rnd.randint(1, g.order))
            )
            e_u = additive_energy(x.union(y), z)
            e_x = additive_energy(x, z)
            e_y = additive_energy(y, z)
            # sqrt(e_u) <= sqrt(e_x) + sqrt(e_y), squared out in integers
            d = e_u - e_x - e_y
            assert d <= 0 or d * d <= 4 * e_x * e_y
            # X and Y are disjoint by construction
            assert e_u >= e_x + e_y
            checked += 1
            if checked == 500:
                break


def test_criterion_03_energy_bounds_on_sweep():
    with criterion(3, "trivial energy bounds on the criterion-1 sweep"):
        for x, y in _energy_sweep_instances():
            e = additive_energy(x, y)
            assert x.size * y.size <= e <= x.size * y.size * min(x.size, y.size)


def test_criterion_04_dissociation_rank_exhaustive():
    with criterion(4, "Z_2^4 exhaustive: dissociation == GF(2) rank, < 60 s"):
        start = time.perf_counter()
        g = parse_group("f2^4")
        for mask in range(1 << 16):
            s = GroupSubset.from_mask(g, mask)
            idx = s.to_index_list()
            rank = oracle_gf2_rank(idx)
            assert is_dissociated(s) == (rank == len(idx))
            assert additive_dimension(s, mode="exact").value == rank
        assert time.perf_counter() - start < 60.0


def test_criterion_05_partition_loop():
    with criterion(5, "51 partition instances: exact partition, decay, bounds"):
        rnd = random.Random(5)
        names = ("z12", "f2^4", "z16")
        instances = 0
        multi_step = 0
        while instances < 17:
            g = parse_group(names[instances % 3])
            sb = rnd.randint(2, min(10, g.order))
            b = GroupSubset.from_indices(g, rnd.sample(range(g.order), sb))
            sa = rnd.randint(sb, g.order)
            a = GroupSubset.from_indices(g, rnd.sample(range(g.order), sa))
            k = Fraction(a.size * b.size**2, additive_energy(a, b))
            for mult in (2, 4, 8):
                m = k * mult
                res = energy_partition(a, b, m, mode="exhaustive")
                # exact partition
                assert res.structured.is_disjoint(res.residual)
                assert (
                    res.structured.union(res.residual).to_index_list()
                    == b.to_index_list()
                )
                # halting condition
                if res.residual.size:
                    e_res = additive_energy(a, res.residual)
                    assert (
                        e_res * m.numerator
                        < a.size * res.residual.size**2 * m.denominator
                    )
                # per-step decay <= 31/32, recomputed from reported energies
                seq = [st.residual_energy_before for st in res.steps]
                seq.append(res.residual_energy)
                for before, after in zip(seq, seq[1:]):
                    assert 32 * after <= 31 * before
                # step bound
                bound = math.ceil(
                    math.log(float(b.size * m / k)) / math.log(32.0 / 31.0)
                ) + 1
                assert res.step_count <= res.step_bound <= bound + 1
                # kept energy with >= 2 steps
                if res.step_count >= 2:
                    multi_step += 1
                    assert 32 * res.structured_energy >= res.initial_energy
            instances += 1
        assert instances * 3 >= 50
        assert multi_step >= 1


def test_criterion_06_packing_extraction_pipeline():
    with criterion(6, "200 hypothesis-true instances: packing, extract, pipeline"):
        rnd = random.Random(6)
        names = ("f2^6", "z16")
        eps_pool = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
        active = 0
        attempts = 0
        while active < 200:
            attempts += 1
            assert attempts < 20000, "hypothesis-true instances too rare"
            g = parse_group(names[attempts % 2])
            a = random_subset(g, rnd.getrandbits(40))
            x = GroupSubset.from_indices(
                g, rnd.sample(range(g.order), rnd.randint(1, 5))
            )
            y = GroupSubset.from_indices(
                g, rnd.sample(range(g.order), rnd.randint(1, min(12, g.order)))
            )
            eps = rnd.choice(eps_pool)
            n = x.size
            ratio = Fraction(n**2 * y.size, additive_energy(x, y))

            # packing needs no deviation hypothesis
            pack = greedy_low_overlap_packing(x, y, eps)
            assert pack.k > eps**2 * y.size * ratio / n

            if abs(edge_density_deviation(a, x, y).sigma) < eps:
                continue
            active += 1

            rows = high_deviation_elements(a, x, y, eps)
            assert rows.size >= eps * y.size

            pipe = deviation_packing_pipeline(a, x, y, eps)
            assert pipe.ok
            assert pipe.packing.k > eps**4 * y.size * ratio / (4 * n)
            ratio2 = Fraction(
                n**2 * pipe.extracted.size, additive_energy(x, pipe.extracted)
            )
            assert ratio2 >= eps * ratio


def test_criterion_07_joint_deviation_monte_carlo():
    with criterion(7, "10^5-trial joint deviation MC within bound + 3 sigma, < 2 min"):
        start = time.perf_counter()
        rep = run_joint_deviation_mc(
            group="f2^8", n=32, epsilon="1/2", ks=(1, 2, 4),
            trials=100_000, seed=0,
        )
        assert rep.results["all_accepted"] is True
        for row in rep.results["per_k"]:
            assert row["empirical"] <= row["bound"] + 3.0 * math.sqrt(
                row["bound"] * (1.0 - row["bound"]) / 100_000
            )
        assert time.perf_counter() - start < 120.0


def test_criterion_08_count_bound_and_chain():
    with criterion(8, "exhaustive low-dim count 15 <= e^10; 100-point chain sweep"):
        g = parse_group("f2^3")
        res = count_low_dimension_sets(g, n=5, d=1)
        assert res.enumerated and res.exact == 15
        assert res.exact <= math.exp(2 * 5 * 1)
        rnd = random.Random(8)
        for _ in range(100):
            order = rnd.choice((16, 64, 256, 1024, 65536))
            ln = math.log(order)
            n = rnd.uniform(2 * ln, 12 * ln + 8)
            d = rnd.uniform(1, 10)
            chain = bounds.low_dimension_count_bound(order, n, d)
            assert chain.threshold_ok and chain.chain_ok
            assert d * ln + n * d * math.log(3.0) < (ln + 1.1 * n) * d <= 2 * n * d + 1e-9


def test_criterion_09_composition_identity():
    with criterion(9, "packed-bound composition identity at 100 points, < 1e-12"):
        rnd = random.Random(9)
        for _ in range(100):
            eps = rnd.uniform(1e-3, 0.5)
            n = rnd.uniform(1, 1e8)
            m = rnd.uniform(1, 1e10)
            big_k = rnd.uniform(1, 1e8)
            k_floor = eps**4 * m * big_k / (4.0 * n)
            composed = (eps / 2.0) ** 2 * n * k_floor / 4.0
            direct = eps**6 * m * big_k / 64.0
            assert abs(composed - direct) <= 1e-12 * max(abs(composed), abs(direct))


def test_criterion_10_cascade_audit():
    with criterion(10, "cascade: known FAIL row, threshold search, bit-identity"):
        w = math.log(230.0)
        led = cascade.cascade_audit("general", 230, w)
        row = led.row("packed_bound_applicability")
        assert row.passed is False
        value = float(mp.mpf(row.lhs))
        assert abs(value - 0.0035) <= 0.10 * 0.0035 + 2e-4
        search = cascade.find_threshold("general")
        at_threshold = cascade.cascade_audit(
            "general", search.passing_log_order, search.passing_w
        )
        assert at_threshold.all_pass
        rerun = cascade.cascade_audit("general", led.inputs["logN"], led.inputs["w"])
        assert json.dumps(rerun.to_json(), sort_keys=True) == json.dumps(
            led.to_json(), sort_keys=True
        )


def test_criterion_11_report_determinism(tmp_path):
    with criterion(11, "mc and scan reruns byte-identical modulo timestamp"):
        runs = (
            lambda: run_joint_deviation_mc(trials=400, seed=1),
            lambda: run_sigma_tail_mc(tiers=((4, 4), (8, 8)), trials=25, seed=1),
            lambda: run_restriction_mc(trials=25, seed=1),
            lambda: run_deviation_scan("f2^5", seed=1),
        )
        for make in runs:
            assert make().canonical_bytes() == make().canonical_bytes()
        # and through the CLI, stripping only the timing object
        argv = ["mc", "--kind", "sigma-tail", "--trials", "25", "--tiers", "4x4,8x8"]
        paths = []
        for i in (0, 1):
            out = tmp_path / f"rep{i}.json"
            assert cli_main(argv + ["--out", str(out)]) == 0
            paths.append(out)
        docs = [json.loads(p.read_text()) for p in paths]
        for doc in docs:
            doc.pop("timing")
        assert json.dumps(docs[0], sort_keys=True).encode() == json.dumps(
            docs[1], sort_keys=True
        ).encode()


def test_criterion_12_worst_case_scan():
    with criterion(12, "Z_4, A={0,1}, floor 1: max |sigma| = 1/2 with witness"):
        rep = run_worst_case_scan("z4", a_indices=[0, 1], floor=1)
        res = rep.results
        assert res["max_abs_sigma"] == "1/2"
        assert res["verified"] is True
        g = parse_group("z4")
        a = GroupSubset.from_indices(g, [0, 1])
        x = GroupSubset.from_indices(g, res["x_witness"])
        y = GroupSubset.from_indices(g, res["y_witness"])
        assert abs(edge_density_deviation(a, x, y).sigma) == Fraction(1, 2)
