"""CLI surface: parsing, exit codes, output formats, determinism."""

import hashlib
import json
import math
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleysum import bounds, cascade, harness
from cayleysum.cli import _BOUNDS, _dispatch, build_parser, main
from cayleysum.deviation import restriction_sample
from cayleysum.dissociation import count_low_dimension_sets
from cayleysum.errors import StructuralError, to_float, to_fraction
from cayleysum.groups import parse_group
from cayleysum.subsets import GroupSubset

from conftest import oracle_dissociated


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--group", "4", "--set-x", "[0,1]", "--set-y", "[0,1]"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == 6
    assert doc["lower"] == 4 and doc["upper"] == 8


def test_group_describe(capsys):
    code, out, _ = run_cli(capsys, "group", "--group", "f2^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["exponent_two"] is True


def test_dim_and_pack(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--group", "z8", "--set", "[1,2,3]", "--mode", "exact"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2 and doc["dissociated"] is False

    code, out, _ = run_cli(
        capsys, "pack", "--group", "f2^4", "--set-x", "[0,1,2,3]",
        "--set-y", "0xffff", "--epsilon", "1/2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == len(doc["ys"]) >= 1


def test_dim_greedy_takes_any_size(capsys):
    # the greedy scan inserts at most log2 N elements, so no size guard applies
    code, out, err = run_cli(
        capsys, "dim", "--group", "z1009", "--set", str(list(range(1, 31))), "--mode", "greedy"
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dissociated"] is False and doc["value"] == 5


_DIM_GROUPS = {
    name: parse_group(name) for name in ("z12", "z101", "3,5", "4,4,4", "f2^6", "2,4,8")
}


# dim reports dissociated as dim(S) = |S|: the greedy scan admits all of S
# exactly when S is dissociated, and an exact witness is no smaller
@settings(
    max_examples=40, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_dim_dissociated_matches_the_oracle(capsys, data):
    name = data.draw(st.sampled_from(sorted(_DIM_GROUPS)))
    moduli = _DIM_GROUPS[name].moduli
    idx = sorted(data.draw(st.sets(st.integers(0, _DIM_GROUPS[name].order - 1), max_size=7)))
    expected = oracle_dissociated(moduli, idx)
    for mode in ("greedy", "exact"):
        code, out, err = run_cli(capsys, "dim", "--group", name, "--set", str(idx), "--mode", mode)
        assert code == 0, err
        assert json.loads(out)["dissociated"] is expected


def test_decompose_target_ratio_alias(capsys):
    for flag in ("--target-ratio", "-M"):
        code, out, _ = run_cli(
            capsys, "decompose", "--group", "z12",
            "--set-a", "[0,1,2,3,4,5]", "--set-b", "[0,2,4,6]", flag, "8",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["step_count"] == len(doc["steps"])


def test_worst_case_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "worst-case", "--group", "z4", "--set-a", "[0,1]", "--floor", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["max_abs_sigma"] == "1/2"


def test_worst_case_zero_maximum_has_witness(capsys):
    # floor N leaves only X = Y = G, where sigma is 0 when |A| = N/2
    code, out, _ = run_cli(
        capsys, "worst-case", "--group", "z4", "--set-a", "[0,1]", "--floor", "4"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["max_abs_sigma"] == "0"
    assert res["x_witness"] == res["y_witness"] == [0, 1, 2, 3]


def test_audit_reports_failures_with_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--mode", "general", "--logN", "230", "--w", "5.438"
    )
    assert code == 0  # reporting mode: row failures are data, not errors
    doc = json.loads(out)
    assert doc["all_pass"] is False
    names = [r["name"] for r in doc["rows"]]
    assert "packed_bound_applicability" in names


def test_audit_find_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--mode", "exponent2", "--find-threshold"
    )
    assert code == 0
    doc = json.loads(out)
    assert "passing_logN" in doc


def test_audit_missing_inputs(capsys):
    code, _, err = run_cli(capsys, "audit", "--mode", "general")
    assert code == 2
    assert "logN" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--mode", "general", "--logN", "230", "--w", "5.438"),
        ("audit", "--mode", "general", "--find-threshold"),
    ],
)
def test_audit_dps_above_cap_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--dps", str(cascade.MAX_DPS + 1))
    assert code == 2 and out == ""
    assert "MAX_DPS" in err and "Traceback" not in err


def test_bounds_registry(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--name", "hoeffding",
        "--params", "deviation=0", "count=10",
    )
    assert code == 0
    assert json.loads(out)["value"] == 1.0
    code, _, err = run_cli(
        capsys, "bounds", "--name", "hoeffding", "--params", "deviation=0"
    )
    assert code == 2 and "missing" in err
    code, _, err = run_cli(
        capsys, "bounds", "--name", "hoeffding",
        "--params", "deviation=0", "count=10", "bogus=1",
    )
    assert code == 2 and "unknown" in err


def test_bounds_size_thresholds(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--name", "size-thresholds",
        "--params", "kind=baseline", "order=1048576", "w=1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["x_min"] > 0 and doc["y_min"] > doc["x_min"]


def test_mc_determinism_and_csv(capsys, tmp_path):
    argv = ["mc", "--kind", "sigma-tail", "--trials", "30", "--tiers", "4x4,8x8"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing"), doc2.pop("timing")
    assert doc1 == doc2

    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, *argv, "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "schema_version,1"
    assert len(lines) == 4  # schema + header + 2 tiers


def test_mc_joint_kind(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--kind", "joint-deviation", "--trials", "300", "--ks", "1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["k"] for r in doc["results"]["per_k"]] == [1, 2]


def test_mc_restriction_kind(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "--kind", "restriction", "--trials", "20",
        "--x-size", "32", "--y-size", "32",
    )
    assert code == 0
    assert json.loads(out)["results"]["smoke_ok"] is True


def test_mc_restriction_at_tiny_epsilon(capsys):
    # s = ceil(2000 log N / eps^4) is beyond a double: it clips to |X|
    code, out, _ = run_cli(
        capsys, "mc", "--kind", "restriction", "--epsilon", "1e-80", "--trials", "1"
    )
    assert code == 0
    params = json.loads(out)["results"]["params"]
    assert (params["x_sample_size"], params["y_sample_size"]) == (64, 1)


def test_restriction_draw_and_mc_share_one_epsilon_range(capsys):
    g = parse_group("f2^4")
    x, y = (GroupSubset.from_indices(g, range(lo, lo + 8)) for lo in (0, 4))
    draws = (
        lambda eps: restriction_sample(x, y, eps, seed=1),
        lambda eps: harness.run_restriction_mc("f2^4", 8, 8, eps, trials=2),
    )
    for eps in ("3/4", 1):
        for draw in draws:
            draw(eps)
    for eps in (0, "1.000000001"):
        for draw in draws:
            with pytest.raises(StructuralError) as info:
                draw(eps)
            assert str(info.value) == f"epsilon must lie in (0, 1], got {eps}"
    code, out, _ = run_cli(
        capsys, "mc", "--kind", "restriction", "--epsilon", "3/4", "--trials", "5"
    )
    assert code == 0 and json.loads(out)["config"]["epsilon"] == "3/4"


@pytest.mark.parametrize(
    "argv,stray",
    [
        (("mc", "--kind", "sigma-tail", "--trials", "2", "--tiers", "4x4",
          "--epsilon", "1/3"), "--epsilon"),
        (("mc", "--kind", "restriction", "--trials", "2", "--n", "5", "--ks", "9",
          "--tiers", "3x3"), "--ks, --n, --tiers"),
    ],
)
def test_mc_rejects_options_of_other_kinds(capsys, argv, stray):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and stray in err


def test_scan_json_only(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "f2^4", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert "pipeline" in doc["results"]
    # scan's report has no CSV schema, so scan takes no --format
    code, _, err = run_cli(
        capsys, "scan", "--group", "f2^4", "--seed", "3", "--format", "csv"
    )
    assert code == 2 and "unrecognized arguments: --format csv" in err


# a valid argv of each subcommand, and the shared options it reads (all take --out)
_COMMAND_ARGV = {
    "group": (("group", "--group", "z4"), {"--group"}),
    "energy": (("energy", "--group", "z8", "--set-x", "[1,2]", "--set-y", "[3,6]"), {"--group"}),
    "dim": (("dim", "--group", "f2^5", "--set", "[1,2,3]"), {"--group"}),
    "decompose": (("decompose", "--group", "f2^4", "--set-a", "0xffff", "--set-b", "[1,2,3]",
                   "-M", "8"), {"--group"}),
    "pack": (("pack", "--group", "z16", "--set-x", "[1,2]", "--set-y", "0xfff"), {"--group"}),
    "scan": (("scan", "--group", "f2^4"), {"--group", "--seed"}),
    "mc": (("mc", "--kind", "sigma-tail", "--group", "z16", "--tiers", "4x4", "--trials", "2"),
           {"--group", "--seed", "--format"}),
    "bounds": (("bounds", "--name", "hoeffding", "--params", "deviation=0", "count=4"), set()),
    "audit": (("audit", "--mode", "general", "--logN", "230", "--w", "5.438"), set()),
    "worst-case": (("worst-case", "--group", "z4"), {"--group", "--seed", "--format"}),
}
_SHARED_VALUES = {"--group": "z4", "--seed": "3", "--format": "json"}


def test_each_command_takes_only_the_shared_options_it_reads(capsys):
    stray, rows = 0, []
    for cmd, (argv, reads) in _COMMAND_ARGV.items():
        rows.append((argv, 0))
        for flag, value in _SHARED_VALUES.items():
            if flag not in reads:  # accepted and ignored before, so now a usage error
                stray += 1
                rows.append(((cmd, flag, value, *argv[1:]), 2))
        if "--group" in argv:  # argparse-required wherever read, except by mc
            at = argv.index("--group")
            rows.append((argv[:at] + argv[at + 2:], 0 if cmd == "mc" else 2))
    assert stray == 17
    for argv, expected in rows:
        code, _, err = run_cli(capsys, *argv)
        assert code == expected, (argv, err)
        if expected == 2:
            assert err.startswith("usage:"), (argv, err)


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "energy", "--group", "4", "--set-x", "[0,99]",
                   "--set-y", "[0]")[0] == 2
    assert run_cli(capsys, "energy", "--set-x", "[0]", "--set-y", "[0]")[0] == 2
    assert run_cli(capsys, "mc", "--kind", "nope")[0] == 2
    assert run_cli(capsys, "mc", "--kind", "sigma-tail", "--tiers", "4by4")[0] == 2


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    # a bare ValueError is a defect too: every refused input raises StructuralError
    for kind in (RuntimeError, ValueError):
        def broken(args):
            raise kind("boom")

        monkeypatch.setattr("cayleysum.cli._dispatch", broken)
        code, out, err = run_cli(capsys, "group", "--group", "z6")
        assert code == 3 and out == ""
        assert err.startswith(f"internal error: {kind.__name__}: boom")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_out_writes_json(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "group", "--group", "z6", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["order"] == 6


@pytest.mark.parametrize("where", ["missing-dir/out.json", "."])
def test_out_unwritable_exits_two(capsys, tmp_path, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "group", "--group", "z6", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out ") and str(target) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--group", "z12", "--set-a", "[0,1,2,3,4,5]",
         "--set-b", "[0,2,4,6]", "-M", "1/0"),
        ("pack", "--group", "z12", "--set-x", "[0,1]", "--set-y", "[0,1,2]",
         "--epsilon", "1/0"),
        ("mc", "--kind", "restriction", "--trials", "2", "--epsilon", "1/0"),
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,code",
    [
        # a master seed is taken mod 2^64, as derive_seed already did
        (("scan", "--group", "z5", "--seed", "-1"), 0),
        (("worst-case", "--group", "f2^3", "--seed", "-1"), 0),
        (("audit", "--mode", "exponent2", "--logN", "1e3", "--w", "1/0"), 2),
    ],
)
def test_fuzz_found_inputs(capsys, argv, code):
    got, _, err = run_cli(capsys, *argv)
    assert got == code and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # the independence arm needs two disjoint translates of {0, 1}: z2
        # has none, f2^2 has rows 0 and 2 where index 4 does not exist
        (("mc", "--kind", "joint-deviation", "--group", "z2", "--n", "2", "--ks", "1",
          "--trials", "2"), 2, "independence arm"),
        (("mc", "--kind", "joint-deviation", "--group", "f2^2", "--n", "2", "--ks", "1",
          "--trials", "2"), 0, ""),
        (("mc", "--kind", "restriction", "--y-size", "-3"), 2, "y_size must lie in [1, 256]"),
        (("mc", "--kind", "restriction", "--x-size", "0"), 2, "x_size must lie in [1, 256]"),
        # an empty tier list ran no trial and reported a vacuous trend
        (("mc", "--kind", "sigma-tail", "--tiers", ","), 2, "error: tiers must be nonempty"),
        # scan dropped a size given beside an explicit set
        (("scan", "--group", "f2^4", "--set-x", "[1,2]", "--x-size", "99"), 2,
         "error: give x_indices or x_size, not both"),
        (("scan", "--group", "f2^4", "--set-y", "[1,2]", "--y-size", "-5"), 2,
         "error: give y_indices or y_size, not both"),
        # an option read by one mode only is refused by the other, not dropped
        (("decompose", "--group", "z12", "--set-a", "[0,1,2]", "--set-b", "[0,1]"), 2,
         "error: decompose needs -M, except with --single-step, which takes none"),
        (("decompose", "--group", "z12", "--set-a", "[0,1,2]", "--set-b", "[0,1]",
          "-M", "8", "--single-step"), 2,
         "error: decompose needs -M, except with --single-step, which takes none"),
        (("audit", "--mode", "exponent2", "--find-threshold", "--logN", "1e9"), 2,
         "error: audit --find-threshold takes no --logN or --w"),
        (("audit", "--mode", "exponent2", "--find-threshold", "--w", "3"), 2,
         "error: audit --find-threshold takes no --logN or --w"),
    ],
)
def test_mc_found_inputs(capsys, argv, code, message):
    got, _, err = run_cli(capsys, *argv)
    assert got == code and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("option", ["--x-size", "--y-size"])
@pytest.mark.parametrize("size", ["-1", "0", "17"])
def test_scan_set_size_outside_the_group_is_usage_error(capsys, option, size):
    # one check serves scan and mc --kind restriction, and names the option
    code, out, err = run_cli(capsys, "scan", "--group", "f2^4", option, size)
    name = option[2:].replace("-", "_")
    assert (code, out, err) == (2, "", f"error: {name} must lie in [1, 16], got {size}\n")


def test_parser_is_built_once_and_keeps_no_call_state(capsys):
    assert build_parser() is build_parser()
    head = ("audit", "--mode", "general", "--logN", "230", "--w", "5.438")
    code, overridden, _ = run_cli(capsys, *head, "--constant", "count_rate=2")
    code_default, default, _ = run_cli(capsys, *head)
    assert code == code_default == 0 and overridden != default
    # the frozen digest of the default ledger
    assert hashlib.sha256(default.encode()).hexdigest() == (
        "e2c7dd9502a86450839432040ccc1297de3f36187f98d31e81af0b75f4b77f8d"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--group", "z64"),
        ("mc", "--kind", "joint-deviation", "--trials", "10"),
        ("pack", "--group", "z64", "--set-x", "[0,1,5,9]", "--set-y", "[0,2,3,7,20,40]"),
        # sigma != 0, so the pipeline extracts rows and packs them at eps/2
        ("scan", "--group", "z64", "--seed", "3", "--set-x", "[0,1,2,3,4,5]",
         "--set-y", "[0,6,12,18,24,30]"),
    ],
)
def test_bignum_epsilon_runs(capsys, argv):
    eps = "1/1180591620717411303424"  # 1/2^70: the denominator exceeds int64
    code, out, _ = run_cli(capsys, *argv, "--epsilon", eps)
    assert code == 0
    doc = json.loads(out)
    if argv[0] == "pack":
        # cap = floor(eps |X|) = 0: only disjoint translates are admitted
        assert doc["epsilon"] == eps and doc["k"] >= 1
    else:
        assert doc["config"]["epsilon"] == eps
    if argv[0] == "scan":
        assert doc["results"]["pipeline"]["packing"]["k"] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--group", "z12", "--set-a", "[0,1]", "--set-b", "[]",
         "--single-step"),
        ("decompose", "--group", "z12", "--set-a", "[]", "--set-b", "[0]",
         "--single-step"),
        ("bounds", "--name", "hoeffding", "--params", "deviation=nan", "count=3"),
        ("bounds", "--name", "packed", "--params", "epsilon=0.5", "m=nan", "K=2"),
        ("bounds", "--name", "low-energy", "--params", "order=100", "epsilon=0.5",
         "r=1", "K=nan"),
        ("bounds", "--name", "low-dim-count", "--params", "order=100", "n=nan", "d=1"),
        ("decompose", "--group", "z12", "--set-a", "[0,1,2]", "--set-b", "[0,1]",
         "--single-step", "--dim-constant", "nan"),
        ("audit", "--mode", "general", "--logN", "1e3", "--w", "inf"),
        ("audit", "--mode", "exponent2", "--logN", "1e3", "--w", "inf"),
        ("audit", "--mode", "exponent2", "--logN", "inf", "--w", "2"),
        ("audit", "--mode", "general", "--logN", "230", "--w", "5.438",
         "--constant", "count_rate=nan"),
        ("audit", "--mode", "general", "--logN", "230", "--w", "5.438",
         "--constant", "count_rate=inf"),
        ("audit", "--mode", "exponent2", "--logN", "230", "--w", "5.438",
         "--constant", "dim_rate=nan"),
    ],
)
def test_empty_set_or_nan_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# sha256 of each command's stdout: any change to how a report is written
# fails here; every report class the CLI can emit is reached at least once
FROZEN_STDOUT = [
    (("dim", "--group", "z12", "--set", "[1,2,3,5]", "--mode", "exact"),
     "1cd4b8aa3ba8698d3a3a1d7affe3b9f671b8e064c6fc2eba2ab9973060252f46"),
    (("pack", "--group", "f2^4", "--set-x", "[0,1,2,3]", "--set-y", "0xffff",
      "--epsilon", "1/2"),
     "89e04762990c1e6755243007f6a59e9414eb814e8050fd325b3f8108668d34b3"),
    (("pack", "--group", "z12", "--set-x", "[0,1]", "--set-y", "[]"),
     "039135c86ce60577b2a4a0b6c631a2a0edf87ae70731a926dd67065dc26be94b"),
    (("decompose", "--group", "z12", "--set-a", "[0,1,2,3,4,5]",
      "--set-b", "[0,2,4,6]", "-M", "8"),
     "fa38f27f2e918156848d9bd0c20d7aa04a6d793c2d8efde9b81a6a1bc4764b47"),
    (("decompose", "--group", "z12", "--set-a", "[0,1,2,3,4,5]",
      "--set-b", "[0,2,4,6]", "--single-step"),
     "bea00ab94b72d0cee8bdb018a46fb03e07e38f95e86bb41d0158d367f070e984"),
    (("bounds", "--name", "existential", "--params", "order=1048576",
      "epsilon=0.25", "n=100", "k=2"),
     "dcbfb5a0b2db161753f11b79795b59531146a5cd5c5450b59888d66147766771"),
    (("bounds", "--name", "threshold", "--params", "order=1e30", "epsilon=0.5", "w=10"),
     "90f63ee8b068b3a7c532e31009c80c94eac4fb2a9c3439fe0d1eaf27a1423520"),
    (("bounds", "--name", "low-dim-count", "--params", "order=100", "n=10", "d=2"),
     "7ba35d1e96ca4f7065cfac4469443ba4e9f18d9877bf46911eee4b62151fba27"),
    (("bounds", "--name", "size-thresholds", "--params", "kind=refined",
      "order=1048576", "w=2"),
     "f4e3ba66835d47b187f0975baf1c1feb247989b408feaa596d9e4fc1a8754e2d"),
    (("audit", "--mode", "general", "--logN", "230", "--w", "5.438"),
     "e2c7dd9502a86450839432040ccc1297de3f36187f98d31e81af0b75f4b77f8d"),
    (("audit", "--mode", "exponent2", "--find-threshold"),
     "7c111f9b8f8163dd84b768889987842979bf2e23081dce818811e562784bd61b"),
]

# sha256 of canonical_bytes() (timing left out) for the timed reports;
# scan seed 0 runs the whole pipeline (ok true), seed 1 stops at its hypothesis
FROZEN_CANONICAL = [
    (("scan", "--group", "f2^4", "--seed", "0"),
     "ba7ef17dd28ae8ffdbb06c14fb6d05d34b0c120ecc9db62611ae6acef7942477"),
    (("scan", "--group", "f2^4", "--seed", "1"),
     "a6ca907cff21f78d35d9995bf601faad43ed84a0dfaa78865d2ca2dbe4b77c94"),
    (("mc", "--kind", "restriction", "--trials", "3"),
     "b13971842f4955aa5ce070ab529d00dd2eebac76f81a1c462711ed36d0f29425"),
    (("scan", "--group", "4,4", "--seed", "3"),
     "232c3a2bc87ebf727f203cdac61cb5eeb1ad3f6b91a0647b5cf88c1b4f46d521"),
    (("scan", "--group", "16,16,16", "--seed", "3", "--x-size", "160", "--y-size", "160"),
     "5b1dedd55d7a9001c57976a71ea4d8a199bdfcce01c4938bdc58bf1fd8e1bd84"),
    (("worst-case", "--group", "2,4", "--seed", "1"),
     "1bc132249e092739fbb39e0ee0401e19ab85545052909749e62bcd03b156269c"),
]


# stdout digests for rank >= 2 groups not of exponent 2 (the coordinate path
# of the index arithmetic); parametrized after FROZEN_CANONICAL so the ids of
# the digests above keep their positions
FROZEN_STDOUT_COORD = [
    (("pack", "--group", "4,4", "--set-x", "[0,1,5,6]", "--set-y", "0xffff",
      "--epsilon", "1/2"),
     "89f3ef3e498d97937ff8cf6d4d5f194f19721aedde87d285aa4b5f49aa28af81"),
    (("decompose", "--group", "3,4", "--set-a", "[0,1,2,3,4,5]",
      "--set-b", "[0,2,4,7]", "-M", "8"),
     "fec06eb424ca61020cb521315740700f1abecf833624cd02479166192138169a"),
    (("dim", "--group", "3,5", "--set", "[1,2,4,7,11]", "--mode", "greedy"),
     "22d071be2e7dae7fd708e6f5a262a7ada98c53597a0fd7eff31a78a7c19612d2"),
    (("energy", "--group", "3,4", "--set-x", "[0,1,5]", "--set-y", "[2,7,11]"),
     "402f0dcf1a1d60db31844fbe292c065417fafb7efdb9f449ae52bbbc37f61922"),
]

# the general-mode threshold search, affordable once its probes stopped
# formatting ledgers; last, so the ids of the digests above keep their positions
FROZEN_STDOUT_THRESHOLD = [
    (("audit", "--mode", "general", "--find-threshold"),
     "9e3d5992140da45b12c99f6bb2bb82d4a3fb654108f3efc8fd4b706592c55b60"),
]


# canonical digests of exhaustive worst-case scans at order 16 (exponent 2,
# rank 2 and cyclic; floors 1, 3 and 9); last, so the ids above keep their positions
FROZEN_CANONICAL_ORDER16 = [
    (("worst-case", "--group", "f2^4", "--seed", "3"),
     "bc1a1bc554cb0178b41ac4f9b68bb2621f355e3b6cab35fac6dcd3d16b9689d9"),
    (("worst-case", "--group", "4,4", "--seed", "5", "--floor", "3"),
     "77905118f5102b481c92a95a6466fd2d7973980856615283ba70598f6a80346b"),
    (("worst-case", "--group", "z16", "--seed", "2", "--floor", "9"),
     "40b81db8a48b5d82eac76fb5636fe8b00fab99c2128d66e1a23204a818fec64d"),
]


# stdout digests of the structure layer: both finders on a rank-3 group and
# the greedy dimension scan on 2,6, which has elements with e = -e; last, so
# the ids above keep their positions
FROZEN_STDOUT_STRUCTURE = [
    (("decompose", "--group", "4,4,4",
      "--set-a", "[0,4,8,12,16,20,24,28,32,36,40,44,1,7,19,50]",
      "--set-b", "[0,4,8,12,20,36,1,2,33,51]", "-M", "4", "--finder", "exhaustive"),
     "5454506fb8cdf8eb9ca29f3f79adde6d20d6be923e78ff7bd9bf4006b0959a21"),
    (("decompose", "--group", "4,4,4",
      "--set-a", "[0,4,8,12,16,20,24,28,32,36,40,44,1,7,19,50]",
      "--set-b", "[0,4,8,12,20,36,1,2,33,51]", "-M", "4", "--finder", "greedy"),
     "76888c35f82a6a2f7cb001eb31d6e4e9d978c6471e201f06688fec08f31a5a6f"),
    (("dim", "--group", "2,6", "--set", "[1,3,6,7,9,10]", "--mode", "greedy"),
     "cbb4d7a78b0d182312097acd9669d129d75785b1ae9cdb99e6911853c001346e"),
]

# stdout digests of the partition loop with both finders on an exponent-2 and a
# cyclic group, with a greedy |B| at which the overlap matrix |A ∩ (A + b' - b)|
# is counted by the transform; last, so the ids above keep their positions
_A_F2 = "[0,1,2,3,4,5,6,7,16,17,18,19,20,21,22,23,9,26,35,44,53,62,40,41,42,43,45,46,47,58,60,63]"
_A_Z64 = "[0,3,6,9,12,15,18,21,24,27,30,33,36,39,42,45,1,5,11,22,29,40,50,55,61,62]"
FROZEN_STDOUT_PARTITION = [
    (("decompose", "--group", "f2^6", "--set-a", _A_F2,
      "--set-b", "[0,1,2,3,16,17,18,19,9,26,35]", "-M", "64", "--finder", "exhaustive"),
     "d5a91081975e59dfa673bdefb10e0492df4b0f707bec47deae232f6ce09bda32"),
    (("decompose", "--group", "f2^6", "--set-a", _A_F2,
      "--set-b", "[0,1,2,3,4,5,6,7,16,17,18,19,20,21,22,23,9,26,35,44]", "-M", "64",
      "--finder", "greedy"),
     "81f87c3aef17a97371d88a143ae855939d86ed7d00621d84d993eb18a3847393"),
    (("decompose", "--group", "z64", "--set-a", _A_Z64,
      "--set-b", "[0,3,6,9,12,15,18,5,11,22,50]", "-M", "64", "--finder", "exhaustive"),
     "72dd66a6d379a45588f563a94574be1068a06efa7b13059c9d8493ff5d467de2"),
    (("decompose", "--group", "z64", "--set-a", _A_Z64,
      "--set-b", "[0,3,6,9,12,15,18,21,24,27,30,33,36,5,11,22,50,61]", "-M", "64",
      "--finder", "greedy"),
     "fbe62ce6a98950c92fbbacc13a212671db8fb52f7de1f5093eca036107f27370"),
]

# stdout digests of outputs that print numbers near 10^(10^213): the general
# threshold search at the lowest and the highest dps, and the dps-30 general
# ledger at the default search's passing (logN, w), whose ladder top comes
# from _pow10; then ledgers whose --logN has a decimal exponent of at least 10^6,
# read without mpmath's power of ten: spaced and upper-case, with a fraction,
# and in exponent2 mode; last, so the ids above keep their positions
_LOGN_AT_THRESHOLD = (
    "8.11559589803750654152743330301e+30238532864229904979228065538740091107797060883013"
    "2805371971695757786707953919842724414650198789740589257341617733194369481586401328822"
    "3913092880195807403341766909331143065382284155429303543906430606368596517962074"
)
FROZEN_STDOUT_HUGE = [
    (("audit", "--mode", "general", "--find-threshold", "--dps", "15"),
     "4ded8ea11406e595c94c8dc758721f1708ad89d25a4b6311f8d573100dca25f2"),
    (("audit", "--mode", "general", "--find-threshold", "--dps", "1000"),
     "9e2ca13b5ebb63ce7f274c20cfb653a09a4b0c9238f74b42a51e1a270008e04a"),
    (("audit", "--mode", "general", "--logN", _LOGN_AT_THRESHOLD,
      "--w", "6.96267950071862527236760364133e+213"),
     "5fadaae1ffde20d22072b0e0b9f92925fe163405194284f4f13115e3013bf2cf"),
    (("audit", "--mode", "general", "--logN", " 1E+2000000", "--w", "3"),
     "4c5a9b5f8cb6c833cdf39de1abc1b26289304b0b95de05f6e9335620f336a957"),
    (("audit", "--mode", "general", "--logN", "2.5e2000001", "--w", "3"),
     "d2ae8c377b5777aa763880abd5554ca200aeafe4c8f6d35f7075a82c963e733e"),
    (("audit", "--mode", "exponent2", "--logN", "1e999999999999", "--w", "1e5"),
     "13f1299a6f87b7cf6d05bbfa8721f3f82ab79e10213c92186cea4bd32ffbb98b"),
]

# canonical digest of a sigma-tail run, which draws its X and Y by seeded
# sampling; last, so the ids above keep their positions
FROZEN_CANONICAL_SAMPLED = [
    (("mc", "--kind", "sigma-tail", "--group", "4,4,4", "--tiers", "4x4,8x8",
      "--trials", "3"),
     "5f90154734c5d48ae4765e2de23e7c03ad78c3a7806f845b96b2eb4b68d9624a"),
]


# stdout digests of the CSV writer for every kind that has a schema, and of
# the bound table: an optional parameter given and left out, int truncation of
# non-integer k, n and count (equal to the integer digests beside them), and
# low-dim-count's n and d, which stay floats; last, so the ids above keep
# their positions
FROZEN_STDOUT_TABLES = [
    (("mc", "--kind", "joint-deviation", "--trials", "200", "--ks", "1,2", "--format", "csv"),
     "71a8a4db4ab43418cedaf16d88f55218d58be261a254e4dbe7490e7e5f6eb4ce"),
    (("mc", "--kind", "sigma-tail", "--group", "z64", "--tiers", "4x4,8x8", "--trials", "20",
      "--format", "csv"),
     "8ff71bc3a8ca167d90dc836542338b3332d6e64b203e207569cd13dad1d8ef98"),
    (("mc", "--kind", "restriction", "--trials", "5", "--format", "csv"),
     "904ddeb59daeac145e98f3cedd1b369fd77a507b97cdb52241e4248d244dbff4"),
    (("worst-case", "--group", "2,4", "--seed", "1", "--format", "csv"),
     "51dff32b80c07dbe1ecf286c80e0c04a5ee71ef081f132c93312e7789098a272"),
    (("bounds", "--name", "hoeffding", "--params", "deviation=0.1", "count=100"),
     "9ec31356458dda8b6559d46384c34a84b4c848b62313e931149bfb1111ebe34c"),
    (("bounds", "--name", "hoeffding", "--params", "deviation=0.1", "count=100.9"),
     "9ec31356458dda8b6559d46384c34a84b4c848b62313e931149bfb1111ebe34c"),
    (("bounds", "--name", "joint-deviation", "--params", "epsilon=0.25", "k=2", "n=32"),
     "8e1c3e0465e4fd392d2bd737baf70a1dfc9f9e5fdf92ca20d0f434cc8b545da2"),
    (("bounds", "--name", "joint-deviation", "--params", "epsilon=0.25", "k=2.7", "n=32.2"),
     "8e1c3e0465e4fd392d2bd737baf70a1dfc9f9e5fdf92ca20d0f434cc8b545da2"),
    (("bounds", "--name", "low-energy", "--params", "order=2", "epsilon=1", "r=200", "K=200"),
     "655fa70707276077c3629702d67aab5cd8452adf8d760bfd44da1a22cf1c4c85"),
    (("bounds", "--name", "low-energy", "--params", "order=2", "epsilon=1", "r=200", "K=200",
      "constant=2.5"),
     "f5dc5c6c8df2165dcf9adb0064c144c474d44d155041bf513acf9cc3696b05e1"),
    (("bounds", "--name", "packed", "--params", "epsilon=0.25", "m=10", "K=4"),
     "08ede2ebdc2c74d3b28260732b986f24de7719d7031d29c6379d0cc9b5543dc5"),
    (("bounds", "--name", "low-dim-count", "--params", "order=100", "n=10.5", "d=2.5"),
     "ab586fe581ac522dd8367e265920c6a0a42922cbe9db7d1f198314f0f61bdb76"),
]

# both threshold searches at a second precision, where the probes' exactness
# margin is a different 10^-(dps - 10); last, so the ids above keep their positions
FROZEN_STDOUT_THRESHOLD_DPS50 = [
    (("audit", "--mode", "general", "--find-threshold", "--dps", "50"),
     "bf3aed804c10a56e85cb8f19d5308a053c22c4f312d05790dad7b2508fec9bfb"),
    (("audit", "--mode", "exponent2", "--find-threshold", "--dps", "50",
      "--constant", "dim_rate=0.5"),
     "b28aa0d8046d0b739a86dbe065eca8db583bb7872ec950338d49dc4be3d55d64"),
]


@pytest.mark.parametrize(
    "argv,digest",
    FROZEN_STDOUT + FROZEN_CANONICAL + FROZEN_STDOUT_COORD + FROZEN_STDOUT_THRESHOLD
    + FROZEN_CANONICAL_ORDER16 + FROZEN_STDOUT_STRUCTURE + FROZEN_CANONICAL_SAMPLED
    + FROZEN_STDOUT_TABLES + FROZEN_STDOUT_THRESHOLD_DPS50 + FROZEN_STDOUT_PARTITION
    + FROZEN_STDOUT_HUGE,
)
def test_report_bytes_frozen(capsys, argv, digest):
    if (argv, digest) in FROZEN_CANONICAL + FROZEN_CANONICAL_ORDER16 + FROZEN_CANONICAL_SAMPLED:
        _, report = _dispatch(build_parser().parse_args(list(argv)))
        data = report.canonical_bytes()
    else:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        data = out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_library_report_bytes_frozen():
    # RestrictionDraw and LowDimensionSetCount reports are not CLI output
    g = parse_group("z12")
    x = GroupSubset.from_indices(g, [0, 1, 2, 3, 5, 8])
    y = GroupSubset.from_indices(g, [1, 4, 6, 7, 9])
    a = GroupSubset.from_indices(g, [0, 2, 3, 7, 11])
    docs = [
        restriction_sample(x, y, "1/2", seed=9, a=a).to_json(),
        count_low_dimension_sets(g, n=3, d=1).to_json(),
    ]
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0d5604ac34132dbd1cd67a0f6b0b61cf4144f42a681847414d39c93513eb9b77"
    )


@pytest.mark.parametrize(
    "params",
    [
        ("hoeffding", "deviation=1", "count=inf"),
        ("existential", "order=100", "epsilon=0.3", "n=inf", "k=2"),
        ("existential", "order=100", "epsilon=0.3", "n=8", "k=inf"),
        ("joint-deviation", "epsilon=0.3", "k=inf", "n=8"),
        ("joint-deviation", "epsilon=0.3", "k=2", "n=-inf"),
        ("low-dim-count", "order=100", "n=inf", "d=1"),
        ("low-energy", "order=100", "epsilon=0.5", "r=inf", "K=2"),
        ("low-energy", "order=100", "epsilon=0.5", "r=2", "K=inf"),
    ],
)
def test_infinite_bound_param_is_usage_error(capsys, params):
    name, *pairs = params
    code, out, err = run_cli(capsys, "bounds", "--name", name, "--params", *pairs)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# where a bound's float arithmetic leaves the double range it still gives
# 0.0, 1.0 or inf (an exponent of -inf or inf), never an exception or NaN
@pytest.mark.parametrize(
    "params,expected",
    [
        (("hoeffding", "deviation=1e155", "count=1"), {"value": 0.0}),
        # deviation^2 is beyond a double, the exponent -2 deviation^2 / count is -200
        (("hoeffding", "deviation=1e155", "count=1e308"), {"value": 1.3838965267367376e-87}),
        (("existential", "order=100", "epsilon=1e-200", "n=8", "k=2"),
         {"threshold": math.inf, "threshold_ok": False, "refined_bound": 1.0}),
        (("low-energy", "order=100", "epsilon=1e-90", "r=2", "K=2"),
         {"exponent": math.inf, "value": math.inf}),
        (("threshold", "order=100", "epsilon=1e-90", "w=2"), {"value": math.inf}),
        # both exponent terms are beyond a double; eps^2 r K / 40 is the larger
        (("low-energy", "order=100", "epsilon=1e-78", "r=1e300", "K=1e300"),
         {"exponent": -math.inf, "value": 0.0}),
        # the chain holds (log N <= 0.9 n) though its links are all inf
        (("low-dim-count", "order=16", "n=1e200", "d=1e200"),
         {"chain_ok": True, "threshold_ok": True, "bound": math.inf}),
        (("low-dim-count", "order=1048576", "n=16", "d=1.7e308"),
         {"chain_ok": True, "threshold_ok": False}),
        # d log N = -inf against nd log 3 = +inf
        (("low-dim-count", "order=1e-300", "n=1", "d=1e307"),
         {"chain_ok": True, "log_intermediate": -math.inf, "intermediate": 0.0}),
        # 2n = inf, but 2nd = 0 at d = 0
        (("low-dim-count", "order=0.5", "n=1.7e308", "d=0"),
         {"log_bound": 0.0, "bound": 1.0}),
        # 2n = inf, but 2nd = 3.4e208 is a double
        (("low-dim-count", "order=1e20", "n=1.7e308", "d=1e-100"),
         {"log_bound": 3.4e208, "bound": math.inf}),
        # d log N + nd log 3 = -inf + inf; d (log N + n log 3) = inf
        (("low-dim-count", "order=1e-300", "n=1e300", "d=1e306"),
         {"log_intermediate": math.inf, "intermediate": math.inf, "chain_ok": True}),
    ],
)
def test_bound_beyond_the_double_range(capsys, params, expected):
    name, *pairs = params
    code, out, err = run_cli(capsys, "bounds", "--name", name, "--params", *pairs)
    assert (code, err) == (0, "") and "NaN" not in out
    doc = json.loads(out)
    assert {key: doc[key] for key in expected} == expected


@pytest.mark.parametrize(
    "params,line",
    [
        (("hoeffding", "deviation=0.1"), "missing params: count"),
        (("existential", "order=1048576"), "missing params: epsilon, n, k"),
        (("hoeffding", "deviation=0.1", "count=3", "bogus=1", "zed=2"),
         "unknown params: bogus, zed"),
        (("joint-deviation", "epsilon=0.25", "k=-inf", "n=nan"), "k must be rational, got '-inf'"),
        (("size-thresholds", "kind=baseline", "order=abc", "w=1"),
         "order must be rational, got 'abc'"),
        # kind is text and is checked before the numeric parameters
        (("size-thresholds", "w=1"), "missing params: kind"),
        (("hoeffding", "kind=1", "deviation=0.1", "count=3"), "unknown params: kind"),
    ],
)
def test_bound_param_error_lines(capsys, params, line):
    name, *pairs = params
    code, out, err = run_cli(capsys, "bounds", "--name", name, "--params", *pairs)
    assert (code, out, err) == (2, "", f"error: {line}\n")


# refusals in the harness, the bounds and the partition loop, each with its
# exact error line
@pytest.mark.parametrize(
    "argv,line",
    [
        *((("mc", "--kind", kind, "--trials", "0"), "trials must be >= 1")
          for kind in ("sigma-tail", "restriction", "joint-deviation")),
        (("mc", "--kind", "joint-deviation", "--ks", "0", "--trials", "10"),
         "ks must be positive, got (0,)"),
        (("mc", "--kind", "joint-deviation", "--n", "3", "--ks", "1000", "--trials", "10"),
         "packing yields only 64 rows, need 1000"),
        (("mc", "--kind", "sigma-tail", "--group", "f2^17", "--trials", "1"),
         "group order 131072 exceeds the 2^16 throughput cap"),
        (("worst-case", "--group", "z4", "--floor", "0"), "floor must lie in [1, 4], got 0"),
        (("bounds", "--name", "packed", "--params", "foo"), "expected key=val, got 'foo'"),
        (("bounds", "--name", "joint-deviation", "--params", "epsilon=0.25", "k=-1", "n=8"),
         "k must be >= 0, got -1"),
        (("bounds", "--name", "joint-deviation", "--params", "epsilon=0.25", "k=2", "n=0"),
         "n must be >= 1, got 0"),
        (("bounds", "--name", "existential", "--params", "order=100", "epsilon=0.25", "n=0",
          "k=2"), "need n, k >= 1, got n=0, k=2"),
        (("bounds", "--name", "threshold", "--params", "order=2", "epsilon=0.25", "w=2"),
         "order must satisfy log(order) > 1"),
        (("decompose", "--group", "z8", "--set-a", "[1,2]", "--set-b", "[1,2,3]", "-M", "2"),
         "need |A| >= |B|, got 2 < 3"),
    ],
)
def test_refusal_error_lines(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


# every numeric CLI input, as an argv whose "{}" takes the value, and the
# name its parse error must carry
_NUMERIC_INPUTS = [
    (("bounds", "--name", "packed", "--params", "m=4", "K=2", "epsilon={}"), "epsilon"),
    (("bounds", "--name", "joint-deviation", "--params", "epsilon=1/4", "n=8", "k={}"), "k"),
    (("audit", "--mode", "general", "--logN", "230", "--w", "5", "--constant", "count_rate={}"),
     "count_rate"),
    (("audit", "--mode", "general", "--logN", "{}", "--w", "5"), "logN"),
    (("audit", "--mode", "general", "--logN", "230", "--w", "{}"), "w"),
    (("mc", "--kind", "joint-deviation", "--trials", "1", "--ks", "1,{}"), "--ks"),
    (("mc", "--kind", "sigma-tail", "--trials", "1", "--tiers", "4x{}"), "--tiers"),
    (("mc", "--kind", "restriction", "--trials", "1", "--epsilon", "{}"), "epsilon"),
    (("pack", "--group", "z16", "--set-x", "[1,2]", "--set-y", "0xfff", "--epsilon", "{}"),
     "epsilon"),
    (("decompose", "--group", "f2^4", "--set-a", "0xffff", "--set-b", "[1,2,3]", "-M", "{}"),
     "target_ratio"),
    # M = 1/2 stops the partition loop before its first step, so this also
    # checks that the loop reads --dim-constant up front
    (("decompose", "--group", "f2^4", "--set-a", "0xffff", "--set-b", "[1,2,3]", "-M", "1/2",
      "--dim-constant", "{}"), "dim_constant"),
]


def test_numeric_parse_errors_name_their_input(capsys):
    for argv, name in _NUMERIC_INPUTS:
        for value in ("abc", "inf"):
            code, out, err = run_cli(capsys, *(arg.format(value) for arg in argv))
            assert (code, out) == (2, ""), (argv, value)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f" {name} " in err or f"'{name}'" in err, err
    # bounds reads p/q like every other rational input
    head = ("bounds", "--name", "joint-deviation", "--params")
    assert run_cli(capsys, *head, "epsilon=1/2", "k=4", "n=32") == run_cli(
        capsys, *head, "epsilon=0.5", "k=4", "n=32"
    )


def test_huge_decimal_exponents_are_refused_before_parsing(capsys):
    # Fraction would build 10^exponent exactly: 1e999999999 needs a ~400 MB integer
    rational = [(argv, name) for argv, name in _NUMERIC_INPUTS
                if name not in ("logN", "w", "--ks", "--tiers")]
    assert len(rational) == 7
    for argv, name in rational:
        for value in ("1e5000", "1E+5000", "1e-5000"):
            code, out, err = run_cli(capsys, *(arg.format(value) for arg in argv))
            assert (code, out) == (2, ""), (argv, value)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"decimal exponent above 4300 in magnitude, got {value!r}" in err, err
            assert f" {name} " in err or f"'{name}'" in err, err
    started = time.perf_counter()
    with pytest.raises(StructuralError, match="decimal exponent"):
        to_fraction("1e999999999", "epsilon")
    assert time.perf_counter() - started < 0.05
    # inside the limit nothing changes
    with pytest.raises(StructuralError, match="beyond the float range"):
        to_float("1e400", "epsilon")
    assert to_fraction("1e-300") == Fraction(1, 10**300) and to_float("1e-300") == 1e-300


def test_readme_cli_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 13 and all(argv[0] == "cayleysum" for argv in commands)
    for argv in commands:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_dispatch_looks_up_runners_and_bounds_at_call_time(capsys, monkeypatch):
    # a tracer or a test double replaces module attributes; the CLI must call
    # through them rather than through function objects bound at import
    seen = []

    def recorder(module, name):
        original = getattr(module, name)

        def record(*args, **kwargs):
            seen.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    recorder(harness, "run_sigma_tail_mc")
    recorder(bounds, "hoeffding_tail")
    assert main(["mc", "--kind", "sigma-tail", "--trials", "2", "--tiers", "4x4"]) == 0
    assert main(["bounds", "--name", "hoeffding", "--params", "deviation=0", "count=4"]) == 0
    capsys.readouterr()
    assert seen == ["run_sigma_tail_mc", "hoeffding_tail"]


# CLI fuzz: random argv over every subcommand on groups of order <= 64, a few
# malformed literals and literals above the dense cap; whatever the input, the
# exit code is one of the documented three and a failure is one line, never a
# traceback
_OVERSIZED = ["f2^21", "f2^80000", "z" + "9" * 5000]
_GROUPS = st.sampled_from(
    ["z1", "z5", "z12", "z64", "f2^1", "f2^4", "f2^6", "2,4", "3,5", "4,4,4", "8,8",
     "z0", "f2^0", "x", *_OVERSIZED]
)
# worst-case enumerates every subset of G, so it draws orders up to its cap
# of 16 (and z17, one above it)
_TINY_GROUPS = st.sampled_from(
    ["z1", "z4", "z6", "f2^3", "2,4", "z0", "f2^4", "z16", "4,4", "z17", *_OVERSIZED]
)
_NUMBERS = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(["1/2", "1/3", "-1/2", "1/0", "2.5", "1e400", "nan", "inf", "abc", ""]),
)
# doubles near the ends of the range, where a bound's float arithmetic
# overflows or underflows
_EXTREME_NUMBERS = st.builds(
    "{}e{}".format,
    st.sampled_from(["1", "1.7", "5", "-1"]),
    st.sampled_from([-320, -300, -200, -155, -100, -90, -78, 78, 154, 155, 200, 300, 307, 308]),
)
_SETS = st.one_of(
    st.lists(st.integers(-2, 70), max_size=8).map(lambda xs: f"[{','.join(map(str, xs))}]"),
    st.sampled_from(["0xff", "0x0", "[", "[a]", ""]),
)


@st.composite
def _cli_argv(draw):
    def optional(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    cmd = draw(st.sampled_from(
        ["group", "energy", "dim", "decompose", "pack", "scan", "mc", "bounds", "audit",
         "worst-case"]
    ))
    argv = [cmd]
    if cmd in ("group", "energy", "dim", "decompose", "pack", "scan", "mc"):
        argv += ["--group", draw(_GROUPS)]
    if cmd == "energy":
        argv += ["--set-x", draw(_SETS), "--set-y", draw(_SETS)]
    elif cmd == "dim":
        argv += ["--set", draw(_SETS), "--mode", draw(st.sampled_from(["greedy", "exact"]))]
    elif cmd == "decompose":
        argv += ["--set-a", draw(_SETS), "--set-b", draw(_SETS)]
        argv += optional("--finder", st.sampled_from(["exhaustive", "greedy"]))
        argv += optional("--dim-constant", _NUMBERS)
        # the partition loop reads -M; --single-step takes none
        argv += ["--single-step"] if draw(st.booleans()) else ["-M", draw(_NUMBERS)]
    elif cmd == "pack":
        argv += ["--set-x", draw(_SETS), "--set-y", draw(_SETS)]
        argv += optional("--epsilon", _NUMBERS)
    elif cmd == "scan":
        argv += optional("--epsilon", _NUMBERS) + optional("--set-x", _SETS)
        argv += optional("--set-y", _SETS) + optional("--x-size", _NUMBERS)
        argv += optional("--y-size", _NUMBERS)
    elif cmd == "mc":
        argv += ["--kind", draw(st.sampled_from(["joint-deviation", "sigma-tail", "restriction"]))]
        argv += ["--trials", draw(st.sampled_from(["-1", "0", "1", "3"]))]
        argv += optional("--epsilon", _NUMBERS) + optional("--n", _NUMBERS)
        argv += optional("--ks", st.sampled_from(["1", "1,2", "0", "-1", "70", "a"]))
        argv += optional("--tiers", st.sampled_from(["4x4", "2x3,8x8", "0x0", "99x99", "4by4"]))
        argv += optional("--x-size", _NUMBERS) + optional("--y-size", _NUMBERS)
    elif cmd == "bounds":
        name = draw(st.sampled_from(sorted(_BOUNDS)))
        keys = ["deviation", "count", "epsilon", "k", "n", "order", "r", "K", "m", "d", "w",
                "constant", "kind"]
        # the bound's own keys reach its arithmetic, drawn keys mostly its checks
        names = draw(st.one_of(
            st.just(list(_BOUNDS[name][1])), st.lists(st.sampled_from(keys), max_size=5)
        ))
        params = [(k, draw(st.one_of(_NUMBERS, _EXTREME_NUMBERS))) for k in names]
        argv += ["--name", name, "--params", *(f"{k}={v}" for k, v in params)]
    elif cmd == "audit":
        mode = draw(st.sampled_from(["general", "exponent2"]))
        argv += ["--mode", mode]
        # a general-mode threshold search takes most of a second, so only
        # the exponent-two one is drawn
        if mode == "exponent2" and draw(st.booleans()):
            argv += ["--find-threshold"]
        else:
            argv += optional("--logN", _NUMBERS) + optional("--w", _NUMBERS)
        argv += optional("--dps", st.sampled_from(["-1", "14", "15", "40", "1001", "x"]))
        argv += optional("--constant", st.sampled_from(
            ["count_rate=2", "dim_rate=0.5", "dim_rate=0", "bogus=1", "count_rate"]))
    elif cmd == "worst-case":
        argv += ["--group", draw(_TINY_GROUPS)]
        argv += optional("--set-a", _SETS) + optional("--floor", _NUMBERS)
    # only the commands that read them take --seed and --format
    if cmd in ("scan", "mc", "worst-case"):
        argv += optional("--seed", st.sampled_from(["0", "7", "-1", str(2**64), "x"]))
    if cmd in ("mc", "worst-case"):
        argv += optional("--format", st.sampled_from(["json", "csv"]))
    return argv


# capsys is read and cleared by every example, so sharing it is safe
@settings(
    max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_cli_argv())
def test_cli_fuzz_exit_codes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("property violation:")
    if argv[0] == "bounds":  # a value of 0.0, 1.0 or inf, or a usage error
        assert code != 1 and "NaN" not in out, err
