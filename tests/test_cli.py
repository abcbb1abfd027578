"""CLI surface: parsing, exit codes, output formats, determinism."""

import json

import pytest

from cayleysum.cli import main


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


def test_scan_json_only(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "f2^4", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert "pipeline" in doc["results"]
    code, _, err = run_cli(
        capsys, "scan", "--group", "f2^4", "--seed", "3", "--format", "csv"
    )
    assert code == 2 and "CSV" in err


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "energy", "--group", "4", "--set-x", "[0,99]",
                   "--set-y", "[0]")[0] == 2
    assert run_cli(capsys, "energy", "--set-x", "[0]", "--set-y", "[0]")[0] == 2
    assert run_cli(capsys, "mc", "--kind", "nope")[0] == 2
    assert run_cli(capsys, "mc", "--kind", "sigma-tail", "--tiers", "4by4")[0] == 2


def test_out_writes_json(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "group", "--group", "z6", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["order"] == 6


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
    "argv",
    [
        ("scan", "--group", "z64"),
        ("mc", "--kind", "joint-deviation", "--trials", "10"),
    ],
)
def test_bignum_epsilon_runs(capsys, argv):
    eps = "1/1180591620717411303424"  # 1/2^70: the denominator exceeds int64
    code, out, _ = run_cli(capsys, *argv, "--epsilon", eps)
    assert code == 0
    assert json.loads(out)["config"]["epsilon"] == eps
