"""Tests for the command-line front end."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hilbertnorm
import hilbertnorm.cli as cli
from hilbertnorm.cli import (
    CURVES,
    TABLES,
    RunConfig,
    cmd_verify,
    main,
)
from hilbertnorm.verification import CHECK_NAMES, CheckReport, DEFAULT_ALPHA_GRID, Fact


# ---------------------------------------------------------------------------
# configuration


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.tolerance == 1e-8
    assert cfg.truncation == 2048
    assert cfg.alpha_grid == DEFAULT_ALPHA_GRID
    assert cfg.output_format == "csv"
    assert cfg.seed == 1729


def test_run_config_summary_is_stable():
    assert RunConfig().summary() == (
        "tolerance=1e-08 truncation=2048 seed=1729 "
        "alpha_grid=1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9 format=csv")


def test_run_config_coerces_grid():
    for grid in ([1.2, 1.4], np.array([1.2, 1.4]), (a for a in (1.2, 1.4))):
        cfg = RunConfig(alpha_grid=grid)
        assert cfg.alpha_grid == (1.2, 1.4)
        assert isinstance(cfg.alpha_grid, tuple)
        assert all(type(a) is float for a in cfg.alpha_grid)


@pytest.mark.parametrize("kwargs", [
    dict(tolerance=0.0),
    dict(tolerance=-1e-8),
    dict(tolerance=math.inf),
    dict(truncation=15),
    dict(truncation=16.5),
    dict(output_format="xml"),
    dict(seed=-1),
    dict(seed=2.5),
    dict(alpha_grid=()),
    dict(alpha_grid="1.5"),
    dict(alpha_grid=(1.0005,)),
    dict(alpha_grid=(1.5, 2.5)),
])
def test_run_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# registry listing and name validation


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "checks:" in out
    assert "curves:" in out
    assert "tables:" in out
    for name in CHECK_NAMES:
        assert f"  {name}\n" in out
    for name in CURVES:
        assert f"  {name}\n" in out
    for name in TABLES:
        assert f"  {name}\n" in out


def test_module_entry_point_lists_like_main(capsys):
    # python -m hilbertnorm runs __main__.py, which nothing else imports;
    # the package directory's parent goes on the path, installed or not
    env = dict(os.environ)
    src = str(Path(hilbertnorm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hilbertnorm", "list"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert main(["list"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_unknown_curve_exits_2(capsys):
    assert main(["curve", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown curve" in err
    assert "bloch-A-objective" in err


def test_unknown_table_exits_2(capsys):
    assert main(["table", "nope"]) == 2
    assert "unknown table" in capsys.readouterr().err


def test_points_must_be_at_least_two(capsys):
    assert main(["curve", "hinf-objective", "--points", "1"]) == 2
    assert "--points" in capsys.readouterr().err


def test_bad_tolerance_flag_exits_2(capsys):
    assert main(["verify", "--tol", "-1"]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hilbertnorm 0.1.0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# curves


def test_curve_csv_header_and_first_row(capsys):
    assert main(["curve", "bloch-A-objective", "--points", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# hilbertnorm 0.1.0"
    assert lines[1].startswith("# config: tolerance=1e-08")
    assert lines[2] == "# bloch-A-objective"
    assert lines[3] == "r,value"
    assert lines[4] == "0,0.5"


def test_curve_hinf_objective_starts_at_one(capsys):
    assert main(["curve", "hinf-objective", "--points", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "r,value"
    assert lines[4] == "0,1"


def test_curve_h1_sup_objective_starts_at_one(capsys):
    assert main(["curve", "h1-sup-objective", "--points", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "x,value"
    assert lines[4] == "0,1"


def test_curve_alpha_bounds_default_grid(capsys):
    assert main(["curve", "alpha-bounds"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "alpha,lower,upper"
    data = lines[4:]
    assert len(data) == len(DEFAULT_ALPHA_GRID)
    assert float(data[0].split(",")[0]) == pytest.approx(1.1)


def test_curve_alpha_bounds_points_override(capsys):
    assert main(["curve", "alpha-bounds", "--points", "5"]) == 0
    data = capsys.readouterr().out.splitlines()[4:]
    assert len(data) == 5
    first = [float(v) for v in data[0].split(",")]
    last = [float(v) for v in data[-1].split(",")]
    assert first[0] == pytest.approx(1.1)
    assert last[0] == pytest.approx(1.9)


def test_curve_json_payload(capsys):
    assert main(["curve", "alpha-bounds", "--format", "json",
                 "--points", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "0.1.0"
    assert payload["name"] == "alpha-bounds"
    assert payload["columns"] == ["alpha", "lower", "upper"]
    assert payload["config"]["output_format"] == "json"
    assert len(payload["rows"]) == 3
    mid = payload["rows"][1]
    assert mid[0] == pytest.approx(1.5)
    assert mid[1] == pytest.approx(math.pi / 2.0 - 0.5, abs=1e-12)
    assert mid[2] == pytest.approx(math.pi + 2.0, abs=1e-12)


@pytest.mark.parametrize("name", [
    "bloch-A-objective", "bloch-B-objective", "h1-sup-objective",
    "hinf-sup-objective", "hinf-objective"])
def test_curve_default_points_is_512(capsys, name):
    assert main(["curve", name]) == 0
    default = capsys.readouterr().out
    assert main(["curve", name, "--points", "512"]) == 0
    assert default == capsys.readouterr().out


def test_curve_row_counts(capsys):
    # a unit-radius curve drops the radii that saturate at the largest
    # double below 1: 512 points give 450 rows
    assert main(["curve", "bloch-A-objective"]) == 0
    assert len(capsys.readouterr().out.splitlines()[4:]) == 450
    # a half-line curve always keeps its 128-point log tail past x = 10
    # (and at least 16 points on [0, 10])
    assert main(["curve", "h1-sup-objective", "--points", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()[4:]) == 144
    assert main(["curve", "h1-sup-objective"]) == 0
    assert len(capsys.readouterr().out.splitlines()[4:]) == 512


def test_curve_output_is_deterministic(capsys):
    assert main(["curve", "bloch-B-objective", "--points", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["curve", "bloch-B-objective", "--points", "8"]) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# tables


def test_table_norm_summary(capsys):
    assert main(["table", "norm-summary"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "source,target,lower,upper,exact"
    data = lines[4:]
    assert data[0] == "B,B_log,1.5,1.5,1.5"
    assert data[1] == "Hinf,Hinf_log,1,1,1"
    # the H^1 row carries only bounds; exact value is unknown (empty cell)
    assert data[2] == ("H1,H1_log,3.1415926535897931,"
                       "6.2831853071795862,")
    assert len(data) == 3 + len(DEFAULT_ALPHA_GRID)
    assert data[3].startswith("B^1.1,B^1.1_log,")


def test_table_norm_summary_json_null_exact(capsys):
    assert main(["table", "norm-summary", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][2][4] is None
    assert payload["rows"][0][4] == 1.5


def test_table_ic_bound_grid_all_within(capsys):
    assert main(["table", "ic-bound-grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "c,r,value,compared,lower,upper,within"
    data = lines[4:]
    assert len(data) == 28
    assert all(row.endswith(",true") for row in data)


def test_table_unboundedness_witnesses(capsys):
    assert main(["table", "unboundedness-witnesses"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "alpha,j,r,value"
    data = lines[4:]
    assert len(data) == 60
    assert data[0].startswith("0.5,1,0.5,")
    # per-witness values grow down each block of twenty rows
    vals = [float(row.split(",")[3]) for row in data[:20]]
    assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# config files


def test_config_file_applies(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerance": 1e-6, "truncation": 64}))
    assert main(["curve", "alpha-bounds", "--format", "json",
                 "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["tolerance"] == 1e-6
    assert payload["config"]["truncation"] == 64


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"output_format": "csv"}))
    assert main(["curve", "alpha-bounds", "--format", "json",
                 "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["output_format"] == "json"


def test_config_file_alpha_grid(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha_grid": [1.2, 1.4]}))
    assert main(["curve", "alpha-bounds", "--config", str(path)]) == 0
    data = capsys.readouterr().out.splitlines()[4:]
    assert len(data) == 2


def test_config_file_unknown_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["curve", "alpha-bounds", "--config", str(path)]) == 2
    assert "unknown config keys: bogus" in capsys.readouterr().err


def test_config_file_malformed(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["curve", "alpha-bounds", "--config", str(path)]) == 2


@pytest.mark.parametrize("raw, message", [
    ({"alpha_grid": 1.5}, "alpha_grid must be a list"),
    ({"tolerance": "abc"}, "tolerance must be a number"),
    ({"truncation": None}, "truncation must be a number"),
])
def test_config_file_wrong_type(tmp_path, capsys, raw, message):
    # a wrong JSON type is a usage error (exit 2), not a failed check (1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_config_file_missing(tmp_path, capsys):
    assert main(["curve", "alpha-bounds",
                 "--config", str(tmp_path / "absent.json")]) == 2


# ---------------------------------------------------------------------------
# verify reporting (with fabricated reports; the real checks run in the
# acceptance suite)


def _fake_reports(reports):
    def fake_run_all(tol, truncation, seed, alpha_grid):
        return reports
    return fake_run_all


def _fake_report(name, computed, target, passed, text, partial=None,
                 fact="value"):
    """A fabricated report of one fact, named fact, with the given verdict
    and text."""
    return CheckReport(name, computed, target, 1e-8, (
        Fact(fact, computed, target, 1e-8, passed, text),), partial)


def test_cmd_verify_all_pass(monkeypatch):
    reports = [
        _fake_report("a", 1.0, 1.0, True, "da"),
        _fake_report("b", 2.0, (1.0, 3.0), True, "db"),
    ]
    monkeypatch.setattr(cli, "run_all", _fake_reports(reports))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_verify(RunConfig(), out, err) == 0
    lines = out.getvalue().splitlines()
    assert lines[0] == "# hilbertnorm 0.1.0"
    assert lines[1].startswith("# config: ")
    assert lines[2] == "a,1,1,PASS"
    assert lines[3] == "b,2,(1..3),PASS"
    assert err.getvalue() == "# a: da\n# b: db\n"


def test_cmd_verify_failure_exits_1(monkeypatch):
    reports = [
        _fake_report("a", 1.0, 1.0, True, "da"),
        _fake_report("b", 9.0, 2.0, False, "db"),
    ]
    monkeypatch.setattr(cli, "run_all", _fake_reports(reports))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_verify(RunConfig(), out, err) == 1
    assert "b,9,2,FAIL" in out.getvalue()
    assert err.getvalue() == "# a: da\n# b: FAILED value: db\n"


def test_cmd_verify_nonconvergence_exits_3(monkeypatch):
    reports = [
        _fake_report("a", math.nan, 1.0, False, "quadrature stalled",
                     fact="numerical non-convergence"),
    ]
    monkeypatch.setattr(cli, "run_all", _fake_reports(reports))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_verify(RunConfig(), out, err) == 3
    assert ",FAIL" in out.getvalue()


def test_cmd_verify_shows_the_partial_result_on_stderr(monkeypatch):
    # a non-convergent check's partial result goes on its stderr line;
    # stdout and the exit code are those of a report without one
    from hilbertnorm.quadrature import QuadResult

    reports = [
        _fake_report(name, math.nan, math.nan, False, text, partial,
                     fact="numerical non-convergence")
        for name, text, partial in (
            ("a", "da", QuadResult(1.25, 3e-7, 465)),
            ("b", "db", [(9.0, 12.5), (10.0, 140.0)]),
            ("c", "dc", None))
    ]
    monkeypatch.setattr(cli, "run_all", _fake_reports(reports))
    out, err = io.StringIO(), io.StringIO()
    assert cmd_verify(RunConfig(), out, err) == 3
    assert out.getvalue().splitlines()[2:] == ["a,nan,nan,FAIL", "b,nan,nan,FAIL",
                                                "c,nan,nan,FAIL"]
    assert err.getvalue().splitlines() == [
        "# a: FAILED numerical non-convergence: da; partial result: value 1.25, "
        "error estimate 3.000e-07",
        "# b: FAILED numerical non-convergence: db; partial result: divergence "
        "witness of 2 points, last (10, 140)",
        "# c: FAILED numerical non-convergence: dc",
    ]
