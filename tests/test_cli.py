import csv
import io
import json
import subprocess
import sys

import pytest

from levyfluct.cli import main
from conftest import child_env


MODEL_B = '{"gamma": 2.0, "sigma2": 2.0, "jumps": {"family": "cp_exp", "rate": 1.0, "jump_rate": 1.0}}'
BM = '{"gamma": 0.0, "sigma2": 1.0, "jumps": {"family": "none"}}'
BM_UP = '{"gamma": 1.0, "sigma2": 1.0, "jumps": {"family": "none"}}'
BOUNDED = '{"gamma": 1.0, "sigma2": 0.0, "jumps": {"family": "cp_exp", "rate": 1.0, "jump_rate": 1.0}}'


@pytest.fixture
def model_files(tmp_path):
    files = {}
    for name, text in [("b", MODEL_B), ("bm", BM), ("bm_up", BM_UP),
                       ("bounded", BOUNDED), ("broken", "{not json")]:
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        files[name] = str(p)
    return files


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_green_exits_zero(model_files, capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", model_files["b"],
                           "--deterministic")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "levy-fluct/1"
    assert report["summary"]["failed"] == 0
    assert "generatedAt" not in report


def test_validate_failure_exits_one(model_files, capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", model_files["bm"],
                           "--tol", "model.phi_inverse=1e-30", "--deterministic")
    assert code == 1
    assert json.loads(out)["summary"]["failed"] == 1


def test_validate_unknown_tolerance_is_usage_error(model_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--model", model_files["bm"], "--tol", "nope=1"])
    assert exc.value.code == 2


def test_validate_timestamp_only_without_deterministic(model_files, capsys):
    code, out, _ = run_cli(capsys, "validate", "--model", model_files["bm"])
    assert code == 0
    assert "generatedAt" in json.loads(out)


def test_deterministic_reports_byte_identical(model_files, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "validate", "--model", model_files["b"],
                             "--deterministic", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# model rejection
# ---------------------------------------------------------------------------


def test_bounded_variation_model_exits_two(model_files, capsys):
    code, _, err = run_cli(capsys, "validate", "--model", model_files["bounded"])
    assert code == 2
    assert "bounded variation" in err


def test_broken_json_exits_two(model_files, capsys):
    code, _, err = run_cli(capsys, "scale-table", "--model", model_files["broken"])
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--model", str(tmp_path / "gone.json"))
    assert code == 2
    assert "gone.json" in err


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_scale_table_matches_hyperbolic_sine(model_files, capsys):
    import math
    code, out, _ = run_cli(capsys, "scale-table", "--model", model_files["bm"],
                           "--qs", "2", "--xs", "0.5,1,2", "--format", "csv",
                           "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "x", "W", "Z", "Wprime", "method", "est_error"]
    for row in rows[1:]:
        x, w = float(row[1]), float(row[2])
        assert w == pytest.approx(math.sinh(2.0 * x), rel=1e-12)


def test_scale_table_json_roundtrips(model_files, capsys):
    code, out, _ = run_cli(capsys, "scale-table", "--model", model_files["b"],
                           "--deterministic")
    assert code == 0
    d = json.loads(out)
    assert d["schema"] == "levy-fluct/1"
    assert d["columns"][0] == "q"
    assert len(d["rows"][0]) == len(d["columns"])


def test_fluct_table_columns(model_files, capsys):
    code, out, _ = run_cli(capsys, "fluct-table", "--model", model_files["b"],
                           "--betas", "2.5", "--xs", "1", "--format", "csv",
                           "--deterministic")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["beta", "x", "resolvent", "h", "hitting", "passage",
                       "creeping", "survival"]
    assert float(rows[1][6]) == pytest.approx(0.2414277239783102, rel=1e-9)


def test_intensity_table_residual_gate(model_files, capsys):
    code, out, _ = run_cli(capsys, "intensity-table", "--model", model_files["b"],
                           "--betas", "0.1,0.5,2.5,10", "--deterministic")
    assert code == 0
    d = json.loads(out)
    assert d["withinTolerance"] is True
    # absurdly tight bound flips the exit code, output still emitted
    code, out, _ = run_cli(capsys, "intensity-table", "--model", model_files["b"],
                           "--betas", "0.1", "--tolerance", "1e-18",
                           "--deterministic")
    assert code == 1
    assert json.loads(out)["withinTolerance"] is False


def test_intensity_table_empty_betas_is_usage_error(model_files):
    with pytest.raises(SystemExit) as exc:
        main(["intensity-table", "--model", "x.json", "--betas", ""])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_report_keys(model_files, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", model_files["bm_up"],
                           "--estimator", "passage", "--xs", "1", "--qs", "2",
                           "--paths", "4000", "--dt", "1e-3", "--seed", "7",
                           "--deterministic")
    assert code == 0
    d = json.loads(out)
    assert d["estimator"] == "passage"
    r = d["results"][0]
    for key in ("estimate", "stderr", "target", "zscore", "dt", "paths", "seed"):
        assert key in r
    assert r["seed"] == 7
    assert abs(r["zscore"]) < 6.0


def test_simulate_reads_config_file(model_files, tmp_path, capsys):
    cfg = tmp_path / "mc.json"
    cfg.write_text('{"dt": 1e-3, "paths": 2000, "seed": 3, "horizon": 6.0, '
                   '"smallJumpMode": "GaussianCompensation"}')
    code, out, _ = run_cli(capsys, "simulate", "--model", model_files["bm"],
                           "--estimator", "upcross", "--xs", "1", "--qs", "2",
                           "--config", str(cfg), "--deterministic")
    assert code == 0
    r = json.loads(out)["results"][0]
    assert r["paths"] == 2000 and r["dt"] == 1e-3


def test_simulate_flag_overrides_config(model_files, tmp_path, capsys):
    cfg = tmp_path / "mc.json"
    cfg.write_text('{"dt": 1e-2, "paths": 2000, "horizon": 6.0}')
    code, out, _ = run_cli(capsys, "simulate", "--model", model_files["bm"],
                           "--estimator", "upcross", "--xs", "1", "--qs", "2",
                           "--config", str(cfg), "--paths", "1000",
                           "--deterministic")
    assert code == 0
    assert json.loads(out)["results"][0]["paths"] == 1000


@pytest.mark.parametrize("fields, name", [
    ('{"smallJumpCutoff": "0.1"}', "smallJumpCutoff"),
    ('{"horizon": "long"}', "horizon"),
    ('{"dt": null}', "dt"),
    ('{"paths": "many"}', "paths"),
    ('{"seed": 1.5}', "seed"),
    ('{"smallJumpMode": ["DriftOnly"]}', "smallJumpMode"),
    ('{"dtt": 1e-3}', "dtt"),
])
def test_simulate_rejects_malformed_config_field(model_files, tmp_path, capsys, fields, name):
    cfg = tmp_path / "mc.json"
    cfg.write_text(fields)
    code, _, err = run_cli(capsys, "simulate", "--model", model_files["bm"],
                           "--estimator", "upcross", "--xs", "1", "--qs", "2",
                           "--config", str(cfg), "--paths", "100", "--dt", "1e-2",
                           "--seed", "1", "--horizon", "6", "--deterministic")
    assert code == 2
    assert name in err


@pytest.mark.parametrize("flags, fields, name", [
    (("--paths", "0"), None, "paths"),
    ((), '{"dt": -1}', "dt"),
    (("--horizon", "1e-4", "--dt", "1e-3"), None, "horizon"),
])
def test_simulate_rejects_out_of_range_setting(model_files, tmp_path, capsys, flags, fields, name):
    argv = ["simulate", "--model", model_files["bm_up"], "--estimator", "upcross",
            "--xs", "1", "--qs", "2", *flags]
    if fields is not None:
        cfg = tmp_path / "mc.json"
        cfg.write_text(fields)
        argv += ["--config", str(cfg)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert name in err


def test_simulate_rejects_negative_seed(model_files, capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", model_files["bm_up"],
                           "--estimator", "upcross", "--xs", "1", "--qs", "2",
                           "--paths", "100", "--seed", "-1")
    assert code == 2
    assert "seed" in err


def test_simulate_without_horizon_on_zero_mean_fails_cleanly(model_files, capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", model_files["bm"],
                           "--estimator", "passage", "--xs", "1", "--qs", "2",
                           "--paths", "100", "--dt", "1e-2")
    assert code == 1
    assert "horizon" in err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_installed_script_runs(model_files):
    proc = subprocess.run(
        [sys.executable, "-m", "levyfluct.cli", "intensity-table",
         "--model", model_files["b"], "--betas", "2.5", "--format", "csv",
         "--deterministic"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("beta,total")
