"""Suite runner, report serialization, sweeps, CLI behavior."""

import json
import subprocess
import sys
import time

import pytest

from ccrlab import reports
from ccrlab.cli import main
from ccrlab.reports import RunConfig, run_suite


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ccrlab", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def test_config_validation_errors():
    for bad in (
        RunConfig(suite="nope"),
        RunConfig(suite="fock", dim=0),
        RunConfig(suite="fock", dim=1),  # suites need the off-artifact block
        RunConfig(suite="fock", k_max=0),
        RunConfig(suite="fock", fmt="yaml"),
        RunConfig(suite="irregular", interval_a=2.0, interval_b=1.0),
        RunConfig(suite="schrodinger", scheme="upwind"),
        RunConfig(suite="weyl", t=float("nan")),
        RunConfig(suite="weyl", s=float("inf")),
        RunConfig(suite="schrodinger", grid_l=float("inf")),
        RunConfig(suite="irregular", interval_a=float("-inf")),
        RunConfig(suite="irregular", interval_b=float("nan")),
        RunConfig(suite="analytic", k_max=128),  # the Taylor check runs at dim 128
        RunConfig(suite="all", k_max=300),
        RunConfig(suite="analytic", dim=48),  # random vectors reach mode 8: 8 + 40 + 1 > 48
        RunConfig(suite="weyl", dim=2049),  # past the largest dense dim x dim array
        RunConfig(suite="all", dim=10**6),
        RunConfig(suite="schrodinger", grid_m=2049),  # past the largest dense m x m circulant
        RunConfig(suite="irregular", interval_m=10**6),
        RunConfig(suite="all", grid_m=10**6),
    ):
        with pytest.raises(ValueError):
            bad.validate()
    for good in (
        RunConfig(suite="analytic", k_max=127),
        RunConfig(suite="analytic", dim=49),
        RunConfig(suite="fock", k_max=300),  # k_max is read by the analytic suite only
        RunConfig(suite="fock", dim=2048),
        RunConfig(suite="schrodinger", dim=10**6),  # builds nothing of size dim
        RunConfig(suite="analytic", dim=4096),  # applies the tridiagonal q and p only
        RunConfig(suite="schrodinger", grid_m=2048),
        RunConfig(suite="fock", grid_m=10**6, interval_m=10**6),  # read by other suites only
    ):
        good.validate()


def test_fock_suite_passes():
    report = run_suite(RunConfig(suite="fock", dim=32))
    assert report.failed == []
    assert all(c.status in ("pass", "flagged") for c in report.checks)


def test_symbolic_suite_flags_annihilator_norm():
    report = run_suite(RunConfig(suite="symbolic"))
    assert report.failed == []
    flagged = {c.name: c for c in report.checks if c.status == "flagged"}
    assert "annihilator_norm" in flagged
    assert flagged["annihilator_norm"].measured == 96


def test_weyl_suite_passes_and_flags_repair():
    report = run_suite(RunConfig(suite="weyl", dim=32))
    assert report.failed == []
    assert any(c.name == "exp_commutator_form_repaired" and c.status == "flagged" for c in report.checks)


def test_checks_sorted_and_carry_relations():
    report = run_suite(RunConfig(suite="fock", dim=16))
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert all(c.relation for c in report.checks)


def test_report_json_schema():
    report = run_suite(RunConfig(suite="symbolic"))
    obj = report.to_json_obj()
    assert obj["schema"] == 1
    assert obj["suite"] == "symbolic"
    assert {"name", "relation", "status", "measured", "tolerance", "detail"} == set(obj["checks"][0])
    json.dumps(obj)  # must be serializable


def test_report_csv_and_text():
    report = run_suite(RunConfig(suite="fock", dim=16))
    csv_text = report.to_csv()
    assert csv_text.startswith("name,relation,status,measured,tolerance\n")
    text = report.to_text()
    assert "checks:" in text.splitlines()[-1]


def test_failed_check_does_not_abort(monkeypatch):
    col = reports._Collector()

    def boom():
        raise RuntimeError("numeric failure")

    col.check("exploding", "some relation", boom, 1e-9)
    col.check("fine", "another relation", lambda: 0.0, 1e-9)
    assert [c.status for c in col.records] == ["fail", "pass"]
    assert "numeric failure" in col.records[0].detail


def test_setup_failure_is_recorded(capsys):
    # t = 0.3333333 has no grid-aligned interval sample count
    assert main(["irregular", "--t", "0.3333333", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["irregular.setup"]
    assert checks[0]["status"] == "fail"
    assert "no grid-aligned sample count" in checks[0]["detail"]
    report = run_suite(RunConfig(suite="all", t=0.3333333))
    assert [c.name for c in report.failed] == ["irregular.setup"]
    assert {c.name.split(".")[0] for c in report.checks} == set(reports.SUITES)


def test_missing_measured_value_formats(capsys):
    assert main(["irregular", "--t", "0.3333333"]) == 1
    assert "[FAIL   ] irregular.setup: n/a  |  suite set-up" in capsys.readouterr().out
    assert main(["irregular", "--t", "0.3333333", "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "irregular.setup,suite set-up,fail,,"


def test_run_suite_determinism_in_process():
    cfg = lambda: RunConfig(suite="symbolic", seed=3)
    r1, r2 = run_suite(cfg()), run_suite(cfg())
    o1, o2 = r1.to_json_obj(), r2.to_json_obj()
    o1.pop("wall_time_s"), o2.pop("wall_time_s")
    assert json.dumps(o1) == json.dumps(o2)


def test_sweep_dims_rows():
    text = reports.sweep_dims([16, 32], [0.5], [0.5])
    lines = text.strip().split("\n")
    assert lines[0] == "t,s,dim,guard,support,residual,status"
    assert len(lines) == 3
    assert all(line.endswith("ok") for line in lines[1:])


def test_sweep_dims_reaches_16384_modes():
    # the sweep applies tridiagonal q and p, so no dense dim x dim array
    t, s, dim, guard, support, residual, status = reports.sweep_dims([16384], [0.5], [0.5]).split("\n")[1].split(",")
    assert (dim, guard, status) == ("16384", "4096", "ok")
    assert float(residual) <= 1e-8


def test_sweep_dims_empty_is_header_only():
    assert reports.sweep_dims([], [0.5], [0.5]).strip() == "t,s,dim,guard,support,residual,status"


def test_sweep_dims_bad_row_continues():
    text = reports.sweep_dims([0, 16], [0.5], [0.5])
    lines = text.strip().split("\n")
    assert "failed" in lines[1]
    assert lines[2].endswith("ok")


def test_sweep_interval_lengths():
    text = reports.sweep_interval_lengths([1.0, 5.0], 0.5, 0.5, m_target=64)
    lines = text.strip().split("\n")
    assert lines[0] == "length,weyl_residual,spectral_distance,status"
    assert len(lines) == 3


def test_cli_pass_exit_zero(tmp_path):
    out = tmp_path / "fock.json"
    proc = run_cli(["fock", "--dim", "32", "--format", "json", "--out", str(out)])
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["config"]["dim"] == 32


def test_cli_usage_error_dim_zero():
    proc = run_cli(["fock", "--dim", "0"])
    assert proc.returncode == 2
    assert "invalid dimension" in proc.stderr


def test_cli_usage_error_non_finite_parameter(capsys):
    assert main(["weyl", "--t", "nan", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "t must be finite" in captured.err
    assert captured.out == ""


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_non_finite_measured_value_is_valid_json(capsys):
    col = reports._Collector()
    col.check("nan_value", "some relation", lambda: float("nan"), 1e-9)
    col.check("inf_flagged", "another relation", lambda: float("inf"), flagged=True)
    report = reports.Report("weyl", RunConfig(suite="weyl").echo(), col.records)
    checks = _strict_json(report.to_json())["checks"]
    assert [(c["measured"], c["status"]) for c in checks] == [("nan", "fail"), ("inf", "fail")]

    # a finite t whose exponentials would need ~1e201 Taylor steps
    start = time.perf_counter()
    assert main(["weyl", "--t", "1e200", "--format", "json"]) == 1
    assert time.perf_counter() - start < 30.0
    failed = [c for c in _strict_json(capsys.readouterr().out)["checks"] if c["status"] == "fail"]
    assert failed and all("Taylor steps" in c["detail"] for c in failed)


def test_cli_usage_error_kmax_beyond_analytic_suite(capsys):
    assert main(["analytic", "--kmax", "300"]) == 2
    captured = capsys.readouterr()
    assert "k_max 300 exceeds 127" in captured.err
    assert captured.out == ""


def test_cli_usage_error_dim_beyond_dense_limit(capsys):
    start = time.perf_counter()
    assert main(["fock", "--dim", "1000000"]) == 2
    assert time.perf_counter() - start < 1.0  # refused before any allocation
    captured = capsys.readouterr()
    assert "dim 1000000 exceeds 2048" in captured.err
    assert captured.out == ""


def test_cli_usage_error_grid_beyond_dense_limit(capsys):
    start = time.perf_counter()
    assert main(["schrodinger", "--grid", "10,1000000,spectral"]) == 2
    assert time.perf_counter() - start < 1.0  # refused before the m x m circulant
    captured = capsys.readouterr()
    assert "grid_m 1000000 exceeds 2048" in captured.err
    assert captured.out == ""


def test_cli_usage_error_unknown_suite():
    proc = run_cli(["everything"])
    assert proc.returncode == 2


def test_cli_sweep_modes():
    proc = run_cli(["sweep", "--dims", "16,32"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,s,dim,guard,support,residual,status")
    proc = run_cli(["sweep"])
    assert proc.returncode == 2


def test_cli_text_output_in_process(capsys):
    code = main(["symbolic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "suite: symbolic" in captured.out
    assert "FLAGGED" in captured.out


def test_cli_csv_format_in_process(capsys):
    code = main(["fock", "--dim", "16", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("name,relation,status,measured,tolerance")
