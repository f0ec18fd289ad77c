"""Suite runner, report serialization, sweeps, CLI behavior."""

import collections
import inspect
import json
import pickle
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ccrlab import interval, reports, schrodinger, weyl
from ccrlab.cli import _config_from_args, build_parser, main
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
        RunConfig(suite="schrodinger", grid_l=1e200),  # x^2 overflows on the grid
        RunConfig(suite="schrodinger", grid_l=1e150),  # pi/h = 2e-148 < 1: the grid cannot resolve the oscillator
        RunConfig(suite="irregular", interval_a=float("-inf")),
        RunConfig(suite="irregular", interval_b=float("nan")),
        RunConfig(suite="analytic", k_max=128),  # the Taylor check runs at dim 128
        RunConfig(suite="all", k_max=300),
        RunConfig(suite="analytic", dim=48),  # random vectors reach mode 8: 8 + 40 + 1 > 48
        RunConfig(suite="all", dim=2**21),  # past the longest band of the fock suite
        RunConfig(suite="fock", dim=2**20 + 1),
        RunConfig(suite="schrodinger", grid_m=2049),  # past the largest dense m x m circulant
        RunConfig(suite="irregular", interval_m=10**6),
        RunConfig(suite="all", grid_m=10**6),
        RunConfig(suite="irregular", interval_m=2048, t=1 / 30000),  # aligning t gives m = 30000
        RunConfig(suite="all", interval_m=2048, t=0.001),  # aligned m = 3000
        RunConfig(suite="irregular", t=1 / 511),  # contrast interval (-2.5, 2.5) aligns at m = 2555
        RunConfig(suite="all", t=1 / 103),  # contrast interval (-10, 10) aligns at m = 2060
        RunConfig(suite="weyl", t=500.0),  # e^(itp) e_0 is Poisson with mean 1.25e5: far past mode 63
        RunConfig(suite="all", t=1e200),
        RunConfig(suite="weyl", t=6.0, s=6.0, dim=64),  # mean 36: its tail is above 1e-8 at mode 63
        RunConfig(suite="irregular", t=0.0),  # U_t needs 0 < t < length on every interval built
        RunConfig(suite="all", t=-0.25),
        RunConfig(suite="irregular", interval_b=5.0, t=1.5),  # past the contrast interval of length 1
        RunConfig(suite="irregular", interval_b=1e-300),
        RunConfig(suite="irregular", t=0.3333333),  # aligns with no sample count
        RunConfig(suite="all", t=1e-8),
        RunConfig(suite="sweep", k_max=0),  # a sweep takes every rule not tied to a suite
        RunConfig(suite="sweep", interval_m=4096),
        RunConfig(suite="sweep", scheme="upwind"),
        RunConfig(suite="fock", seed=-1),  # seeds are read mod 2^64: outside [0, 2^64) they alias
        RunConfig(suite="all", seed=2**64),
    ):
        with pytest.raises(ValueError):
            bad.validate()
    for bad in (RunConfig(suite="all", grid_l=1e150),
                RunConfig(suite="irregular", interval_a=-1e308, interval_b=1e308)):
        with pytest.raises(schrodinger.GridResolutionError):
            bad.validate()
    for good in (
        RunConfig(suite="analytic", k_max=127),
        RunConfig(suite="analytic", dim=49),
        RunConfig(suite="fock", k_max=300),  # k_max is read by the analytic suite only
        RunConfig(suite="fock", dim=2048),
        RunConfig(suite="fock", dim=2**20),  # the fock suite stores its operators as bands
        RunConfig(suite="all", dim=10**6),
        RunConfig(suite="schrodinger", dim=10**6),  # builds nothing of size dim
        RunConfig(suite="analytic", dim=4096),  # applies the tridiagonal q and p only
        # the weyl suite applies q and p on its vectors' mode window: no array of side dim
        RunConfig(suite="weyl", dim=2049),
        RunConfig(suite="weyl", t=6.0, s=6.0, dim=128),
        RunConfig(suite="fock", t=500.0),  # t is read by other suites only
        RunConfig(suite="schrodinger", grid_m=2048),
        RunConfig(suite="schrodinger", grid_m=8),  # h = 2.5: coarse, so checks fail, but pi/h > 1
        RunConfig(suite="fock", grid_l=1e150),  # the grid is read by other suites only
        RunConfig(suite="fock", grid_m=10**6, interval_m=10**6),  # read by other suites only
        RunConfig(suite="fock", interval_m=2048, t=1 / 30000),
        RunConfig(suite="fock", t=1 / 511),
        RunConfig(suite="irregular", t=1 / 102),  # every contrast interval aligns at m <= 2048
        RunConfig(suite="sweep", t=0.3333333),  # a sweep runs no suite: its rows align t
        RunConfig(suite="sweep", dim=2**21, grid_m=10**6, grid_l=1e150),
        RunConfig(suite="fock", t=0.0),  # t is read by other suites only
        RunConfig(suite="irregular", interval_b=5.0, t=0.75),
        RunConfig(suite="fock", seed=2**64 - 1),
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


def test_config_echo_and_check_keys_keep_their_order():
    # the JSON report writes these dicts as they are, so their key order is part of the format
    echo = RunConfig(seed=7, out="report.json").echo()
    assert list(echo) == ["suite", "dim", "t", "s", "k_max", "grid_l", "grid_m", "scheme", "interval_a",
                          "interval_b", "interval_m", "seed", "fmt"]
    assert (echo["suite"], echo["dim"], echo["seed"], echo["fmt"]) == ("all", None, 7, "text")
    record = reports.CheckRecord("c", "r", "pass", 0.5)
    checks = reports.Report("fock", echo, [record]).to_json_obj()["checks"]
    assert checks == [{"name": "c", "relation": "r", "status": "pass", "measured": 0.5, "tolerance": None,
                       "detail": None}]
    assert list(checks[0]) == ["name", "relation", "status", "measured", "tolerance", "detail"]
    assert reports.Report("fock", echo).checks == []


def test_import_leaves_out_dataclasses_and_copy():
    # in a fresh interpreter: pytest and hypothesis import both modules into this one
    code = ("import sys, numpy; before = set(sys.modules); import ccrlab, ccrlab.cli; "
            "print(sorted({'dataclasses', 'copy'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_report_csv_and_text():
    report = run_suite(RunConfig(suite="fock", dim=16))
    csv_text = report.to_csv()
    assert csv_text.startswith("name,relation,status,measured,tolerance\n")
    text = report.to_text()
    assert "checks:" in text.splitlines()[-1]


def test_failed_check_does_not_abort():
    def boom():
        raise RuntimeError("numeric failure")

    records = [
        reports.Check("exploding", "some relation", boom, tolerance=1e-9).run(),
        reports.Check("fine", "another relation", lambda: 0.0, tolerance=1e-9).run(),
    ]
    assert [c.status for c in records] == ["fail", "pass"]
    assert "numeric failure" in records[0].detail


def test_check_declares_exactly_one_criterion():
    for criteria in ({}, {"tolerance": 1e-9, "flagged": True}, {"tolerance": 0.0, "holds": bool},
                     {"holds": bool, "verdict": True}, {"verdict": True, "flagged": True}):
        with pytest.raises(ValueError, match="exactly one of tolerance, holds, verdict and flagged"):
            reports.Check("c", "r", lambda: 0.0, **criteria)
    run = lambda measure, **criterion: reports.Check("c", "r", measure, **criterion).run()
    assert [run(lambda: x, tolerance=0.0).status for x in (0.0, 1e-9)] == ["pass", "fail"]
    assert [run(lambda: x, holds=lambda v: v > 0.5).status for x in (0.7, 0.3)] == ["pass", "fail"]
    assert [run(lambda: ("n!", ok), verdict=True).status for ok in (True, False)] == ["pass", "fail"]
    assert run(lambda: 3.42, flagged=True).status == "flagged"
    held = run(lambda: 0.7, holds=lambda v: v > 0.5)
    assert (held.measured, held.tolerance) == (0.7, None)
    # numpy scalars are reported as the Python numbers they hold
    assert [type(run(lambda: x, tolerance=1.0).measured) for x in (np.float64(0.25), np.int64(0))] == [float, int]


def test_shared_values_are_computed_once(monkeypatch):
    calls = collections.Counter()

    def counted(fn):
        def call(*args, **kwargs):
            calls[fn.__name__, pickle.dumps((args, sorted(kwargs.items())))] += 1
            return fn(*args, **kwargs)

        return call

    counted_names = ((weyl, "weyl_residual"), (weyl, "exp_commutator_residual"),
                     (schrodinger, "vacuum_sign_check"), (schrodinger, "vacuum_annihilation_residual"),
                     (schrodinger, "intertwiner_check"), (interval, "interval_weyl_residual"))
    for module, name in counted_names:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    run_suite(RunConfig(suite="all", seed=7))
    assert {name for name, _ in calls} == {name for _, name in counted_names}
    assert [name for (name, _), n in calls.items() if n > 1] == []


def test_suite_table_holds_the_public_suite_functions():
    # perfbench's tracer rebinds every public function of ccrlab to a traced wrapper, then
    # finds each suite's wrapper by the identity of its _SUITE_FUNCS entry
    for name in reports.SUITES:
        fn = reports._SUITE_FUNCS[name]
        assert fn is getattr(reports, f"{name}_suite")
        assert inspect.isfunction(fn) and fn.__module__ == "ccrlab.reports"
        records = fn(RunConfig(suite=name, seed=7))
        assert records and all(isinstance(r, reports.CheckRecord) for r in records)
        assert [r.name for r in records if "." in r.name] == []


def test_run_config_states_the_suites_a_command_runs():
    assert RunConfig(suite="all").suites() == reports.SUITES
    assert RunConfig(suite="sweep").suites() == ()
    assert [RunConfig(suite=name).suites() for name in reports.SUITES] == [(name,) for name in reports.SUITES]


def _failing_irregular_setup(monkeypatch):
    # a set-up that raises as the irregular suite's would for a t that aligns nowhere;
    # RunConfig.validate refuses such a t, so the suite table entry is replaced
    raising = lambda config: interval.aligned_spec(0.0, 1.0, 0.3333333, 256)
    monkeypatch.setitem(reports._SUITE_FUNCS, "irregular", raising)


def test_setup_failure_is_recorded(capsys, monkeypatch):
    _failing_irregular_setup(monkeypatch)
    assert main(["irregular", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == ["irregular.setup"]
    assert checks[0]["status"] == "fail"
    assert "no grid-aligned sample count" in checks[0]["detail"]
    report = run_suite(RunConfig(suite="all"))
    assert [c.name for c in report.failed] == ["irregular.setup"]
    assert {c.name.split(".")[0] for c in report.checks} == set(reports.SUITES)


def test_missing_measured_value_formats(capsys, monkeypatch):
    _failing_irregular_setup(monkeypatch)
    assert main(["irregular"]) == 1
    assert "[FAIL   ] irregular.setup: n/a  |  suite set-up" in capsys.readouterr().out
    assert main(["irregular", "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "irregular.setup,suite set-up,fail,,"


def test_run_suite_determinism_in_process():
    cfg = lambda: RunConfig(suite="symbolic", seed=3)
    r1, r2 = run_suite(cfg()), run_suite(cfg())
    o1, o2 = r1.to_json_obj(), r2.to_json_obj()
    o1.pop("wall_time_s"), o2.pop("wall_time_s")
    assert json.dumps(o1) == json.dumps(o2)


_SWEEP = RunConfig(suite="sweep", t=0.5, s=0.5)


def test_sweep_dims_rows():
    text = reports.sweep_dims(_SWEEP, [16, 32])
    lines = text.strip().split("\n")
    assert lines[0] == "t,s,dim,support,residual,status"
    assert len(lines) == 3
    assert all(line.endswith("ok") for line in lines[1:])


def test_sweep_dims_reaches_16384_modes():
    # the sweep applies tridiagonal q and p, so no dense dim x dim array
    t, s, dim, support, residual, status = reports.sweep_dims(_SWEEP, [16384]).split("\n")[1].split(",")
    assert (dim, support, status) == ("16384", "0", "ok")
    assert float(residual) <= 1e-8


def test_sweep_dims_reaches_a_million_modes():
    # the residual runs on the test vector's mode window, so no dim-length vector is built
    tracemalloc.start()
    try:
        start = time.perf_counter()
        row = reports.sweep_dims(_SWEEP, [1048576]).split("\n")[1].split(",")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, s, dim, support, residual, status = row
    assert (dim, support, status) == ("1048576", "0", "ok")
    assert float(residual) <= 1e-8
    assert elapsed < 1.0
    assert peak < 8 * 2**20  # one complex dim-vector would be 16 MiB


def test_weyl_suite_reach():
    # the block checks and residuals run on mode windows: dim 2**20 gives the checks of dim 64
    want = [(c.name, c.status) for c in run_suite(RunConfig(suite="weyl", dim=64)).checks]
    start = time.perf_counter()
    report = run_suite(RunConfig(suite="weyl", dim=2**20))
    assert time.perf_counter() - start < 2.0
    assert [(c.name, c.status) for c in report.checks] == want


def test_sweep_dims_empty_is_header_only():
    assert reports.sweep_dims(_SWEEP, []).strip() == "t,s,dim,support,residual,status"


def test_sweep_dims_bad_row_continues():
    text = reports.sweep_dims(_SWEEP, [0, 16])
    lines = text.strip().split("\n")
    assert "failed" in lines[1]
    assert lines[2].endswith("ok")


def test_cli_sweep_refuses_non_finite_t_and_s(capsys):
    for argv, message in (
        (["sweep", "--dims", "16", "--t", "nan"], "t must be finite, got nan"),
        (["sweep", "--dims", "16,32", "--s=-inf"], "s must be finite, got -inf"),
        (["sweep", "--interval-lengths", "1", "--t", "inf"], "t must be finite, got inf"),
        (["sweep", "--interval-lengths", "1,5", "--s", "nan"], "s must be finite, got nan"),
        (["sweep", "--interval-lengths", "inf"], "length must be finite, got inf"),
        (["sweep", "--interval-lengths", "1,nan"], "length must be finite, got nan"),
        (["sweep", "--interval-lengths", "1", "--interval-m", "10"], "interval sample count must be at least 16"),
        (["sweep", "--interval-lengths", "1", "--interval-m", "0"], "interval sample count must be at least 16"),
        (["sweep", "--interval-lengths", "1", "--interval-m=-5"], "interval sample count must be at least 16"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # a dimension or a length that fails on its own stays a failed row
    assert main(["sweep", "--dims", "0,16"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "0.5,0.5,0,,,failed: ValueError"
    assert main(["sweep", "--interval-lengths", "1", "--t", "0.3333333"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "1.0,,,failed: ValueError"
    assert main(["sweep", "--interval-lengths", "0,-1"]) == 0
    assert capsys.readouterr().out.split("\n")[1:3] == ["0.0,,,failed: ZeroDivisionError", "-1.0,,,failed: ValueError"]


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    for argv, path in (
        (["fock", "--out"], tmp_path),
        (["fock", "--out"], tmp_path / "missing" / "x.json"),
        (["sweep", "--dims", "16", "--out"], tmp_path),
    ):
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ccr-lab: cannot write {path}: ")
    assert not (tmp_path / "missing").exists()


def test_cli_out_is_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def must_not_run(*args):
        raise AssertionError("ran before refusing --out")

    monkeypatch.setattr(reports, "run_suite", must_not_run)
    monkeypatch.setattr(reports, "sweep_dims", must_not_run)
    for argv, path in (
        (["all", "--out"], tmp_path),
        (["all", "--out"], tmp_path / "missing" / "r.json"),
        (["sweep", "--dims", "16", "--out"], tmp_path / "missing" / "r.csv"),
    ):
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ccr-lab: cannot write {path}: ")
    # a writable path is not created before the run, so a run that raises leaves no file
    def raising(config):
        raise RuntimeError("the suite raised")

    monkeypatch.setattr(reports, "run_suite", raising)
    with pytest.raises(RuntimeError, match="the suite raised"):
        main(["fock", "--out", str(tmp_path / "r.json")])
    assert not (tmp_path / "r.json").exists()


def test_cli_refuses_t_outside_an_interval_and_seeds_outside_64_bits(capsys):
    for argv, message in (
        (["all", "--t", "0"], "t=0.0 is outside 0 < t < 1.0, the length of the interval (0.0, 1.0) that the all suite"),
        (["irregular", "--interval", "0,5", "--t", "1.5"], "the interval (-0.5, 0.5) that the irregular suite"),
        (["fock", "--seed", "-1"], "seed -1 is outside 0 <= seed < 2^64"),
        (["fock", "--seed", str(2**64)], f"seed {2**64} is outside"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


def test_cli_odd_shift_counts_on_an_even_interval_pass():
    # shift counts 129 and 65 on even m: the FFT route must turn the Nyquist mode's sign as the shift does
    for argv in (["irregular", "--interval-m", "258"], ["irregular", "--t", "0.25", "--interval-m", "260"]):
        assert main(argv + ["--format", "json"]) == 0


def test_sweep_interval_lengths():
    text = reports.sweep_interval_lengths(RunConfig(suite="sweep", t=0.5, s=0.5, interval_m=64), [1.0, 5.0])
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
    records = [
        reports.Check("nan_value", "some relation", lambda: float("nan"), tolerance=1e-9).run(),
        reports.Check("inf_flagged", "another relation", lambda: float("inf"), flagged=True).run(),
    ]
    report = reports.Report("weyl", RunConfig(suite="weyl").echo(), records)
    checks = _strict_json(report.to_json())["checks"]
    assert [(c["measured"], c["status"]) for c in checks] == [("nan", "fail"), ("inf", "fail")]

    # a finite t whose exponentials no truncation can hold is refused before any step;
    # the kernel's own step refusal is test_expm_multiply_refuses_too_many_steps
    start = time.perf_counter()
    assert main(["weyl", "--t", "1e200", "--format", "json"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "past mode 63, the last mode at dim 64" in captured.err


def test_cli_usage_error_weyl_tail_beyond_dim(capsys):
    # e^(itp) e_0 at t = 500 is Poisson with mean 1.25e5: refused at once, not run for 16 s
    for argv in (["weyl", "--t", "500"], ["all", "--t", "500", "--dim", "2048"], ["weyl", "--s", "12", "--dim", "128"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        dim = int(argv[-1]) if "--dim" in argv else 64
        assert f"past mode {dim - 1}, the last mode at dim {dim}" in captured.err
        assert captured.out == ""


def test_cli_usage_error_kmax_beyond_analytic_suite(capsys):
    assert main(["analytic", "--kmax", "300"]) == 2
    captured = capsys.readouterr()
    assert "k_max 300 exceeds 127" in captured.err
    assert captured.out == ""


def test_cli_usage_error_dim_beyond_dense_limit(capsys):
    for suite, dim in (("fock", 2**20 + 1), ("all", 2**21)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main([suite, "--dim", str(dim)]) == 2
            assert time.perf_counter() - start < 1.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # refused before any allocation: one diagonal would be 8 MiB
        captured = capsys.readouterr()
        assert f"dim {dim} exceeds 1048576, the largest band length the {suite} suite builds" in captured.err
        assert captured.out == ""


def test_cli_fock_at_a_million_modes():
    # the fock suite reads its checks off band products: it runs at the band-length limit
    proc = run_cli(["fock", "--dim", "1048576", "--format", "json"])
    assert proc.returncode in (0, 1)
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 13 and all(c["measured"] is not None for c in checks)


def test_public_api_surface():
    import ccrlab

    assert sorted(ccrlab.__all__) == [
        "Band", "ConvergenceError", "ExactScalar", "FockState", "GridResolutionError", "IntervalRepSpec",
        "NORMALIZED", "NormalForm", "ParseError", "Report", "RunConfig", "SeriesOverflowError", "SeriesReport",
        "UNNORMALIZED", "WeylResidualRecord", "aligned_spec", "analytic", "analytic_series",
        "check_growth_bound", "closed_form_wrap_residual", "conjugation_series", "corrected_growth_bound",
        "exact", "exp_commutator_residual", "fock", "fock_norm_exact", "grid_momentum",
        "grid_oscillator_spectrum", "grid_points", "hermite_basis", "inner_product", "intertwiner_check",
        "interval", "interval_number_spectrum", "interval_vs_line_report", "interval_weyl_residual",
        "normal_order", "parse", "reports", "rng", "run_suite", "schrodinger", "shift_identity_residual",
        "symbolic", "taylor_exp", "vacuum_annihilation_residual", "vacuum_expectation", "vacuum_sign_check",
        "verify_identity", "weyl", "weyl_phase_check", "weyl_residual",
    ]


def test_cli_usage_error_grid_beyond_dense_limit(capsys):
    start = time.perf_counter()
    assert main(["schrodinger", "--grid", "10,1000000,spectral"]) == 2
    assert time.perf_counter() - start < 1.0  # refused before the m x m circulant
    captured = capsys.readouterr()
    assert "grid_m 1000000 exceeds 2048" in captured.err
    assert captured.out == ""


def test_cli_usage_error_grid_whose_square_overflows(capsys):
    assert main(["schrodinger", "--grid", "1e200,64,spectral"]) == 2
    captured = capsys.readouterr()
    assert "grid half-width 1e+200 has no finite square" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err
    # x^2 = 1e300 is finite, but the step 3.1e148 resolves no wavenumber up to the ground state's width 1
    assert main(["schrodinger", "--grid", "1e150,64,spectral", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert "grid L=1e+150, m=64 has step h=3.125e+148" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_cli_usage_error_aligned_interval_beyond_dense_limit(capsys):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["irregular", "--interval-m", "2048", "--t", "3.3333333333333335e-05"]) == 2
        assert time.perf_counter() - start < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # refused before the 30000 x 30000 interval operators
    captured = capsys.readouterr()
    assert "aligned interval_m 30000 exceeds 2048" in captured.err
    assert captured.out == ""


def test_cli_usage_error_contrast_interval_beyond_dense_limit(capsys):
    # the suite grid aligns at m = 511, the contrast intervals (-2.5, 2.5) and (-10, 10) at 2555 and 10220
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert main(["irregular", "--t", "0.0019569471624266144"]) == 2
        assert time.perf_counter() - start < 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # refused before the contrast intervals' number operators
    captured = capsys.readouterr()
    assert "aligned interval_m 2555 exceeds 2048" in captured.err
    assert "(-2.5, 2.5)" in captured.err
    assert captured.out == ""


def test_sweep_interval_lengths_beyond_dense_limit(capsys):
    start = time.perf_counter()
    assert main(["sweep", "--interval-lengths", "1", "--interval-m", "4096"]) == 2
    assert "interval_m 4096 exceeds 2048" in capsys.readouterr().err
    # t = 0.5 aligns with length 1500 first at m = 3000: that row fails, the next one runs
    text = reports.sweep_interval_lengths(RunConfig(suite="sweep", t=0.5, s=0.5, interval_m=256), [1500.0, 1.0])
    assert time.perf_counter() - start < 1.0
    lines = text.strip().split("\n")
    assert lines[1] == "1500.0,,,failed: ValueError"
    assert lines[2].endswith(",ok")


def test_cli_usage_error_unknown_suite():
    proc = run_cli(["everything"])
    assert proc.returncode == 2


def test_cli_sweep_writes_csv_only(capsys):
    assert main(["sweep", "--dims", "16,32"]) == 0
    csv_text = capsys.readouterr().out
    assert main(["sweep", "--dims", "16,32", "--format", "csv"]) == 0
    assert capsys.readouterr().out == csv_text
    for fmt in ("json", "text"):
        for argv in (["sweep", "--dims", "16"], ["sweep", "--interval-lengths", "1"]):
            assert main(argv + ["--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("ccr-lab: sweeps write CSV only: give --format csv or no --format, "
                                    f"not --format {fmt}\n")


def test_cli_defaults_are_run_config_defaults():
    # every option left out takes RunConfig's own default, field by field
    for suite in reports.SUITES + ("all",):
        config, want = _config_from_args(build_parser().parse_args([suite])), RunConfig(suite=suite)
        for name in RunConfig.__slots__:
            got, expected = getattr(config, name), getattr(want, name)
            assert (type(got), got) == (type(expected), expected), (suite, name)


def test_cli_grid_whose_step_underflows_is_a_usage_error(capsys):
    for suite in ("schrodinger", "all"):
        assert main([suite, "--grid", "5e-324,256,spectral"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ccr-lab: grid x_min=-5e-324, x_max=5e-324, m=256 has no positive finite step: "
                                "(x_max - x_min) / m underflows to 0\n")


def test_sweeps_validate_their_config():
    # each sweep refuses its config and any non-finite length before any row
    for sweep, config, values, message in (
        (reports.sweep_dims, RunConfig(suite="sweep", k_max=0), [16], "k_max must be positive"),
        (reports.sweep_interval_lengths, RunConfig(suite="sweep", t=float("nan")), [1.0], "t must be finite"),
        (reports.sweep_interval_lengths, RunConfig(suite="sweep", interval_m=4096), [1.0],
         "interval_m 4096 exceeds 2048, the largest side of a dense array$"),
        (reports.sweep_interval_lengths, _SWEEP, [1.0, float("inf")], "length must be finite, got inf"),
    ):
        with pytest.raises(ValueError, match=message):
            sweep(config, values)


_SWEEP_DIMS, _SWEEP_LENGTHS = ["sweep", "--dims", "16"], ["sweep", "--interval-lengths", "1"]


# One invocation per fault that RunConfig.validate refuses, for a suite and, where the rule
# applies to a sweep, for each sweep: every rule but the suite name and the format, which
# the parser refuses first.
@pytest.mark.parametrize("argv, message", [
    (["weyl", "--t", "nan"], "t must be finite, got nan"),
    (_SWEEP_DIMS + ["--t", "inf"], "t must be finite, got inf"),
    (["weyl", "--s=-inf"], "s must be finite, got -inf"),
    (_SWEEP_LENGTHS + ["--s", "nan"], "s must be finite, got nan"),
    (["schrodinger", "--grid", "inf,256,spectral"], "grid_l must be finite, got inf"),
    (_SWEEP_DIMS + ["--grid", "nan,256,spectral"], "grid_l must be finite, got nan"),
    (["irregular", "--interval=-inf,1"], "interval_a must be finite, got -inf"),
    (_SWEEP_LENGTHS + ["--interval=-inf,1"], "interval_a must be finite, got -inf"),
    (["irregular", "--interval", "0,nan"], "interval_b must be finite, got nan"),
    (_SWEEP_DIMS + ["--interval", "0,nan"], "interval_b must be finite, got nan"),
    (["fock", "--dim", "1"], "invalid dimension 1: suites need dim >= 2"),
    (_SWEEP_DIMS + ["--dim", "0"], "invalid dimension 0: suites need dim >= 2"),
    (["schrodinger", "--grid", "10,4,spectral"], "grid sample count must be at least 8"),
    (_SWEEP_DIMS + ["--kmax", "0", "--grid", "0,1,x"], "grid sample count must be at least 8"),
    (["irregular", "--interval-m", "10"], "interval sample count must be at least 16"),
    (_SWEEP_DIMS + ["--interval-m", "4"], "interval sample count must be at least 16"),
    (_SWEEP_LENGTHS + ["--interval-m", "10"], "interval sample count must be at least 16"),
    (["fock", "--dim", "1048577"], "dim 1048577 exceeds 1048576, the largest band length the fock suite builds"),
    (["schrodinger", "--grid", "10,4096,spectral"],
     "grid_m 4096 exceeds 2048, the largest side of a dense array the schrodinger suite builds"),
    (["all", "--interval-m", "4096"],
     "interval_m 4096 exceeds 2048, the largest side of a dense array the all suite builds"),
    (_SWEEP_DIMS + ["--interval-m", "4096"], "interval_m 4096 exceeds 2048, the largest side of a dense array"),
    (_SWEEP_LENGTHS + ["--interval-m", "4096"], "interval_m 4096 exceeds 2048, the largest side of a dense array"),
    (["fock", "--kmax", "0"], "k_max must be positive"),
    (_SWEEP_DIMS + ["--kmax", "0"], "k_max must be positive"),
    (_SWEEP_LENGTHS + ["--kmax", "-3"], "k_max must be positive"),
    (["analytic", "--kmax", "300"], "k_max 300 exceeds 127, the analytic suite's limit at dim 256"),
    (["analytic", "--dim", "12", "--kmax", "4"], "k_max 4 exceeds 3, the analytic suite's limit at dim 12"),
    # below dim 10 no k_max >= 1 fits: the least dim is named
    (["analytic", "--dim", "3", "--kmax", "1"],
     "dim 3 is below 10, the analytic suite's least dim: its random vectors reach mode 8"),
    (["all", "--dim", "2"], "dim 2 is below 10, the analytic suite's least dim: its random vectors reach mode 8"),
    (["weyl", "--t", "500"], "t=500.0, s=0.5 carry e^(itp) e^(isq) e_0 past mode 63, the last mode at dim 64: "
                            "its tail there (Poisson, mean 1.25e+05) is above 1e-08"),
    (["schrodinger", "--grid", "0,256,spectral"], "grid half-width must be positive"),
    (_SWEEP_LENGTHS + ["--grid=-1,256,spectral"], "grid half-width must be positive"),
    (["schrodinger", "--grid", "1e200,64,spectral"],
     "grid half-width 1e+200 has no finite square: x^2 overflows on the grid"),
    (_SWEEP_DIMS + ["--grid", "1e200,64,spectral"],
     "grid half-width 1e+200 has no finite square: x^2 overflows on the grid"),
    (["all", "--grid", "1e150,64,spectral"], "grid L=1e+150, m=64 has step h=3.125e+148: its largest wavenumber pi/h "
                                             "is below 1, the momentum width of the oscillator's ground state"),
    (["schrodinger", "--grid", "10,256,upwind"], "unknown scheme 'upwind'"),
    (_SWEEP_DIMS + ["--grid", "10,256,upwind"], "unknown scheme 'upwind'"),
    (["irregular", "--interval", "1,0"], "interval needs b > a"),
    (_SWEEP_LENGTHS + ["--interval", "1,0"], "interval needs b > a"),
    (["all", "--t", "0"],
     "t=0.0 is outside 0 < t < 1.0, the length of the interval (0.0, 1.0) that the all suite builds"),
    (["irregular", "--interval", "0,5", "--t", "1.5"],
     "t=1.5 is outside 0 < t < 1.0, the length of the interval (-0.5, 0.5) that the irregular suite builds"),
    (["irregular", "--t", "1e-8"], "no grid-aligned sample count near 256 for t=1e-08"),
    (["all", "--t", "0.3333333"], "no grid-aligned sample count near 256 for t=0.3333333"),
    (["irregular", "--interval-m", "2048", "--t", "3.3333333333333335e-05"],
     "aligned interval_m 30000 exceeds 2048, the largest side of a dense array: t=3.3333333333333335e-05 is a whole "
     "number of steps of (0.0, 1.0) first at m=30000"),
    (["all", "--t", "0.0019569471624266144"],
     "aligned interval_m 2555 exceeds 2048, the largest side of a dense array: t=0.0019569471624266144 is a whole "
     "number of steps of (-2.5, 2.5) first at m=2555"),
    (["irregular", "--interval=-1e308,1e308"],
     "grid x_min=-1e+308, x_max=1e+308, m=256 has no positive finite step: x_max - x_min overflows"),
    (["fock", "--seed", "-1"], "seed -1 is outside 0 <= seed < 2^64"),
    (_SWEEP_DIMS + ["--seed", str(2**64)], f"seed {2**64} is outside 0 <= seed < 2^64"),
    (_SWEEP_LENGTHS + ["--seed", "-2"], "seed -2 is outside 0 <= seed < 2^64"),
])
def test_cli_gate_refuses_each_fault(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ccr-lab: {message}\n"


def test_cli_suites_refuse_the_sweep_options(capsys):
    for argv in (["fock", "--dims", "abc"], ["all", "--interval-lengths", "1,5"], ["weyl", "--dims", "16"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ccr-lab")
        assert captured.err.endswith(f"\nccr-lab {argv[0]}: --dims and --interval-lengths are sweep options\n")


def test_cli_sweep_modes():
    proc = run_cli(["sweep", "--dims", "16,32"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("t,s,dim,support,residual,status")
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


def _report_file(path, checks):
    report = run_suite(RunConfig(suite="fock", dim=8, fmt="json"))
    obj = report.to_json_obj()
    obj["checks"] = checks(obj["checks"])
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_cli_diff_lists_moves_flips_and_added_checks(tmp_path, capsys):
    old = _report_file(tmp_path / "old.json", lambda checks: checks)
    assert main(["diff", old, old]) == 0
    out = capsys.readouterr().out.splitlines()
    n = len(json.loads(open(old).read())["checks"])
    assert out == [f"{n} -> {n} checks: 0 status flips, 0 measured values moved, 0 added, 0 removed"]

    def edit(checks):
        first, second = dict(checks[0]), dict(checks[1])
        first["measured"] = 0.25
        second["status"] = "fail"
        return [first, second] + checks[3:] + [{**checks[3], "name": "fock.new_check"}]

    new = _report_file(tmp_path / "new.json", edit)
    names = [c["name"] for c in json.loads(open(old).read())["checks"]]
    assert main(["diff", old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{names[0]}: measured ") and out[0].endswith(" -> 0.25")
    assert out[1] == f"{names[1]}: status pass -> fail"
    assert out[2].startswith("+ fock.new_check: pass, measured ")
    assert out[3].startswith(f"- {names[2]}: pass, measured ")
    assert out[4] == f"{n} -> {n} checks: 1 status flips, 1 measured values moved, 1 added, 1 removed"


def test_cli_diff_refuses_what_is_not_a_report(tmp_path, capsys):
    good = _report_file(tmp_path / "good.json", lambda checks: checks)
    cases = {
        "missing.json": None,
        "garbage.json": "{not json",
        "binary.json": b"\xff\xfe\x00",
        "list.json": "[1, 2]",
        "no_status.json": json.dumps({"checks": [{"name": "a", "measured": 1.0}]}),
        "repeat.json": json.dumps({"checks": [{"name": "a", "status": "pass", "measured": 1}] * 2}),
    }
    for name, content in cases.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content, encoding="utf-8")
        for argv in (["diff", good, str(path)], ["diff", str(path), good]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("ccr-lab diff: ") and name in captured.err
    proc = run_cli(["diff", good])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
