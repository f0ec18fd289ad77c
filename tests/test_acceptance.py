"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s, or via -v through
the per-test status).  Randomized criteria draw from the documented
SplitMix64 stream so the case sets are identical on every run.
"""

import json
import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ccrlab import analytic, fock, interval, schrodinger, symbolic, weyl
from ccrlab.reports import RunConfig, random_fock_state, random_word_source, run_suite
from ccrlab.rng import SplitMix64


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {num:02d} {label}: FAIL")
        raise
    print(f"[acceptance] {num:02d} {label}: PASS")


def test_criterion_01_ccr_identity():
    with criterion(1, "CCR identity at truncation"):
        d = 64
        c = fock.commutator(fock.build_momentum(d), fock.build_position(d))
        block = fock.truncation_safe_projection(c + 1j * np.eye(d), guard=1)
        assert np.abs(block).max() < 1e-12
        # artifact entry: -i * (-(d-1)) = i*(d-1), from [a, a†] = I with
        # bottom-right -(d-1)
        assert abs(c[d - 1, d - 1] - 1j * (d - 1)) < 1e-10


def test_criterion_02_fock_norms_exact():
    with criterion(2, "exact ladder norms with flagged naive value"):
        for n in range(11):
            assert symbolic.fock_norm_exact(n, "none") == math.factorial(n)
            assert symbolic.fock_norm_exact(n, "adag") == math.factorial(n + 1)
            assert symbolic.fock_norm_exact(n, "a") == n * math.factorial(n)
        report = run_suite(RunConfig(suite="symbolic"))
        flagged = {c.name: c for c in report.checks if c.status == "flagged"}
        assert "annihilator_norm" in flagged
        assert flagged["annihilator_norm"].measured == 96


def test_criterion_03_number_spectrum():
    with criterion(3, "number-operator spectrum and eigenvectors"):
        vals = fock.number_spectrum(32)
        assert np.abs(vals - np.arange(32)).max() < 1e-12
        ev, vecs = fock.number_eigensystem(32)
        N = fock.build_number(32)
        for j in range(32):
            assert np.linalg.norm(N @ vecs[:, j] - ev[j] * vecs[:, j]) < 1e-12


def test_criterion_04_analytic_vector_criterion():
    with criterion(4, "series convergence on the dense domain"):
        d, k_max = 256, 40
        q, p = fock.build_position(d), fock.build_momentum(d)
        gen = SplitMix64(0)
        for _ in range(50):
            xi = random_fock_state(gen, 8)
            for t in (0.5, 1.0, 2.0):
                for op in (q, p):
                    assert analytic.analytic_series(op, xi, t, k_max).verdict == "converged"
        gen = SplitMix64(1)
        q64 = fock.build_position(64)
        for _ in range(1000):
            mode = gen.randint(0, 8)
            k = gen.randint(0, 12)
            phi = random_fock_state(gen, mode)
            lhs, bound = analytic.check_growth_bound(q64, phi, k)
            assert lhs <= bound * (1 + 1e-12)


def test_criterion_05_taylor_vs_exponential():
    with criterion(5, "Taylor exponential matches the closed-form coherent state"):
        d = 128
        p = fock.build_momentum(d)
        e0 = fock.FockState.basis_state(0)
        got = analytic.taylor_exp(1j * p, 1.0, e0, 60)
        # e^{ip} e_0 = e^{-1/4} sum_n (-1/sqrt2)^n / sqrt(n!) e_n
        want = [(-math.sqrt(0.5)) ** n * math.exp(-0.25 - 0.5 * math.lgamma(n + 1)) for n in range(d)]
        assert np.linalg.norm(got.coeffs - want) < 1e-8


def test_criterion_06_weyl_relation():
    with criterion(6, "Weyl relation residual and convergence"):
        e0 = fock.FockState.basis_state(0)
        r64 = weyl.weyl_residual(0.5, 0.5, 64, None, e0).residual
        r16 = weyl.weyl_residual(0.5, 0.5, 16, None, e0).residual
        assert r64 < 1e-8
        assert r64 <= r16 / 2
        phases = weyl.weyl_phase_check(0.5, 0.5, 64, e0)
        assert phases["vanishing"] == "+ist"
        assert phases["plus_phase"] < 1e-8 and phases["minus_phase"] > 1e-3


def test_criterion_07_shift_identity():
    with criterion(7, "shift identity numerically and as exact series"):
        for n in (1, 2, 3):
            for t in (0.5, 1.0):
                assert weyl.shift_identity_residual(t, n, 128) < 1e-7
                assert weyl.shift_identity_residual(t, n, 512) < 1e-7
        for n in (1, 2, 3, 4):
            records = symbolic.conjugation_series(n, n)
            assert all(rec.equal for rec in records)


def test_criterion_08_commutation_identity():
    with criterion(8, "commutation identity exact to n = 10"):
        for n in range(1, 11):
            rhs = "-i*I" if n == 1 else f"-{n}*i*q^{n-1}"
            assert symbolic.verify_identity(f"[p,q^{n}]", rhs).equal


def test_criterion_09_schrodinger_representation():
    with criterion(9, "grid representation: vacuum, spectrum, intertwiner"):
        assert schrodinger.vacuum_annihilation_residual(10.0, 256) < 1e-6
        ev = schrodinger.grid_oscillator_spectrum(10.0, 256, count=6)
        assert np.abs(ev - np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])).max() < 1e-4
        assert schrodinger.intertwiner_check(10.0, 256, 8) < 1e-6


def test_criterion_10_irregular_representation():
    with criterion(10, "interval representation is quantitatively irregular"):
        spec = interval.IntervalRepSpec(0.0, 1.0, 256)
        r = interval.interval_weyl_residual(spec, 0.5, math.pi)
        oracle = interval.closed_form_wrap_residual(spec, 0.5, math.pi)
        assert abs(r - math.sqrt(2.0)) < 1e-8
        assert abs(r - oracle) < 1e-8
        r2 = interval.interval_weyl_residual(interval.IntervalRepSpec(0.0, 1.0, 512), 0.5, math.pi)
        assert abs(r2 - math.sqrt(2.0)) < 0.01 * math.sqrt(2.0)
        e256 = interval.interval_number_spectrum(spec, 3)
        e512 = interval.interval_number_spectrum(interval.IntervalRepSpec(0.0, 1.0, 512), 3)
        assert np.abs(e256 - e512).max() < 1e-6  # refinement oracle
        nearest = np.clip(np.round(e256), 0, None)
        assert np.min(np.abs(e256 - nearest)) > 0.05
        line = interval.interval_number_spectrum(interval.IntervalRepSpec(-20.0, 20.0, 1024), 3)
        assert np.abs(line - np.arange(3)).max() < 1e-2


def test_criterion_11_symbolic_numeric_homomorphism():
    with criterion(11, "normal forms assemble to the truncated matrices"):
        gen = SplitMix64(7)
        dim = 12
        for _ in range(200):
            src = random_word_source(gen, 6)
            expr = symbolic.parse(src)
            g = dim - max(symbolic.operator_word_length(expr), 1)
            direct = symbolic.expr_to_matrix(expr, dim)
            assembled = symbolic.normal_order(expr).to_matrix(dim)
            assert np.abs(direct[:g, :g] - assembled[:g, :g]).max() < 1e-10


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "byte-identical reports for identical seeds"):
        outs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "ccrlab", "all",
                    "--seed", "7", "--format", "json", "--out", str(path),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(path.read_text()))
        for payload in outs:
            payload.pop("wall_time_s")
        first, second = (json.dumps(o, indent=2) for o in outs)
        assert first == second
        # the report's structure is pinned: every check keeps its name,
        # status, relation, tolerance and detail across refactors
        keys = ("name", "status", "relation", "tolerance", "detail")
        golden = json.loads((Path(__file__).parent / "data" / "all_seed7_checks.json").read_text())
        assert [{k: c[k] for k in keys} for c in outs[0]["checks"]] == golden
        for c in outs[0]["checks"]:
            if c["tolerance"] is not None:
                assert c["measured"] <= c["tolerance"], c["name"]
