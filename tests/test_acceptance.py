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
from ccrlab.reports import RunConfig, run_suite
from ccrlab.suites import _word_text, random_fock_state, random_word
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
        q, p = fock.Band.position(d), fock.Band.momentum(d)
        c = (p @ q - q @ p).to_dense()
        block = c[: d - 1, : d - 1] + 1j * np.eye(d - 1)
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
        N = (fock.Band.creator(32) @ fock.Band.annihilator(32)).to_dense()
        vals = np.sort(np.linalg.eigvalsh(N))
        assert np.abs(vals - np.arange(32)).max() < 1e-12
        ev, vecs = np.linalg.eigh(N)
        for j in range(32):
            assert np.linalg.norm(N @ vecs[:, j] - ev[j] * vecs[:, j]) < 1e-12


def test_criterion_04_analytic_vector_criterion():
    with criterion(4, "series convergence on the dense domain"):
        d, k_max = 256, 40
        q, p = fock.Band.position(d), fock.Band.momentum(d)
        gen = SplitMix64(0)
        for _ in range(50):
            xi = random_fock_state(gen, 8)
            for t in (0.5, 1.0, 2.0):
                for op in (q, p):
                    assert analytic.analytic_series(op, xi, t, k_max).verdict == "converged"
        gen = SplitMix64(1)
        q64 = fock.Band.position(64)
        for _ in range(1000):
            mode = gen.randint(0, 8)
            k = gen.randint(0, 12)
            phi = random_fock_state(gen, mode)
            lhs, bound = analytic.check_growth_bound(q64, phi, k)
            assert lhs <= bound * (1 + 1e-12)


def test_criterion_05_taylor_vs_exponential():
    with criterion(5, "Taylor exponential matches the closed-form coherent state"):
        d = 128
        p = fock.Band.momentum(d)
        e0 = fock.FockState.basis_state(0)
        got = analytic.taylor_exp(1j * p, 1.0, e0, 60)
        # e^{ip} e_0 = e^{-1/4} sum_n (-1/sqrt2)^n / sqrt(n!) e_n
        want = [(-math.sqrt(0.5)) ** n * math.exp(-0.25 - 0.5 * math.lgamma(n + 1)) for n in range(d)]
        assert np.linalg.norm(got.coeffs - want) < 1e-8


def test_criterion_06_weyl_relation():
    with criterion(6, "Weyl relation residual and convergence"):
        e0 = fock.FockState.basis_state(0)
        rec = weyl.weyl_residual(0.5, 0.5, 64, e0)
        r64, r16 = rec.residual, weyl.weyl_residual(0.5, 0.5, 16, e0).residual
        assert r64 < 1e-8
        assert r64 <= r16 / 2
        assert rec.residual < rec.minus_residual
        assert rec.residual < 1e-8 and rec.minus_residual > 1e-3


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
            coeff, letters = random_word(gen, 6)
            expr = symbolic.parse(_word_text(coeff, letters))
            g = dim - max(len(letters) - letters.count("I"), 1)
            direct = symbolic.expr_to_matrix(expr, dim)
            assembled = symbolic.normal_order(expr).to_matrix(dim)
            assert np.abs(direct[:g, :g] - assembled[:g, :g]).max() < 1e-10


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "byte-identical reports for identical seeds"):
        def report(seed: int, name: str) -> dict:
            path = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "ccrlab", "all",
                    "--seed", str(seed), "--format", "json", "--out", str(path),
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(path.read_text())

        outs = [report(7, "first.json"), report(7, "second.json")]
        for payload in outs:
            payload.pop("wall_time_s")
        first, second = (json.dumps(o, indent=2) for o in outs)
        assert first == second
        # the report's structure is pinned: every check keeps its name,
        # status, relation, tolerance and detail across refactors, at seed 7
        # and at seeds 0 and 123, which take every seeded draw on other values
        keys = ("name", "status", "relation", "tolerance", "detail")
        for seed, payload in ((7, outs[0]), (0, report(0, "seed0.json")), (123, report(123, "seed123.json"))):
            golden = json.loads((Path(__file__).parent / "data" / f"all_seed{seed}_checks.json").read_text())
            assert [{k: c[k] for k in keys} for c in payload["checks"]] == golden, seed
            for c in payload["checks"]:
                if c["tolerance"] is not None:
                    assert c["measured"] <= c["tolerance"], (seed, c["name"])
