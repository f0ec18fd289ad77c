"""Independent oracles for every workload operation, and their scoring.

An oracle rule is (kind, expect, tol):
  "eq"     values == expect exactly;
  "le"     every value is finite and |value| <= tol;
  "near"   len(values) == len(expect), each finite and within tol of its
           expected value;
  "finite" expect finite values, in nondecreasing order.
An operation fails if it raised, is missing, has no rule, or breaks its
rule; the harness counts failures against attempts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import inputs

# The 79 checks of `ccr-lab all` and its documented findings, as at the
# commit the benchmark was defined on.
REPORT_CHECK_COUNT = 79
REPORT_FLAGGED = (
    "analytic.iterated_power_bound_breakdown",
    "analytic.single_power_bound_constant",
    "symbolic.annihilator_norm",
    "weyl.exp_commutator_form_repaired",
)
# The suites' own tolerances for these residuals.
WEYL_TOL = 1e-8
SHIFT_TOL = 1e-7
OSCILLATOR_TOL = 1e-4
INTERVAL_REFINEMENT_TOL = 1e-6
WORD_TOL = 1e-12


def expectations(workload: str) -> tuple[dict, tuple | None]:
    """(rules for the operations that must appear, rule for any other)."""
    if workload == "report_all":
        table = {name: ("eq", ["flagged"], None) for name in REPORT_FLAGGED}
        table["report.exit_code"] = ("eq", [0], None)
        table["report.check_count"] = ("eq", [REPORT_CHECK_COUNT], None)
        return table, ("eq", ["pass"], None)
    if workload == "dense_reach":
        table = {}
        for d in inputs.DENSE_DIMS:
            table[f"weyl_residual.d{d}"] = ("le", None, WEYL_TOL)
            table[f"shift_identity_residual.d{d}"] = ("le", None, SHIFT_TOL)
        levels = [2.0 * k + 1.0 for k in range(inputs.SPECTRUM_COUNT)]
        for m in inputs.DENSE_GRID_M:
            table[f"grid_oscillator_spectrum.m{m}"] = ("near", levels, OSCILLATOR_TOL)
            table[f"interval_number_spectrum.m{m}"] = ("finite", inputs.SPECTRUM_COUNT, None)
        table["interval_number_spectrum.refinement"] = ("le", None, INTERVAL_REFINEMENT_TOL)
        return table, None
    if workload == "exact_proofs":
        table = {}
        for n in range(1, inputs.Q_POWER_HALF_MAX + 1):
            # Gaussian moment <0|q^{2n}|0> = (2n-1)!!/2^n
            moment = Fraction(math.prod(range(1, 2 * n, 2)), 2**n)
            table[f"normal_order.q^{2 * n}"] = ("eq", [str(moment)], None)
        for n in range(1, inputs.COMMUTATOR_N_MAX + 1):
            table[f"verify_identity.n{n}"] = ("eq", [True], None)
        for n in range(1, inputs.CONJUGATION_N_MAX + 1):
            table[f"conjugation_series.n{n}"] = ("eq", [True] * (inputs.CONJUGATION_ORDER + 1), None)
        for n in range(inputs.FOCK_NORM_N_MAX + 1):
            table[f"fock_norm_exact.n{n}"] = ("eq", [str(math.factorial(n))], None)
        for k in range(inputs.WORD_COUNT):
            table[f"word.{k}"] = ("le", None, WORD_TOL)
        return table, None
    raise ValueError(f"unknown workload {workload!r}")


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
               for v in values)


def holds(rule: tuple, values: list) -> bool:
    kind, expect, tol = rule
    if kind == "eq":
        return values == expect
    if kind == "le":
        return bool(values) and _finite(values) and all(abs(v) <= tol for v in values)
    if kind == "near":
        return (len(values) == len(expect) and _finite(values)
                and all(abs(v - e) <= tol for v, e in zip(values, expect)))
    if kind == "finite":
        return (len(values) == expect and _finite(values)
                and all(a <= b for a, b in zip(values, values[1:])))
    raise ValueError(f"unknown oracle kind {kind!r}")


def score(records: list, table: dict, default: tuple | None) -> tuple[int, list]:
    """(operations attempted, names of the failed ones) for one process."""
    got = {r["op"]: r for r in records}
    failed = []
    ops = sorted(set(table) | set(got))
    for op in ops:
        rule = table.get(op, default)
        record = got.get(op)
        if rule is None or record is None or "values" not in record or not holds(rule, record["values"]):
            failed.append(op)
    return len(ops), failed


def wrong(rule: tuple) -> tuple:
    """A deliberately wrong version of an oracle rule, for the self-test."""
    kind, expect, tol = rule
    if kind == "eq":
        return kind, list(expect) + ["deliberately wrong"], tol
    if kind == "le":
        return kind, expect, -1.0
    if kind == "near":
        return kind, [e + 1.0 for e in expect], tol
    return kind, expect + 1, tol
