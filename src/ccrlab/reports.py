"""The run of a suite, of "all" or of a sweep, and its report.

RunConfig is a run's parameters and its one gate.  run_suite runs the
suites of suites._SUITE_FUNCS, names their records "<suite>.<check>" under
"all", and records a suite whose set-up raises as one failed
"<suite>.setup" check.  Every suite runs in the calling process.  Reports
are byte-identical across runs up to the wall-time field; _csv is the one
CSV writer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time

from . import fock, interval, schrodinger, weyl
from .suites import _SUITE_FUNCS, DOMAINS, CheckRecord

SUITES = ("fock", "analytic", "weyl", "schrodinger", "irregular", "symbolic")
SCHEMA_VERSION = 1

# Fock and weyl suites, the only ones that read dim: their dim when none is given.
_DEFAULT_DIM = 64
# Largest band length, 16 MiB per complex diagonal, and largest side of a
# dense square array (interval.MAX_DENSE_SIDE), each checked before any is
# allocated.  Each size with the least a run takes (and the message
# refusing less) and its largest, with the commands that build it: fock's
# band operators (dim), the grid oscillator's two parity blocks of side
# about m/2 (grid_m), the interval's N, two parity blocks on a centred
# interval and, on any other, x^2 columns or, where its block search
# gives up, one real matrix of side m + 1 (interval_m, after aligning t).
# The weyl suite applies q and p on mode windows.
_MAX_BAND_DIM = 2**20
_SIZE_LIMITS = {
    "dim": (2, "invalid dimension {}: suites need dim >= 2", _MAX_BAND_DIM, "band length", {"fock"}),
    "grid_m": (8, "grid sample count must be at least 8", interval.MAX_DENSE_SIDE, "side of a dense array",
               {"schrodinger"}),
    "interval_m": (16, "interval sample count must be at least 16", interval.MAX_DENSE_SIDE,
                   "side of a dense array", {"irregular", "sweep"}),
}


def _require_finite(name: str, *values: float) -> None:
    """ValueError naming the first non-finite value of the parameter name."""
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class RunConfig(fock._Frozen):
    """One run of a suite, of "all" or of a sweep, and its parameters, every
    default held by __init__; dim is read by the fock and weyl suites only.
    Valid by construction: __init__ runs the one gate of a run, its field
    rules, then suites.DOMAINS of each suite the command runs, and raises
    ValueError on the first fault.  Frozen as fock._Frozen: no field can be
    assigned, and every copy is rebuilt through __init__ and its gate."""

    __slots__ = ("suite", "dim", "t", "s", "k_max", "grid_l", "grid_m", "scheme", "interval_a", "interval_b",
                 "interval_m", "seed", "fmt")

    def __init__(self, suite: str = "all", dim: int | None = None, t: float = 0.5, s: float = 0.5,
                 k_max: int = 40, grid_l: float = 10.0, grid_m: int = 256, scheme: str = schrodinger.SPECTRAL,
                 interval_a: float = 0.0, interval_b: float = 1.0, interval_m: int = 256, seed: int = 0,
                 fmt: str = "text"):
        fields = (suite, dim, t, s, k_max, grid_l, grid_m, scheme, interval_a, interval_b, interval_m, seed, fmt)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        if self.suite not in SUITES + ("all", "sweep"):
            raise ValueError(f"unknown suite {self.suite!r}")
        runs = self.suites()
        for name in ("t", "s", "grid_l", "interval_a", "interval_b"):
            _require_finite(name, getattr(self, name))
        for name, (least, too_few, limit, what, builders) in _SIZE_LIMITS.items():
            size = getattr(self, name)
            if size is not None and size < least:
                raise ValueError(too_few.format(size))
            if size is not None and size > limit and builders & {self.suite, *runs}:
                builder = "" if self.suite == "sweep" else f" the {self.suite} suite builds"
                raise ValueError(f"{name} {size} exceeds {limit}, the largest {what}{builder}")
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if self.grid_l <= 0:
            raise ValueError("grid half-width must be positive")
        if not math.isfinite(self.grid_l * self.grid_l):
            raise ValueError(f"grid half-width {self.grid_l!r} has no finite square: x^2 overflows on the grid")
        if self.scheme not in (schrodinger.SPECTRAL, schrodinger.CENTRAL_DIFFERENCE):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.interval_b > self.interval_a:
            raise ValueError("interval needs b > a")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if not 0 <= self.seed < 2**64:  # SplitMix64 reads the seed mod 2^64
            raise ValueError(f"seed {self.seed} is outside 0 <= seed < 2^64")
        for name in runs:
            DOMAINS[name](self)

    def suites(self) -> tuple[str, ...]:
        """The suites this command runs: every suite for "all", none for a sweep."""
        return SUITES if self.suite == "all" else () if self.suite == "sweep" else (self.suite,)

    def effective_dim(self) -> int:
        """The truncation of the fock and weyl suites."""
        return self.dim if self.dim is not None else _DEFAULT_DIM

    def echo(self) -> dict:
        """The fields, in their declared order."""
        return {name: getattr(self, name) for name in self.__slots__}


class Report:
    __slots__ = ("suite", "config", "checks", "wall_time_s")

    def __init__(self, suite: str, config: dict, checks: list[CheckRecord] | None = None, wall_time_s: float = 0.0):
        self.suite, self.config, self.wall_time_s = suite, config, wall_time_s
        self.checks = [] if checks is None else checks

    @property
    def failed(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_obj(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": self.config,
            "checks": [{name: getattr(c, name) for name in CheckRecord.__slots__} for c in self.checks],
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        rows = [[c.name, c.relation, c.status, c.measured, c.tolerance] for c in self.checks]
        return _csv(["name", "relation", "status", "measured", "tolerance"], rows)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            measured = f"{c.measured:.6g}" if isinstance(c.measured, float) else str(c.measured)
            measured = "n/a" if c.measured is None else measured
            tol = f" (tol {c.tolerance:g})" if c.tolerance is not None else ""
            lines.append(f"[{c.status.upper():7s}] {c.name}: {measured}{tol}  |  {c.relation}")
            if c.detail:
                lines.append(f"          note: {c.detail}")
        n_fail = len(self.failed)
        n_flag = sum(1 for c in self.checks if c.status == "flagged")
        lines.append(
            f"{len(self.checks)} checks: {len(self.checks) - n_fail - n_flag} passed, "
            f"{n_fail} failed, {n_flag} flagged  ({self.wall_time_s:.2f}s)"
        )
        return "\n".join(lines) + "\n"


# The one list of format names, each with its renderer.
FORMATS = {"json": Report.to_json, "csv": Report.to_csv, "text": Report.to_text}


def _csv(header: list, rows) -> str:
    """The one CSV writer: floats as repr, None as an empty field, the
    rest as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def run_suite(config: RunConfig) -> Report:
    """Run one suite (or all of them) and assemble a sorted report.

    Every suite runs in this process, in the order of config.suites(),
    each drawing from its own seeded stream; under "all" its records are
    named "<suite>.<check>".  A suite whose set-up raises gives one failed
    "<suite>.setup" record, and the others still run."""
    start = time.perf_counter()
    records: list[CheckRecord] = []
    for name in config.suites():
        try:
            suite_records = _SUITE_FUNCS[name](config)
        except Exception as exc:  # noqa: BLE001 - a failed set-up must not kill the run
            records.append(CheckRecord(f"{name}.setup", "suite set-up", "fail", None, None,
                                       f"{type(exc).__name__}: {exc}"))
            continue
        if config.suite == "all":
            for record in suite_records:
                record.name = f"{name}.{record.name}"
        records.extend(suite_records)
    records.sort(key=lambda r: r.name)
    return Report(
        suite=config.suite,
        config=config.echo(),
        checks=records,
        wall_time_s=round(time.perf_counter() - start, 6),
    )


# ---------------------------------------------------------------------------
# sweeps


def sweep_dims(config: RunConfig, dims: list[int]) -> str:
    """Weyl residual runs at the sweep config's t and s at each dimension, one CSV row each."""
    t, s = config.t, config.s
    rows = []
    for d in dims:
        try:
            rec = weyl.weyl_residual(t, s, d)
            rows.append([t, s, d, rec.test_vector_support, rec.residual, "ok"])
        except Exception as exc:  # noqa: BLE001 - row-level failure
            rows.append([t, s, d, "", "", f"failed: {type(exc).__name__}"])
    return _csv(["t", "s", "dim", "support", "residual", "status"], rows)


def sweep_interval_lengths(config: RunConfig, lengths: list[float]) -> str:
    """Contrast sweep over centered interval lengths at the sweep config's
    t, s and interval_m, one CSV row each.  The finiteness of every length
    is checked before any row; a length that aligns with no sample count,
    or first above interval.MAX_DENSE_SIDE, is a failed row."""
    _require_finite("length", *lengths)
    t, s = config.t, config.s
    rows = []
    for length in lengths:
        try:
            spec = interval.aligned_spec(-float(length) / 2, float(length) / 2, t, config.interval_m)
            row = interval.interval_vs_line_report([spec], t, s)[0]
            rows.append([length, row.weyl_residual, row.spectral_distance, "ok"])
        except Exception as exc:  # noqa: BLE001 - row-level failure
            rows.append([length, "", "", f"failed: {type(exc).__name__}"])
    return _csv(["length", "weyl_residual", "spectral_distance", "status"], rows)
