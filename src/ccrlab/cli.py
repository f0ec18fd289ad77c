"""Command-line front end.

    ccr-lab <suite> [--dim N] [--t X] [--s X] [--kmax K]
            [--grid L,M,scheme] [--interval a,b] [--seed S]
            [--out PATH] [--format json|csv|text]
    ccr-lab sweep (--dims 16,32,64 | --interval-lengths 1,5,20) [...]
    ccr-lab diff OLD.json NEW.json

Exit codes: 0 all checks pass (flagged allowed), 1 any check failed,
2 usage error.  `diff` compares two JSON reports check by check and
exits 0 when no check's status flipped, 1 when one did, and 2 on a file
that is not a readable report.  An option left out takes RunConfig's
default.  A suite and a sweep take one path through `main`: validation,
the `--out` check, the run, the write.  Both have one gate,
`RunConfig.validate`: a sweep is refused every value a suite is refused
but for the rules of the suites it does not run.  Sweeps write CSV only:
another `--format` is a usage error, and so are `--dims` and
`--interval-lengths` on a suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import reports

USAGE_ERROR = 2


def _parse_list(text: str, cast):
    return [cast(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccr-lab",
        description="Run verification suites for truncated CCR representations.",
        epilog="ccr-lab diff OLD.json NEW.json compares two JSON reports.",
    )
    parser.add_argument(
        "command",
        choices=list(reports.SUITES) + ["all", "sweep"],
        help="verification suite to run, or 'sweep' for parameter sweeps",
    )
    parser.add_argument("--dim", type=int, help="truncation dimension")
    parser.add_argument("--t", type=float, help="translation parameter t")
    parser.add_argument("--s", type=float, help="phase parameter s")
    parser.add_argument("--kmax", type=int, help="series truncation order")
    parser.add_argument("--grid", help="grid spec L,M,scheme for the differential representation")
    parser.add_argument("--interval", help="interval a,b for the irregular suite")
    parser.add_argument("--interval-m", type=int, help="interval sample count")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=reports.FORMATS)
    parser.add_argument("--dims", help="sweep: comma-separated dimensions")
    parser.add_argument("--interval-lengths", help="sweep: comma-separated interval lengths")
    return parser


def _config_from_args(args) -> reports.RunConfig:
    """The RunConfig of the options given, with its own defaults for the rest."""
    given = {"suite": args.command, "dim": args.dim, "t": args.t, "s": args.s, "k_max": args.kmax,
             "interval_m": args.interval_m, "seed": args.seed, "out": args.out, "fmt": args.fmt}
    if args.grid is not None:
        grid_parts = args.grid.split(",")
        if len(grid_parts) != 3:
            raise ValueError("--grid expects L,M,scheme")
        given.update(grid_l=float(grid_parts[0]), grid_m=int(grid_parts[1]), scheme=grid_parts[2].strip())
    if args.interval is not None:
        interval_parts = _parse_list(args.interval, float)
        if len(interval_parts) != 2:
            raise ValueError("--interval expects a,b")
        given.update(interval_a=interval_parts[0], interval_b=interval_parts[1])
    return reports.RunConfig(**{name: value for name, value in given.items() if value is not None})


def _run(args):
    """The validated RunConfig of the suite or sweep that args ask for, and
    a callable that runs it and gives the text to write and the exit code.
    An unparsable or non-finite sweep list is refused before validation."""
    if args.command == "sweep" and args.fmt not in (None, "csv"):
        raise ValueError(f"sweeps write CSV only: give --format csv or no --format, not --format {args.fmt}")
    config = _config_from_args(args)
    if args.dims is not None:
        dims = _parse_list(args.dims, int)
        run = lambda: (reports.sweep_dims(config, dims), 0)
    elif args.interval_lengths is not None:
        lengths = _parse_list(args.interval_lengths, float)
        reports._require_finite("length", *lengths)
        run = lambda: (reports.sweep_interval_lengths(config, lengths), 0)
    else:
        def run() -> tuple[str, int]:
            report = reports.run_suite(config)
            return reports.FORMATS[config.fmt](report), 1 if report.failed else 0
    config.validate()
    return config, run


def _out_refused(out: str | None) -> bool:
    """True, with a message on stderr, when out is a directory or its
    directory is missing or not writable: checked before a run, and
    without creating the file, so a run that raises leaves nothing."""
    if out is None:
        return False
    parent = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "No such file or directory"
    elif not os.access(parent, os.W_OK | os.X_OK) or (os.path.exists(out) and not os.access(out, os.W_OK)):
        reason = "Permission denied"
    else:
        return False
    sys.stderr.write(f"ccr-lab: cannot write {out}: {reason}\n")
    return True


def _emit(text: str, out: str | None) -> bool:
    """Write text to out, or to stdout; False, with a message on stderr,
    when out cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"ccr-lab: cannot write {out}: {exc.strerror or exc}\n")
        return False
    return True


def _load_checks(path: str) -> dict:
    """{name: check} of a JSON report; ValueError on a file that is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read a JSON report ({exc})") from None
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str) and isinstance(c.get("status"), str)
            and "measured" in c for c in checks):
        raise ValueError(f"{path}: not a ccr-lab report (no list of checks with name, status and measured)")
    by_name = {c["name"]: c for c in checks}
    if len(by_name) != len(checks):
        raise ValueError(f"{path}: not a ccr-lab report (a check name repeats)")
    return by_name


def _diff_lines(old: dict, new: dict) -> tuple[list[str], int]:
    """The lines of `ccr-lab diff` for two {name: check} maps, and the number
    of status flips: per check in both, a status flip and a moved measured
    value; then the checks only in new (+) and only in old (-)."""
    value = lambda v: json.dumps(v, allow_nan=False)
    lines, flips, moved = [], 0, 0
    for name in old.keys() & new.keys():
        a, b = old[name], new[name]
        if a["status"] != b["status"]:
            flips += 1
            lines.append((name, f"{name}: status {a['status']} -> {b['status']}"))
        if a["measured"] != b["measured"]:
            moved += 1
            lines.append((name, f"{name}: measured {value(a['measured'])} -> {value(b['measured'])}"))
    lines.sort(key=lambda item: item[0])  # by name; a check's flip before its value
    lines = [line for _, line in lines]
    added, removed = sorted(new.keys() - old.keys()), sorted(old.keys() - new.keys())
    lines += [f"+ {n}: {new[n]['status']}, measured {value(new[n]['measured'])}" for n in added]
    lines += [f"- {n}: {old[n]['status']}, measured {value(old[n]['measured'])}" for n in removed]
    lines.append(f"{len(old)} -> {len(new)} checks: {flips} status flips, {moved} measured values moved, "
                 f"{len(added)} added, {len(removed)} removed")
    return lines, flips


def _diff_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ccr-lab diff", description="Compare two JSON reports check by check.")
    parser.add_argument("old", help="the earlier report, from --format json")
    parser.add_argument("new", help="the later report")
    args = parser.parse_args(argv)
    try:
        lines, flips = _diff_lines(_load_checks(args.old), _load_checks(args.new))
    except ValueError as exc:
        sys.stderr.write(f"ccr-lab diff: {exc}\n")
        return USAGE_ERROR
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if flips else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["diff"]:
        return _diff_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    # a sweep takes exactly one of the two sweep options, a suite neither
    if (args.dims is not None) + (args.interval_lengths is not None) != (args.command == "sweep"):
        parser.print_usage(sys.stderr)
        need = ("give exactly one of --dims / --interval-lengths" if args.command == "sweep"
                else "--dims and --interval-lengths are sweep options")
        sys.stderr.write(f"ccr-lab {args.command}: {need}\n")
        return USAGE_ERROR
    try:
        config, run = _run(args)
    except ValueError as exc:
        sys.stderr.write(f"ccr-lab: {exc}\n")
        return USAGE_ERROR
    if _out_refused(config.out):
        return USAGE_ERROR
    text, code = run()
    return code if _emit(text, config.out) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
