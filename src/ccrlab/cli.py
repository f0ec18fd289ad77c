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
default; `--out` is no field of it.  A suite and a sweep take one path
through `main`: the RunConfig, the `--out` check, the run, the write.
Both have one gate, the construction of their RunConfig: a sweep is
refused every value a suite is refused but for the rules of the suites
it does not run.
Sweeps write CSV only: another `--format` is a usage error, and so are
`--dims` and `--interval-lengths` on a suite.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import reports

USAGE_ERROR = 2


_KINDS = {int: "an integer", float: "a number"}


def _cast(option: str, item: str, cast):
    """cast(item); ValueError, naming the option and the item, when it is no such value."""
    try:
        return cast(item)
    except ValueError:
        raise ValueError(f"{option} has an item {item!r} that is not {_KINDS[cast]}") from None


def _parse_list(option: str, text: str, cast):
    """The comma-separated items of an option's value; ValueError, naming
    the option, on an empty item or one that cast refuses."""
    items = text.split(",")
    if not all(x.strip() for x in items):
        raise ValueError(f"{option} has an empty item in {text!r}")
    return [_cast(option, x, cast) for x in items]


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
    parser.add_argument("--dim", type=int, help="truncation dimension of the fock and weyl suites (default 64); "
                        "the analytic suite does not read it")
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


def _fields_from_args(args) -> dict:
    """The RunConfig fields of the options given; ValueError, naming the
    option, on a malformed --grid or --interval."""
    given = {"suite": args.command, "dim": args.dim, "t": args.t, "s": args.s, "k_max": args.kmax,
             "interval_m": args.interval_m, "seed": args.seed, "fmt": args.fmt}
    if args.grid is not None:
        if args.grid.count(",") != 2:
            raise ValueError("--grid expects L,M,scheme")
        grid_l, grid_m, scheme = _parse_list("--grid", args.grid, str)
        given.update(grid_l=_cast("--grid", grid_l, float), grid_m=_cast("--grid", grid_m, int), scheme=scheme.strip())
    if args.interval is not None:
        interval_parts = _parse_list("--interval", args.interval, float)
        if len(interval_parts) != 2:
            raise ValueError("--interval expects a,b")
        given.update(interval_a=interval_parts[0], interval_b=interval_parts[1])
    return {name: value for name, value in given.items() if value is not None}


# the values argparse itself reads as negative numbers, not as options
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with `--opt V` as `--opt=V` for every option that takes a value (all but
    --help), where V starts with '-' and a digit or '.' and argparse would read it as
    an option: a list such as -1,2 or a number such as -5e-1, but not -5 or -.5."""
    joined = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if (prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
                and arg[:1] == "-" and arg[1:2] in tuple("0123456789.") and not _NEGATIVE_NUMBER.fullmatch(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _run(args):
    """A callable that runs the suite or sweep that args ask for and gives
    the text to write and the exit code.  ValueError on the first fault, in
    this order: a sweep's --format, a malformed --grid or --interval, an
    unparsable or non-finite sweep list or one with an empty item, then the
    RunConfig's own gate: its field rules before the rules of any suite, so
    `all --kmax 500 --seed -1` names the seed, not the analytic suite's k_max."""
    if args.command == "sweep" and args.fmt not in (None, "csv"):
        raise ValueError(f"sweeps write CSV only: give --format csv or no --format, not --format {args.fmt}")
    fields = _fields_from_args(args)
    if args.dims is not None:
        dims = _parse_list("--dims", args.dims, int)
        run = lambda: (reports.sweep_dims(config, dims), 0)
    elif args.interval_lengths is not None:
        lengths = _parse_list("--interval-lengths", args.interval_lengths, float)
        reports._require_finite("length", *lengths)
        run = lambda: (reports.sweep_interval_lengths(config, lengths), 0)
    else:
        def run() -> tuple[str, int]:
            report = reports.run_suite(config)
            return reports.FORMATS[config.fmt](report), 1 if report.failed else 0
    config = reports.RunConfig(**fields)
    return run


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


def _refuse_constant(name: str):
    """json.load's parse_constant: ccr-lab writes no NaN or Infinity, but a
    non-finite measure as its repr string."""
    raise ValueError(f"it holds {name}, which is not JSON")


def _load_checks(path: str) -> dict:
    """{name: check} of a JSON report; ValueError on a file that is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh, parse_constant=_refuse_constant)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read a JSON report ({exc})") from None
    except ValueError as exc:  # from _refuse_constant
        raise ValueError(f"{path}: not a ccr-lab report ({exc})") from None
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
    of status flips: per check in both, by name, one line per changed field,
    its status, its measured value, then each other field (relation,
    tolerance, detail, ...); then the checks only in new (+) and only in
    old (-)."""
    value = lambda v: json.dumps(v, allow_nan=False, ensure_ascii=False)
    shown = lambda check, field: value(check[field]) if field in check else "(absent)"
    lines, flips, moved, changed = [], 0, 0, 0
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        if a["status"] != b["status"]:
            flips += 1
            lines.append(f"{name}: status {a['status']} -> {b['status']}")
        if a["measured"] != b["measured"]:
            moved += 1
            lines.append(f"{name}: measured {value(a['measured'])} -> {value(b['measured'])}")
        for field in dict.fromkeys([*a, *b]):
            if field not in ("name", "status", "measured") and (field in a, a.get(field)) != (field in b, b.get(field)):
                changed += 1
                lines.append(f"{name}: {field} {shown(a, field)} -> {shown(b, field)}")
    added, removed = sorted(new.keys() - old.keys()), sorted(old.keys() - new.keys())
    lines += [f"+ {n}: {new[n]['status']}, measured {value(new[n]['measured'])}" for n in added]
    lines += [f"- {n}: {old[n]['status']}, measured {value(old[n]['measured'])}" for n in removed]
    lines.append(f"{len(old)} -> {len(new)} checks: {flips} status flips, {moved} measured values moved, "
                 f"{changed} other fields changed, {len(added)} added, {len(removed)} removed")
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
    args = parser.parse_args(_join_negative_values(argv))
    # a sweep takes exactly one of the two sweep options, a suite neither
    if (args.dims is not None) + (args.interval_lengths is not None) != (args.command == "sweep"):
        parser.print_usage(sys.stderr)
        need = ("give exactly one of --dims / --interval-lengths" if args.command == "sweep"
                else "--dims and --interval-lengths are sweep options")
        sys.stderr.write(f"ccr-lab {args.command}: {need}\n")
        return USAGE_ERROR
    try:
        run = _run(args)
    except ValueError as exc:
        sys.stderr.write(f"ccr-lab: {exc}\n")
        return USAGE_ERROR
    if _out_refused(args.out):
        return USAGE_ERROR
    text, code = run()
    return code if _emit(text, args.out) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
