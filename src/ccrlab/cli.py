"""Command-line front end.

    ccr-lab <suite> [--dim N] [--t X] [--s X] [--kmax K]
            [--grid L,M,scheme] [--interval a,b] [--seed S]
            [--out PATH] [--format json|csv|text]
    ccr-lab sweep (--dims 16,32,64 | --interval-lengths 1,5,20) [...]

Exit codes: 0 all checks pass (flagged allowed), 1 any check failed,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import reports

USAGE_ERROR = 2


def _parse_list(text: str, cast):
    return [cast(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccr-lab",
        description="Run verification suites for truncated CCR representations.",
    )
    parser.add_argument(
        "command",
        choices=list(reports.SUITES) + ["all", "sweep"],
        help="verification suite to run, or 'sweep' for parameter sweeps",
    )
    parser.add_argument("--dim", type=int, default=None, help="truncation dimension")
    parser.add_argument("--t", type=float, default=0.5, help="translation parameter t")
    parser.add_argument("--s", type=float, default=0.5, help="phase parameter s")
    parser.add_argument("--kmax", type=int, default=40, help="series truncation order")
    parser.add_argument(
        "--grid",
        default="10,256,spectral",
        help="grid spec L,M,scheme for the differential representation",
    )
    parser.add_argument("--interval", default="0,1", help="interval a,b for the irregular suite")
    parser.add_argument("--interval-m", type=int, default=256, help="interval sample count")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "text"), default="text"
    )
    parser.add_argument("--dims", default=None, help="sweep: comma-separated dimensions")
    parser.add_argument(
        "--interval-lengths", default=None, help="sweep: comma-separated interval lengths"
    )
    return parser


def _config_from_args(args) -> reports.RunConfig:
    grid_parts = args.grid.split(",")
    if len(grid_parts) != 3:
        raise ValueError("--grid expects L,M,scheme")
    interval_parts = _parse_list(args.interval, float)
    if len(interval_parts) != 2:
        raise ValueError("--interval expects a,b")
    return reports.RunConfig(
        suite=args.command,
        dim=args.dim,
        t=args.t,
        s=args.s,
        k_max=args.kmax,
        grid_l=float(grid_parts[0]),
        grid_m=int(grid_parts[1]),
        scheme=grid_parts[2].strip(),
        interval_a=interval_parts[0],
        interval_b=interval_parts[1],
        interval_m=args.interval_m,
        seed=args.seed,
        out=args.out,
        fmt=args.fmt,
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "sweep":
        if (args.dims is None) == (args.interval_lengths is None):
            parser.print_usage(sys.stderr)
            sys.stderr.write("ccr-lab sweep: give exactly one of --dims / --interval-lengths\n")
            return USAGE_ERROR
        try:
            if args.dims is not None:
                csv_text = reports.sweep_dims(_parse_list(args.dims, int), [args.t], [args.s])
            else:
                csv_text = reports.sweep_interval_lengths(
                    _parse_list(args.interval_lengths, float), args.t, args.s, args.interval_m
                )
        except ValueError as exc:
            sys.stderr.write(f"ccr-lab: {exc}\n")
            return USAGE_ERROR
        _emit(csv_text, args.out)
        return 0

    try:
        config = _config_from_args(args)
        config.validate()
    except ValueError as exc:
        sys.stderr.write(f"ccr-lab: {exc}\n")
        return USAGE_ERROR

    report = reports.run_suite(config)
    rendered = {
        "json": report.to_json,
        "csv": report.to_csv,
        "text": report.to_text,
    }[config.fmt]()
    _emit(rendered, config.out)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
