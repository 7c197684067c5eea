"""Command line front end.

Exit codes:
  0  success
  2  bad input, with a one-line message on stderr: an expression that does
     not parse (the message gives the offset), or an option value out of
     range (--interval needs finite LO <= HI, --grid and --plot-n at least
     2, --at a finite number); argparse's own usage errors also exit 2
  3  the --plot file cannot be written
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .expr import Interval, ParseError, format_expr, parse
from .derivative import differentiate
from .report import (
    analyze, audit_point, emit_plot_data, point_json_dict, render_point_text,
    render_text, to_json_dict,
)
from .tangents import DEFAULT_GRID_N


class _ArgumentParser(argparse.ArgumentParser):
    """argparse reads an argument that starts with `-` as an option unless it
    matches its negative-number pattern, which lacks the exponent form
    (`-1e-3`).  Every subparser is built from this class and gets the wider
    pattern too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: `parse_args` does not change it, so
    `main` builds it on its first call only."""
    parser = _ArgumentParser(
        prog="deriv-audit",
        description="Differentiate an expression and audit the points where "
        "the derivative expression is undefined although the function is not.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="full audit and horizontal-tangent search on an interval"
    )
    p_analyze.add_argument("expression")
    p_analyze.add_argument(
        "--interval", nargs=2, type=float, required=True, metavar=("LO", "HI")
    )
    p_analyze.add_argument("--grid", type=int, default=DEFAULT_GRID_N, metavar="N")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--plot", metavar="PATH", help="write x,f,fprime CSV data here")
    p_analyze.add_argument("--plot-n", type=int, default=1000, metavar="N")

    p_classify = sub.add_parser(
        "classify", help="run the three audit steps at a single point"
    )
    p_classify.add_argument("expression")
    p_classify.add_argument("--at", type=float, required=True, metavar="X0")
    p_classify.add_argument("--json", action="store_true")

    p_diff = sub.add_parser("diff", help="print the derivative expression")
    p_diff.add_argument("expression")

    return parser


def _bad_option(args) -> str | None:
    """What is wrong with the option values, or None when they are valid."""
    if args.command == "analyze":
        lo, hi = args.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            return f"--interval needs finite LO <= HI, got {lo!r} {hi!r}"
        if args.grid < 2:
            return f"--grid must be at least 2, got {args.grid}"
        if args.plot_n < 2:
            return f"--plot-n must be at least 2, got {args.plot_n}"
    if args.command == "classify" and not math.isfinite(args.at):
        return f"--at must be a finite number, got {args.at!r}"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    bad = _bad_option(args)
    if bad is not None:
        print(f"deriv-audit: {bad}", file=sys.stderr)
        return 2
    try:
        if args.command == "analyze":
            iv = Interval(args.interval[0], args.interval[1])
            report = analyze(args.expression, iv, grid_n=args.grid)
            if args.plot:
                emit_plot_data(report.f_tape, report.fp_tape, iv, args.plot_n, path=args.plot)
            if args.json:
                print(json.dumps(to_json_dict(report), indent=2))
            else:
                print(render_text(report), end="")
        elif args.command == "classify":
            audit = audit_point(args.expression, args.at)
            if args.json:
                print(json.dumps(point_json_dict(audit), indent=2))
            else:
                print(render_point_text(audit), end="")
        else:
            assert args.command == "diff"
            print(format_expr(differentiate(parse(args.expression)).simplified))
    except ParseError as exc:
        print(f"deriv-audit: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = exc.filename or "output"
        print(f"deriv-audit: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
