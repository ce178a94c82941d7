"""Command line front end.

Exit codes: 0 every check passed, 1 at least one check failed,
2 nothing failed but some check lacked data, 3 the input itself was
unusable (malformed file, unknown example, bad arguments).
"""

from __future__ import annotations

import argparse
import sys

from .bundle import MAX_TWIST, BundleError, load, save
from .monodromy import ComplexError
from .strata import DescriptorError
from .workbench import (
    CONJECTURES,
    CheckReport,
    ReportLine,
    build_example,
    render_text,
    render_tsv,
    run_complex,
    run_conjecture,
    run_dim_theorem,
    run_quasi_iso,
    run_validate,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for
    inconclusive runs, so remap to 3."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _twist(text: str) -> int:
    """An integer no larger than MAX_TWIST in magnitude, as params.a/q_coh."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(value) > MAX_TWIST:
        raise argparse.ArgumentTypeError(f"exceeds {MAX_TWIST} in magnitude")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="degen",
        description="Exact checks for semistable degenerations: fibre "
        "identities, monodromy complexes, and L-function leading values.",
    )
    parser.add_argument(
        "--tsv",
        action="store_true",
        help="machine-readable output: check, place, verdict, value",
    )
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reject unknown keys in bundle files (default: on)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the sign identities of every fibre")
    p.add_argument("file")

    p = sub.add_parser(
        "dim-theorem",
        help="compare group dimensions with local L-factor vanishing orders",
    )
    p.add_argument("file")
    p.add_argument("--q", type=_twist, default=None, help="cohomological degree")
    p.add_argument("--a", type=_twist, default=None, help="twist")

    p = sub.add_parser("check", help="run one of the conjecture checks")
    p.add_argument("conjecture", choices=CONJECTURES)
    p.add_argument("file")

    p = sub.add_parser(
        "complex", help="build the small complex and report its cohomology"
    )
    p.add_argument("file")
    p.add_argument("--q", type=int, default=None, help="degree to report")
    p.add_argument("--star", type=int, default=None, help="twist of the complex")

    p = sub.add_parser(
        "quasi-iso",
        help="compare Cone(N) cohomology with the small complex",
    )
    p.add_argument("file")
    p.add_argument(
        "--star",
        type=int,
        default=None,
        help="single twist (default: sweep 0..dim+2)",
    )

    p = sub.add_parser("example", help="write a built-in example bundle")
    p.add_argument("name")
    p.add_argument(
        "params",
        nargs="*",
        metavar="key=value",
        help="integer parameters, e.g. q=3 or n=5",
    )
    p.add_argument("-o", "--output", default=None, help="output path (default: <name>.json)")

    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected key=value, got {pair!r}")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"parameter {key!r} needs an integer, got {value!r}") from exc
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3

    try:
        if args.command == "example":
            bundle = build_example(args.name, _parse_overrides(args.params))
            path = args.output if args.output is not None else f"{args.name}.json"
            save(bundle, path)
            report = CheckReport((ReportLine("example", args.name, "PASS", path),))
        else:
            bundle = load(args.file, strict=args.strict)
            if args.command == "validate":
                report = run_validate(bundle)
            elif args.command == "dim-theorem":
                report = run_dim_theorem(bundle, args.q, args.a)
            elif args.command == "check":
                report = run_conjecture(bundle, args.conjecture)
            elif args.command == "complex":
                report = run_complex(bundle, args.q, args.star)
            elif args.command == "quasi-iso":
                report = run_quasi_iso(bundle, args.star)
            else:
                raise AssertionError(args.command)
    except (BundleError, DescriptorError, ComplexError, ValueError) as exc:
        print(f"degen: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"degen: error: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(render_tsv(report) if args.tsv else render_text(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
