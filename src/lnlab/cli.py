"""Command-line entry point.

    lnlab check <scene.json> [--report PATH] [--format text|table]
    lnlab lift <scene.json> <object>
    lnlab examples list
    lnlab examples show <name>
    lnlab examples run <name> [--format text|table]

Global flags: --max-degree N (1 to 65535) bounds monomial growth, --seed N
seeds the randomized property checks.  Exit codes: 0 all verdicts pass, 1 some
verdict failed, 2 malformed input, 3 resource bound exceeded.

Library use: ``main(argv)`` returns the exit code instead of exiting, and can
be called any number of times in one process.  The global flags apply to that
call only (the degree bound is restored when it returns), and the argument
parser is built on the first call and reused by the later ones.  Usage errors
and ``--version`` raise ``SystemExit``, as argparse does.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .poly import (MAX_DEGREE_LIMIT, GrowthLimitError, PolyError, get_degree_limit,
                   set_degree_limit)
from .forms import VForm
from .gder import GenDer
from .lifts import cotangent_lift, linearize, tangent_lift
from .catalog import example_names, example_source
from .scene import Report, SceneError, parse_scene, render, run

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


@functools.cache  # one parser per process, built on first use; parsing leaves it as is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnlab",
        description="Exact verification of bracket identities from scene files.")
    parser.add_argument("--version", action="version", version=f"lnlab {__version__}")
    parser.add_argument("--max-degree", type=int, default=None, metavar="N",
                        help=f"bound on monomial total degree, 1 to {MAX_DEGREE_LIMIT}")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for randomized property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks declared in a scene file")
    check.add_argument("scene", help="path to a scene file")
    check.add_argument("--report", metavar="PATH", default=None,
                       help="also write the rendered report to a file")
    check.add_argument("--format", choices=("text", "table"), default="text")

    lift = sub.add_parser("lift", help="print the lift of a scene object")
    lift.add_argument("scene", help="path to a scene file")
    lift.add_argument("object", help="name of an endomorphism or derivation")

    ex = sub.add_parser("examples", help="browse the shipped scene catalog")
    ex.add_argument("action", choices=("list", "show", "run"))
    ex.add_argument("name", nargs="?", default=None)
    ex.add_argument("--format", choices=("text", "table"), default="text")
    return parser


def _emit(report: Report, fmt: str, report_path: str | None) -> int:
    text = render(report, fmt)
    sys.stdout.write(text)
    if report_path is not None:
        with open(report_path, "w") as fh:
            fh.write(text)
    if report.resource_errors:
        return EXIT_RESOURCE
    return EXIT_PASS if report.passed else EXIT_FAIL


def _load_scene(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise SceneError(f"cannot read scene file: {e}") from e
    return parse_scene(text)


def _do_lift(args) -> int:
    scene = _load_scene(args.scene)
    if args.object not in scene.objects:
        raise SceneError(f"scene has no object named '{args.object}'")
    obj = scene.objects[args.object]
    if isinstance(obj, VForm) and obj.degree == 1 and obj.vals == scene.chart.dim:
        lifts = (("tangent lift", tangent_lift(obj)),
                 ("cotangent lift", cotangent_lift(obj)))
    elif isinstance(obj, GenDer):
        lifts = (("linearization", linearize(obj)),)
    else:
        raise SceneError(f"object '{args.object}' is not liftable "
                         "(need an endomorphism or a derivation)")
    for label, lifted in lifts:
        print(f"{label} on chart {lifted.chart.coords}:")
        print(f"  {lifted}")
    return EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_degree is not None and not 1 <= args.max_degree <= MAX_DEGREE_LIMIT:
        parser.error(f"--max-degree must be from 1 to {MAX_DEGREE_LIMIT}")
    # the degree bound is a process global: restore it on every exit path
    previous_limit = get_degree_limit()
    if args.max_degree is not None:
        set_degree_limit(args.max_degree)
    try:
        if args.command == "check":
            scene = _load_scene(args.scene)
            return _emit(run(scene, seed=args.seed), args.format, args.report)
        if args.command == "lift":
            return _do_lift(args)
        if args.command == "examples":
            if args.action == "list":
                for name in example_names():
                    print(name)
                return EXIT_PASS
            if args.name is None:
                raise SceneError("example name required")
            try:
                source = example_source(args.name)
            except KeyError:
                raise SceneError(f"unknown example '{args.name}'") from None
            if args.action == "show":
                sys.stdout.write(source)
                return EXIT_PASS
            scene = parse_scene(source)
            return _emit(run(scene, seed=args.seed), args.format, None)
    except GrowthLimitError as e:
        print(f"resource bound: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (SceneError, PolyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        set_degree_limit(previous_limit)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
