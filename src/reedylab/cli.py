"""Command-line surface: certification suites, cube utilities,
obstruction reports, and DOT export."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import InvalidInput, ReedyLabError, UnknownSuite
from .suites import SUITES, SuiteConfig, run_suite, suite_options

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# the flag of each SuiteConfig option, in the order a usage line lists them
FLAGS = {
    "max_size": "--max-size",
    "cube_dim": "--cube-dim",
    "budget": "--budget",
    "seed": "--seed",
    "corpus_count": "--corpus-count",
}


def _add_suite_flags(p: argparse.ArgumentParser, options) -> None:
    """The flags of the given SuiteConfig options, each defaulting to its
    field's default, and --out and --format."""
    defaults = {f.name: f.default for f in dataclasses.fields(SuiteConfig)}
    for name, flag in FLAGS.items():
        if name in options:
            p.add_argument(flag, type=int, default=defaults[name], dest=name)
    p.add_argument("--out", type=str, default=None)
    p.add_argument(
        "--format", type=str, choices=("json", "markdown"), default="json"
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _config_from(args, suite: str) -> SuiteConfig:
    return SuiteConfig(suite, **{k: v for k, v in vars(args).items() if k in FLAGS})


def _at_least(low: int, **flags) -> None:
    for name, value in flags.items():
        if value is not None and value < low:
            raise InvalidInput(f"--{name} must be at least {low}, got {value}")


def _exit_code(*certs) -> int:
    """0 when every check of every certificate passed, else 1 (a failed or
    a skipped check)."""
    return EXIT_PASS if all(c.passed for c in certs) else EXIT_FAIL


def _run_one(args) -> int:
    cert = run_suite(_config_from(args, args.command))
    text = cert.markdown() if args.format == "markdown" else cert.json_text()
    _emit(text, args.out)
    return _exit_code(cert)


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given the name of a command, it holds only
    that command's subparser, under a metavar listing every command, so
    that its usage and error lines read as with all of them built; given
    anything else, it holds every subparser."""
    commands = [*sorted(SUITES), "all", "export-dot", "cube", "obstruct"]
    parser = argparse.ArgumentParser(
        prog="reedylab",
        description=(
            "exhaustive desk-scale certification of the (surjective, mono) "
            "Reedy structure on finite join-semilattices and its obstructions"
        ),
    )
    if command in commands:
        # without a metavar the usage line would list this command alone
        metavar = "{" + ",".join(commands) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        commands = [command]
    else:
        sub = parser.add_subparsers(dest="command", required=True)

    for name in commands:
        if name in SUITES:
            sp = sub.add_parser(name, help=f"run the {name} suite")
            _add_suite_flags(sp, suite_options(name))
        elif name == "all":
            sp = sub.add_parser("all", help="run every registered suite")
            _add_suite_flags(sp, {option for suite in SUITES for option in suite_options(suite)})
        elif name == "export-dot":
            sp = sub.add_parser("export-dot", help="Hasse diagram DOT export")
            sp.add_argument("--input", type=str, required=True)
            sp.add_argument("--out", type=str, default=None)
        elif name == "cube":
            cube_p = sub.add_parser("cube", help="cube category utilities")
            cube_sub = cube_p.add_subparsers(dest="cube_command", required=True)
            hc = cube_sub.add_parser("homcount")
            hc.add_argument("--m", type=int, required=True)
            hc.add_argument("--n", type=int, required=True)
            hc.add_argument("--out", type=str, default=None)
            tr = cube_sub.add_parser("triangulate")
            tr.add_argument("--n", type=int, required=True)
            tr.add_argument("--dim", type=int, default=None)
            tr.add_argument("--out", type=str, default=None)
        else:
            ob = sub.add_parser("obstruct", help="obstruction certificates")
            ob_sub = ob.add_subparsers(dest="obstruct_command", required=True)
            cr = ob_sub.add_parser("crown")
            cr.add_argument("--m", type=int, required=True)
            cr.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv else None).parse_args(argv)

    try:
        if args.command in SUITES:
            return _run_one(args)
        if args.command == "all":
            certs = [run_suite(_config_from(args, name)) for name in SUITES]
            if args.format == "markdown":
                text = "\n".join(c.markdown() for c in certs)
            else:
                text = json.dumps([c.to_json() for c in certs], indent=2, sort_keys=True)
            _emit(text, args.out)
            return _exit_code(*certs)
        if args.command == "export-dot":
            from .dot import export_dot_json

            try:
                with open(args.input) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise InvalidInput(f"cannot read {args.input}: {exc}") from exc
            _emit(export_dot_json(data), args.out)
            return EXIT_PASS
        if args.command == "cube":
            return _cube_command(args)
        if args.command == "obstruct":
            return _obstruct_command(args)
        raise UnknownSuite(args.command)
    except ReedyLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cube_command(args) -> int:
    if args.cube_command == "homcount":
        from .cubes import cube_hom_count

        _at_least(0, m=args.m, n=args.n)
        formula, homs = cube_hom_count(args.m, args.n)
        enumerated = len(homs)
        _emit(
            json.dumps(
                {
                    "m": args.m,
                    "n": args.n,
                    "formula": formula,
                    "enumerated": enumerated,
                },
                indent=2,
                sort_keys=True,
            ),
            args.out,
        )
        return EXIT_PASS if formula == enumerated else EXIT_FAIL
    if args.cube_command == "triangulate":
        from .cubes import cube, triangulate

        _at_least(0, n=args.n, dim=args.dim)
        dim = args.dim if args.dim is not None else args.n
        tri = triangulate(cube(args.n), dim)
        _emit(json.dumps(tri.to_json(), indent=2, sort_keys=True), args.out)
        return EXIT_PASS
    raise UnknownSuite(args.cube_command)


def _obstruct_command(args) -> int:
    if args.obstruct_command == "crown":
        from .obstruction import enumerate_crown_maps, winding

        _at_least(3, m=args.m, n=args.n)
        maps = enumerate_crown_maps(args.m, args.n)
        hist: dict[int, int] = {}
        for f in maps:
            w = winding(f)
            hist[w] = hist.get(w, 0) + 1
        _emit(
            json.dumps(
                {
                    "m": args.m,
                    "n": args.n,
                    "count": len(maps),
                    "windings": {str(k): v for k, v in sorted(hist.items())},
                },
                indent=2,
                sort_keys=True,
            ),
            None,
        )
        return EXIT_PASS
    raise UnknownSuite(args.obstruct_command)


if __name__ == "__main__":
    sys.exit(main())
