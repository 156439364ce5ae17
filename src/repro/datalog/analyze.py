"""ndlint's command line: render analyzer diagnostics for NDlog programs.

Usage::

    python -m repro.datalog.analyze examples/mincost.ndl
    python -m repro.datalog.analyze --apps
    python -m repro.datalog.analyze --strata examples/mincost.ndl

File mode parses each program text (``check=False`` — the point is to
*show* the diagnostics, not to raise on them) and renders every
diagnostic with a caret excerpt pointing at the offending source span.
``--apps`` sweeps the built-in applications' DSL programs (including
MapReduce's rule-less schema) — the same set CI gates on. The exit
status is 1 when any program has error-severity diagnostics (or fails
to parse), 0 otherwise; warnings and infos never fail the run.
"""

import argparse
import sys

from repro.util.errors import ParseError


def _print_strata(analysis, out):
    for index, stratum in enumerate(analysis.strata):
        relations = ", ".join(sorted(stratum))
        print(f"  stratum {index}: {relations}", file=out)


def _run_file(path, show_strata, out):
    """Analyze one program file; True when it gates (has errors)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"{path}: cannot read: {exc}", file=out)
        return True
    try:
        from repro.datalog.parser import parse_program
        program = parse_program(source, check=False)
    except ParseError as exc:
        line = exc.line if exc.line is not None else 1
        col = exc.col if exc.col is not None else 1
        print(f"{path}:{line}:{col}: error: {exc}", file=out)
        return True
    analysis = program.analyze()
    print(analysis.render(source=source, filename=path), file=out)
    if show_strata:
        _print_strata(analysis, out)
    return not analysis.ok


def _run_apps(show_strata, out):
    """Analyze every built-in application; True when any gates."""
    from repro.apps import lint_targets

    failed = False
    for name, program in sorted(lint_targets().items()):
        analysis = program.analyze()
        status = "FAIL" if analysis.errors else "ok"
        print(
            f"{name}: {status} ({len(analysis.errors)} errors, "
            f"{len(analysis.warnings)} warnings, "
            f"{len(analysis.infos)} infos)",
            file=out,
        )
        for diag in analysis.diagnostics:
            print(f"  {diag.format()}", file=out)
            if diag.hint:
                print(f"    hint: {diag.hint}", file=out)
        if show_strata:
            _print_strata(analysis, out)
        failed = failed or bool(analysis.errors)
    return failed


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    parser = argparse.ArgumentParser(
        prog="python -m repro.datalog.analyze",
        description="ndlint: static analysis for NDlog programs",
    )
    parser.add_argument("files", nargs="*",
                        help="program text files to analyze")
    parser.add_argument("--apps", action="store_true",
                        help="analyze the built-in applications' programs")
    parser.add_argument("--strata", action="store_true",
                        help="also print the stratum evaluation order")
    args = parser.parse_args(argv)
    if not args.files and not args.apps:
        parser.error("give program files and/or --apps")

    failed = False
    for path in args.files:
        failed = _run_file(path, args.strata, out) or failed
    if args.apps:
        failed = _run_apps(args.strata, out) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
