"""CLI for the domain lint suite.

Exposed two ways (both share this module):

- ``repro-broadcast lint ...`` — a subcommand of the main CLI,
- ``python -m repro.lint ...`` — standalone.

Exit codes: 0 = clean, 1 = findings, 2 = usage error (bad path, unknown
rule id).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import REGISTRY

__all__ = ["add_arguments", "run", "main", "build_parser"]

#: Exit codes (the contract tests pin these).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint arguments on ``parser`` (shared by both CLIs)."""
    parser.add_argument(
        "paths", nargs="*", type=Path, metavar="PATH",
        help="files or directories to analyze (default: the installed "
             "repro package source)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--no-unused-pragma", action="store_true",
        help="skip the LINT001 unused-exemption check (use for "
             "partial-tree scans where pragmas may legitimately match "
             "nothing)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit")


def _default_paths() -> list[Path]:
    """The installed/imported repro package source tree."""
    import repro

    return [Path(repro.__file__).parent]


def _render_text(result: LintResult, out: TextIO) -> None:
    for finding in result.findings:
        print(finding.render(), file=out)
    summary = (f"{result.files_scanned} files scanned, "
               f"{len(result.findings)} finding(s)")
    if result.suppressed:
        summary += f", {result.suppressed} allowed by pragma"
    print(summary, file=out)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            rule = REGISTRY[rule_id]
            print(f"{rule_id}  {rule.name}: {rule.summary}")
        return EXIT_CLEAN

    select = None
    if args.select is not None:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
        if not select:
            print("lint: --select lists no rule ids", file=sys.stderr)
            return EXIT_USAGE

    paths = list(args.paths) or _default_paths()
    try:
        result = run_lint(paths, select=select,
                          unused_pragmas=not args.no_unused_pragma)
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _render_text(result, sys.stdout)
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


def build_parser() -> argparse.ArgumentParser:
    """Standalone parser for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Domain-aware static analysis: determinism, seed "
                    "discipline, and cross-engine parity.")
    add_arguments(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point; returns the exit code."""
    return run(build_parser().parse_args(argv))
