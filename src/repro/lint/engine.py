"""The analysis driver: walk files, run rules, apply allow-pragmas.

:func:`run_lint` is the single entry point used by the CLI and the test
suite.  It parses every ``.py`` file under the given paths once, runs the
selected file rules per module and project rules over the whole set, and
drops the findings an inline allow-pragma excuses (see
:mod:`repro.lint.source`) — the one exemption mechanism there is.

Two engine-emitted pseudo-rules ride along, neither suppressible:

- ``LINT000`` — parse failures and malformed pragmas;
- ``LINT001`` — *unused* exemptions: an allow-pragma that suppressed
  nothing this scan.  Exemption sets rot as rules and code evolve;
  flagging dead ones keeps the audit trail honest.  Disabled via
  ``unused_pragmas=False`` (CLI ``--no-unused-pragma``) for partial-tree
  scans.

Findings are fully sorted by ``(path, line, rule, message)`` before they
are returned, so argument order and dict order never reorder a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import (
    PRAGMA_RULE_ID,
    REGISTRY,
    UNUSED_PRAGMA_RULE_ID,
    FileRule,
    ProjectRule,
)
from repro.lint.source import Project, SourceFile, load_source

__all__ = ["LintResult", "run_lint", "collect_files"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache",
                        ".mypy_cache", ".pytest_cache"})


@dataclass
class LintResult:
    """Everything one analysis run produced."""

    #: Findings no pragma excuses (these fail the run), sorted.
    findings: list[Finding] = field(default_factory=list)
    #: Findings suppressed by inline allow-pragmas.
    suppressed: int = 0
    #: Number of files parsed.
    files_scanned: int = 0
    #: Rule ids that ran.
    rules: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing was found."""
        return not self.findings

    def to_dict(self) -> dict:
        """The ``--format json`` output schema (version 2)."""
        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "rules": self.rules,
            "counts": {
                "new": len(self.findings),
                "suppressed": self.suppressed,
            },
            "findings": [f.to_dict() for f in self.findings],
        }


def collect_files(paths: Sequence[Path]) -> list[tuple[Path, str]]:
    """(path on disk, reported path) for every .py under paths, each once.

    Directory arguments are walked recursively.  The reported path is
    what ties a finding to the file whose pragmas may excuse it, so it is
    unique within a scan: with one argument it is relative to that
    argument (a file argument reports its basename); with several it is
    the file's path as reached from its argument (``a/mod.py``,
    ``b/mod.py``), which keeps same-named files under different roots
    apart.  Raises FileNotFoundError for a missing argument (the CLI maps
    it to a usage error).
    """
    collected: dict[str, Path] = {}
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            base, found = root.parent, [root]
        elif root.is_dir():
            base, found = root, [
                file_path for file_path in sorted(root.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in file_path.parts)]
        else:
            raise FileNotFoundError(f"no such file or directory: {root}")
        for file_path in found:
            shown = (file_path if len(paths) > 1
                     else file_path.relative_to(base))
            collected.setdefault(shown.as_posix(), file_path)
    return [(file_path, rel) for rel, file_path in collected.items()]


def _select_rules(select: Optional[Sequence[str]]) -> list[str]:
    if select is None:
        return sorted(REGISTRY)
    unknown = sorted(set(select) - set(REGISTRY))
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return sorted(set(select))


def run_lint(paths: Sequence[Path],
             select: Optional[Sequence[str]] = None,
             unused_pragmas: bool = True) -> LintResult:
    """Analyze ``paths`` with the selected rules (default: all).

    ``unused_pragmas=False`` disables the LINT001 unused-exemption
    check.

    Raises FileNotFoundError for missing paths and KeyError for unknown
    rule ids — the CLI converts both into usage errors (exit 2).
    """
    rule_ids = _select_rules(select)
    rules = [REGISTRY[rule_id] for rule_id in rule_ids]
    known = (frozenset(REGISTRY)
             | {PRAGMA_RULE_ID, UNUSED_PRAGMA_RULE_ID})
    sources = [load_source(path, rel, known)
               for path, rel in collect_files(paths)]

    # Engine findings go straight to ``kept``: no pragma excuses them.
    kept: list[Finding] = []
    raw: list[Finding] = []
    for source in sources:
        if source.parse_error is not None:
            kept.append(Finding(
                path=source.rel, line=0, rule=PRAGMA_RULE_ID,
                message=f"file does not parse: {source.parse_error}",
                hint="fix the syntax error; unparseable files are "
                     "invisible to every other rule"))
            continue
        for error in source.pragma_errors:
            kept.append(Finding(
                path=source.rel, line=error.line, rule=PRAGMA_RULE_ID,
                message=error.message,
                hint="write '# lint: allow[RULE,...] -- rationale' with "
                     "registered rule ids and a justification"))
        for rule in rules:
            if isinstance(rule, FileRule):
                raw.extend(rule.check(source))

    project = Project(files=sources)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))

    # A finding is excused only by a pragma in the file it was raised
    # on; reported paths are unique per scan (see collect_files).
    by_rel = {source.rel: source for source in sources}
    suppressed = 0
    used_pragmas: set[int] = set()
    for finding in raw:
        matched = by_rel[finding.path].allowing(finding.rule, finding.line)
        if matched:
            used_pragmas.update(id(p) for p in matched)
            suppressed += 1
        else:
            kept.append(finding)

    if unused_pragmas:
        kept.extend(_unused_pragmas(sources, frozenset(rule_ids),
                                    used_pragmas))

    # Full deterministic order: argument and dict order never show.
    kept.sort()
    return LintResult(findings=kept, suppressed=suppressed,
                      files_scanned=len(sources), rules=rule_ids)


def _unused_pragmas(sources: Sequence[SourceFile],
                    ran: frozenset[str],
                    used_pragmas: set[int]) -> list[Finding]:
    """LINT001 findings for pragmas that suppressed nothing.

    A pragma is only reported when *every* rule it names actually ran —
    a ``--select`` subset must not condemn exemptions belonging to rules
    that sat the scan out.
    """
    findings: list[Finding] = []
    for source in sources:
        for pragma in source.pragmas:
            if id(pragma) in used_pragmas or not pragma.rules <= ran:
                continue
            rules = ",".join(sorted(pragma.rules))
            findings.append(Finding(
                path=source.rel, line=pragma.line,
                rule=UNUSED_PRAGMA_RULE_ID,
                message=f"allow-pragma for {rules} suppressed nothing "
                        f"in this scan",
                hint="delete the stale pragma (or re-run with "
                     "--no-unused-pragma if this is a partial-tree "
                     "scan)"))
    return findings
