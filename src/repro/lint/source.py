"""Source model: parsed files, inline allow-pragmas, and the project view.

The engine hands rules :class:`SourceFile` objects (one parsed module) or
a :class:`Project` (every file in the scan, for cross-file rules).  Both
carry the pragma table parsed from comments:

- ``# lint: allow[REP001] -- rationale`` suppresses the listed rules on
  that line (or, when the comment stands alone, on the next line);
- ``# lint: allow-file[REP001] -- rationale`` suppresses them for the
  whole file.

A rationale after ``--`` is mandatory: an allowlist entry without a
recorded justification is itself a finding (``LINT000``), so exemptions
stay auditable.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

__all__ = ["PragmaError", "Pragma", "SourceFile", "Project",
           "load_source"]

_PRAGMA = re.compile(
    r"#\s*lint:\s*(?P<scope>allow|allow-file)\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<why>.*))?")
_RULE_ID = re.compile(r"^[A-Z]+\d+$")


@dataclass(frozen=True)
class PragmaError:
    """A malformed allow-pragma (reported as a LINT000 finding)."""

    line: int
    message: str


@dataclass
class Pragma:
    """One well-formed allow-pragma, tracked as a unit.

    A standalone line pragma covers two physical lines (its own and the
    next), but it is *one* exemption: the engine's unused-pragma check
    (LINT001) counts it used when any covered line suppressed a finding.
    """

    #: Line the pragma comment sits on (where LINT001 would point).
    line: int
    #: Rule ids the pragma exempts.
    rules: frozenset[str]
    #: "line" or "file".
    scope: str
    #: Lines covered (empty for file scope, which covers everything).
    targets: tuple[int, ...] = ()

    def covers(self, rule: str, line: int) -> bool:
        if rule not in self.rules:
            return False
        return self.scope == "file" or line in self.targets


@dataclass
class SourceFile:
    """One parsed Python source file plus its pragma table."""

    #: Absolute path on disk.
    path: Path
    #: Reported path (posix; becomes ``Finding.path``), unique within a
    #: scan — see ``engine.collect_files``.
    rel: str
    #: Raw source text.
    text: str
    #: Parsed module, or None when the file failed to parse.
    tree: Optional[ast.AST]
    #: Syntax-error description when ``tree`` is None.
    parse_error: Optional[str] = None
    #: Every well-formed allow-pragma, in file order.
    pragmas: list[Pragma] = field(default_factory=list)
    #: Malformed pragmas found while parsing comments.
    pragma_errors: list[PragmaError] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Basename, used by cross-file rules to locate known modules."""
        return self.path.name

    def allowing(self, rule: str, line: int) -> list[Pragma]:
        """The pragmas that suppress ``rule`` at ``line`` (maybe empty)."""
        return [p for p in self.pragmas if p.covers(rule, line)]


def _iter_comments(text: str) -> Iterator[tuple[int, str, bool]]:
    """(line, comment text, standalone?) for each comment token.

    Tokenizing (rather than scanning physical lines) keeps pragma
    examples inside docstrings from being taken literally.
    """
    import io
    import tokenize

    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                standalone = token.line[:token.start[1]].strip() == ""
                yield token.start[0], token.string, standalone
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # ast.parse already failed or will fail; nothing to scan


def _parse_pragmas(source: SourceFile, known_rules: frozenset[str]) -> None:
    """Fill the pragma tables from the file's comment tokens."""
    for lineno, comment, standalone in _iter_comments(source.text):
        match = _PRAGMA.search(comment)
        if match is None:
            if "lint:" in comment and "allow" in comment:
                source.pragma_errors.append(PragmaError(
                    lineno, "unparseable lint pragma (expected "
                    "'# lint: allow[RULE,...] -- rationale')"))
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        why = (match.group("why") or "").strip()
        bad = sorted(r for r in rules if not _RULE_ID.match(r))
        unknown = sorted(r for r in rules - set(bad) if r not in known_rules)
        if not rules:
            source.pragma_errors.append(PragmaError(
                lineno, "allow-pragma lists no rule ids"))
            continue
        if bad:
            source.pragma_errors.append(PragmaError(
                lineno, f"malformed rule id(s) in allow-pragma: "
                        f"{', '.join(bad)}"))
            continue
        if unknown:
            source.pragma_errors.append(PragmaError(
                lineno, f"unknown rule id(s) in allow-pragma: "
                        f"{', '.join(unknown)}"))
            continue
        if not why:
            source.pragma_errors.append(PragmaError(
                lineno, "allow-pragma is missing its '-- rationale' "
                        "justification"))
            continue
        if match.group("scope") == "allow-file":
            source.pragmas.append(Pragma(
                line=lineno, rules=frozenset(rules), scope="file"))
        else:
            targets = [lineno]
            if standalone:
                # A standalone comment pragma covers the following line.
                targets.append(lineno + 1)
            source.pragmas.append(Pragma(
                line=lineno, rules=frozenset(rules), scope="line",
                targets=tuple(targets)))


def load_source(path: Path, rel: str,
                known_rules: frozenset[str]) -> SourceFile:
    """Read, parse, and pragma-scan one file (never raises on bad source)."""
    text = path.read_text(encoding="utf-8")
    try:
        tree: Optional[ast.AST] = ast.parse(text, filename=str(path))
        error = None
    except SyntaxError as exc:
        tree, error = None, f"{exc.msg} (line {exc.lineno})"
    source = SourceFile(path=path, rel=rel, text=text, tree=tree,
                        parse_error=error)
    _parse_pragmas(source, known_rules)
    return source


@dataclass
class Project:
    """Every scanned file, for rules that reason across modules."""

    files: list[SourceFile]

    def named(self, basename: str) -> Optional[SourceFile]:
        """The unique parsed file with this basename, or None.

        Cross-file rules locate well-known modules (``config.py``,
        ``fast.py``, ...) by basename so they work both on the real tree
        and on miniature fixture trees.
        """
        matches = [f for f in self.files
                   if f.name == basename and f.tree is not None]
        return matches[0] if len(matches) == 1 else None

    def all_named(self, basename: str) -> Iterator[SourceFile]:
        """Every parsed file with this basename."""
        return (f for f in self.files
                if f.name == basename and f.tree is not None)
