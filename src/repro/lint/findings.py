"""Finding: one diagnostic produced by a lint rule.

A finding pins a rule violation to ``path:line`` and carries the rule id,
a one-line message, and a fix hint.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, what, and how to fix it."""

    #: The offending file's reported path (``SourceFile.rel``, posix).
    path: str
    #: 1-based line of the offending node (0 for whole-file findings).
    line: int
    #: Rule identifier, e.g. ``"REP001"``.
    rule: str
    #: One-line description of the violation.
    message: str
    #: How to fix it (or how to allowlist it legitimately).
    hint: str = ""

    def to_dict(self) -> dict:
        """JSON-ready form (the ``--format json`` finding schema)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """Human-readable one/two-liner for terminal output."""
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
