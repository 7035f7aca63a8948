"""Rule protocol and registry for the domain lint suite.

Two rule shapes exist:

- :class:`FileRule` — examines one parsed module at a time (the
  wall-clock, sim-time and asyncio rules);
- :class:`ProjectRule` — examines the whole scan at once (the
  cross-engine parity and event-vocabulary rules, which must compare
  ``core/fast.py`` against ``core/simulation.py``).

Rules are registered by instantiating them under :func:`register`; the
engine iterates :data:`REGISTRY` in id order.  Each rule carries a stable
``id`` (``REPnnn``), a short ``name`` used in listings, and a generic
``hint`` that findings may specialize.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.source import Project, SourceFile

__all__ = ["Rule", "FileRule", "ProjectRule", "REGISTRY", "register"]


class Rule:
    """Common rule surface: identity and documentation."""

    id: str = ""
    name: str = ""
    #: One-line description for ``--list-rules`` and the docs.
    summary: str = ""
    #: Generic fix hint; findings may override with a specific one.
    hint: str = ""

    def finding(self, source: SourceFile, line: int, message: str,
                hint: str = "") -> Finding:
        """Build a finding anchored in ``source`` at ``line``."""
        return Finding(path=source.rel, line=line, rule=self.id,
                       message=message, hint=hint or self.hint)


class FileRule(Rule):
    """A rule evaluated independently on each parsed file."""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole project."""

    def check_project(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


#: All registered rules, keyed by id (populated by the rule modules).
REGISTRY: dict[str, Rule] = {}


def register(rule_class: type) -> type:
    """Class decorator: instantiate and add to :data:`REGISTRY`."""
    rule = rule_class()
    if not rule.id or rule.id in REGISTRY:
        raise ValueError(f"duplicate or empty rule id: {rule.id!r}")
    REGISTRY[rule.id] = rule
    return rule_class

