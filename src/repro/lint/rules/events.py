"""REP005 event-name registry discipline.

Trace and metric event names cross the process boundary as strings
(exported traces, figure JSON, metric names), so a typo or a name invented
by one engine is invisible to the type checker and only surfaces as a
silently-empty trace diff.  **REP005** closes the gap: ``obs/events.py``
is the single registry of event vocabularies.  The rule re-derives the
enum values of ``SlotKind`` (``broadcast_server.py``) and ``Offer``
(``queue.py``) plus the plain ``DISCIPLINES`` tuple (``schedulers.py``)
from their ASTs and requires them to equal the registry tuples (the
server layer cannot import obs without a cycle, so the sync is
machine-checked here instead), and every string literal compared or
assigned to a ``kind`` / ``served_kind`` / ``on_air_kind`` /
``pull_outcome`` / ``discipline`` attribute anywhere in the tree must be
a registry member.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectRule, register
from repro.lint.source import Project, SourceFile

__all__ = ["EventRegistryRule"]

_EVENTS_BASENAME = "events.py"

#: Enum class -> (defining module basename, registry tuple name).
_ENUM_REGISTRY = {
    "SlotKind": ("broadcast_server.py", "SLOT_KINDS"),
    "Offer": ("queue.py", "OFFER_OUTCOMES"),
}

#: Plain module-level tuple -> (defining module basename, registry tuple
#: name).  Same no-import sync discipline as the enums, for vocabularies
#: that live as bare string tuples rather than enum classes.
_TUPLE_REGISTRY = {
    "DISCIPLINES": ("schedulers.py", "SCHEDULER_DISCIPLINES"),
}

#: Attribute names that carry event-name strings -> registry tuples that
#: may legally supply their values.
_KIND_ATTRIBUTES = {
    "kind": ("SLOT_KINDS",),
    "served_kind": ("SERVED_KINDS",),
    "on_air_kind": ("SLOT_KINDS",),
    "pull_outcome": ("OFFER_OUTCOMES",),
    "discipline": ("SCHEDULER_DISCIPLINES",),
}


def _registry_tuples(events: SourceFile) -> dict[str, tuple[str, ...]]:
    """Module-level ``NAME = ("a", "b", ...)`` string tuples of events.py."""
    assert events.tree is not None
    registry: dict[str, tuple[str, ...]] = {}
    for node in ast.walk(events.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        value = node.value
        if value is None or not isinstance(value, (ast.Tuple, ast.List)):
            continue
        strings = []
        for element in value.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                strings = None
                break
            strings.append(element.value)
        if strings is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                registry[target.id] = tuple(strings)
    return registry


def _assignment_line(source: SourceFile, name: str) -> int:
    """Line of the module-level assignment to ``name`` (0 if absent)."""
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return node.lineno
    return 0


def _enum_values(source: SourceFile, class_name: str) -> Optional[
        tuple[tuple[str, ...], int]]:
    """String member values of an enum class, with its line number."""
    assert source.tree is not None
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or node.name != class_name:
            continue
        values = []
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                values.append(stmt.value.value)
        return tuple(values), node.lineno
    return None


@register
class EventRegistryRule(ProjectRule):
    """REP005 — event-name strings come from the shared registry."""

    id = "REP005"
    name = "event-registry"
    summary = ("SlotKind/Offer enum values and the DISCIPLINES tuple must "
               "mirror obs/events.py, and kind/served_kind/pull_outcome/"
               "discipline string literals must be registry members")
    hint = ("add the name to repro/obs/events.py first, then use it; "
            "never invent an event-name string at the point of use")

    def check_project(self, project: Project) -> Iterator[Finding]:
        events = self._find_registry(project)
        enum_sources = {name: project.named(basename)
                        for name, (basename, _) in _ENUM_REGISTRY.items()}
        if events is None:
            # Only meaningful when the project actually defines the enums.
            for class_name, source in enum_sources.items():
                if source is not None and _enum_values(
                        source, class_name) is not None:
                    values = _enum_values(source, class_name)
                    assert values is not None
                    yield self.finding(
                        source, values[1],
                        f"enum {class_name} defines event names but the "
                        f"project has no events.py registry")
            return
        registry = _registry_tuples(events)

        # 1. Enum values mirror the registry tuples, in order.
        for class_name, (_, tuple_name) in _ENUM_REGISTRY.items():
            source = enum_sources[class_name]
            if source is None:
                continue
            extracted = _enum_values(source, class_name)
            if extracted is None:
                continue
            values, line = extracted
            expected = registry.get(tuple_name)
            if expected is None:
                yield self.finding(
                    events, 0,
                    f"registry tuple {tuple_name} missing from events.py "
                    f"(needed by enum {class_name})")
            elif values != expected:
                yield self.finding(
                    source, line,
                    f"enum {class_name} values {list(values)} drifted from "
                    f"registry {tuple_name} {list(expected)}")

        # 2. Plain tuple vocabularies mirror the registry, in order.
        for tuple_name, (basename, registry_name) in _TUPLE_REGISTRY.items():
            source = project.named(basename)
            if source is None or source.tree is None:
                continue
            local = _registry_tuples(source).get(tuple_name)
            if local is None:
                continue
            expected = registry.get(registry_name)
            if expected is None:
                yield self.finding(
                    events, 0,
                    f"registry tuple {registry_name} missing from events.py "
                    f"(needed by {basename}:{tuple_name})")
            elif local != expected:
                yield self.finding(
                    source, _assignment_line(source, tuple_name),
                    f"tuple {tuple_name} values {list(local)} drifted from "
                    f"registry {registry_name} {list(expected)}")

        # 3. Event-name literals used against kind-carrying attributes
        # must be registry members.
        for source in project.files:
            if source.tree is None or source is events:
                continue
            yield from self._check_literals(source, registry)

    def _check_literals(self, source: SourceFile,
                        registry: dict[str, tuple[str, ...]]
                        ) -> Iterator[Finding]:
        assert source.tree is not None
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                attrs = [self._kind_attribute(op) for op in operands]
                for attr in filter(None, attrs):
                    for op in operands:
                        yield from self._literal_findings(
                            source, attr, op, registry)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    # Bare 'kind' is too generic a keyword to claim
                    # (numpy's argsort(kind=...), metric types, ...).
                    if kw.arg in _KIND_ATTRIBUTES and kw.arg != "kind":
                        yield from self._literal_findings(
                            source, kw.arg, kw.value, registry)

    @staticmethod
    def _find_registry(project: Project) -> Optional[SourceFile]:
        """The events.py that actually defines the registry tuples.

        Basename matching alone is ambiguous (this very rule module is
        called events.py too), so require a known tuple to be present.
        """
        for candidate in project.all_named(_EVENTS_BASENAME):
            tuples = _registry_tuples(candidate)
            if "SLOT_KINDS" in tuples or "OFFER_OUTCOMES" in tuples:
                return candidate
        return None

    @staticmethod
    def _kind_attribute(node: ast.AST) -> Optional[str]:
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            # A bare local named 'kind' is too generic to claim; the
            # specific spellings are unambiguous even as locals.
            if node.id != "kind":
                name = node.id
        return name if name in _KIND_ATTRIBUTES else None

    def _literal_findings(self, source: SourceFile, attr: str,
                          node: ast.AST,
                          registry: dict[str, tuple[str, ...]]
                          ) -> Iterator[Finding]:
        allowed: set[str] = set()
        for tuple_name in _KIND_ATTRIBUTES[attr]:
            allowed.update(registry.get(tuple_name, ()))
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                    and sub.value not in allowed):
                yield self.finding(
                    source, sub.lineno,
                    f"event-name literal '{sub.value}' used with "
                    f"'{attr}' is not in the shared registry "
                    f"({' / '.join(_KIND_ATTRIBUTES[attr])})")
