"""REP004 — every config field must reach both simulation engines.

DESIGN.md's cross-validation claim only holds while the reference and
fast engines consume the *same model surface*: a config knob honoured by
one engine and ignored by the other silently invalidates every
cross-engine comparison that varies it.  This rule parses the dataclass
fields of ``config.py`` (the module defining ``SystemConfig``) and
verifies each leaf field's attribute name is read by

- ``fast.py`` (the slot-driven engine), and
- ``simulation.py`` (the event-driven reference engine),

where reads through the code both engines run on count for both: the
shared construction path (``build.py``, which wires configs into
components both engines consume) and the shared run protocol and control
plane (``runtime.py``, which both engines drive once per MC access and
once per poll deadline).
Deliberately single-engine knobs must be listed in the shared
``PARITY_EXEMPT`` set next to ``SystemConfig`` with a rationale comment;
stale or unknown exemptions are themselves findings, so the set ratchets
down rather than accreting.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules.base import ProjectRule, register
from repro.lint.source import Project, SourceFile

__all__ = ["ConfigParityRule"]

_CONFIG_BASENAME = "config.py"
_FAST_BASENAME = "fast.py"
_REFERENCE_BASENAME = "simulation.py"
_SHARED_BASENAMES = ("build.py", "runtime.py")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, str, int]]:
    """(field name, annotation spelling, line) for each dataclass field."""
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((name, annotation, stmt.lineno))
    return fields


def _string_set(node: ast.AST) -> Optional[set[str]]:
    """Literal strings of a set/frozenset/tuple expression, else None."""
    if isinstance(node, ast.Call):
        target = node.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name in ("frozenset", "set", "tuple") and len(node.args) == 1:
            return _string_set(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        values = set()
        for element in node.elts:
            if not (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                return None
            values.add(element.value)
        return values
    return None


def _parity_exempt(tree: ast.AST) -> tuple[set[str], int]:
    """(PARITY_EXEMPT entries, line of the assignment) — empty if absent."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id == "PARITY_EXEMPT"
                        and node.value is not None):
                    return _string_set(node.value) or set(), node.lineno
    return set(), 0


def _attribute_names(source: Optional[SourceFile]) -> set[str]:
    """Every attribute name referenced anywhere in the module."""
    if source is None or source.tree is None:
        return set()
    return {node.attr for node in ast.walk(source.tree)
            if isinstance(node, ast.Attribute)}


@register
class ConfigParityRule(ProjectRule):
    """REP004 — config fields read by both engines (or PARITY_EXEMPT)."""

    id = "REP004"
    name = "config-parity"
    summary = ("every SystemConfig leaf field must be read by both "
               "core/fast.py and core/simulation.py (directly or via the "
               "shared build.py / runtime.py), or be listed in "
               "PARITY_EXEMPT")
    hint = ("wire the field into the missing engine, or add it to "
            "PARITY_EXEMPT in config.py with a rationale comment")

    def check_project(self, project: Project) -> Iterator[Finding]:
        config = self._find_config(project)
        fast = project.named(_FAST_BASENAME)
        reference = project.named(_REFERENCE_BASENAME)
        if config is None or (fast is None and reference is None):
            return  # not an engine tree (e.g. a partial scan) — nothing to do
        assert config.tree is not None

        classes = {node.name: node for node in ast.walk(config.tree)
                   if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
        system = classes.get("SystemConfig")
        if system is None:
            return

        shared_attrs: set[str] = set()
        for basename in _SHARED_BASENAMES:
            for shared in project.all_named(basename):
                shared_attrs |= _attribute_names(shared)
        fast_attrs = _attribute_names(fast) | shared_attrs
        ref_attrs = _attribute_names(reference) | shared_attrs

        exempt, exempt_line = _parity_exempt(config.tree)
        seen_qualified: set[str] = set()

        for field_name, annotation, line in _dataclass_fields(system):
            sub = classes.get(annotation)
            if sub is not None:
                leaves = [(f"{field_name}.{leaf}", leaf, leaf_line)
                          for leaf, _, leaf_line in _dataclass_fields(sub)]
            else:
                leaves = [(field_name, field_name, line)]
            for qualified, leaf, leaf_line in leaves:
                seen_qualified.add(qualified)
                in_fast = leaf in fast_attrs
                in_ref = leaf in ref_attrs
                if qualified in exempt:
                    if in_fast and in_ref:
                        yield self.finding(
                            config, exempt_line,
                            f"stale PARITY_EXEMPT entry '{qualified}': the "
                            f"field is now read by both engines",
                            hint="remove the entry so the exemption set "
                                 "only ratchets down")
                    continue
                if in_fast and in_ref:
                    continue
                if not in_fast and not in_ref:
                    where = "neither engine"
                elif in_fast:
                    where = "only the fast engine"
                else:
                    where = "only the reference engine"
                yield self.finding(
                    config, leaf_line,
                    f"config field '{qualified}' is read by {where}")

        for entry in sorted(exempt - seen_qualified):
            yield self.finding(
                config, exempt_line,
                f"unknown PARITY_EXEMPT entry '{entry}' (no such config "
                f"field)",
                hint="use the qualified 'section.field' spelling of an "
                     "existing SystemConfig leaf field")

    @staticmethod
    def _find_config(project: Project) -> Optional[SourceFile]:
        """The config module: basename config.py defining SystemConfig."""
        for candidate in project.all_named(_CONFIG_BASENAME):
            assert candidate.tree is not None
            for node in ast.walk(candidate.tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name == "SystemConfig"):
                    return candidate
        return None
