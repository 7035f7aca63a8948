"""Acceptance gate: the real source tree is lint-clean.

``repro-broadcast lint`` over the shipped package must report zero
findings.  Every legitimate wall-clock / provenance use carries an
allow-pragma with a rationale — the only exemption mechanism — and the
inventory of those pragmas is pinned here, so adding an excuse is a
visible edit to this file.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import REGISTRY
from repro.lint.source import load_source

PACKAGE = Path(repro.__file__).parent

#: Modules allowed to carry a pragma (the last two: ``allow-file``).
PRAGMA_FILES = {"cli.py", "core/runtime.py", "obs/manifest.py",
                "obs/profile.py", "net/client.py", "obs/dashboard.py"}


@pytest.fixture(scope="module")
def result() -> LintResult:
    return run_lint([PACKAGE])


def test_source_tree_is_clean(result):
    assert result.findings == []
    assert result.files_scanned > 50


def test_every_rule_ran(result):
    assert result.rules == [
        "REP001", "REP003", "REP004", "REP005", "REP007", "REP008",
        "REP009"]


def test_exemption_inventory(result):
    assert result.suppressed == 13
    # Tokenised pragmas only: the docs' quoted examples do not count.
    carrying = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "lint: allow" in path.read_text(encoding="utf-8")
        and load_source(path, path.name, frozenset(REGISTRY)).pragmas}
    assert carrying == PRAGMA_FILES
