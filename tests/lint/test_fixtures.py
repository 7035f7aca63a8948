"""Snapshot tests: every fixture's findings match its expected.json.

The sidecars are regenerated deliberately (see docs/STATIC_ANALYSIS.md),
so a rule change that shifts any fixture's findings fails loudly here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.engine import run_lint

FIXTURES = Path(__file__).parent / "fixtures"

SINGLE_FILE = sorted(FIXTURES.glob("*.py"))
PROJECT = sorted(p for p in FIXTURES.iterdir() if p.is_dir())


def _snapshot(target: Path) -> dict:
    result = run_lint([target])
    return {
        "suppressed": result.suppressed,
        "findings": [
            {"rule": f.rule, "path": f.path, "line": f.line,
             "message": f.message}
            for f in result.findings
        ],
    }


@pytest.mark.parametrize("fixture", SINGLE_FILE, ids=lambda p: p.stem)
def test_single_file_fixture(fixture):
    expected = json.loads(
        fixture.with_name(fixture.stem + ".expected.json").read_text())
    assert _snapshot(fixture) == expected


@pytest.mark.parametrize("fixture", PROJECT, ids=lambda p: p.name)
def test_project_fixture(fixture):
    expected = json.loads((fixture / "expected.json").read_text())
    assert _snapshot(fixture) == expected


def test_corpus_covers_every_rule():
    """Each registered rule id fires somewhere in the fixture corpus."""
    fired = set()
    for target in SINGLE_FILE + PROJECT:
        fired.update(f.rule for f in run_lint([target]).findings)
    from repro.lint.rules import (
        PRAGMA_RULE_ID,
        REGISTRY,
        UNUSED_PRAGMA_RULE_ID,
    )

    assert (set(REGISTRY)
            | {PRAGMA_RULE_ID, UNUSED_PRAGMA_RULE_ID}) <= fired


def test_clean_fixtures_are_clean():
    for name in ("wallclock_shadowed.py", "simtime_ok.py", "async_ok.py"):
        assert run_lint([FIXTURES / name]).ok
    for name in ("parity_ok", "events_ok"):
        assert run_lint([FIXTURES / name]).ok
