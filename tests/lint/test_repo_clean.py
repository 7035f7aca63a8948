"""Acceptance gate: the real source tree is lint-clean, no baseline.

This is the ISSUE's headline criterion — ``repro-broadcast lint`` over
the shipped package must report zero non-baselined findings.  Every
legitimate wall-clock / provenance use carries an inline allow-pragma
with a rationale, so this test also pins that the pragma budget only
moves deliberately.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint.engine import run_lint


def test_source_tree_is_clean():
    result = run_lint([Path(repro.__file__).parent])
    assert result.findings == []
    assert result.files_scanned > 50


def test_every_rule_ran():
    result = run_lint([Path(repro.__file__).parent])
    assert result.rules == sorted(
        ["REP001", "REP002", "REP003", "REP004", "REP005", "REP007",
         "REP008", "REP009", "REP010"])
