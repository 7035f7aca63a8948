"""CLI contract: exit codes, JSON schema, baseline ratchet, both entries."""

from __future__ import annotations

import json
import textwrap

from repro.cli import main as repro_main
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.lint.cli import main as lint_main


def write(tmp_path, code, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return path


def clean_file(tmp_path):
    return write(tmp_path, "x = 1\n", name="clean.py")


def dirty_file(tmp_path):
    return write(tmp_path, """\
        import time

        t = time.time()
        """, name="dirty.py")


class TestExitCodes:
    def test_clean_exits_zero(self, tmp_path):
        assert lint_main([str(clean_file(tmp_path))]) == EXIT_CLEAN

    def test_findings_exit_one(self, tmp_path):
        assert lint_main([str(dirty_file(tmp_path))]) == EXIT_FINDINGS

    def test_missing_path_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")]) == EXIT_USAGE

    def test_unknown_rule_is_usage_error(self, tmp_path):
        assert lint_main(
            [str(clean_file(tmp_path)), "--select", "REP999"]) == EXIT_USAGE

    def test_empty_select_is_usage_error(self, tmp_path):
        assert lint_main(
            [str(clean_file(tmp_path)), "--select", " , "]) == EXIT_USAGE

    def test_missing_baseline_file_is_usage_error(self, tmp_path):
        assert lint_main(
            [str(clean_file(tmp_path)),
             "--baseline", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_bad_baseline_schema_is_usage_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{\"version\": 99}")
        assert lint_main(
            [str(clean_file(tmp_path)), "--baseline", str(bad)]) == EXIT_USAGE

    def test_update_baseline_requires_baseline(self, tmp_path):
        assert lint_main(
            [str(clean_file(tmp_path)), "--update-baseline"]) == EXIT_USAGE


class TestJsonFormat:
    def test_schema(self, tmp_path, capsys):
        code = lint_main([str(dirty_file(tmp_path)), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FINDINGS
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {
            "new": 1, "baselined": 0, "suppressed": 0, "config_allowed": 0}
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "message", "hint", "baselined"}
        assert finding["rule"] == "REP001"
        assert finding["path"] == "dirty.py"
        assert finding["line"] == 3
        assert finding["baselined"] is False

    def test_clean_json(self, tmp_path, capsys):
        code = lint_main([str(clean_file(tmp_path)), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CLEAN
        assert payload["findings"] == []


class TestBaselineRatchet:
    def test_update_then_pass_then_fail_on_new(self, tmp_path, capsys):
        dirty = dirty_file(tmp_path)
        baseline = tmp_path / "baseline.json"

        assert lint_main([str(dirty), "--baseline", str(baseline),
                          "--update-baseline"]) == EXIT_CLEAN
        assert baseline.exists()

        # Ratchet holds: the baselined finding no longer fails the run.
        assert lint_main(
            [str(dirty), "--baseline", str(baseline)]) == EXIT_CLEAN

        # ... but it is still reported, marked as baselined.
        capsys.readouterr()
        lint_main([str(dirty), "--baseline", str(baseline),
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {
            "new": 0, "baselined": 1, "suppressed": 0, "config_allowed": 0}
        assert payload["findings"][0]["baselined"] is True

        # A fresh violation on top of the baseline fails again.
        dirty.write_text(dirty.read_text()
                         + "u = time.perf_counter()\n")
        assert lint_main(
            [str(dirty), "--baseline", str(baseline)]) == EXIT_FINDINGS


class TestEntryPoints:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005"):
            assert rule_id in out

    def test_repro_broadcast_lint_subcommand(self, tmp_path):
        assert repro_main(["lint", str(dirty_file(tmp_path))]) \
            == EXIT_FINDINGS

    def test_module_entry(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(dirty_file(tmp_path))],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_FINDINGS
        assert "REP001" in proc.stdout
