"""CLI contract: exit codes, JSON schema (version 2), both entries."""

from __future__ import annotations

import json
import textwrap

import pytest

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

    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--baseline", "x"], ["--update-baseline"],
        ["--config", "x"], ["--no-config"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        # Pragmas are the one exemption mechanism and the scan is serial:
        # the framework's flags are gone from both entry points.
        target = str(clean_file(tmp_path))
        for entry, argv in ((lint_main, [target]),
                            (repro_main, ["lint", target])):
            with pytest.raises(SystemExit) as caught:
                entry(argv + flag)
            assert caught.value.code == EXIT_USAGE


class TestJsonFormat:
    def test_schema(self, tmp_path, capsys):
        code = lint_main([str(dirty_file(tmp_path)), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_FINDINGS
        assert payload["version"] == 2
        assert payload["files_scanned"] == 1
        # Version 2 dropped counts.baselined, counts.config_allowed and
        # the per-finding "baselined" key along with the mechanisms.
        assert payload["counts"] == {"new": 1, "suppressed": 0}
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "message", "hint"}
        assert finding["rule"] == "REP001"
        assert finding["path"] == "dirty.py"
        assert finding["line"] == 3

    def test_clean_json(self, tmp_path, capsys):
        code = lint_main([str(clean_file(tmp_path)), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_CLEAN
        assert payload["findings"] == []


class TestEntryPoints:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "REP001", "REP003", "REP004", "REP005", "REP007", "REP008",
            "REP009"]

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
