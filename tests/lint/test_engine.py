"""Engine-level behaviour: pragmas, selection, scan roots, parse errors."""

from __future__ import annotations

import inspect
import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import run_lint


def write(tmp_path, code, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return path


class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        path = write(tmp_path, """\
            import time

            t = time.time()  # lint: allow[REP001] -- test scaffolding
            """)
        result = run_lint([path])
        assert result.ok
        assert result.suppressed == 1

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        path = write(tmp_path, """\
            import time

            # lint: allow[REP001] -- test scaffolding
            t = time.time()
            """)
        assert run_lint([path]).ok

    def test_standalone_pragma_does_not_cover_two_lines_down(self, tmp_path):
        path = write(tmp_path, """\
            import time

            # lint: allow[REP001] -- test scaffolding
            x = 1
            t = time.time()
            """)
        assert not run_lint([path]).ok

    def test_allow_file_covers_whole_module(self, tmp_path):
        path = write(tmp_path, """\
            # lint: allow-file[REP001] -- wall-clock fixture by design
            import time

            a = time.time()
            b = time.perf_counter()
            """)
        result = run_lint([path])
        assert result.ok
        assert result.suppressed == 2

    def test_pragma_only_suppresses_named_rule(self, tmp_path):
        path = write(tmp_path, """\
            import numpy as np

            # lint: allow[REP001] -- wrong rule id for this line
            rng = np.random.default_rng()
            """)
        result = run_lint([path])
        # The mis-targeted pragma suppresses nothing, so REP002 still
        # fires — and LINT001 calls out the dead pragma itself.
        assert [f.rule for f in result.findings] == ["LINT001", "REP002"]
        result = run_lint([path], unused_pragmas=False)
        assert [f.rule for f in result.findings] == ["REP002"]

    def test_pragma_in_docstring_is_inert(self, tmp_path):
        path = write(tmp_path, '''\
            """Docs quoting a pragma: # lint: allow[REP001] -- example."""
            import time

            t = time.time()
            ''')
        result = run_lint([path])
        assert [f.rule for f in result.findings] == ["REP001"]

    def test_lint000_not_suppressible(self, tmp_path):
        path = write(tmp_path, """\
            # lint: allow-file[LINT000] -- trying to silence the meta rule
            # lint: allow[REP001]
            x = 1
            """)
        result = run_lint([path])
        assert "LINT000" in {f.rule for f in result.findings}


class TestEngine:
    def test_parse_error_is_lint000(self, tmp_path):
        path = write(tmp_path, "def broken(:\n")
        result = run_lint([path])
        assert [f.rule for f in result.findings] == ["LINT000"]
        assert "does not parse" in result.findings[0].message

    def test_select_limits_rules(self, tmp_path):
        path = write(tmp_path, """\
            import time
            import numpy as np

            t = time.time()
            rng = np.random.default_rng()
            """)
        result = run_lint([path], select=["REP002"])
        assert [f.rule for f in result.findings] == ["REP002"]
        assert result.rules == ["REP002"]

    def test_unknown_rule_id_raises(self, tmp_path):
        path = write(tmp_path, "x = 1\n")
        with pytest.raises(KeyError):
            run_lint([path], select=["REP999"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([tmp_path / "nope"])

    def test_driver_signature_is_the_whole_surface(self):
        assert list(inspect.signature(run_lint).parameters) == [
            "paths", "select", "unused_pragmas"]

    def test_pycache_is_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("import time\nt = time.time()\n")
        write(tmp_path, "x = 1\n")
        result = run_lint([tmp_path])
        assert result.ok
        assert result.files_scanned == 1


class TestUnusedExemptions:
    def test_used_pragma_is_not_flagged(self, tmp_path):
        path = write(tmp_path, """\
            import time

            t = time.time()  # lint: allow[REP001] -- scaffolding
            """)
        result = run_lint([path])
        assert result.ok
        assert result.suppressed == 1

    def test_standalone_pragma_counts_as_one_exemption(self, tmp_path):
        # The pragma covers its own line and the next; suppressing via
        # the next line marks the whole pragma used.
        path = write(tmp_path, """\
            import time

            # lint: allow[REP001] -- scaffolding
            t = time.time()
            """)
        assert run_lint([path]).ok

    def test_select_subset_spares_foreign_pragmas(self, tmp_path):
        # The pragma names REP001, which did not run: no verdict on it.
        path = write(tmp_path, """\
            import time

            # lint: allow[REP001] -- judged only when REP001 runs
            x = 1
            """)
        assert run_lint([path], select=["REP002"]).ok
        assert not run_lint([path], select=["REP001"]).ok

    def test_no_unused_pragma_escape_hatch(self, tmp_path):
        path = write(tmp_path, """\
            # lint: allow[REP001] -- stale
            x = 1
            """)
        assert not run_lint([path]).ok
        assert run_lint([path], unused_pragmas=False).ok

    def test_unused_file_pragma_is_flagged(self, tmp_path):
        # An allow-file pragma is one exemption however much it covers:
        # used by three findings -> no LINT001; covering nothing -> one
        # LINT001, at the pragma's own line.
        used = write(tmp_path, """\
            import time
            # lint: allow-file[REP001] -- wall-clock module by design

            a = time.time()
            b = time.monotonic()
            c = time.perf_counter()
            """, name="used.py")
        result = run_lint([used])
        assert result.ok
        assert result.suppressed == 3

        path = write(tmp_path, """\
            x = 1
            # lint: allow-file[REP003] -- nothing here compares sim time
            y = 2
            z = 3
            """)
        result = run_lint([path])
        assert [(f.rule, f.line) for f in result.findings] == [("LINT001", 2)]


class TestScanRoots:
    """Several roots in one scan: same-named files must stay apart."""

    @pytest.fixture
    def roots(self, tmp_path, monkeypatch):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        write(tmp_path / "a", """\
            import time

            x = time.time()
            """)
        write(tmp_path / "b", """\
            import time

            x = time.time()  # lint: allow[REP001] -- excused here only
            """)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_pragma_excuses_only_its_own_file(self, roots, order):
        result = run_lint([Path(name) for name in order])
        assert [(f.path, f.line, f.rule) for f in result.findings] == [
            ("a/mod.py", 3, "REP001")]
        assert result.suppressed == 1
        assert result.files_scanned == 2

    def test_a_file_reached_twice_is_scanned_once(self, roots):
        result = run_lint([Path("a"), Path("a/mod.py")])
        assert result.files_scanned == 1
        assert len(result.findings) == 1
