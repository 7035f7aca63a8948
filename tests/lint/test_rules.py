"""Unit tests for individual rules on tiny in-memory trees."""

from __future__ import annotations

import textwrap

from repro.lint.engine import run_lint


def lint_source(tmp_path, code, name="mod.py", select=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return run_lint([path], select=select)


class TestDeterminism:
    def test_from_import_alias_is_resolved(self, tmp_path):
        result = lint_source(tmp_path, """\
            from time import monotonic as tick

            def f():
                return tick()
            """)
        assert [f.rule for f in result.findings] == ["REP001"]
        assert "time.monotonic" in result.findings[0].message

    def test_module_alias_is_resolved(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy.random as npr

            def f():
                return npr.randint(10)
            """)
        assert [f.rule for f in result.findings] == ["REP001"]

    def test_seeded_rng_methods_are_fine(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
            """)
        assert result.ok

    def test_local_named_random_not_confused(self, tmp_path):
        # A local variable named 'random' is not the random module.
        result = lint_source(tmp_path, """\
            def f(random):
                return random.choice([1, 2])
            """)
        assert result.ok


class TestSeedDiscipline:
    def test_positional_seed_ok(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            def f():
                return np.random.default_rng(42)
            """)
        assert result.ok

    def test_keyword_seed_none_flagged(self, tmp_path):
        result = lint_source(tmp_path, """\
            from numpy.random import default_rng

            def f():
                return default_rng(seed=None)
            """)
        assert [f.rule for f in result.findings] == ["REP002"]


class TestSimTimeEquality:
    def test_suffix_match(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(record):
                return record.arrival_time == record.service_time
            """)
        assert [f.rule for f in result.findings] == ["REP003"]

    def test_ordering_comparisons_ok(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(now, deadline):
                return now >= deadline
            """)
        assert result.ok

    def test_is_none_ok(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(end_time):
                return end_time is not None
            """)
        assert result.ok


class TestProjectRules:
    def test_parity_skips_tree_without_engines(self, tmp_path):
        # A config.py alone (no fast.py/simulation.py) is a partial scan,
        # not a parity violation.
        (tmp_path / "config.py").write_text(textwrap.dedent("""\
            from dataclasses import dataclass

            @dataclass
            class SystemConfig:
                knob: int = 0
            """))
        assert run_lint([tmp_path], select=["REP004"]).ok

    def test_enum_without_registry_is_flagged(self, tmp_path):
        (tmp_path / "broadcast_server.py").write_text(textwrap.dedent("""\
            import enum

            class SlotKind(str, enum.Enum):
                PUSH = "push"
            """))
        result = run_lint([tmp_path], select=["REP005"])
        assert [f.rule for f in result.findings] == ["REP005"]
        assert "no events.py registry" in result.findings[0].message
