"""Runtime determinism sanitizer: replay diffing, injection, CLI."""

from __future__ import annotations

import json

from repro.cli import main
from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.lint.sanitize import capture_trace, sanitize_config
from repro.obs.manifest import config_from_dict, config_to_dict
from tests.conftest import small_config


def tiny_config(algorithm: Algorithm = Algorithm.IPP) -> SystemConfig:
    return SystemConfig(algorithm=algorithm).with_(
        run__seed=7, run__settle_accesses=50, run__measure_accesses=80)


class TestConfigRoundTrip:
    def test_roundtrip_identity(self):
        config = tiny_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_roundtrip_through_json(self):
        # JSON turns the tuples into lists; the revival must undo that.
        config = tiny_config(Algorithm.PURE_PUSH)
        data = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(data) == config

    def test_unknown_keys_are_ignored(self):
        data = config_to_dict(tiny_config())
        data["future_field"] = 1
        data["run"]["future_knob"] = 2
        assert config_from_dict(data) == tiny_config()


class TestSanitize:
    def test_clean_config_passes_both_engines(self):
        report = sanitize_config(tiny_config(), hash_seed=None)
        assert report.ok
        assert [e.engine for e in report.engines] == ["fast", "reference"]
        assert all(e.slots > 0 for e in report.engines)

    def test_injected_divergence_names_the_slot(self):
        report = sanitize_config(tiny_config(), engines=("fast",),
                                 hash_seed=None, inject_divergence=40)
        assert not report.ok
        check = report.engines[0].checks[0]
        assert not check.ok
        assert check.divergent_slot == 40
        assert "slot 40" in report.format()
        assert "queue_depth" in check.detail

    def test_injection_beyond_trace_still_trips(self):
        report = sanitize_config(tiny_config(), engines=("fast",),
                                 hash_seed=None,
                                 inject_divergence=10**9)
        assert not report.ok

    def test_subprocess_hashseed_replay_matches(self):
        report = sanitize_config(tiny_config(), engines=("fast",),
                                 hash_seed="99")
        assert report.ok
        labels = [c.label for c in report.engines[0].checks]
        assert any("PYTHONHASHSEED=99" in label for label in labels)

    def test_subprocess_replay_keeps_the_pull_discipline(self):
        # The child gets its config as JSON; a revival that dropped the
        # scheduler section replayed every RxW run as FIFO.
        # The 20-page system is enough: its RxW and FIFO traces differ.
        rxw = small_config(
            client__think_time_ratio=100, server__queue_size=8,
            scheduler__discipline="rxw", run__settle_accesses=10,
            run__measure_accesses=30)
        fifo = rxw.with_(scheduler__discipline="fifo")
        assert capture_trace(rxw, "fast") != capture_trace(fifo, "fast")
        report = sanitize_config(rxw, engines=("fast",), hash_seed="99")
        assert report.ok, report.format()

    def test_report_dict_mirrors_verdict(self):
        report = sanitize_config(tiny_config(), engines=("fast",),
                                 hash_seed=None, inject_divergence=40)
        data = report.to_dict()
        assert data["ok"] is False
        assert data["engines"][0]["checks"][0]["divergent_slot"] == 40


class TestSanitizeCli:
    ARGS = ["sanitize", "--settle", "50", "--measure", "80",
            "--engine", "fast", "--no-hashseed"]

    def test_exit_zero_on_deterministic_run(self, capsys):
        assert main(self.ARGS) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_one_names_the_divergent_slot(self, capsys):
        assert main(self.ARGS + ["--inject-divergence", "40"]) == 1
        out = capsys.readouterr().out
        assert "slot 40" in out
        assert "FAIL" in out

    def test_json_format(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True

    def test_hash_seed_flags_conflict(self, capsys):
        assert main(self.ARGS + ["--hash-seed", "5"]) == 2
