"""Dashboard frame writer, sweep monitor, and STATS frame rendering."""

import io
import math

import pytest

from repro.experiments.base import run_sweep, sweep_progress
from repro.obs.dashboard import (
    Dashboard,
    SweepMonitor,
    quantiles_from_bucket_snapshot,
    render_stats_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.monitor import Histogram

from tests.conftest import small_config


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class _FakeResult:
    class response_miss:
        mean = 50.0


class TestDashboard:
    def test_plain_stream_appends_whole_frames(self):
        stream = io.StringIO()
        dash = Dashboard(stream=stream, interval=0.0)
        dash.show("a\nb")
        dash.show("c")
        assert stream.getvalue() == "a\nb\nc\n"

    def test_tty_repaints_in_place(self):
        stream = _TtyStream()
        dash = Dashboard(stream=stream, interval=0.0)
        dash.show("one\ntwo")
        dash.show("three\nfour")
        out = stream.getvalue()
        # Second frame climbs back over the first (2 lines) and clears.
        assert "\x1b[2F" in out
        assert out.count("\x1b[2K") == 4

    def test_tty_blanks_leftover_lines_of_a_taller_frame(self):
        stream = _TtyStream()
        dash = Dashboard(stream=stream, interval=0.0)
        dash.show("one\ntwo\nthree")
        dash.show("four")
        tail = stream.getvalue().rsplit("\x1b[3F", 1)[-1]
        # After the shorter frame, two stale lines are erased.
        assert tail.count("\x1b[2K") >= 3

    def test_interval_throttles_unforced_frames(self):
        stream = io.StringIO()
        dash = Dashboard(stream=stream, interval=3600.0)
        assert dash.show("first")
        assert not dash.show("suppressed")
        assert dash.show("forced", force=True)
        assert "suppressed" not in stream.getvalue()

    def test_close_paints_a_final_frame(self):
        stream = io.StringIO()
        dash = Dashboard(stream=stream, interval=3600.0)
        dash.show("first")
        dash.close("final")
        assert stream.getvalue().endswith("final\n")


class TestSweepMonitor:
    def test_registry_instruments_track_progress(self):
        registry = MetricsRegistry()
        monitor = SweepMonitor(registry=registry)
        monitor.sweep_started(3, "IPP")
        for index in range(3):
            monitor.replicate_done(index, _FakeResult())
        snapshot = registry.snapshot()
        assert snapshot["sweep_replicates_completed_total"]["value"] == 3
        assert snapshot["sweep_replicates_total"]["value"] == 3
        assert snapshot["sweep_running_mean_wait"]["value"] == 50.0

    def test_totals_accumulate_across_sweeps(self):
        monitor = SweepMonitor()
        monitor.sweep_started(2, "push")
        monitor.replicate_done(0, _FakeResult())
        monitor.sweep_started(4, "pull")
        assert monitor.total == 6 and monitor.completed == 1
        assert monitor.eta_seconds() is not None

    def test_render_mentions_progress_and_current_series(self):
        monitor = SweepMonitor(title="figure 3a")
        monitor.sweep_started(2, "IPP 95%")
        monitor.replicate_done(0, _FakeResult())
        frame = monitor.render()
        assert "figure 3a" in frame
        assert "1/2" in frame
        assert "IPP 95%" in frame

    def test_overall_histogram_merges_per_sweep_histograms(self):
        monitor = SweepMonitor()
        monitor.sweep_started(1, "a")
        monitor.replicate_done(0, _FakeResult())
        monitor.sweep_started(1, "b")
        monitor.replicate_done(0, _FakeResult())
        merged = monitor.overall_histogram()
        assert merged.count == 2
        assert merged.mean == 50.0

    def test_nan_means_are_skipped_not_poisoning(self):
        class _NanResult:
            class response_miss:
                mean = math.nan

        monitor = SweepMonitor()
        monitor.sweep_started(1, None)
        monitor.replicate_done(0, _NanResult())
        assert monitor.completed == 1
        assert monitor.overall_histogram().count == 0

    def test_drives_from_a_real_sweep_via_ambient_context(self):
        stream = io.StringIO()
        monitor = SweepMonitor(
            dashboard=Dashboard(stream=stream, interval=0.0))
        configs = [small_config(run__measure_accesses=40) for _ in range(2)]
        with sweep_progress(monitor):
            results = run_sweep(configs, label="smoke")
        assert len(results) == 2
        assert monitor.completed == 2 and monitor.total == 2
        assert "smoke" in stream.getvalue()

    def test_ambient_context_restores_previous_observer(self):
        from repro.experiments import base

        outer, inner = SweepMonitor(), SweepMonitor()
        with sweep_progress(outer):
            with sweep_progress(inner):
                assert base._AMBIENT_PROGRESS is inner
            assert base._AMBIENT_PROGRESS is outer
        assert base._AMBIENT_PROGRESS is None


class TestStatsFrames:
    def test_renders_server_snapshot_shape(self):
        frame = render_stats_frame({
            "slot": 250,
            "connected_clients": 7,
            "server": {
                "slots": {"push": 200, "pull": 50},
                "queue": {"depth": 3, "capacity": 80, "served": 41,
                          "drop_rate": 0.05},
                "schedule_pos": 9,
            },
            "metrics": {
                "net_frames_sent_total": {"type": "counter", "value": 1750},
                "net_frames_shed_total": {"type": "counter", "value": 2},
            },
        }, title="serve :9000")
        assert "serve :9000" in frame and "slot 250" in frame
        assert "clients 7" in frame
        assert "queue 3/80" in frame and "5.0%" in frame
        assert "push 200" in frame and "pull 50" in frame
        assert "frames_sent 1750" in frame and "frames_shed 2" in frame

    def test_tolerates_partial_payloads(self):
        assert render_stats_frame({}, title="x").startswith("x")

    def test_renders_latency_quantiles_from_bucket_snapshot(self):
        hist = Histogram("fleet_latency_seconds")
        for value in (1.0, 2.0, 3.0, 50.0):
            hist.observe(value)
        frame = render_stats_frame(
            {"metrics": {"fleet_latency_seconds": hist.snapshot()}})
        assert "fleet latency" in frame and "p90" in frame


class TestBucketSnapshotQuantiles:
    def test_matches_live_histogram_within_bucket_resolution(self):
        hist = Histogram("lat")
        values = [1.0, 2.0, 4.0, 8.0, 20.0, 100.0, 400.0, 2000.0]
        for value in values:
            hist.observe(value)
        # The snapshot reader and the live object share one rule: equal
        # floats, not merely close ones.
        assert quantiles_from_bucket_snapshot(hist.snapshot()) \
            == hist.quantiles()

    def test_empty_or_foreign_snapshots_return_none(self):
        assert quantiles_from_bucket_snapshot({}) is None
        assert quantiles_from_bucket_snapshot(
            {"type": "counter", "value": 3}) is None
        empty = Histogram("lat").snapshot()
        assert quantiles_from_bucket_snapshot(empty) is None
