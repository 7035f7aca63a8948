"""The loopback self-test: figure schema, ordering check, tiny-scale run."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.core.config import SystemConfig
from repro.experiments.base import figure_from_dict
import repro.net.selftest as net_selftest
from repro.net.selftest import (
    FLEET_LABEL,
    SIM_LABEL,
    SelfTestResult,
    SelfTestSettings,
    run_selftest,
)

#: Small enough to finish in seconds, large enough to exercise the path.
TINY = SelfTestSettings(num_clients=4, slots=250, slot_duration=0.001,
                        think_time=20.0, pull_bws=(0.0, 1.0),
                        settle_fraction=0.1, seed=7)


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"num_clients": 0},
        {"slots": 0},
        {"pull_bws": ()},
        {"settle_fraction": 1.0},
        {"settle_fraction": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelfTestSettings(**kwargs)

    def test_equivalent_ttr_matches_offered_load(self, monkeypatch):
        # N clients / think T units at the config's MCThinkTime m: N*m/T.
        settings = SelfTestSettings(num_clients=200, think_time=200.0)
        assert settings.equivalent_ttr(SystemConfig()) == 20.0
        assert SelfTestSettings(num_clients=50, think_time=100.0
                                ).equivalent_ttr(SystemConfig()) == 10.0
        # The simulated series runs at that load for any MCThinkTime: at
        # m = 40 its virtual client offers N*40/T / 40 = N/T per unit.
        specs = []
        run_figure = net_selftest.run_figure

        def spy(spec, profile):
            specs.append(spec)
            return run_figure(spec, profile)

        monkeypatch.setattr(net_selftest, "run_figure", spy)
        slow_mc = SystemConfig().with_(client__think_time=40.0)
        result = run_selftest(slow_mc, TINY)
        [spec] = specs
        expected = TINY.num_clients * 40.0 / TINY.think_time
        for x in TINY.pull_bws:
            sim_config = spec.config(SIM_LABEL, x)
            assert sim_config.client.think_time == 40.0
            assert sim_config.client.think_time_ratio == expected
            assert sim_config.server.pull_bw == x
        manifest = result.figure.manifest["selftest"]
        assert manifest["equivalent_ttr"] == expected

    def test_point_timeout_scales_with_run_length(self):
        short = SelfTestSettings(slots=100, slot_duration=0.001)
        long = SelfTestSettings(slots=10_000, slot_duration=0.005)
        assert long.point_timeout > short.point_timeout


class TestPointStart:
    def test_clock_starts_after_the_fleet_is_built(self, monkeypatch):
        """Building the fleet is synchronous; a clock already running
        then would open the point late and catch up in a burst.  When
        the fleet's construction returns, the server is bound but its
        clock is not started and no slot has ticked; the point still
        runs all its slots."""
        servers, at_build = [], []

        class Server(net_selftest.NetServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        class Fleet(net_selftest.ClientFleet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                server = servers[-1]
                at_build.append((server.port > 0, server._clock_task,
                                 server.slot))

        monkeypatch.setattr(net_selftest, "NetServer", Server)
        monkeypatch.setattr(net_selftest, "ClientFleet", Fleet)
        _, stats = asyncio.run(net_selftest._run_point(
            SystemConfig(), TINY, TINY.pull_bws[0]))
        assert at_build == [(True, None, 0)]
        assert stats["slot"] == TINY.slots


class TestOrdering:
    def _result(self, fleet, sim):
        return SelfTestResult(figure=None, fleet_p90=fleet, sim_p90=sim)

    def test_matching_order_ok(self):
        assert self._result([1.0, 3.0, 2.0], [10.0, 30.0, 20.0]).ordering_ok

    def test_mismatched_order_fails(self):
        assert not self._result([1.0, 3.0, 2.0], [10.0, 20.0, 30.0]).ok

    def test_nan_fails(self):
        assert not self._result([1.0, math.nan], [1.0, 2.0]).ordering_ok
        assert not self._result([1.0, 2.0], [math.nan, 2.0]).ordering_ok

    def test_empty_or_ragged_fails(self):
        assert not self._result([], []).ordering_ok
        assert not self._result([1.0], [1.0, 2.0]).ordering_ok


class TestTinyRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_selftest(settings=TINY)

    def test_figure_shape(self, result):
        figure = result.figure
        assert figure.figure_id == "net_selftest"
        fleet = figure.series_by_label(FLEET_LABEL)
        sim = figure.series_by_label(SIM_LABEL)
        assert fleet.x == list(TINY.pull_bws)
        assert sim.x == list(TINY.pull_bws)
        assert len(result.fleet_p90) == len(TINY.pull_bws)
        assert len(result.sim_p90) == len(TINY.pull_bws)

    def test_figure_round_trips_through_schema(self, result):
        loaded = figure_from_dict(result.figure.to_dict())
        assert loaded.figure_id == "net_selftest"
        assert [s.label for s in loaded.series] == [FLEET_LABEL, SIM_LABEL]
        restored = loaded.series_by_label(FLEET_LABEL)
        original = result.figure.series_by_label(FLEET_LABEL)
        assert [p.p90 for p in restored.points] == [
            p.p90 for p in original.points]

    def test_manifest_records_the_fleet_scale(self, result):
        manifest = result.figure.manifest
        assert manifest["engine"] == "net"
        selftest = manifest["selftest"]
        assert selftest["num_clients"] == TINY.num_clients
        assert selftest["slots"] == TINY.slots
        assert selftest["equivalent_ttr"] == TINY.equivalent_ttr(
            SystemConfig())

    def test_diagnostics_cover_every_point(self, result):
        assert [d["pull_bw"] for d in result.diagnostics] == list(
            TINY.pull_bws)
        for diagnostic in result.diagnostics:
            fleet = diagnostic["fleet"]
            assert fleet["accesses"] == fleet["hits"] + fleet["misses"]
            assert diagnostic["server_stats"]["slot"] == TINY.slots

    def test_sim_series_is_populated(self, result):
        # The simulator side always yields finite quantiles.
        assert all(not math.isnan(v) for v in result.sim_p90)

    def test_sim_series_is_unchanged(self, result):
        # Mean and p90 per PullBW, pinned: one sweep over PullBW runs the
        # same configs under the same seeds as one run per point.
        sim = result.figure.series_by_label(SIM_LABEL)
        assert [p.mean for p in sim.points] == [477.6857142857144,
                                                1.0892857142857144]
        assert [p.p90 for p in sim.points] == [1074.625, 1.0]
        assert result.sim_p90 == [1074.625, 1.0]

    def test_to_dict_is_json_shaped(self, result):
        import json

        payload = result.to_dict()
        assert set(payload) >= {"ok", "ordering_ok", "fleet_p90",
                                "sim_p90", "figure", "diagnostics"}
        json.dumps(payload)  # must not raise
