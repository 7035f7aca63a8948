"""Unit tests for the fleet -> metrics-registry adapter."""

import math

from repro.fleet import bind_fleet_metrics
from repro.obs.metrics import MetricsRegistry

COUNTERS = ("generated", "absorbed", "filtered", "offered", "delivered")
GAUGES = ("num_clients", "users_measured", "still_waiting",
          "mean_wait", "max_wait",
          "user_wait_mean", "user_wait_min", "user_wait_max",
          "user_wait_p50", "user_wait_p90", "user_wait_p99",
          "jain_index")


class StubFleet:
    """Snapshot-only stand-in for a FleetState."""

    def __init__(self):
        self.stats = {name: 0 for name in COUNTERS}
        self.stats.update({name: math.nan for name in GAUGES})
        self.stats.update(num_clients=10, users_measured=0, still_waiting=0)

    def snapshot(self):
        return dict(self.stats)


class TestFleetMetricsAdapter:
    def test_bind_creates_full_instrument_set_at_zero(self):
        registry = MetricsRegistry()
        bind_fleet_metrics(registry, StubFleet())
        for name in COUNTERS:
            assert registry.counter(f"fleet_{name}_total").value == 0
        for name in GAUGES:
            assert f"fleet_{name}" in registry

    def test_counters_export_deltas(self):
        registry = MetricsRegistry()
        fleet = StubFleet()
        adapter = bind_fleet_metrics(registry, fleet)
        fleet.stats["generated"] = 5
        adapter.sync()
        assert registry.counter("fleet_generated_total").value == 5
        fleet.stats["generated"] = 8
        adapter.sync()
        assert registry.counter("fleet_generated_total").value == 8

    def test_backward_jump_treated_as_reset(self):
        registry = MetricsRegistry()
        fleet = StubFleet()
        adapter = bind_fleet_metrics(registry, fleet)
        fleet.stats["delivered"] = 8
        adapter.sync()
        # The fleet reset its counters (measurement boundary) and
        # accumulated 3 since; the registry counter keeps going up.
        fleet.stats["delivered"] = 3
        adapter.sync()
        assert registry.counter("fleet_delivered_total").value == 11

    def test_nan_gauges_read_zero(self):
        registry = MetricsRegistry()
        fleet = StubFleet()
        adapter = bind_fleet_metrics(registry, fleet)
        assert registry.gauge("fleet_jain_index").value == 0.0
        fleet.stats["jain_index"] = 0.87
        adapter.sync()
        assert registry.gauge("fleet_jain_index").value == 0.87

    def test_custom_prefix(self):
        registry = MetricsRegistry()
        bind_fleet_metrics(registry, StubFleet(), prefix="pop")
        assert "pop_generated_total" in registry
        assert "fleet_generated_total" not in registry
