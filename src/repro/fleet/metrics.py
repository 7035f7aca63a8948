"""Publish a fleet's per-user accounting through the metrics registry.

Mirrors :mod:`repro.obs.server_metrics`: the fleet keeps plain resettable
counters, registry counters only go up, so the adapter publishes through
:meth:`~repro.obs.metrics.Counter.advance_to` (a backward jump is a
reset).  Gauges carry the per-user wait
statistics (dispersion, quantiles, Jain's index) from the fleet's
:meth:`~repro.fleet.state.FleetState.snapshot`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry

__all__ = ["FleetMetricsAdapter", "bind_fleet_metrics"]

#: Resettable fleet counters mirrored as ``<prefix>_<name>_total``.
_COUNTERS = ("generated", "absorbed", "filtered", "offered", "delivered")
#: Snapshot keys mirrored as same-named gauges.
_GAUGES = (
    "num_clients", "users_measured", "still_waiting",
    "mean_wait", "max_wait",
    "user_wait_mean", "user_wait_min", "user_wait_max",
    "user_wait_p50", "user_wait_p90", "user_wait_p99",
    "jain_index",
)


class FleetMetricsAdapter:
    """Mirror one fleet's statistics into a metrics registry."""

    def __init__(self, registry: MetricsRegistry, fleet,
                 prefix: str = "fleet"):
        self.registry = registry
        self.fleet = fleet
        self.prefix = prefix
        # Create instruments eagerly so a snapshot taken before the
        # first sync still lists the full instrument set (at zero);
        # advance_to(0): this fleet counts from zero.
        for name in _COUNTERS:
            registry.counter(f"{prefix}_{name}_total",
                             f"fleet accesses {name}").advance_to(0)
        for name in _GAUGES:
            registry.gauge(f"{prefix}_{name}", f"fleet {name}")

    def sync(self) -> None:
        """Publish the fleet's current statistics into the registry."""
        prefix = self.prefix
        snapshot = self.fleet.snapshot()
        for name in _COUNTERS:
            self.registry.counter(f"{prefix}_{name}_total").advance_to(
                snapshot[name])
        for name in _GAUGES:
            value = snapshot[name]
            # Gauges have no NaN convention; an unmeasured statistic
            # simply reads 0 until users complete accesses.
            self.registry.gauge(f"{prefix}_{name}").set(
                0.0 if isinstance(value, float) and math.isnan(value)
                else value)


def bind_fleet_metrics(registry: MetricsRegistry, fleet,
                       prefix: str = "fleet") -> FleetMetricsAdapter:
    """Create an adapter and perform the initial sync."""
    adapter = FleetMetricsAdapter(registry, fleet, prefix=prefix)
    adapter.sync()
    return adapter
