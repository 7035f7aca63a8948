"""Per-user client fleets: the population the paper aggregates away.

The paper's model tracks one Measured Client and folds everyone else
into a single Poisson Virtual Client, so only *aggregate* load exists —
no per-user waits, no fairness.  This package adds a vectorized
struct-of-arrays population of individually tracked clients
(:class:`~repro.fleet.state.FleetState`, enabled via
``SystemConfig.fleet``), per-user fairness statistics
(:func:`~repro.fleet.fairness.jain_index`, and
:data:`~repro.fleet.fairness.FAIRNESS_METRICS` for the ``fleet-pullbw``
figure of :data:`repro.experiments.figures.EXTENSIONS`), and a
metrics-registry adapter (:func:`~repro.fleet.metrics.bind_fleet_metrics`).
``tests/fleet/test_sweep.py::TestFleetParity`` checks a homogeneous fleet
against its aggregate-VC equivalent.

See docs/FLEET.md for the model, its heterogeneity knobs, and scale
limits.
"""

from repro.fleet.fairness import FAIRNESS_METRICS, jain_index
from repro.fleet.metrics import FleetMetricsAdapter, bind_fleet_metrics
from repro.fleet.state import FleetState

__all__ = [
    "FleetState",
    "FleetMetricsAdapter",
    "bind_fleet_metrics",
    "jain_index",
    "FAIRNESS_METRICS",
]
