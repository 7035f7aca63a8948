"""Publish the broadcast server's own counters through the registry.

:class:`~repro.server.broadcast_server.BroadcastServer` and its
:class:`~repro.server.queue.BoundedRequestQueue` keep plain integer
counters (slot counts by kind, enqueued/duplicate/dropped/served) that
historically bypassed :class:`~repro.obs.metrics.MetricsRegistry`
entirely — simulated runs exported them through ``RunResult`` while any
other consumer had to know the snapshot dict shapes.  The adapter here
mirrors those counters into registry instruments so simulated and
real-network runs share one metrics-export path: the net server syncs
every telemetry snapshot, a simulation syncs once after ``run()``, and
both end up with identical instrument names.

The server's counters are cumulative but *resettable*
(``reset_stats()`` zeroes them at the warm-up/measure boundary), while
registry counters only go up; the adapter therefore publishes through
:meth:`~repro.obs.metrics.Counter.advance_to`, which adds the gain since
the last sync and treats a backward jump as a reset (the post-reset
value is the gain).
"""

from __future__ import annotations

from repro.obs.events import SCHEDULER_DECISIONS
from repro.obs.metrics import MetricsRegistry

__all__ = ["ServerMetricsAdapter", "bind_server_metrics"]


class ServerMetricsAdapter:
    """Mirror one server's accounting into a metrics registry.

    Instruments created (under ``<prefix>_``):

    - ``<prefix>_slots_<kind>_total`` — counter per slot kind,
    - ``<prefix>_requests_<outcome>_total`` — counter per queue outcome
      (enqueued / duplicates / dropped) plus ``served``,
    - ``<prefix>_queue_depth`` / ``<prefix>_queue_capacity`` — gauges,
    - ``<prefix>_queue_drop_rate`` — gauge (fraction of *distinct*
      offers dropped; see ``BoundedRequestQueue.drop_rate``),
    - ``<prefix>_schedule_pos`` — gauge (push-program cursor),
    - ``<prefix>_sched_<decision>_total`` — counter per scheduler
      decision kind (``repro.obs.events.SCHEDULER_DECISIONS``: pull
      services granted / services taken out of FIFO order).

    Call :meth:`sync` whenever an up-to-date registry view is needed;
    each call is O(number of instruments) and touches nothing else.
    """

    def __init__(self, registry: MetricsRegistry, server,
                 prefix: str = "server"):
        self.registry = registry
        self.server = server
        self.prefix = prefix
        # Create instruments eagerly so a snapshot taken before the
        # first sync still lists the full instrument set (at zero);
        # advance_to(0) tells a counter an earlier adapter left behind
        # that this server counts from zero again.
        counters = (
            [(f"slots_{kind.value}", f"slots that carried a {kind.value}")
             for kind in server.slot_counts]
            + [(f"requests_{outcome}", f"backchannel requests {outcome}")
               for outcome in ("enqueued", "duplicates", "dropped", "served")]
            + [(f"sched_{decision}", f"pull-scheduler decisions: {decision}")
               for decision in SCHEDULER_DECISIONS])
        for stem, help_ in counters:
            registry.counter(f"{prefix}_{stem}_total", help_).advance_to(0)
        registry.gauge(f"{prefix}_queue_depth", "requests queued now")
        registry.gauge(f"{prefix}_queue_capacity", "queue capacity")
        registry.gauge(f"{prefix}_queue_drop_rate",
                       "fraction of offered requests dropped")
        registry.gauge(f"{prefix}_schedule_pos", "push-program cursor")

    def sync(self) -> None:
        """Publish the server's current accounting into the registry."""
        prefix = self.prefix
        snapshot = self.server.stats_snapshot()
        counter = self.registry.counter
        for kind, count in snapshot["slots"].items():
            counter(f"{prefix}_slots_{kind}_total").advance_to(count)
        queue = snapshot["queue"]
        for outcome in ("enqueued", "duplicates", "dropped", "served"):
            counter(f"{prefix}_requests_{outcome}_total").advance_to(
                queue[outcome])
        for decision in SCHEDULER_DECISIONS:
            counter(f"{prefix}_sched_{decision}_total").advance_to(
                queue["scheduler"][decision])
        self.registry.gauge(f"{prefix}_queue_depth").set(queue["depth"])
        self.registry.gauge(f"{prefix}_queue_capacity").set(
            queue["capacity"])
        self.registry.gauge(f"{prefix}_queue_drop_rate").set(
            queue["drop_rate"])
        self.registry.gauge(f"{prefix}_schedule_pos").set(
            snapshot["schedule_pos"])


def bind_server_metrics(registry: MetricsRegistry, server,
                        prefix: str = "server") -> ServerMetricsAdapter:
    """Create an adapter and perform the initial sync.

    Works identically for a just-finished simulation's
    ``state.server`` and for the live server inside
    :class:`repro.net.server.NetServer`.
    """
    adapter = ServerMetricsAdapter(registry, server, prefix=prefix)
    adapter.sync()
    return adapter
