"""The metric vocabulary: names, units, directions and bounds.

``BENCHMARK.json`` is :func:`contract` serialised; a test keeps the two
equal.  Layer metrics are prefixed with the module (``src/repro/<name>``)
they time.  A layer metric reads 0 on a workload that never runs the
layer (``fleet.*`` without a fleet, ``sim.*`` under the fast engine).
"""

from __future__ import annotations

from typing import Any

from benchmarks.spine.workloads import WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "contract"]

#: ``--seconds`` the driver passes: timed repeats run until five (sweep:
#: three) are done *and* this much time was measured.
RUN_SECONDS = 8

#: ``(name, unit, better, bound)``; bound = share of the parent's median
#: the metric may worsen by.  Every one is reported on every workload, so
#: each is normalised to stay comparable across seeds (a run's simulated
#: slot count depends on its seed; host time *per slot* does not), and
#: each is host time or memory: the simulated results
#: (``response_miss_mean_slots``, ``drop_rate``) repeat exactly per seed
#: and are gated by the digest pin instead — see README.md.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("slots_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_slot", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: ``(name, unit, better)``, from the traced run and direct micro-calls.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # client: the virtual client's two calls, then the measured client's.
    ("client.vc_arrivals_self_ns_per_slot", "ns", "lower"),
    ("client.vc_requests_self_ns_per_slot", "ns", "lower"),
    ("client.vc_requests_per_slot", "count", "lower"),
    ("client.vc_absorbed_ratio", "ratio", "higher"),
    ("client.vc_filtered_ratio", "ratio", "higher"),
    ("client.vc_share", "ratio", "lower"),
    ("client.mc_draw_ns", "ns", "lower"),
    ("client.mc_lookup_ns", "ns", "lower"),
    ("client.mc_receive_ns", "ns", "lower"),
    ("client.threshold_passes_ns", "ns", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    # server: the slot state machine, its queue and the discipline.
    ("server.tick_self_ns", "ns", "lower"),
    ("server.tick_share", "ratio", "lower"),
    ("server.select_self_ns", "ns", "lower"),
    ("server.select_calls", "count", "lower"),
    ("server.select_share", "ratio", "lower"),
    ("server.queue_depth_mean", "count", "lower"),
    ("server.reordered_ratio", "ratio", "lower"),
    ("server.queue_offer_self_ns", "ns", "lower"),
    ("server.queue_offer_calls", "count", "lower"),
    ("server.queue_offer_share", "ratio", "lower"),
    ("server.queue_pop_self_ns", "ns", "lower"),
    ("server.enqueued_ratio", "ratio", "higher"),
    ("server.duplicate_ratio", "ratio", "lower"),
    ("server.drop_ratio", "ratio", "lower"),
    # core: the engine loop around the shimmed calls; the simulated
    # headline numbers (exact per seed, informative here).
    ("core.loop_self_ns_per_slot", "ns", "lower"),
    ("core.build_system_ms", "ms", "lower"),
    ("core.response_miss_mean_slots", "slots", "lower"),
    ("core.drop_rate", "ratio", "lower"),
    ("sim.step_calls_per_slot", "count", "lower"),
    ("sim.step_self_ns", "ns", "lower"),
    ("fleet.generate_self_ns_per_slot", "ns", "lower"),
    ("fleet.deliver_self_ns_per_slot", "ns", "lower"),
    ("fleet.generated_per_slot", "count", "lower"),
    ("fleet.absorbed_ratio", "ratio", "higher"),
    ("fleet.snapshot_ms", "ms", "lower"),
    ("fleet.share", "ratio", "lower"),
    ("fleet.client_slots_per_s", "1/s", "higher"),
    # fixed per-run costs, by direct micro-calls on the workload's inputs.
    ("broadcast.build_schedule_ms", "ms", "lower"),
    ("broadcast.distance_table_ms", "ms", "lower"),
    ("workload.zipf_sample_ns", "ns", "lower"),
    ("obs.run_manifest_ms", "ms", "lower"),
    ("obs.request_tracer_overhead_ratio", "ratio", "lower"),
    ("obs.slot_tracer_overhead_ratio", "ratio", "lower"),
    ("experiments.pool_efficiency", "ratio", "higher"),
    ("experiments.runs_per_s", "1/s", "higher"),
    ("net.encode_frame_ns", "ns", "lower"),
    ("net.decoder_feed_ns_per_frame", "ns", "lower"),
    ("net.frames_sent", "count", "higher"),
    ("net.frames_per_s", "1/s", "higher"),
    ("net.shed_ratio", "ratio", "lower"),
    ("net.requests_received_ratio", "ratio", "higher"),
    ("net.lagging_fraction_paced", "ratio", "lower"),
    # the cost of looking.
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.self_time_coverage", "ratio", "higher"),
)


def contract() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }
