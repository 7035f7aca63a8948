"""Per-layer metrics: what the traced run and the micro-calls report.

Times come from the :class:`~benchmarks.spine.spans.SpanRecorder` of one
traced repeat, with the calibrated cost of the shims themselves taken
out (a shim costs several times the cheapest call it wraps; left in,
it would be booked to ``queue.offer`` and to the loop around it); counts
and ratios come from the same repeat's
``RunResult`` and component counters, so each ratio is measured where
the work happens.  Functions the engines do not reach through an
instance (schedule construction, the Zipf draw, frame encoding, the
manifest) are timed by calling them directly on the workload's own
inputs.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

import numpy as np

from benchmarks.spine.metrics import PER_LAYER
from benchmarks.spine.spans import SpanRecorder

__all__ = ["engine_layers", "micro_layers", "net_layers", "net_micro_layers",
           "zero_layers"]

_MICRO_REPEATS = 5


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: 'this layer did not run here'."""
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Corrected:
    """A traced run's self times with the shims' own cost taken out."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        #: ns one shimmed call costs inside its span / in its parent.
        self.costs = recorder.calibrate()
        self.self_ns = recorder.corrected_self_ns(*self.costs)
        #: The program's own time under the root: what shares are of.
        self.wall_ns = sum(self.self_ns.values())
        self.slots = recorder.slots

    def count(self, name: str) -> int:
        return self.recorder.totals(name)[0]

    def per_slot(self, name: str) -> float:
        return _ratio(self.self_ns.get(name, 0.0), self.slots)

    def per_call(self, name: str) -> float:
        return _ratio(self.self_ns.get(name, 0.0), self.count(name))

    def share(self, *names: str) -> float:
        return _ratio(sum(self.self_ns.get(name, 0.0) for name in names),
                      self.wall_ns)

    def server_layers(self) -> dict[str, float]:
        """The slot state machine's metrics, shared by engines and net.

        Pops and selects only ever happen under a tick, so a tick's
        share is the three self times together.
        """
        return {
            "server.tick_self_ns": self.per_call("server.tick"),
            "server.tick_share": self.share(
                "server.tick", "server.queue_pop", "server.select"),
            "server.select_self_ns": self.per_call("server.select"),
            "server.select_calls": float(self.count("server.select")),
            "server.select_share": self.share("server.select"),
            "server.queue_offer_self_ns": self.per_call("server.queue_offer"),
            "server.queue_offer_calls": float(
                self.count("server.queue_offer")),
            "server.queue_offer_share": self.share("server.queue_offer"),
            "server.queue_pop_self_ns": self.per_call("server.queue_pop"),
        }


def engine_layers(recorder: SpanRecorder, result: Any,
                  state: Any) -> dict[str, float]:
    """Layer metrics of one traced engine run (fast or reference)."""
    spans = _Corrected(recorder)
    scheduler = state.server.queue.scheduler
    offers = result.request_offers
    fleet = result.fleet or {}
    layers = spans.server_layers()
    layers.update({
        "client.vc_arrivals_self_ns_per_slot":
            spans.per_slot("client.vc_arrivals"),
        "client.vc_requests_self_ns_per_slot":
            spans.per_slot("client.vc_requests"),
        "client.vc_requests_per_slot": _ratio(result.vc_generated,
                                              result.measured_slots),
        "client.vc_absorbed_ratio": _ratio(result.vc_absorbed,
                                           result.vc_generated),
        "client.vc_filtered_ratio": _ratio(result.vc_filtered,
                                           result.vc_generated),
        # Self time: offers made between two resumptions of the VC's
        # generator belong to the queue, not to the VC.
        "client.vc_share": spans.share("client.vc_arrivals",
                                       "client.vc_requests"),
        "client.mc_draw_ns": spans.per_call("client.mc_draw"),
        "client.mc_lookup_ns": spans.per_call("client.mc_lookup"),
        "client.mc_receive_ns": spans.per_call("client.mc_receive"),
        "client.threshold_passes_ns":
            spans.per_call("client.threshold_passes"),
        "cache.hit_ratio": _ratio(result.mc_hits,
                                  result.mc_hits + result.mc_misses),
        "server.queue_depth_mean": result.queue_length_mean,
        "server.reordered_ratio": _ratio(scheduler.reordered,
                                         scheduler.pops),
        "server.enqueued_ratio": _ratio(result.requests_enqueued, offers),
        "server.duplicate_ratio": _ratio(result.requests_duplicate, offers),
        "server.drop_ratio": _ratio(result.requests_dropped, offers),
        "core.loop_self_ns_per_slot": spans.per_slot("core.loop"),
        "core.response_miss_mean_slots": result.response_miss.mean,
        "core.drop_rate": result.drop_rate,
        "sim.step_calls_per_slot": _ratio(spans.count("sim.step"),
                                          spans.slots),
        "sim.step_self_ns": spans.per_call("sim.step"),
        "fleet.generate_self_ns_per_slot": spans.per_slot("fleet.generate"),
        "fleet.deliver_self_ns_per_slot": spans.per_slot("fleet.deliver"),
        "fleet.generated_per_slot": _ratio(fleet.get("generated", 0),
                                           result.measured_slots),
        "fleet.absorbed_ratio": _ratio(fleet.get("absorbed", 0),
                                       fleet.get("generated", 0)),
        "fleet.share": spans.share("fleet.generate", "fleet.deliver"),
    })
    if state.fleet is not None:
        layers["fleet.snapshot_ms"] = _median_ms(state.fleet.snapshot)
    return layers


def _median_ms(call: Callable[[], Any], repeats: int = _MICRO_REPEATS,
               ) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def micro_layers(config: Any) -> dict[str, float]:
    """Fixed per-run costs, timed directly on ``config``'s inputs."""
    from repro.core.build import build_push_program, build_system
    from repro.obs.manifest import run_manifest
    from repro.workload.zipf import ZipfSampler, zipf_probabilities

    db_size = config.server.db_size
    probabilities = zipf_probabilities(db_size, config.client.zipf_theta)

    def distance_table_ms() -> float:
        # The table is cached on the schedule, so each timing needs a
        # schedule of its own, built outside the timed call.
        times = []
        for _ in range(_MICRO_REPEATS):
            schedule = build_push_program(config, probabilities)
            if schedule is None:
                return 0.0
            started = time.perf_counter()
            schedule.distance_table(db_size)
            times.append(time.perf_counter() - started)
        return statistics.median(times) * 1e3

    sampler = ZipfSampler(probabilities,
                          np.random.default_rng(config.run.seed))
    draws = 1 << 16
    return {
        "core.build_system_ms": _median_ms(lambda: build_system(config)),
        "broadcast.build_schedule_ms": _median_ms(
            lambda: build_push_program(config, probabilities)),
        "broadcast.distance_table_ms": distance_table_ms(),
        "workload.zipf_sample_ns": _median_ms(
            lambda: sampler.sample(draws)) * 1e6 / draws,
        "obs.run_manifest_ms": _median_ms(
            lambda: run_manifest(config, "fast", elapsed_seconds=1.0),
            repeats=4 * _MICRO_REPEATS),
    }


def net_micro_layers() -> dict[str, float]:
    """The wire codec, one PAGE frame at a time."""
    from repro.net.protocol import FrameDecoder, Page, encode_frame

    frames = 1 << 12
    pages = [Page(index % 1000, index, "push") for index in range(frames)]
    chunk = b"".join(encode_frame(page) for page in pages)
    return {
        "net.encode_frame_ns": _median_ms(
            lambda: [encode_frame(page) for page in pages]) * 1e6 / frames,
        "net.decoder_feed_ns_per_frame": _median_ms(
            lambda: FrameDecoder().feed(chunk)) * 1e6 / frames,
    }


def net_layers(recorder: SpanRecorder, observed: dict[str, Any],
               ) -> dict[str, float]:
    """Layer metrics of one traced serving pass."""
    spans = _Corrected(recorder)
    offers = sum(observed["queue"].values())
    layers = spans.server_layers()
    layers.update({
        "server.enqueued_ratio": _ratio(observed["queue"]["enqueued"],
                                        offers),
        "server.duplicate_ratio": _ratio(observed["queue"]["duplicate"],
                                         offers),
        "server.drop_ratio": _ratio(observed["queue"]["dropped"], offers),
        # Everything the event loop did around the state machine.
        "core.loop_self_ns_per_slot": spans.per_slot("net.serve"),
        "net.frames_sent": float(observed["frames_sent"]),
        "net.shed_ratio": _ratio(
            observed["shed"], observed["shed"] + observed["frames_sent"]),
        "net.requests_received_ratio": _ratio(
            observed["requests_received"], observed["requests_sent"]),
    })
    return layers
