"""The optimized slot-driven simulation engine.

Time advances one broadcast slot at a time.  The within-slot event order
matches classic process-simulation (CSIM) semantics, which the reference
engine reproduces naturally and which shapes the saturation behaviour:

1. the page transmitted during the *previous* slot completes and is
   delivered to every snooping client,
2. measured-client accesses due in this slot run — a boundary-aligned
   request is processed *before* the server frees queue capacity, so under
   saturation the MC competes for queue space exactly like everyone else,
3. the server emits the slot (push page, pull response, padding, or idle),
4. the virtual client's Poisson request arrivals (strictly inside the
   slot) reach the backchannel queue.

Virtual-client work dominates at high ThinkTimeRatio, so all its draws are
buffered in bulk (see :mod:`repro.workload.access`) and the threshold check
is a flat table lookup.  Pure-Push runs take an exact analytic shortcut:
with no backchannel the schedule is never perturbed, so each miss's arrival
time is computed directly from the distance table instead of ticking
millions of empty slots.

The reference engine in :mod:`repro.core.simulation` implements the same
semantics event-by-event; integration tests cross-validate the two.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING

from repro.broadcast.schedule import NOT_BROADCAST
from repro.core.algorithms import Algorithm
from repro.core.build import SystemState, build_system
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult, TallySnapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.obs.profile import HotLoopProfile
    from repro.obs.requests import RequestTracer
    from repro.obs.trace import SlotTracer

__all__ = ["FastEngine", "simulate", "simulate_warmup", "SimulationStall"]

#: How many per-slot Poisson counts to pre-draw at once.
_POISSON_CHUNK = 1 << 14


class SimulationStall(RuntimeError):
    """The run hit ``max_slots`` before reaching its stop condition."""


class FastEngine:
    """Run one configured system to completion and report a RunResult."""

    def __init__(self, config: SystemConfig, state: SystemState | None = None,
                 force_general: bool = False, controller=None,
                 tracer: "SlotTracer | None" = None,
                 profiler: "HotLoopProfile | None" = None,
                 request_tracer: "RequestTracer | None" = None):
        """Args:
            config: the system to simulate.
            state: pre-built components (a fresh one is built if omitted).
            force_general: disable the Pure-Push analytic shortcut so tests
                can cross-validate it against the general slot loop.
            controller: optional
                :class:`~repro.core.adaptive.AdaptiveController` retuning
                PullBW / ThresPerc during the run (IPP only).
            tracer: optional :class:`~repro.obs.trace.SlotTracer` emitting
                one structured record per completed slot.  Forces the
                general slot loop (the Pure-Push analytic shortcut ticks
                no slots to trace).
            profiler: optional :class:`~repro.obs.profile.HotLoopProfile`
                accumulating per-phase wall time; also forces the general
                loop.
            request_tracer: optional
                :class:`~repro.obs.requests.RequestTracer` emitting one
                lifecycle record per MC access; also forces the general
                loop (the analytic shortcut never airs a slot to observe).
        """
        self.config = config
        self.state = state if state is not None else build_system(config)
        self._force_general = force_general
        self.controller = controller
        self.tracer = tracer
        self.profiler = profiler
        self.request_tracer = request_tracer
        if controller is not None and config.algorithm is not Algorithm.IPP:
            raise ValueError("adaptive control only applies to IPP")

    # -- public protocol -------------------------------------------------------
    def run(self) -> RunResult:
        """Steady-state protocol: warm the cache, settle, then measure."""
        return self._execute(warmup_mode=False)

    def run_warmup(self) -> RunResult:
        """Warm-up protocol (Figure 4): measure from a cold cache until the
        95% warm level is crossed."""
        if self.state.mc.warmup is None:
            raise ValueError("warm-up runs need a non-empty cache")
        return self._execute(warmup_mode=True)

    # -- engine ------------------------------------------------------------------
    def _execute(self, warmup_mode: bool) -> RunResult:
        use_analytic = (self.config.algorithm is Algorithm.PURE_PUSH
                        and not self._force_general
                        and self.tracer is None
                        and self.profiler is None
                        and self.request_tracer is None
                        # The fleet needs every slot ticked: its clients
                        # snoop the frontchannel page by page.
                        and self.state.fleet is None)
        # lint: allow[REP001] -- wall-clock run duration for the manifest
        started = time.perf_counter()
        rtracer = self.request_tracer
        if rtracer is not None:
            # Attach before _run_general hoists queue.offer so the hot
            # loop calls the observed wrapper; detach even on a stall so
            # a reused SystemState never double-attaches.
            if rtracer.think_time is None:
                rtracer.think_time = self.state.mc.think_time
            self.state.mc.tracer = rtracer
            self.state.server.queue.attach_observer(rtracer.on_queue_offer)
        try:
            if use_analytic:
                result = self._run_pure_push(warmup_mode)
            else:
                result = self._run_general(warmup_mode)
        finally:
            if rtracer is not None:
                self.state.server.queue.detach_observer()
                self.state.mc.tracer = None
        # lint: allow[REP001] -- provenance elapsed_seconds, not sim time
        return self._stamp(result, time.perf_counter() - started)

    def _stamp(self, result: RunResult, elapsed: float) -> RunResult:
        """Attach the run-provenance manifest (lazy import: obs -> core)."""
        from dataclasses import replace

        from repro.obs.manifest import run_manifest

        return replace(result, manifest=run_manifest(
            self.config, "fast", elapsed_seconds=elapsed))

    def _begin_measure(self) -> None:
        state = self.state
        state.mc.measuring = True
        state.mc.reset_stats()
        state.server.reset_stats()
        state.vc.reset_stats()
        if state.fleet is not None:
            state.fleet.reset_stats()

    def _result(self, warmup_mode: bool, measure_start: float,
                end_time: float, queue_length_mean: float) -> RunResult:
        state = self.state
        mc = state.mc
        server = state.server
        from repro.server.broadcast_server import SlotKind

        warmup_times = None
        if warmup_mode and mc.warmup is not None:
            warmup_times = dict(mc.warmup.crossing_times)
        return RunResult(
            algorithm=self.config.algorithm.value,
            seed=self.config.run.seed,
            response_miss=TallySnapshot.of(mc.response_miss,
                                           mc.latency_miss.quantiles()),
            response_all=TallySnapshot.of(mc.response_all,
                                          mc.latency_all.quantiles()),
            mc_hits=mc.hits,
            mc_misses=mc.misses,
            mc_pulls_sent=mc.pulls_sent,
            requests_enqueued=server.queue.enqueued,
            requests_duplicate=server.queue.duplicates,
            requests_dropped=server.queue.dropped,
            requests_served=server.queue.served,
            slots_push=server.slot_counts[SlotKind.PUSH],
            slots_pull=server.slot_counts[SlotKind.PULL],
            slots_padding=server.slot_counts[SlotKind.PADDING],
            slots_idle=server.slot_counts[SlotKind.IDLE],
            queue_length_mean=queue_length_mean,
            measured_slots=end_time - measure_start,
            total_slots=end_time,
            vc_generated=state.vc.generated,
            vc_absorbed=state.vc.absorbed_by_cache,
            vc_filtered=state.vc.filtered_by_threshold,
            warmup_times=warmup_times,
            fleet=(state.fleet.snapshot()
                   if state.fleet is not None else None),
        )

    # -- pure-push analytic path ---------------------------------------------------
    def _run_pure_push(self, warmup_mode: bool) -> RunResult:
        """Exact Pure-Push simulation without per-slot ticking.

        With ``PullBW = 0`` and no backchannel the program never deviates:
        the page at cycle position ``s mod cycle`` is transmitted during
        slot ``s``, so a miss at time τ is satisfied at
        ``floor(τ) + distance + 1``.
        """
        state = self.state
        mc = state.mc
        schedule = state.schedule
        assert schedule is not None
        cycle = len(schedule)
        distance = schedule.distance
        run_cfg = self.config.run
        max_slots = run_cfg.max_slots

        phase_warm, phase_settle, phase_measure = 0, 1, 2
        if warmup_mode:
            phase = phase_measure
            self._begin_measure()
            target_accesses = math.inf
        else:
            phase = phase_warm
            target_accesses = run_cfg.measure_accesses
        settle_done = 0
        measured_done = 0
        measure_start = 0.0
        time = 0.0
        think = mc.think_time

        while time < max_slots:
            now = time
            page = mc.draw_page()
            if mc.lookup(page, now):
                completion = now
            else:
                d = distance(page, int(now) % cycle)
                if d >= NOT_BROADCAST:
                    raise SimulationStall(
                        f"page {page} is not on the Pure-Push program")
                completion = int(now) + d + 1
                mc.receive(page, now, completion)
            time = completion + think
            # Phase bookkeeping per completed access.
            if phase == phase_measure:
                if warmup_mode:
                    if mc.warmup is not None and mc.warmup.complete:
                        return self._result(True, measure_start, completion,
                                            0.0)
                else:
                    measured_done += 1
                    if measured_done >= target_accesses:
                        result = self._result(False, measure_start,
                                              completion, 0.0)
                        return self._synthesize_push_slots(result)
            elif phase == phase_warm:
                if mc.cache.is_full:
                    phase = phase_settle
            elif phase == phase_settle:
                settle_done += 1
                if settle_done >= run_cfg.settle_accesses:
                    phase = phase_measure
                    measure_start = completion
                    self._begin_measure()
        raise SimulationStall(
            f"Pure-Push run exceeded max_slots={max_slots}")

    def _synthesize_push_slots(self, result: RunResult) -> RunResult:
        """Fill slot counts the analytic path never ticked through."""
        schedule = self.state.schedule
        assert schedule is not None
        elapsed = int(result.measured_slots)
        pad_fraction = schedule.num_empty_slots / len(schedule)
        padding = int(round(elapsed * pad_fraction))
        from dataclasses import replace

        return replace(result, slots_push=elapsed - padding,
                       slots_padding=padding)

    # -- general slot-driven path -----------------------------------------------------
    def _run_general(self, warmup_mode: bool) -> RunResult:
        state = self.state
        config = self.config
        run_cfg = config.run
        server = state.server
        queue = server.queue
        mc = state.mc
        vc = state.vc
        fleet = state.fleet
        threshold = state.mc_threshold
        uses_backchannel = config.algorithm.uses_backchannel
        tick = server.tick
        offer = queue.offer
        requests_for_slot = vc.requests_for_slot
        draw_page = mc.draw_page
        lookup = mc.lookup
        receive = mc.receive
        think = mc.think_time
        max_slots = run_cfg.max_slots

        phase_warm, phase_settle, phase_measure = 0, 1, 2
        if warmup_mode:
            phase = phase_measure
            self._begin_measure()
        else:
            phase = phase_warm
        settle_done = 0
        measured_done = 0
        measure_start = 0.0
        target_accesses = run_cfg.measure_accesses
        settle_accesses = run_cfg.settle_accesses
        warmup_tracker = mc.warmup

        mc_time = 0.0
        waiting_page: int | None = None
        requested_at = 0.0
        stop = False
        end_time = 0.0
        qlen_sum = 0
        qlen_slots = 0

        poisson_counts: list[int] = []
        poisson_cursor = 0

        controller = self.controller
        control_interval = (controller.policy.interval
                            if controller is not None else 0)
        # Tail-wait feedback is opt-in (policy budget set + fleet present):
        # a fleet snapshot per decision is cheap at interval granularity
        # but not free at million-client scale.
        control_tail = (controller is not None and fleet is not None
                        and controller.policy.tail_wait_budget is not None)
        reprogrammer = state.reprogrammer
        reprogram_interval = (reprogrammer.interval
                              if reprogrammer is not None else 0)

        # Observability hooks: both default to None, in which case the
        # loop pays one local-boolean test per phase and nothing else.
        tracer = self.tracer
        tracing = tracer is not None
        rtracer = self.request_tracer
        rtracing = rtracer is not None
        prof = self.profiler
        profiling = prof is not None
        # lint: allow[REP001] -- profiler phase timer, measures wall time only
        _pc = time.perf_counter
        run_started = _pc() if profiling else 0.0
        _t0 = _now = 0.0

        #: Page transmitted during the previous slot (completes now).
        in_flight: int | None = None

        t = 0
        while not stop:
            if profiling:
                _t0 = _pc()
            if controller is not None and t and t % control_interval == 0:
                # Distinct offers (enqueued + dropped): duplicates carry
                # no saturation signal (see BoundedRequestQueue.drop_rate).
                push_wait = pull_wait = tail_wait = None
                if rtracing:
                    breakdown = rtracer.breakdown_stats
                    push_wait = breakdown.push_wait
                    pull_wait = breakdown.pull_wait
                if control_tail and fleet is not None:
                    tail_wait = fleet.snapshot()["user_wait_p99"]
                pull_bw, thresh_perc = controller.decide(
                    float(t), queue.enqueued + queue.dropped, queue.dropped,
                    push_wait=push_wait, pull_wait=pull_wait,
                    tail_wait=tail_wait)
                server.mux.pull_bw = pull_bw
                threshold.set_thresh_perc(thresh_perc)
                vc.set_threshold_slots(threshold.threshold_slots)
                if fleet is not None:
                    fleet.set_threshold_slots(threshold.threshold_slots)
                if profiling:
                    _now = _pc()
                    prof.control += _now - _t0
                    _t0 = _now
            if reprogrammer is not None and t and t % reprogram_interval == 0:
                new_schedule = reprogrammer.maybe_reprogram(
                    t, queue.scheduler)
                if new_schedule is not None:
                    # Swap the program everywhere a distance table or
                    # cursor was derived from the old one.
                    server.set_schedule(new_schedule)
                    threshold.set_schedule(new_schedule)
                    vc.set_schedule(new_schedule)
                    vc.set_threshold_slots(threshold.threshold_slots)
                    if fleet is not None:
                        fleet.set_schedule(new_schedule)
                        fleet.set_threshold_slots(threshold.threshold_slots)
            if t >= max_slots:
                raise SimulationStall(
                    f"run exceeded max_slots={max_slots} "
                    f"(waiting_page={waiting_page}, t={t})")
            now_boundary = float(t)

            # 1. Deliveries: the previous slot's page completes at time t and
            # the MC snoops every frontchannel page, push or pull.
            if fleet is not None and in_flight is not None:
                fleet.deliver(in_flight, now_boundary)
            if in_flight is not None and in_flight == waiting_page:
                receive(in_flight, requested_at, now_boundary)
                waiting_page = None
                mc_time = now_boundary + think
                # Completed-access bookkeeping (mirrors the block below).
                if phase == phase_measure:
                    if warmup_mode:
                        if warmup_tracker is not None and warmup_tracker.complete:
                            stop = True
                            end_time = now_boundary
                    else:
                        measured_done += 1
                        if measured_done >= target_accesses:
                            stop = True
                            end_time = now_boundary
                elif phase == phase_warm:
                    if mc.cache.is_full:
                        phase = phase_settle
                else:
                    settle_done += 1
                    if settle_done >= settle_accesses:
                        phase = phase_measure
                        measure_start = now_boundary
                        self._begin_measure()

            if profiling:
                _now = _pc()
                prof.deliver += _now - _t0
                _t0 = _now

            # 2. MC accesses due in this slot, processed before the server
            # frees queue capacity (CSIM event order: a request landing on
            # the slot boundary does not get first claim on the popped slot).
            while not stop and waiting_page is None and mc_time < t + 1.0:
                now = mc_time
                wanted = draw_page()
                if lookup(wanted, now):
                    mc_time = now + think
                else:
                    if rtracing:
                        rtracer.on_miss_predict(threshold.max_push_wait(
                            wanted, server.schedule_pos))
                    if uses_backchannel and threshold.passes(
                            wanted, server.schedule_pos):
                        outcome = offer(wanted)
                        mc.record_pull_sent()
                        if tracing:
                            tracer.on_mc_request(wanted)
                        if rtracing:
                            rtracer.on_pull(wanted, now, outcome)
                    waiting_page = wanted
                    requested_at = now
                    break
                # Completed-access (cache hit) bookkeeping.
                if phase == phase_measure:
                    if warmup_mode:
                        if warmup_tracker is not None and warmup_tracker.complete:
                            stop = True
                            end_time = now
                    else:
                        measured_done += 1
                        if measured_done >= target_accesses:
                            stop = True
                            end_time = now
                elif phase == phase_warm:
                    if mc.cache.is_full:
                        phase = phase_settle
                else:
                    settle_done += 1
                    if settle_done >= settle_accesses:
                        phase = phase_measure
                        measure_start = now
                        self._begin_measure()

            if profiling:
                _now = _pc()
                prof.mc_access += _now - _t0
                _t0 = _now

            if phase == phase_measure:
                qlen_sum += len(queue)
                qlen_slots += 1

            # 3. The server emits the slot [t, t+1).
            in_flight, kind = tick()
            # The record snapshots the post-tick instant, before this
            # slot's VC arrivals; a tick past the stop condition is the
            # loop's exit slack, not a simulated slot, so it isn't traced.
            if tracing and not stop:
                tracer.on_slot(t, kind, in_flight, queue, waiting_page)
            # The MC's awaited page went on air at this slot's start; its
            # delivery fires at t+1 in the next iteration's step 1.
            if (rtracing and not stop and waiting_page is not None
                    and in_flight == waiting_page):
                rtracer.on_air(now_boundary, kind)

            if profiling:
                _now = _pc()
                prof.server_tick += _now - _t0
                _t0 = _now

            # 4. VC arrivals strictly inside this slot.
            if uses_backchannel:
                if poisson_cursor >= len(poisson_counts):
                    poisson_counts = vc.arrivals_for_slots(_POISSON_CHUNK)
                    poisson_cursor = 0
                count = poisson_counts[poisson_cursor]
                poisson_cursor += 1
                if count:
                    if tracing:
                        for wanted in requests_for_slot(
                                count, server.schedule_pos):
                            offer(wanted)
                            tracer.on_vc_request(wanted)
                    else:
                        for wanted in requests_for_slot(
                                count, server.schedule_pos):
                            offer(wanted)
            if profiling:
                _now = _pc()
                prof.vc_arrivals += _now - _t0
                _t0 = _now
            # Fleet accesses inside this slot.  generate() must run even
            # without a backchannel — clients still access, absorb, and
            # wait on the push program — but its survivors only reach the
            # queue when the algorithm accepts pulls.
            if fleet is not None:
                survivors = fleet.generate(t, server.schedule_pos)
                if uses_backchannel:
                    for wanted in survivors.tolist():
                        offer(wanted)
                if profiling:
                    prof.fleet_arrivals += _pc() - _t0
            t += 1

        if profiling:
            prof.slots = t
            prof.wall_seconds = _pc() - run_started
        queue_length_mean = qlen_sum / qlen_slots if qlen_slots else 0.0
        return self._result(warmup_mode, measure_start, end_time,
                            queue_length_mean)


def simulate(config: SystemConfig) -> RunResult:
    """Build and run one steady-state simulation."""
    return FastEngine(config).run()


def simulate_warmup(config: SystemConfig) -> RunResult:
    """Build and run one warm-up (Figure 4) simulation."""
    return FastEngine(config).run_warmup()
