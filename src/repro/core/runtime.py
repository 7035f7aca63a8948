"""What every runtime shares: the run protocol and the control plane.

:class:`~repro.core.fast.FastEngine`,
:class:`~repro.core.simulation.ReferenceEngine` and
:class:`~repro.net.server.NetServer` differ in *how a slot happens* — a
hand-rolled loop, an event calendar, a wall clock — and in nothing else.
Everything around the slot lives here, once:

- :class:`RunProtocol` is the trial protocol of Section 4: warm the MC
  cache, settle, measure, stop.  The engines call
  :meth:`~RunProtocol.access_completed` once per completed MC access and
  ask it for the :class:`~repro.core.metrics.RunResult` at the end; it
  also scopes the observers' attachment (slot tracer, request tracer,
  profiler — see :mod:`repro.obs.attach`) and stamps the manifest.
- :class:`ControlPlane` is the only code that knows which components a
  PullBW / ThresPerc retune or a push-program swap must reach.  A
  runtime keeps one integer deadline and polls the plane when its slot
  counter reaches it (``if t >= due: due = control.poll(t)``); the
  adaptive controller, the temperature reprogrammer and (for a runtime
  that hands it one) the ``max_slots`` runaway guard all hang off that
  single compare.

The within-slot event order is deliberately *not* here: the reference
engine is the oracle the fast engine is validated against, so the two
state it independently (DESIGN.md §6).
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.build import SystemState
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult, TallySnapshot
from repro.server.broadcast_server import SlotKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.adaptive import AdaptiveController
    from repro.obs.attach import Observer
    from repro.obs.requests import RequestTracer

__all__ = ["ControlPlane", "RunProtocol", "SimulationStall"]


class SimulationStall(RuntimeError):
    """The run hit ``max_slots`` before reaching its stop condition."""


class RunProtocol:
    """Phase machine, observer scope and result assembly of one engine run.

    A steady-state run *warms* until the MC cache is full, *settles* for
    ``settle_accesses`` further accesses (the access that fills the cache
    does not count, and ``settle_accesses = 0`` still consumes one), then
    *measures* exactly ``measure_accesses`` accesses.  A warm-up run
    (Figure 4) measures from the cold start until the cache holds 95% of
    its target set.

    Use as a context manager around the engine's loop.  Entering attaches
    the observers to the state's components (before a loop hoists
    ``server.tick`` or ``queue.offer``), all of them or none.  They come
    off at the access that ends the run — what an engine still does after
    it, like the fast engine's exit-slack tick, is not part of the run —
    and on any other way out of the scope, so a stalled run leaves the
    ``SystemState`` as clean as a finished one.
    """

    def __init__(self, config: SystemConfig, state: SystemState,
                 engine: str, warmup_mode: bool,
                 observers: "Iterable[Optional[Observer]]" = (),
                 control: "Optional[ControlPlane]" = None) -> None:
        """``observers`` (None entries skipped) are attached for the
        length of the run; ``control`` is reachable as ``state.control``
        meanwhile, so they can watch ``poll`` like any component call."""
        if warmup_mode and state.mc.warmup is None:
            raise ValueError("warm-up runs need a non-empty cache")
        self.config = config
        self.state = state
        self.engine = engine
        self.warmup_mode = warmup_mode
        self._observers = observers
        self._control = control
        #: Undoes what ``__enter__`` did, in reverse; closing is idempotent.
        self._scope = ExitStack()
        #: True from the first measured access on; engines sample the
        #: queue length into ``qlen_sum`` / ``qlen_slots`` while it holds.
        self.measuring = False
        self.measure_start = 0.0
        #: Completion time of the access that met the stop condition.
        self.end_time: Optional[float] = None
        self.qlen_sum = 0
        self.qlen_slots = 0
        #: Accesses settled so far; None while the cache is still warming.
        self._settled: Optional[int] = None
        self._measured = 0
        self._started = 0.0
        if warmup_mode:
            self.begin_measure(0.0)

    # -- observer scope ----------------------------------------------------
    def __enter__(self) -> "RunProtocol":
        # lint: allow[REP001] -- wall-clock run duration for the manifest
        self._started = time.perf_counter()
        with ExitStack() as scope:  # unwinds if an attach raises
            self.state.control = self._control
            scope.callback(setattr, self.state, "control", None)
            for observer in self._observers:
                if observer is not None:
                    scope.enter_context(observer.attach(self.state))
            self._scope = scope.pop_all()
        return self

    def __exit__(self, *exc: object) -> None:
        self._scope.close()

    # -- phase machine -----------------------------------------------------
    def begin_measure(self, now: float) -> None:
        """Start the measured phase: zero every component's statistics."""
        state = self.state
        state.mc.measuring = True
        state.mc.reset_stats()
        state.server.reset_stats()
        state.vc.reset_stats()
        if state.fleet is not None:
            state.fleet.reset_stats()
        self.measuring = True
        self.measure_start = now

    def access_completed(self, completion: float) -> bool:
        """Advance by one completed MC access; True once the run is over."""
        mc = self.state.mc
        if self.measuring:
            if self.warmup_mode:
                done = mc.warmup is not None and mc.warmup.complete
            else:
                self._measured += 1
                done = self._measured >= self.config.run.measure_accesses
            if done:
                self.end_time = completion
                self._scope.close()
            return done
        if self._settled is None:
            if mc.cache.is_full:
                self._settled = 0
        else:
            self._settled += 1
            if self._settled >= self.config.run.settle_accesses:
                self.begin_measure(completion)
        return False

    # -- result ------------------------------------------------------------
    def result(self) -> RunResult:
        """The finished run's statistics, stamped with its provenance."""
        from repro.obs.manifest import run_manifest  # lazy: obs -> core

        assert self.end_time is not None, "the run has not stopped yet"
        state = self.state
        mc = state.mc
        queue = state.server.queue
        slots = state.server.slot_counts
        warmup_times = None
        if self.warmup_mode and mc.warmup is not None:
            warmup_times = dict(mc.warmup.crossing_times)
        return RunResult(
            algorithm=self.config.algorithm.value,
            seed=self.config.run.seed,
            response_miss=TallySnapshot.of(mc.response_miss),
            response_all=TallySnapshot.of(mc.response_all),
            mc_hits=mc.hits,
            mc_misses=mc.misses,
            mc_pulls_sent=mc.pulls_sent,
            requests_enqueued=queue.enqueued,
            requests_duplicate=queue.duplicates,
            requests_dropped=queue.dropped,
            requests_served=queue.served,
            slots_push=slots[SlotKind.PUSH],
            slots_pull=slots[SlotKind.PULL],
            slots_padding=slots[SlotKind.PADDING],
            slots_idle=slots[SlotKind.IDLE],
            queue_length_mean=(self.qlen_sum / self.qlen_slots
                               if self.qlen_slots else 0.0),
            measured_slots=self.end_time - self.measure_start,
            total_slots=self.end_time,
            vc_generated=state.vc.generated,
            vc_absorbed=state.vc.absorbed_by_cache,
            vc_filtered=state.vc.filtered_by_threshold,
            warmup_times=warmup_times,
            fleet=(state.fleet.snapshot()
                   if state.fleet is not None else None),
            manifest=run_manifest(
                self.config, self.engine,
                # lint: allow[REP001] -- provenance elapsed_seconds
                elapsed_seconds=time.perf_counter() - self._started),
        )


class ControlPlane:
    """Decide → apply and reprogram → swap over one ``SystemState``.

    ``due`` is the next slot at which :meth:`poll` has work; a runtime
    compares its slot counter against it once per slot and stores what
    ``poll`` returns.  Polls land on exactly the slots ``t > 0`` with
    ``t % interval == 0`` of the controller's and the reprogrammer's
    intervals (controller first when both fall on one slot), and the
    stall fires at ``t == max_slots``.
    """

    def __init__(self, state: SystemState, max_slots: Optional[int] = None,
                 controller: "Optional[AdaptiveController]" = None,
                 request_tracer: "Optional[RequestTracer]" = None) -> None:
        """Args:
            state: the system whose components follow every change.
            max_slots: raise :class:`SimulationStall` at this slot.  None
                for a runtime that bounds its own clock: the reference
                engine guards per event, the net server just stops.
            controller: retunes PullBW / ThresPerc every
                ``controller.policy.interval`` slots when given.
            request_tracer: feeds the controller its wait decomposition.
        """
        self.state = state
        self._stall_at: float = math.inf if max_slots is None else max_slots
        self.controller = controller
        self.request_tracer = request_tracer
        self._control_interval = (controller.policy.interval
                                  if controller is not None else 0)
        reprogrammer = state.reprogrammer
        self._reprogram_interval = (reprogrammer.interval
                                    if reprogrammer is not None else 0)
        self.due = self._next_due(0)

    def _next_due(self, t: int) -> float:
        """The first slot after ``t`` with a poll or the stall on it."""
        due = self._stall_at
        for interval in (self._control_interval, self._reprogram_interval):
            if interval:
                due = min(due, (t // interval + 1) * interval)
        return due

    def poll(self, t: int) -> float:
        """Run what is due at slot ``t``; returns the next deadline."""
        if self._control_interval and t % self._control_interval == 0:
            self._retune(t)
        if self._reprogram_interval and t % self._reprogram_interval == 0:
            self._reprogram(t)
        if t >= self._stall_at:
            raise SimulationStall(
                f"run exceeded max_slots={self._stall_at} (t={t})")
        self.due = self._next_due(t)
        return self.due

    # -- decide -> apply ---------------------------------------------------
    def _retune(self, t: int) -> None:
        controller = self.controller
        assert controller is not None
        state = self.state
        queue = state.server.queue
        push_wait: Optional[float] = None
        pull_wait: Optional[float] = None
        tail_wait: Optional[float] = None
        if self.request_tracer is not None:
            breakdown = self.request_tracer.breakdown_stats
            push_wait = breakdown.push_wait
            pull_wait = breakdown.pull_wait
        # Tail-wait feedback is opt-in (policy budget set + fleet present):
        # a fleet snapshot per decision is cheap at interval granularity
        # but not free at million-client scale.
        if (state.fleet is not None
                and controller.policy.tail_wait_budget is not None):
            tail_wait = state.fleet.snapshot()["user_wait_p99"]
        # Distinct offers (enqueued + dropped): duplicates carry no
        # saturation signal (see BoundedRequestQueue.drop_rate).
        pull_bw, thresh_perc = controller.decide(
            float(t), queue.enqueued + queue.dropped, queue.dropped,
            push_wait=push_wait, pull_wait=pull_wait, tail_wait=tail_wait)
        state.server.mux.pull_bw = pull_bw
        state.mc_threshold.set_thresh_perc(thresh_perc)
        self._spread_threshold_slots()

    # -- reprogram -> swap -------------------------------------------------
    def _reprogram(self, t: int) -> None:
        state = self.state
        assert state.reprogrammer is not None
        schedule = state.reprogrammer.maybe_reprogram(
            t, state.server.queue.scheduler)
        if schedule is None:
            return
        # Swap the program everywhere a distance table or cursor was
        # derived from the old one.
        state.server.set_schedule(schedule)
        state.mc_threshold.set_schedule(schedule)
        state.vc.set_schedule(schedule)
        if state.fleet is not None:
            state.fleet.set_schedule(schedule)
        self._spread_threshold_slots()

    def _spread_threshold_slots(self) -> None:
        """Copy the filter's threshold into the clients' fast-path tables."""
        state = self.state
        threshold_slots = state.mc_threshold.threshold_slots
        state.vc.set_threshold_slots(threshold_slots)
        if state.fleet is not None:
            state.fleet.set_threshold_slots(threshold_slots)
