"""The readable event-driven reference engine.

This engine models the system exactly as Figure 2 of the paper draws it,
one process per entity on the :mod:`repro.sim` kernel:

- a **server process** that emits one slot per broadcast unit (via the
  shared :class:`~repro.server.broadcast_server.BroadcastServer` state
  machine) and publishes each completed page to waiting clients,
- an **MC process** running the request–think loop with a real cache,
- a **VC process** generating the aggregate backchannel load with
  exponential think times — open-loop by default, optionally closed-loop
  (``RunConfig.vc_closed_loop``) where the generated client blocks until
  its page is broadcast.

It shares every component with :class:`~repro.core.fast.FastEngine` (server,
caches, filters, workloads), so agreement between the two validates the fast
engine's shortcuts.  It is ~3.5-4x slower on the same point (benchmark spine,
``reference_ipp`` against ``ipp_light``): an under-loaded IPP slot is 2.56
calendar events, and each costs a heap push and pop, a generator resume and
three Python frames inside :mod:`repro.sim` where the fast engine's slot
loop has none of them.

An engine instance owns one :class:`~repro.sim.Environment`, so it runs
once; build a new engine for another run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.build import SystemState, build_system
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.runtime import ControlPlane, RunProtocol, SimulationStall
from repro.sim import Environment, Event
from repro.sim.core import URGENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.obs.requests import RequestTracer
    from repro.obs.trace import SlotTracer

__all__ = ["ReferenceEngine"]

#: Exponential VC gaps drawn per RNG call: element for element (and
#: bit-generator state for state) what as many scalar draws return.
_VC_GAP_CHUNK = 1024


class ReferenceEngine:
    """Process-per-entity simulation of one configured system."""

    def __init__(self, config: SystemConfig, state: SystemState | None = None,
                 tracer: "SlotTracer | None" = None,
                 request_tracer: "RequestTracer | None" = None):
        self.config = config
        self.state = state if state is not None else build_system(config)
        self.env = Environment()
        # One pending event per page someone is waiting for; fired (and
        # replaced) when the page completes on the frontchannel.
        self._arrivals: dict[int, Event] = {}
        self._vc_rng = np.random.default_rng(
            np.random.SeedSequence((config.run.seed, 0xBEEF)))
        #: Optional observers (same record schemas as the fast engine's).
        self.tracer = tracer
        self.request_tracer = request_tracer
        self._started = False

    # -- public protocol --------------------------------------------------------
    def run(self) -> RunResult:
        """Steady-state protocol: warm, settle, measure."""
        return self._execute(warmup_mode=False)

    def run_warmup(self) -> RunResult:
        """Warm-up protocol (Figure 4)."""
        return self._execute(warmup_mode=True)

    # -- orchestration -------------------------------------------------------------
    def _execute(self, warmup_mode: bool) -> RunResult:
        if self._started:
            raise RuntimeError(
                "a ReferenceEngine runs once: the first run's processes are "
                "still on its Environment; build a new engine")
        control = ControlPlane(self.state)
        run = RunProtocol(self.config, self.state, "reference", warmup_mode,
                          (self.tracer, self.request_tracer), control)
        self._started = True
        # The MC starts before the server so a boundary-aligned access is
        # processed before the slot tick — the same event order the fast
        # engine and classic CSIM models use.
        self.env.process(self._mc_process(run))
        self.env.process(self._server_process(run, control))
        if self.config.algorithm.uses_backchannel:
            self.env.process(self._vc_process())
        # The runaway guard is an event, not the plane's per-slot deadline:
        # no event at or past max_slots may fire, which a poll at the
        # server's (normal-priority) slot top would let the boundary
        # instant's deliveries and MC accesses slip through.  One sentinel
        # ahead of everything else at that instant does it, and is also
        # what the loop reaches when the calendar drains early.
        self.env.timeout(self.config.run.max_slots,
                         priority=URGENT - 1).add_callback(self._stall)
        with run:
            step = self.env.step
            while run.end_time is None:
                step()
        return run.result()

    def _stall(self, _sentinel: Event) -> None:
        raise SimulationStall(
            f"run exceeded max_slots={self.config.run.max_slots}")

    # -- processes -------------------------------------------------------------------
    def _arrival_event(self, page: int) -> Event:
        event = self._arrivals.get(page)
        if event is None:
            event = self.env.event()
            self._arrivals[page] = event
        return event

    def _server_process(self, run: RunProtocol, control: ControlPlane):
        server = self.state.server
        fleet = self.state.fleet
        uses_backchannel = self.config.algorithm.uses_backchannel
        env = self.env
        due = control.due
        slot = 0
        while True:
            if slot >= due:
                due = control.poll(slot)
            slot += 1
            if run.measuring:
                run.qlen_sum += len(server.queue)
                run.qlen_slots += 1
            # Same instant as the fast engine's tick: after the MC's
            # boundary activity, before this slot's VC arrivals.
            page, _kind = server.tick()
            if fleet is not None:
                # Fleet accesses inside this slot, drawn at the slot's
                # start (post-tick, matching the fast engine's fleet call
                # order: deliver(page at t-1) then generate(t)).  Their
                # arrival times are inside [t, t+1) regardless, and only
                # backchannel algorithms see the surviving pulls.
                survivors = fleet.generate(int(env.now), server.schedule_pos)
                if uses_backchannel:
                    for wanted in survivors.tolist():
                        server.queue.offer(wanted)
            # End-of-slot deliveries must become visible BEFORE any client
            # activity at the same instant (a fresh miss at the boundary
            # cannot catch a transmission that already finished), so the
            # slot ends at urgent priority...
            yield env.timeout(1.0, priority=URGENT)
            if page is not None:
                event = self._arrivals.pop(page, None)
                if event is not None:
                    event.succeed(env.now)
                if fleet is not None:
                    fleet.deliver(page, env.now)
            # ...and the next tick re-enters at normal priority so a
            # boundary-aligned client request (scheduled long ago, lower
            # sequence number) is processed before the server frees queue
            # capacity — the CSIM event order the fast engine mirrors.
            yield env.timeout(0.0)

    def _mc_process(self, run: RunProtocol):
        mc = self.state.mc
        threshold = self.state.mc_threshold
        server = self.state.server
        uses_backchannel = self.config.algorithm.uses_backchannel
        env = self.env
        while True:
            now = env.now
            page = mc.draw_page()
            if mc.lookup(page, now):
                done = run.access_completed(now)
            else:
                if uses_backchannel and threshold.passes(
                        page, server.schedule_pos):
                    mc.record_pull_sent(page, now, server.queue.offer(page))
                # Blocked until the page completes on the frontchannel.
                arrived_at = yield self._arrival_event(page)
                mc.receive(page, now, arrived_at)
                done = run.access_completed(arrived_at)
            if done:
                return
            yield env.timeout(mc.think_time)

    def _vc_process(self):
        vc = self.state.vc
        env = self.env
        server = self.state.server
        closed_loop = self.config.run.vc_closed_loop
        # A rate that underflows to 0 (a subnormal ThinkTimeRatio) is a
        # VC that never requests: every gap is inf, a legal "never".
        mean_gap = 1.0 / vc.rate if vc.rate else math.inf
        while True:
            for gap in self._vc_rng.exponential(
                    mean_gap, _VC_GAP_CHUNK).tolist():
                yield env.timeout(gap)
                survivors = list(
                    vc.requests_for_slot(1, server.schedule_pos))
                if not survivors:
                    continue
                server.queue.offer(survivors[0])
                if closed_loop:
                    # The generated client blocks until its page is
                    # broadcast.
                    yield self._arrival_event(survivors[0])
