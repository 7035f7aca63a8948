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

It is an order of magnitude slower than :class:`~repro.core.fast.FastEngine`
but shares every component with it (server, caches, filters, workloads), so
agreement between the two validates the fast engine's shortcuts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.build import SystemState, build_system
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.runtime import ControlPlane, RunProtocol, SimulationStall
from repro.server.broadcast_server import SlotKind
from repro.sim import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.obs.requests import RequestTracer
    from repro.obs.trace import SlotTracer

__all__ = ["ReferenceEngine"]


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
        #: Page currently being transmitted (None between slots / idle).
        self._on_air: Optional[int] = None
        #: Kind of the slot carrying :attr:`_on_air` (observability only).
        self._on_air_kind: Optional[SlotKind] = None
        self._vc_rng = np.random.default_rng(
            np.random.SeedSequence((config.run.seed, 0xBEEF)))
        #: Optional slot tracer (same record schema as the fast engine's).
        self.tracer = tracer
        #: Optional request tracer (same record schema as the fast engine's).
        self.request_tracer = request_tracer
        #: Page the MC is currently blocked on (observability only).
        self._mc_waiting: Optional[int] = None

    # -- public protocol --------------------------------------------------------
    def run(self) -> RunResult:
        """Steady-state protocol: warm, settle, measure."""
        return self._execute(warmup_mode=False)

    def run_warmup(self) -> RunResult:
        """Warm-up protocol (Figure 4)."""
        return self._execute(warmup_mode=True)

    # -- orchestration -------------------------------------------------------------
    def _execute(self, warmup_mode: bool) -> RunResult:
        run = RunProtocol(self.config, self.state, "reference", warmup_mode,
                          self.request_tracer)
        control = ControlPlane(self.state)
        # The MC starts before the server so a boundary-aligned access is
        # processed before the slot tick — the same event order the fast
        # engine and classic CSIM models use.
        self.env.process(self._mc_process(run))
        self.env.process(self._server_process(run, control))
        if self.config.algorithm.uses_backchannel:
            self.env.process(self._vc_process())
        # The runaway guard stays with the event loop, not on the plane's
        # per-slot deadline: no event at or past max_slots may fire, which
        # a poll at the server's (normal-priority) slot top would let the
        # boundary instant's deliveries and MC accesses slip through.
        max_slots = self.config.run.max_slots
        with run:
            while run.end_time is None:
                if not self.env.peek() < max_slots:
                    raise SimulationStall(
                        f"run exceeded max_slots={max_slots}")
                self.env.step()
        return run.result()

    # -- processes -------------------------------------------------------------------
    def _arrival_event(self, page: int) -> Event:
        event = self._arrivals.get(page)
        if event is None:
            event = self.env.event()
            self._arrivals[page] = event
        return event

    def _server_process(self, run: RunProtocol, control: ControlPlane):
        from repro.sim.core import URGENT

        server = self.state.server
        fleet = self.state.fleet
        uses_backchannel = self.config.algorithm.uses_backchannel
        env = self.env
        tracer = self.tracer
        due = control.due
        slot = 0
        while True:
            if slot >= due:
                due = control.poll(slot)
            slot += 1
            if run.measuring:
                run.qlen_sum += len(server.queue)
                run.qlen_slots += 1
            page, kind = server.tick()
            if tracer is not None:
                # Same snapshot instant as the fast engine: right after
                # the tick, before this slot's VC arrivals.
                tracer.on_slot(int(env.now), kind, page, server.queue,
                               self._mc_waiting)
            self._on_air = page
            self._on_air_kind = kind
            if (self.request_tracer is not None and page is not None
                    and page == self._mc_waiting):
                # The MC was already blocked on this page when it went on
                # air (mid-slot misses are caught in _mc_process instead).
                self.request_tracer.on_air(env.now, kind)
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
            self._on_air = None
            self._on_air_kind = None
            # ...and the next tick re-enters at normal priority so a
            # boundary-aligned client request (scheduled long ago, lower
            # sequence number) is processed before the server frees queue
            # capacity — the CSIM event order the fast engine mirrors.
            yield env.timeout(0.0)

    def _obtain(self, page: int, send_pull: bool):
        """Shared client-side miss handling (used by MC and closed-loop VC).

        Yields until ``page`` completes on the frontchannel; the caller
        decides (via ``send_pull``) whether a backchannel request goes out
        first.
        """
        if send_pull:
            self.state.server.queue.offer(page)
        arrival = self._arrival_event(page)
        return (yield arrival)

    def _mc_process(self, run: RunProtocol):
        mc = self.state.mc
        threshold = self.state.mc_threshold
        server = self.state.server
        uses_backchannel = self.config.algorithm.uses_backchannel
        rtracer = self.request_tracer
        env = self.env
        while True:
            now = env.now
            page = mc.draw_page()
            if mc.lookup(page, now):
                done = run.access_completed(now)
            else:
                if rtracer is not None:
                    rtracer.on_miss_predict(threshold.max_push_wait(
                        page, server.schedule_pos))
                send_pull = False
                if uses_backchannel:
                    send_pull = threshold.passes(page, server.schedule_pos)
                    if send_pull:
                        mc.record_pull_sent()
                        if self.tracer is not None:
                            self.tracer.on_mc_request(page)
                        # The MC's own offer happens here (rather than in
                        # _obtain) so the tracer can record its outcome;
                        # no yield separates the two, so the queue sees
                        # the identical mutation order either way.
                        outcome = server.queue.offer(page)
                        if rtracer is not None:
                            rtracer.on_pull(page, now, outcome)
                self._mc_waiting = page
                if rtracer is not None and self._on_air == page:
                    # Mid-slot miss on a page already transmitting: the
                    # slot started at the last integer boundary.
                    rtracer.on_air(math.floor(now), self._on_air_kind)
                arrived_at = yield from self._obtain(page, send_pull=False)
                self._mc_waiting = None
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
        mean_gap = 1.0 / vc.rate
        while True:
            yield env.timeout(self._vc_rng.exponential(mean_gap))
            survivors = list(vc.requests_for_slot(1, server.schedule_pos))
            if not survivors:
                continue
            page = survivors[0]
            if self.tracer is not None:
                self.tracer.on_vc_request(page)
            if closed_loop:
                yield from self._obtain(page, send_pull=True)
            else:
                server.queue.offer(page)
