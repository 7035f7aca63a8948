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

from dataclasses import replace
from itertools import chain, repeat
from typing import TYPE_CHECKING

from repro.broadcast.schedule import NOT_BROADCAST
from repro.core.algorithms import Algorithm
from repro.core.build import SystemState, build_system
from repro.core.config import SystemConfig
from repro.core.metrics import RunResult
from repro.core.runtime import ControlPlane, RunProtocol, SimulationStall

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.obs.requests import RequestTracer
    from repro.obs.trace import SlotTracer

__all__ = ["FastEngine", "simulate", "simulate_warmup", "SimulationStall"]

#: How many per-slot Poisson counts to pre-draw at once.
_POISSON_CHUNK = 1 << 14


class FastEngine:
    """Run one configured system to completion and report a RunResult."""

    def __init__(self, config: SystemConfig, state: SystemState | None = None,
                 force_general: bool = False, controller=None,
                 tracer: "SlotTracer | None" = None,
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
        return self._execute(warmup_mode=True)

    # -- engine ------------------------------------------------------------------
    def _execute(self, warmup_mode: bool) -> RunResult:
        observers = (self.tracer, self.request_tracer)
        use_analytic = (self.config.algorithm is Algorithm.PURE_PUSH
                        and not self._force_general
                        # The shortcut ticks no slot for one to watch.
                        and all(observer is None for observer in observers)
                        # The fleet needs every slot ticked: its clients
                        # snoop the frontchannel page by page.
                        and self.state.fleet is None)
        # Controller decisions, program swaps and the max_slots stall all
        # wait behind one deadline (see ControlPlane).
        control = ControlPlane(self.state, self.config.run.max_slots,
                               self.controller)
        run = RunProtocol(self.config, self.state, "fast", warmup_mode,
                          observers, control)
        with run:
            if use_analytic:
                self._run_pure_push(run)
            else:
                self._run_general(run, control)
        result = run.result()
        if use_analytic and not warmup_mode:
            result = self._synthesize_push_slots(result)
        return result

    # -- pure-push analytic path ---------------------------------------------------
    def _run_pure_push(self, run: RunProtocol) -> None:
        """Exact Pure-Push simulation without per-slot ticking.

        With ``PullBW = 0`` and no backchannel the program never deviates:
        the page at cycle position ``s mod cycle`` is transmitted during
        slot ``s``, so a miss at time τ is satisfied at
        ``floor(τ) + distance + 1``.
        """
        mc = self.state.mc
        schedule = self.state.schedule
        assert schedule is not None
        cycle = len(schedule)
        distance = schedule.distance
        max_slots = self.config.run.max_slots
        think = mc.think_time

        time = 0.0
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
            if run.access_completed(completion):
                return
        raise SimulationStall(
            f"Pure-Push run exceeded max_slots={max_slots}")

    def _synthesize_push_slots(self, result: RunResult) -> RunResult:
        """Fill slot counts the analytic path never ticked through."""
        schedule = self.state.schedule
        assert schedule is not None
        elapsed = int(result.measured_slots)
        pad_fraction = schedule.num_empty_slots / len(schedule)
        padding = int(round(elapsed * pad_fraction))
        return replace(result, slots_push=elapsed - padding,
                       slots_padding=padding)

    # -- general slot-driven path -----------------------------------------------------
    def _run_general(self, run: RunProtocol, control: ControlPlane) -> None:
        state = self.state
        config = self.config
        server = state.server
        queue = server.queue
        mc = state.mc
        vc = state.vc
        fleet = state.fleet
        threshold = state.mc_threshold
        uses_backchannel = config.algorithm.uses_backchannel
        # Every component call resolves on the instance, after the run's
        # observers attached: what watches a run shadows these names
        # (repro.obs.attach), and the loop itself carries no hook.
        tick = server.tick
        offer = queue.offer
        arrivals_for_slots = vc.arrivals_for_slots
        requests_for_slot = vc.requests_for_slot
        draw_page = mc.draw_page
        lookup = mc.lookup
        receive = mc.receive
        think = mc.think_time
        access_completed = run.access_completed
        # Queue depth is ``len`` of the queue's page container, a C call
        # where ``len(queue)`` would run ``__len__`` in Python.
        queued = queue.pages

        due = control.due
        measuring = run.measuring

        mc_time = 0.0
        waiting_page: int | None = None
        requested_at = 0.0
        stop = False
        qlen_sum = 0
        qlen_slots = 0

        # Per-slot Poisson arrival counts, drawn a chunk at a time and only
        # when the previous chunk is spent (``vc_rng``'s draw order).
        poisson_counts = chain.from_iterable(
            map(arrivals_for_slots, repeat(_POISSON_CHUNK)))

        #: Page transmitted during the previous slot (completes now).
        in_flight: int | None = None

        t = 0
        while not stop:
            if t >= due:
                due = control.poll(t)

            # 1. Deliveries: the previous slot's page completes at time t and
            # the MC snoops every frontchannel page, push or pull.
            if in_flight is not None:
                now_boundary = float(t)
                if fleet is not None:
                    fleet.deliver(in_flight, now_boundary)
                if in_flight == waiting_page:
                    receive(in_flight, requested_at, now_boundary)
                    waiting_page = None
                    mc_time = now_boundary + think
                    stop = access_completed(now_boundary)
                    measuring = run.measuring

            # 2. MC accesses due in this slot, processed before the server
            # frees queue capacity (CSIM event order: a request landing on
            # the slot boundary does not get first claim on the popped slot).
            while not stop and waiting_page is None and mc_time < t + 1.0:
                now = mc_time
                wanted = draw_page()
                if lookup(wanted, now):
                    mc_time = now + think
                else:
                    if uses_backchannel and threshold.passes(
                            wanted, server.schedule_pos):
                        mc.record_pull_sent(wanted, now, offer(wanted))
                    waiting_page = wanted
                    requested_at = now
                    break
                # A cache hit completes the access on the spot.
                stop = access_completed(now)
                measuring = run.measuring

            if measuring:
                qlen_sum += len(queued)
                qlen_slots += 1

            # 3. The server emits the slot [t, t+1).  The MC's awaited
            # page, if this is it, is delivered at t+1 in the next
            # iteration's step 1.  A tick past the stop condition is the
            # loop's exit slack, not a simulated slot.
            in_flight, _kind = tick()

            # 4. VC arrivals strictly inside this slot.
            if uses_backchannel:
                count = next(poisson_counts)
                if count:
                    for wanted in requests_for_slot(count, server.schedule_pos):
                        offer(wanted)
            # Fleet accesses inside this slot.  generate() must run even
            # without a backchannel — clients still access, absorb, and
            # wait on the push program — but its survivors only reach the
            # queue when the algorithm accepts pulls.
            if fleet is not None:
                survivors = fleet.generate(t, server.schedule_pos)
                if uses_backchannel:
                    for wanted in survivors:
                        offer(wanted)
            t += 1

        run.qlen_sum = qlen_sum
        run.qlen_slots = qlen_slots


def simulate(config: SystemConfig) -> RunResult:
    """Build and run one steady-state simulation."""
    return FastEngine(config).run()


def simulate_warmup(config: SystemConfig) -> RunResult:
    """Build and run one warm-up (Figure 4) simulation."""
    return FastEngine(config).run_warmup()
