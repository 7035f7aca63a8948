"""Where a run's host time goes, by the component call it is spent in.

:class:`HotLoopProfile` accumulates wall time per phase, a phase being
the time *inside* one group of calls on the components both engines
share (the list in :meth:`HotLoopProfile.attach`; docs/OBSERVABILITY.md
has the table).  None of those calls nests inside another, so the
phases are disjoint; what is left of the wall time — the engine's own
loop, the event kernel under the reference engine, the timers — is the
"(untimed)" row of :meth:`HotLoopProfile.render`.  The timers are
shadows on the components (:mod:`repro.obs.attach`), so one profile
reads either engine; :func:`profile_run` is the one-call convenience
behind ``repro-broadcast profile``.

Timing every call costs real wall time (two clock reads and two extra
Python calls each), so the numbers are for *relative* attribution, not
absolute throughput; the benchmark spine (``benchmarks/spine``) measures
that without instrumentation.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.obs.attach import Attachment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.build import SystemState

__all__ = ["HotLoopProfile", "profile_run"]

#: Phases in their within-slot execution order (DESIGN.md §6);
#: ``queue_offer`` happens inside the three phases that offer.
ENGINE_PHASES: tuple[str, ...] = (
    "control", "deliver", "mc_access", "server_tick", "vc_arrivals",
    "fleet_arrivals", "queue_offer")


class HotLoopProfile:
    """Per-phase wall-time breakdown of one run (one float per phase)."""

    __slots__ = ENGINE_PHASES + ("slots", "wall_seconds")

    def __init__(self):
        self.control = self.deliver = self.mc_access = self.server_tick = 0.0
        self.vc_arrivals = self.fleet_arrivals = self.queue_offer = 0.0
        #: Server ticks and wall time between attach and detach.
        self.slots = 0
        self.wall_seconds = 0.0

    def attach(self, state: "SystemState") -> Attachment:
        """Time ``state``'s component calls into the phases; detaching
        also sets :attr:`slots` and :attr:`wall_seconds`."""
        # lint: allow[REP001] -- the profiler measures wall time by design
        clock = time.perf_counter
        server = state.server

        def timed(phase: str) -> Callable[..., Any]:
            def call(inner: Callable[..., Any], *args: Any) -> Any:
                started = clock()
                result = inner(*args)
                setattr(self, phase, getattr(self, phase) + clock() - started)
                return result
            return call

        def timed_resumptions(inner, count: int,
                              schedule_pos: int) -> Iterator[int]:
            # The time between a yield and the next resumption is the
            # consumer's (its offers), not the generator's.
            pages = inner(count, schedule_pos)
            while True:
                started = clock()
                page = next(pages, None)
                self.vc_arrivals += clock() - started
                if page is None:
                    return
                yield page

        shadows = [
            (server, "tick", timed("server_tick")),
            (server.queue, "offer", timed("queue_offer")),
            (state.mc, "draw_page", timed("mc_access")),
            (state.mc, "lookup", timed("mc_access")),
            (state.mc, "receive", timed("mc_access")),
            (state.vc, "arrivals_for_slots", timed("vc_arrivals")),
            (state.vc, "requests_for_slot", timed_resumptions),
        ]
        if state.fleet is not None:
            shadows += [(state.fleet, "deliver", timed("deliver")),
                        (state.fleet, "generate", timed("fleet_arrivals"))]
        if state.control is not None:
            shadows.append((state.control, "poll", timed("control")))
        first_tick = server.ticks
        started = clock()

        def finish() -> None:
            self.slots = server.ticks - first_tick
            self.wall_seconds = clock() - started

        return Attachment(shadows, on_detach=finish)

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Per-phase accumulated wall time, in execution order."""
        return {phase: getattr(self, phase) for phase in ENGINE_PHASES}

    @property
    def timed_seconds(self) -> float:
        """Wall time attributed to the instrumented phases."""
        return sum(self.phase_seconds.values())

    @property
    def slots_per_second(self) -> float:
        """Loop throughput over the whole run (0 when nothing ran)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.slots / self.wall_seconds

    def render(self) -> str:
        """The per-phase timing table ``repro-broadcast profile`` prints."""
        timed = self.timed_seconds
        lines = [
            f"slots simulated : {self.slots}",
            f"wall time       : {self.wall_seconds:.3f} s",
            f"throughput      : {self.slots_per_second:,.0f} slots/sec",
            "",
            f"{'phase':<14} {'seconds':>10} {'share':>8} {'ns/slot':>10}",
            "-" * 46,
        ]
        for phase, seconds in self.phase_seconds.items():
            share = seconds / timed if timed else 0.0
            per_slot = (seconds / self.slots * 1e9) if self.slots else 0.0
            lines.append(f"{phase:<14} {seconds:>10.4f} {share:>7.1%} "
                         f"{per_slot:>10,.0f}")
        overhead = self.wall_seconds - timed
        if overhead > 0:
            lines.append(f"{'(untimed)':<14} {overhead:>10.4f} "
                         f"{overhead / self.wall_seconds:>7.1%}")
        return "\n".join(lines)


def profile_run(config, warmup: bool = False):
    """Run ``config`` on the fast engine with phase timing attached.

    Returns ``(result, profile)``.  Pure-Push configs go down the general
    slot loop — the analytic shortcut ticks no slot to time.
    """
    from repro.core.fast import FastEngine

    profile = HotLoopProfile()
    engine = FastEngine(config, force_general=True, profiler=profile)
    result = engine.run_warmup() if warmup else engine.run()
    return result, profile
