"""Phase timers for the fast engine's hot loop.

:class:`HotLoopProfile` is a passive accumulator the fast engine updates
when one is attached: per-phase wall time (controller decisions, slot
deliveries, measured-client accesses, server tick, virtual-client
arrivals, fleet arrivals) plus the slot count, from which it reports
slots/sec and a percentage breakdown.  :func:`profile_run` is the
one-call convenience used by ``repro-broadcast profile``.

Timing every phase of every slot costs real wall time (two clock reads
per phase), so the numbers are for *relative* attribution — which phase
dominates, how the split shifts with load — not absolute throughput;
:mod:`benchmarks.test_bench_substrates` measures absolute throughput
without instrumentation.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["PhaseTimer", "HotLoopProfile", "profile_run"]

#: Hot-loop phases in their within-slot execution order (DESIGN.md §6).
ENGINE_PHASES: tuple[str, ...] = (
    "control", "deliver", "mc_access", "server_tick", "vc_arrivals",
    "fleet_arrivals")


class PhaseTimer:
    """Accumulates wall time under named phases.

    Use :meth:`time` as a context manager for coarse scopes, or
    :meth:`add` with externally measured durations for hot loops that
    cannot afford the context-manager overhead.
    """

    # lint: allow[REP001] -- the profiler IS the timer; clock is injectable
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall time to ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def time(self, phase: str):
        """Context manager crediting its scope's duration to ``phase``."""
        return _PhaseScope(self, phase)

    @property
    def total(self) -> float:
        """Wall time across all phases."""
        return sum(self.seconds.values())


class _PhaseScope:
    __slots__ = ("_timer", "_phase", "_started")

    def __init__(self, timer: PhaseTimer, phase: str):
        self._timer = timer
        self._phase = phase
        self._started = 0.0

    def __enter__(self):
        self._started = self._timer._clock()
        return self

    def __exit__(self, *exc):
        self._timer.add(self._phase, self._timer._clock() - self._started)


class HotLoopProfile:
    """Per-phase wall-time breakdown of one fast-engine run.

    The engine adds raw durations via plain attribute arithmetic (the
    profile exposes one float per phase), so the per-slot cost is two
    ``perf_counter`` reads per phase and nothing else.
    """

    __slots__ = ("control", "deliver", "mc_access", "server_tick",
                 "vc_arrivals", "fleet_arrivals", "slots", "wall_seconds")

    def __init__(self):
        self.control = 0.0
        self.deliver = 0.0
        self.mc_access = 0.0
        self.server_tick = 0.0
        #: The Poisson draw, the VC's generation and its queue offers.
        self.vc_arrivals = 0.0
        #: ``fleet.generate`` and its offers (its deliveries: ``deliver``).
        self.fleet_arrivals = 0.0
        self.slots = 0
        #: End-to-end wall time of the run (set by the engine).
        self.wall_seconds = 0.0

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

    Returns ``(result, profile)``.  Pure-Push configs are forced down the
    general slot loop — the analytic shortcut has no hot loop to time.
    """
    from repro.core.fast import FastEngine

    profile = HotLoopProfile()
    engine = FastEngine(config, force_general=True, profiler=profile)
    result = engine.run_warmup() if warmup else engine.run()
    return result, profile
