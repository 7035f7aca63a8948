"""Discrete-event simulation kernel.

This subpackage is a from-scratch replacement for the CSIM library used by
the paper (and for simpy, which is unavailable offline).  It provides:

- :class:`~repro.sim.core.Environment` — the event calendar and clock,
- :class:`~repro.sim.core.Event` / :class:`~repro.sim.core.Timeout` —
  one-shot occurrences that processes can wait on,
- :class:`~repro.sim.process.Process` — generator-based coroutine processes
  that wait on events and on each other,
- :mod:`~repro.sim.monitor` — tally statistics, and the streaming
  :class:`~repro.sim.monitor.Histogram` / exact-quantile pair every
  layer summarises a sample with.

The kernel is deterministic: events scheduled for the same time fire in
priority, then scheduling (FIFO) order, so a seeded simulation always
replays identically.

It is only what the reference engine uses — no composite events, no
interrupts, no resources — and its per-event path is kept to three Python
frames (``Environment.step`` → ``Process._resume`` → the next ``Timeout``'s
constructor; see :mod:`repro.sim.core`).  ``tests/sim/test_frames.py`` counts
them, so a layer of calls added there fails tier-1.
"""

from repro.sim.core import Environment, Event, Timeout, SimulationError
from repro.sim.process import Process
from repro.sim.monitor import Tally

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "SimulationError",
    "Process",
    "Tally",
]
