"""Discrete-event simulation kernel.

This subpackage is a from-scratch replacement for the CSIM library used by
the paper (and for simpy, which is unavailable offline).  It provides:

- :class:`~repro.sim.core.Environment` — the event calendar and clock,
- :class:`~repro.sim.core.Event` / :class:`~repro.sim.core.Timeout` —
  one-shot occurrences that processes can wait on,
- :class:`~repro.sim.process.Process` — generator-based coroutine processes
  with interrupt support,
- :mod:`~repro.sim.monitor` — tally statistics, and the streaming
  :class:`~repro.sim.monitor.Histogram` / exact-quantile pair every
  layer summarises a sample with.

The kernel is deterministic: events scheduled for the same time fire in
scheduling order (FIFO), so a seeded simulation always replays identically.
"""

from repro.sim.core import Environment, Event, Timeout, SimulationError
from repro.sim.process import Process, Interrupt
from repro.sim.monitor import Tally

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "SimulationError",
    "Process",
    "Interrupt",
    "Tally",
]
