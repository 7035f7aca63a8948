"""Event calendar and clock for the discrete-event kernel.

The design follows the classic event-scheduling world view: an
:class:`Environment` owns a priority queue of ``(time, priority, seq, event)``
entries and fires events in nondecreasing time order.  Ties are broken first
by an explicit integer priority (lower fires earlier) and then by scheduling
order, which makes runs fully deterministic.

The per-event path is three Python frames inside this package:
:meth:`Environment.step` pops the entry and runs the callbacks itself,
``Process._resume`` runs the generator up to its next ``yield``, and the
:class:`Timeout` yielded there writes its own slots and pushes its own heap
entry.  Nothing on that path goes through a property, ``add_callback`` or
``_schedule``; those serve every other caller.  A time entering the kernel
is checked with ``not x >= 0``, which turns away NaN as well as negatives
for one comparison (``inf`` is legal: "never").
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (process -> core)
    from repro.sim.process import Process

__all__ = ["Environment", "Event", "Timeout", "SimulationError"]

#: Default priority for ordinary events.
NORMAL = 1
#: Priority used by :class:`~repro.sim.process.Process` wake-ups so that a
#: process resumed by an event runs after same-time ordinary callbacks.
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggering, running a dead env...)."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled on the calendar with a value), and *processed* (callbacks have
    run).  Waiting on an already-processed event is allowed: the waiter is
    resumed immediately at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Waiters, in registration order; None once they have run.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (False once :meth:`fail` is called)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("value accessed before the event triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self.env._schedule(self, delay)
        self._triggered = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``.

        A waiting process receives the exception thrown into its generator.
        """
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.env._schedule(self, delay)
        self._triggered = True
        self._ok = False
        self._value = exception
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future.

    ``priority`` breaks same-instant ties: :data:`URGENT` timeouts fire
    before every :data:`NORMAL` event scheduled for the same time,
    regardless of scheduling order.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if not delay >= 0:
            raise ValueError(f"delay must be a number >= 0, got {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        env._seq = seq = env._seq + 1
        heappush(env._queue, (env._now + delay, priority, seq, self))


class Environment:
    """The simulation clock and event calendar.

    Usage::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=1000.0)
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: ``timeout(delay, value=None, priority=NORMAL)``: create an event
        #: firing ``delay`` units from now.  The constructor itself, bound
        #: to this environment, so a process's ``yield env.timeout(...)``
        #: costs one frame.
        self.timeout: Callable[..., Timeout] = partial(Timeout, self)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> "Process":
        """Start a new :class:`~repro.sim.process.Process` from a generator."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if not delay >= 0:
            raise ValueError(f"delay must be a number >= 0, got {delay!r}")
        self._seq += 1
        heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next event (advancing the clock to it).

        Callers that shadow or hoist this method (``step = env.step``) look
        it up on the instance; it is the one per-event entry point.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, _, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event is scheduled there, mirroring simpy semantics.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        until = float(until)
        if not until >= self._now:
            raise ValueError(
                f"until={until} is NaN or in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self._now = until
