"""Generator-based coroutine processes for the discrete-event kernel.

A process is a Python generator that yields :class:`~repro.sim.core.Event`
objects.  Yielding suspends the process until the event fires; the event's
value becomes the result of the ``yield`` expression.  A failed event is
raised inside the generator.  A process is itself an event that fires with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.core import URGENT, Environment, Event, SimulationError

__all__ = ["Process"]


class Process(Event):
    """A running simulation process wrapping a generator.

    Create via :meth:`Environment.process`.  The process starts at the
    current simulation time (before other events already scheduled *later*,
    after events already scheduled now).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: Environment, generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(env)
        self._generator = generator
        # Kick-start the process via an immediately-scheduled initial event.
        env.timeout(0.0, priority=URGENT).add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- internal ------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Run the generator from ``trigger`` to the next event it has to
        wait for.  This is the per-event path: it reads the events' slots
        directly, not through their properties."""
        generator = self._generator
        ok, value = trigger._ok, trigger._value
        while True:
            try:
                if ok:
                    target = generator.send(value)
                else:
                    target = generator.throw(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # A crashed process fails its own event; if nobody is
                # waiting on the process the error propagates out of run().
                if self.callbacks:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                ok, value = False, SimulationError(
                    f"process yielded a non-event: {target!r}")
                continue
            waiters = target.callbacks
            if waiters is None:
                # Already-fired events resume the process synchronously.
                ok, value = target._ok, target._value
                continue
            waiters.append(self._resume)
            return
