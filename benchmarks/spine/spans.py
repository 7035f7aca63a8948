"""Outside-in span recording: timing shims over public bound methods.

The engines look their components' methods up on the *instance*
(``tick = server.tick``, ``self.queue.pop()``, ``self.env.step()``), so
an instance attribute of the same name shadows the class's method —
the trick ``BoundedRequestQueue.attach_observer`` already uses.
:func:`install_shims` places a timing wrapper on each such boundary of
a built ``SystemState``; :func:`uninstall_shims` pops them again and
leaves every ``__dict__`` as it found it.  No file under ``src/`` is
touched, and an unshimmed run executes exactly the code it always did.

A :class:`SpanRecorder` keeps the call stack of open spans, so each
closed span knows its parent and how much of its interval its children
covered: *self* time is the duration minus that (and minus the
recorder's own bookkeeping, which it times and sets aside).  It
aggregates count / total / self nanoseconds per ``(name, parent)`` in
memory, keeps the raw spans of the first
:attr:`SpanRecorder.raw_slots` slots, and writes nothing until asked.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import reduce
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ENGINE_SHIMS",
    "SLOT_SPAN",
    "SpanRecorder",
    "install_shims",
    "uninstall_shims",
]

#: The span that marks one simulated broadcast slot.
SLOT_SPAN = "server.tick"

#: ``(span name, path from the SystemState, attribute, is generator)`` —
#: the public methods both engines reach through an instance lookup.
ENGINE_SHIMS: tuple[tuple[str, str, str, bool], ...] = (
    (SLOT_SPAN, "server", "tick", False),
    ("server.queue_offer", "server.queue", "offer", False),
    ("server.queue_pop", "server.queue", "pop", False),
    ("server.select", "server.queue.scheduler", "select", False),
    ("client.vc_arrivals", "vc", "arrivals_for_slots", False),
    ("client.vc_requests", "vc", "requests_for_slot", True),
    ("client.mc_draw", "mc", "draw_page", False),
    ("client.mc_lookup", "mc", "lookup", False),
    ("client.mc_receive", "mc", "receive", False),
    ("client.threshold_passes", "mc_threshold", "passes", False),
    ("fleet.generate", "fleet", "generate", False),
    ("fleet.deliver", "fleet", "deliver", False),
)


class SpanRecorder:
    """In-memory span stack with per-(name, parent) aggregation."""

    def __init__(self, raw_slots: int = 2000,
                 clock: Callable[[], int] = time.perf_counter_ns):
        """Args:
            raw_slots: keep raw spans until this many :data:`SLOT_SPAN`
                spans have closed (aggregation never stops).
            clock: integer-nanosecond clock (injectable for tests).
        """
        self.raw_slots = raw_slots
        self._clock = clock
        #: Open spans, innermost last: ``[name, child_ns, start_ns]``.
        self._stack: list[list[Any]] = []
        #: ``(name, parent) -> [count, total_ns, self_ns]``.
        self.aggregates: dict[tuple[str, Optional[str]], list[int]] = {}
        #: ``(name, parent, start_ns, end_ns)`` relative to the first
        #: root span's start, for the first ``raw_slots`` slots.
        self.raw: list[tuple[str, Optional[str], int, int]] = []
        #: Closed :data:`SLOT_SPAN` spans so far.
        self.slots = 0
        #: Time the recorder spent aggregating after a span's end, kept
        #: out of every span's self time (the clock reads and the call
        #: into the shim itself cannot be, see ``trace_overhead_ratio``).
        self.overhead_ns = 0
        self._origin: Optional[int] = None

    # -- recording ---------------------------------------------------------
    def _close(self, frame: list[Any]) -> None:
        end = self._clock()
        stack = self._stack
        stack.pop()
        name, child_ns, start = frame
        duration = end - start
        parent = stack[-1][0] if stack else None
        entry = self.aggregates.get((name, parent))
        if entry is None:
            self.aggregates[(name, parent)] = [
                1, duration, duration - child_ns]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns
        if self.slots < self.raw_slots:
            origin = self._origin if self._origin is not None else start
            self.raw.append((name, parent, start - origin, end - origin))
        if name == SLOT_SPAN:
            self.slots += 1
        if stack:
            # The bookkeeping above ran on the parent's time: charge it
            # to the recorder, not to the parent's self time.
            bookkeeping = self._clock() - end
            self.overhead_ns += bookkeeping
            stack[-1][1] += duration + bookkeeping

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """Open a span around a whole run; shimmed calls nest under it."""
        frame = [name, 0, self._clock()]
        if self._origin is None:
            self._origin = frame[2]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A callable that records one ``name`` span per call of ``fn``."""
        stack = self._stack
        clock = self._clock
        close = self._close

        def shim(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        return shim

    def wrap_generator(self, name: str,
                       fn: Callable[..., Iterator[Any]],
                       ) -> Callable[..., Iterator[Any]]:
        """Like :meth:`wrap` for a generator function.

        One span per *resumption*: the time between a ``yield`` and the
        next ``next()`` belongs to the consumer (which may open spans of
        its own), not to the generator.
        """
        stack = self._stack
        clock = self._clock
        close = self._close

        def shim(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0, clock()]
                stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(frame)
                yield item

        return shim

    # -- reading -----------------------------------------------------------
    def totals(self, name: str) -> tuple[int, int, int]:
        """``(count, total_ns, self_ns)`` of ``name`` over all parents."""
        count = total = self_ns = 0
        for (span, _parent), entry in self.aggregates.items():
            if span == name:
                count += entry[0]
                total += entry[1]
                self_ns += entry[2]
        return count, total, self_ns

    def self_ns(self) -> int:
        """Summed self time of every span."""
        return sum(entry[2] for entry in self.aggregates.values())

    def calibrate(self, calls: int = 20_000) -> tuple[float, float]:
        """What one shimmed call costs beyond the call itself, in ns:
        ``(inside the span, left in the parent's self time)``.

        Measured on a scratch recorder with this one's clock, by calling
        a no-op bare and through a shim.  The bookkeeping the recorder
        times itself (:attr:`overhead_ns`) is in neither number.
        """
        scratch = SpanRecorder(raw_slots=0, clock=self._clock)

        def noop() -> None:
            pass

        shim = scratch.wrap("noop", noop)
        clock = self._clock
        with scratch.root("calibration"):
            started = clock()
            for _ in range(calls):
                noop()
            bare = clock() - started
            started = clock()
            for _ in range(calls):
                shim()
            shimmed = clock() - started
        inside = scratch.totals("noop")[2]
        return (max(inside - bare, 0) / calls,
                max(shimmed - inside - scratch.overhead_ns, 0) / calls)

    def corrected_self_ns(self, inside: float,
                          in_parent: float) -> dict[str, float]:
        """Self time per span name with the shims' own cost taken out:
        ``inside`` per span of that name, ``in_parent`` per child span
        (the two numbers :meth:`calibrate` returns).  Never below 0."""
        raw: dict[str, float] = {}
        for (name, parent), (count, _total, self_ns) in (
                self.aggregates.items()):
            raw[name] = raw.get(name, 0.0) + self_ns - count * inside
            if parent is not None:
                raw[parent] = raw.get(parent, 0.0) - count * in_parent
        return {name: max(value, 0.0) for name, value in raw.items()}

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready trace: aggregates plus the retained raw spans."""
        return {
            "unit": "ns",
            "slots": self.slots,
            "raw_slots": self.raw_slots,
            "recorder_overhead_ns": self.overhead_ns,
            "aggregates": [
                {"name": name, "parent": parent, "count": entry[0],
                 "total_ns": entry[1], "self_ns": entry[2]}
                for (name, parent), entry in sorted(
                    self.aggregates.items(),
                    key=lambda item: (item[0][0], item[0][1] or ""))],
            "raw_spans": [
                {"name": name, "parent": parent, "start_ns": start,
                 "end_ns": end}
                for name, parent, start, end in self.raw],
        }


def _resolve(root: Any, path: str) -> Any:
    return reduce(lambda obj, attr: getattr(obj, attr, None),
                  path.split("."), root)


def install_shims(recorder: SpanRecorder, state: Any,
                  env: Any = None) -> list[tuple[Any, str]]:
    """Shadow every :data:`ENGINE_SHIMS` method of ``state`` (and the
    reference engine's ``env.step``) with a recording wrapper.

    Returns the ``(object, attribute)`` pairs for :func:`uninstall_shims`.
    Components the state lacks (``fleet is None``) are skipped.
    """
    installed: list[tuple[Any, str]] = []
    points = [(name, _resolve(state, path), attr, is_generator)
              for name, path, attr, is_generator in ENGINE_SHIMS]
    if env is not None:
        points.append(("sim.step", env, "step", False))
    for name, target, attr, is_generator in points:
        if target is None:
            continue
        if attr in vars(target):
            uninstall_shims(installed)
            raise RuntimeError(
                f"{type(target).__name__}.{attr} is already shadowed")
        wrap = recorder.wrap_generator if is_generator else recorder.wrap
        setattr(target, attr, wrap(name, getattr(target, attr)))
        installed.append((target, attr))
    return installed


def uninstall_shims(installed: list[tuple[Any, str]]) -> None:
    """Remove the wrappers :func:`install_shims` placed."""
    for target, attr in installed:
        vars(target).pop(attr, None)
    installed.clear()
