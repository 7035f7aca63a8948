"""A lightweight counters / gauges / histograms registry.

The registry is the aggregate side of the observability layer: tracers,
engines, and tools register named instruments and bump them; a snapshot is
a plain nested dict, render() a human-readable table.  The histogram
instrument *is* the streaming accumulator the simulation itself
summarises response times with (:class:`~repro.sim.monitor.Histogram`),
so a registry adds no second definition of a mean or a quantile.

Names are free-form but conventionally ``snake_case`` with a ``_total``
suffix for counters (the prometheus idiom).
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.monitor import LATENCY_BUCKETS, Histogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "_value", "_source")

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_
        self._value = 0
        self._source = 0  # last cumulative value handed to advance_to

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def advance_to(self, cumulative: int) -> None:
        """Mirror a cumulative but *resettable* source counter.

        Adds what the source gained since the last call.  A decrease
        means the source was reset (``reset_stats()`` at the warm-up /
        measure boundary, or a fresh source after a reconnect —
        ``advance_to(0)`` announces one): the post-reset value is what
        accumulated since, so the counter itself never goes down.
        """
        gained = cumulative - self._source
        self.inc(cumulative if gained < 0 else gained)
        self._source = cumulative

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class MetricsRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self):
        self._instruments: dict[str, object] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}")
            return existing
        instrument = cls(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help_)

    def gauge(self, name: str, help_: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help_)

    def histogram(self, name: str, help_: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help_, buckets)

    def snapshot(self) -> dict:
        """Nested plain-dict state of every instrument."""
        return {name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())}

    def render(self) -> str:
        """Human-readable table of the current snapshot."""
        lines = []
        width = max((len(n) for n in self._instruments), default=4)
        for name, state in self.snapshot().items():
            kind = state.get("type", "?")
            if kind in ("counter", "gauge"):
                detail = f"{state['value']:g}"
            else:
                detail = (f"count={state['count']} mean={state['mean']:.4g} "
                          f"min={state['min']:.4g} max={state['max']:.4g}")
            lines.append(f"{name:<{width}}  {kind:<9}  {detail}")
        return "\n".join(lines) if lines else "(no metrics registered)"

