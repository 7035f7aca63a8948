"""A lightweight counters / histograms registry.

The registry holds only numbers nothing else counts: the serving layer's
``net_*`` wire counters and the load generator's ``fleet_*`` counters
and latency histogram.  A number a component already keeps (the
server's slot mix, the queue's outcomes, a simulated fleet's waits) is
read from that component's own snapshot, never mirrored here.  A
snapshot is a plain nested dict.  The histogram instrument *is* the
streaming accumulator the simulation itself summarises response times
with (:class:`~repro.sim.monitor.Histogram`), so a registry adds no
second definition of a mean or a quantile.

Names are free-form but conventionally ``snake_case`` with a ``_total``
suffix for counters (the prometheus idiom).
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.monitor import LATENCY_BUCKETS, Histogram

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class MetricsRegistry:
    """Get-or-create home for named instruments."""

    def __init__(self):
        self._instruments: dict[str, object] = {}

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

    def histogram(self, name: str, help_: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help_, buckets)

    def snapshot(self) -> dict:
        """Nested plain-dict state of every instrument."""
        return {name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())}
