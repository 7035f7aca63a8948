"""Statistics collectors for simulation output.

:class:`Tally` accumulates per-observation moments (Welford, so
million-observation runs stay accurate).  On top of it sit the two ways
this codebase summarises a sample of response times:

- :class:`Histogram` — the one *streaming* accumulator, for when the
  samples cannot be kept: the moments of its inner ``Tally`` plus bucket
  counts on a 1-2-5 log ladder (:func:`log_buckets`,
  :data:`LATENCY_BUCKETS`), from which :func:`bucket_quantile`
  interpolates a quantile in O(buckets) memory regardless of run length;
- :func:`exact_quantiles` — exact order statistics, for when they can.

This is a leaf module (it imports nothing from ``repro``), so the
measured client, the fleet and the metrics registry all share it.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "LATENCY_BUCKETS",
    "Histogram",
    "Tally",
    "bucket_quantile",
    "exact_quantiles",
    "log_buckets",
    "quantile_label",
]


class Tally:
    """Streaming count / mean / variance / extrema of observations."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        #: Observations so far.
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Record one observation.

        Non-finite values raise: a NaN would silently poison ``_mean`` /
        ``_m2`` while the ``min``/``max`` comparisons stay false, leaving
        an inconsistent snapshot long after the bad observation.
        """
        if not math.isfinite(value):
            raise ValueError(f"non-finite observation {value!r}")
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @classmethod
    def from_moments(cls, count: float, mean: float, m2: float,
                     min_: float, max_: float) -> "Tally":
        """A tally pre-loaded with batch moments (for vectorized feeds).

        ``m2`` is the sum of squared deviations from ``mean`` (the Welford
        accumulator), so batch producers can compute the moments with one
        numpy pass and fold them in via :meth:`merge` — exact Chan et al.,
        identical to having streamed every observation.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        tally = cls()
        if count == 0:
            return tally
        for name, value in (("mean", mean), ("m2", m2),
                            ("min", min_), ("max", max_)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite batch {name} {value!r}")
        tally.count = count
        tally._mean = mean
        tally._m2 = m2
        tally.min = min_
        tally.max = max_
        return tally

    def merge(self, other: "Tally") -> None:
        """Fold another tally's observations into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min, self.max = other.min, other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (NaN below two observations)."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    def as_dict(self) -> dict[str, float]:
        """Plain-dict summary (the form the metrics registry exports)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": math.nan if empty else self.min,
            "max": math.nan if empty else self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tally(count={self.count}, mean={self.mean:.4g}, "
                f"min={self.min:.4g}, max={self.max:.4g})")


# -- summarising a sample ----------------------------------------------------

#: Relative slack for decade-ladder bound comparisons: a rung computed a
#: few ulps off a round endpoint still belongs to the ladder.
_REL_TOL = 1e-9


def log_buckets(low: float = 1.0, high: float = 1e5) -> tuple[float, ...]:
    """1-2-5 decade ladder of bucket upper bounds covering [low, high].

    The 1-2-5 pattern keeps roughly three buckets per decade (a ~2.2x
    relative resolution) while every bound stays a round number, which
    matters for the terminal tables the ``report`` command prints.

    Each rung is recomputed from its decade exponent rather than a
    running ``decade *= 10.0`` product (whose rounding error compounds
    across decades, yielding rungs like ``4.9999999999999996e-06``);
    negative decades divide by the exactly-representable ``10.0 ** -e``
    so sub-unit rungs are the correctly-rounded doubles of their decimal
    values.  Endpoint membership uses a relative tolerance with
    off-by-ulps rungs snapped onto ``low`` / ``high``, so the ladder
    never silently loses its boundary rungs to float drift.
    """
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high")

    def rung(mantissa: float, exponent: int) -> float:
        if exponent >= 0:
            return mantissa * 10.0 ** exponent
        return mantissa / 10.0 ** -exponent

    bounds: list[float] = []
    exponent = math.floor(math.log10(low))
    while True:
        decade = rung(1.0, exponent)
        if decade > high * (1.0 + _REL_TOL):
            break
        for mantissa in (1.0, 2.0, 5.0):
            bound = rung(mantissa, exponent)
            if high < bound <= high * (1.0 + _REL_TOL):
                bound = high
            elif low * (1.0 - _REL_TOL) <= bound < low:
                bound = low
            if low <= bound <= high and (not bounds or bound > bounds[-1]):
                bounds.append(bound)
        exponent += 1
    return tuple(bounds)


#: Default bounds, sized for response times in broadcast units: sub-slot
#: waits up to the ~100k-slot stalls a saturated Pure-Pull queue can
#: produce.
LATENCY_BUCKETS: tuple[float, ...] = (0.5,) + log_buckets(1.0, 1e5)

#: The quantiles every summary reports unless told otherwise.
_QS: tuple[float, ...] = (0.50, 0.90, 0.99)


def quantile_label(q: float) -> str:
    """The key a ``q``-quantile is reported under: ``0.9`` -> ``"p90"``."""
    return f"p{int(round(q * 100))}"


def bucket_quantile(q: float, bounds: Sequence[float],
                    counts: Sequence[float], total: float,
                    lo: float, hi: float) -> float:
    """Interpolated ``q``-quantile of bucketed observations.

    ``bounds`` are the inclusive bucket upper bounds, ``counts`` holds
    one more entry (the +inf overflow bucket), ``total`` is the summed
    weight and ``lo`` / ``hi`` the observed extrema.  Linear
    interpolation between the owning bucket's bounds, with ``lo`` /
    ``hi`` standing in for the open-ended first and last bucket edges
    and clamping every edge, which keeps small samples from quantizing
    to bucket bounds.  Monotone in ``q`` and never outside ``[lo, hi]``:
    the 0-quantile is ``lo`` exactly, the 1-quantile ``hi`` to within
    rounding.  NaN when empty.

    This is the only bucket-quantile rule: :meth:`Histogram.quantile`
    calls it, and a :meth:`~Histogram.snapshot` dict carries its result.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    if not total:
        return math.nan
    rank = q * total
    cumulative: float = 0
    for index, count in enumerate(counts):
        if not count:
            continue
        if cumulative + count >= rank:
            lower = bounds[index - 1] if index > 0 else lo
            upper = bounds[index] if index < len(bounds) else hi
            lower = min(max(lower, lo), hi)
            upper = max(min(upper, hi), lower)
            fraction = (rank - cumulative) / count
            # min(): rounding can carry the sum an ulp past ``upper``.
            return min(lower + fraction * (upper - lower), upper)
        cumulative += count
    return hi


class Histogram:
    """The streaming accumulator: Welford moments plus bucket counts.

    ``buckets`` are inclusive upper bounds; one overflow bucket (+inf) is
    appended automatically.  Count / mean / stddev / min / max come from
    one inner :class:`Tally` fed the same calls in the same order (so
    they are bit-identical to a bare ``Tally``'s); quantiles come from
    the bucket counts through :func:`bucket_quantile`.  ``name`` and
    ``help`` label the instrument in a metrics registry.
    """

    __slots__ = ("name", "help", "bounds", "counts", "_tally")

    def __init__(self, name: str = "", help_: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.help = help_
        self.bounds = bounds
        #: Observations per bucket; +1 for the +inf overflow.
        self.counts = [0] * (len(bounds) + 1)
        self._tally = Tally()

    def observe(self, value: float) -> None:
        """Record one observation.

        The tally validates (a finite value) before anything is touched,
        so a rejected observation leaves no trace in the buckets either.
        """
        self._tally.add(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations, vectorized.

        Equivalent to calling :meth:`observe` once per value but O(batch)
        in numpy: bucket indices via ``searchsorted`` (same left-bisect
        convention as the scalar path) and the summary statistics folded
        in as one batch-moment :meth:`Tally.merge` (exact Chan et al., so
        the mean/variance match the streamed equivalent).  The per-user
        fleet statistics feed thousands to millions of values per
        snapshot through this path.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ValueError("non-finite observation in batch")
        indices = np.searchsorted(self.bounds, arr, side="left")
        counts = self.counts
        for index, count in zip(*np.unique(indices, return_counts=True)):
            counts[int(index)] += int(count)
        mean = float(arr.mean())
        self._tally.merge(Tally.from_moments(
            int(arr.size), mean, float(np.square(arr - mean).sum()),
            float(arr.min()), float(arr.max())))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Bucket-wise, so it only makes sense — and is only allowed — when
        both histograms share the same bucket bounds; merging histograms
        with different bounds raises ValueError.  Summary statistics
        merge through :meth:`Tally.merge` (Chan et al.), so the result
        matches observing the pooled stream directly, up to bucket
        resolution in the quantiles.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ ({len(other.bounds)} vs "
                f"{len(self.bounds)} bounds)")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self._tally.merge(other._tally)

    @property
    def count(self) -> int:
        """Observations so far."""
        return self._tally.count

    @property
    def mean(self) -> float:
        return self._tally.mean

    @property
    def stddev(self) -> float:
        return self._tally.stddev

    @property
    def min(self) -> float:
        """Smallest observation (``+inf`` when empty, like ``Tally``)."""
        return self._tally.min

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty, like ``Tally``)."""
        return self._tally.max

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile (NaN when empty)."""
        tally = self._tally
        return bucket_quantile(q, self.bounds, self.counts, tally.count,
                               tally.min, tally.max)

    def quantiles(self, qs: Sequence[float] = _QS
                  ) -> Optional[dict[str, float]]:
        """``{"p50": ..., "p90": ..., "p99": ...}``; None when empty."""
        if self._tally.count == 0:
            return None
        return {quantile_label(q): self.quantile(q) for q in qs}

    def snapshot(self) -> dict:
        """Plain-dict state (what a metrics snapshot / STATS frame carries):
        the moments, the :meth:`quantile` at p50 / p90 / p99 (NaN when
        empty) and the bucket counts."""
        return {
            "type": "histogram",
            **self._tally.as_dict(),
            **{quantile_label(q): self.quantile(q) for q in _QS},
            "buckets": {
                **{str(bound): count
                   for bound, count in zip(self.bounds, self.counts)},
                "+inf": self.counts[-1],
            },
        }


def exact_quantiles(values: Iterable[float], qs: Sequence[float] = _QS
                    ) -> Optional[dict[str, float]]:
    """Exact empirical quantiles of a kept sample (None when empty).

    The order statistic ``sorted(values)[min(n - 1, int(q * n))]`` for
    each ``q`` — the only place that rank rule is written — selected in
    one O(n) ``np.partition`` introselect pass instead of a full sort,
    without building Python floats for the non-selected elements.
    """
    array = np.asarray(values, dtype=np.float64)
    n = int(array.size)
    if n == 0:
        return None
    ranks = [min(n - 1, int(q * n)) for q in qs]
    partitioned = np.partition(array, sorted(set(ranks)))
    return {quantile_label(q): float(partitioned[rank])
            for q, rank in zip(qs, ranks)}
