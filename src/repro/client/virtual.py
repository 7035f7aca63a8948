"""The Virtual Client (VC) — the rest of the client population.

The VC aggregates "an arbitrarily large client population" into one request
source (Section 3.1): a Poisson stream of rate
``ThinkTimeRatio / MCThinkTime`` requests per broadcast unit.  Each request
is tagged steady-state or warm-up by a coin weighted by ``SteadyStatePerc``:

- steady-state requests are filtered through a fully-warm cache — modelled
  as absorption by the static set of the ``CacheSize − 1`` highest-valued
  pages (Section 4.1.1),
- warm-up requests bypass the cache (an empty cache misses everything),

and every surviving request passes the threshold filter before reaching
the server's backchannel queue.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.client.threshold import ThresholdFilter
from repro.workload.access import AccessStream, think_time_rate
from repro.workload.zipf import ZipfSampler

__all__ = ["VirtualClient"]


class VirtualClient:
    """Aggregate request source for all clients other than the MC."""

    def __init__(self, probabilities: np.ndarray, steady_set: frozenset[int],
                 steady_state_perc: float, mc_think_time: float,
                 think_time_ratio: float,
                 threshold: Optional[ThresholdFilter],
                 rng: np.random.Generator):
        """Args:
            probabilities: the aggregate (server-view) access distribution.
            steady_set: pages a fully-warm cache holds (absorbs steady hits).
            steady_state_perc: fraction of represented clients in steady
                state (the paper's SteadyStatePerc).
            mc_think_time / think_time_ratio: define the request rate.
            threshold: ThresPerc filter, or None to skip filtering.
            rng: seeded generator (owns the Poisson and access draws).
        """
        self.rate = think_time_rate(mc_think_time, think_time_ratio)
        self.steady_set = steady_set
        self.threshold = threshold
        self._db_size = int(probabilities.size)
        self._rng = rng
        absorbing = np.zeros(self._db_size, dtype=bool)
        absorbing[list(steady_set)] = True
        self._stream = AccessStream(ZipfSampler(probabilities, rng),
                                    steady_state_perc, rng, absorbing)
        # Fast-path threshold lookup: a flat row-major distance table so the
        # hot loop does one index instead of a per-page binary search.
        self._dist_flat: Optional[memoryview] = None
        self._cycle = 0
        self._threshold_slots = 0.0
        if threshold is not None and threshold.schedule is not None:
            self._threshold_slots = threshold.threshold_slots
            self.set_schedule(threshold.schedule)
        # Accounting (cumulative; engines reset at phase boundaries).
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0

    def arrivals_in_slot(self) -> int:
        """Number of VC requests arriving during one broadcast slot."""
        return int(self._rng.poisson(self.rate))

    def arrivals_for_slots(self, count: int) -> list[int]:
        """Batched Poisson draws: requests arriving in each of ``count`` slots."""
        return self._rng.poisson(self.rate, count).tolist()

    def set_threshold_slots(self, threshold_slots: float) -> None:
        """Retune the fast-path threshold (adaptive controller hook)."""
        self._threshold_slots = threshold_slots

    def set_schedule(self, schedule) -> None:
        """Rebuild the flat distance table after a program reprogram.

        The cached table was derived from the schedule at construction;
        a reprogrammed server must refresh it or the threshold filter
        keeps judging distances against the dead program.
        """
        if self.threshold is None or self.threshold.schedule is None:
            raise ValueError("this client applies no threshold filter")
        table = schedule.distance_table(self._db_size)
        self._cycle = table.shape[1]
        # A memoryview of the int32 table hands the loop plain ints; a
        # numpy scalar compared with a float costs twenty times as much.
        self._dist_flat = memoryview(table.ravel())

    def requests_for_slot(self, count: int,
                          schedule_pos: int) -> Iterator[int]:
        """Yield the pages (of ``count`` raw accesses) that reach the server.

        The steady-state cache absorption was settled when the draws were
        buffered; the threshold filter, which depends on ``schedule_pos``,
        runs here.  The caller exhausts the iterator, offering the
        survivors to the server queue in order.
        """
        survivors = self._stream.take(count)
        self.generated += count
        self.absorbed_by_cache += count - len(survivors)
        dist_flat = self._dist_flat
        if dist_flat is None:
            yield from survivors
            return
        threshold_slots = self._threshold_slots
        cycle = self._cycle
        base = schedule_pos % cycle
        filtered = 0
        for page in survivors:
            if dist_flat[page * cycle + base] <= threshold_slots:
                filtered += 1
            else:
                yield page
        self.filtered_by_threshold += filtered

    def reset_stats(self) -> None:
        """Zero the accounting counters (measurement-phase boundary)."""
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0
