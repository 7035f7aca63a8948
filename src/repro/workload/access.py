"""Access-stream machinery shared by the simulation engines.

:class:`AccessStream` wraps a :class:`~repro.workload.zipf.ZipfSampler`
plus the coins the virtual client needs (steady-state vs warm-up), drawing
everything in 65,536-draw buffers and settling at refill time everything
that does not depend on simulated time, so the per-slot cost inside the
hot simulation loop is two index lookups and a slice.  A buffer's pages
come from the sampler's guide table (a bucket lookup and one correction
step a draw at the paper's Zipf(1000, 0.95), the very pages a binary
search would pick); the coins, the absorption mask, the running count
and the compress that follow cost about as much again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.workload.zipf import ZipfSampler

__all__ = ["AccessStream", "think_time_rate"]

#: Pre-draw buffer length.  Large enough to amortize numpy call overhead,
#: small enough to keep memory trivial.
_BUFFER_SIZE = 1 << 16


def think_time_rate(mc_think_time: float, think_time_ratio: float) -> float:
    """Virtual-client request rate in requests per broadcast unit.

    The VC draws think times from an exponential distribution with mean
    ``MCThinkTime / ThinkTimeRatio`` (Section 3.1), i.e. it is a Poisson
    request source of this rate.
    """
    if mc_think_time <= 0:
        raise ValueError("mc_think_time must be positive")
    if think_time_ratio <= 0:
        raise ValueError("think_time_ratio must be positive")
    return think_time_ratio / mc_think_time


class AccessStream:
    """Buffered stream of access draws, pre-filtered by cache absorption.

    Every raw draw is a page id (from ``sampler``) plus a coin weighted
    by ``steady_state_perc`` saying whether the issuing (virtual) client
    is in steady state; a steady-state draw of a page its warm cache
    holds (``absorbing[page]``) never leaves the client.  Neither outcome
    depends on simulated time, so each refill draws all its pages, then
    (unless the probability is 0 or 1) all its coins from ``rng``, and
    keeps only the surviving pages plus, per raw draw, how many
    survivors precede it.
    """

    def __init__(self, sampler: ZipfSampler, steady_state_perc: float,
                 rng: np.random.Generator, absorbing: np.ndarray):
        if not 0.0 <= steady_state_perc <= 1.0:
            raise ValueError("steady_state_perc must be within [0, 1]")
        self._sampler = sampler
        self._steady_perc = steady_state_perc
        self._rng = rng
        self._absorbing = absorbing
        # Compact int32 buffers read through memoryviews: indexing and
        # slicing one yields plain Python ints, several times cheaper in
        # the loop than numpy scalars and a fraction of a list's memory.
        # Empty until the first draw (nothing sizeable is allocated
        # while a system is being built).
        self._survivors = memoryview(np.empty(0, dtype=np.int32))
        #: ``_before[i]``: survivors among raw draws ``[0, i)``.
        self._before = memoryview(np.zeros(1, dtype=np.int32))
        self._size = self._cursor = 0

    def _refill(self) -> None:
        pages = self._sampler.sample(_BUFFER_SIZE)
        if 0.0 < self._steady_perc < 1.0:
            steady = self._rng.random(_BUFFER_SIZE) < self._steady_perc
        else:
            steady = np.full(_BUFFER_SIZE, self._steady_perc >= 1.0)
        survives = ~(steady & self._absorbing[pages])
        before = np.zeros(_BUFFER_SIZE + 1, dtype=np.int32)
        np.cumsum(survives, dtype=np.int32, out=before[1:])
        self._survivors = memoryview(pages[survives].astype(np.int32))
        self._before = memoryview(before)
        self._size = _BUFFER_SIZE
        self._cursor = 0

    def take(self, count: int) -> Sequence[int]:
        """Consume ``count`` raw draws; return the unabsorbed pages, in
        draw order, as plain ints."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._cursor
        end = start + count
        before = self._before
        if end > self._size:
            # Straddles a refill (lazily: a buffer that ends exactly here
            # is refilled by the next call that needs a draw, as ever).
            head = self._survivors[before[start]:].tolist()
            rest = end - self._size
            self._refill()
            return head + list(self.take(rest))
        self._cursor = end
        return self._survivors[before[start]:before[end]]
