"""The Measured Client (MC) — the client whose performance is reported.

The MC runs a request–think loop: draw a page from its (possibly
Noise-perturbed) Zipf distribution, satisfy it from the cache if possible,
otherwise obtain it from the broadcast — optionally pulling it over the
backchannel — and sleep ``ThinkTime`` broadcast units after the page is in
hand.  The simulation engines drive the loop; this class holds the state
the loop shares: cache, sampler, statistics, and warm-up tracking.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.base import Cache
from repro.sim.monitor import Histogram
from repro.workload.zipf import ZipfSampler

__all__ = ["MeasuredClient", "WarmupTracker"]

#: Warm-up levels reported by Figure 4 (fractions of the target set).
WARMUP_LEVELS: tuple[float, ...] = (
    0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95)

#: Accesses pre-drawn per refill of the MC's private stream.
_DRAW_BUFFER = 1 << 10


class WarmupTracker:
    """Records when the cache first holds X% of its highest-valued pages."""

    def __init__(self, target: frozenset[int],
                 levels: Sequence[float] = WARMUP_LEVELS):
        if not target:
            raise ValueError("warm-up target set must be non-empty")
        self.target = target
        self.levels = tuple(sorted(levels))
        self.crossing_times: dict[float, float] = {}
        # The resident *set* (not a counter): re-inserting an already
        # resident target or evicting an absent one must be no-ops, so the
        # fraction can never overcount or go negative.
        self._resident: set[int] = set()
        self._next_level_index = 0

    @property
    def complete(self) -> bool:
        """True once the final level has been crossed."""
        return self._next_level_index >= len(self.levels)

    @property
    def fraction(self) -> float:
        """Current fraction of the target set resident."""
        return len(self._resident) / len(self.target)

    def on_insert(self, page: int, now: float) -> None:
        """Record that ``page`` entered the cache at ``now`` (idempotent)."""
        if page not in self.target or page in self._resident:
            return
        self._resident.add(page)
        fraction = self.fraction
        while (self._next_level_index < len(self.levels)
               and fraction >= self.levels[self._next_level_index]):
            self.crossing_times[self.levels[self._next_level_index]] = now
            self._next_level_index += 1

    def on_evict(self, page: int) -> None:
        """Record that ``page`` left the cache (no-op when not resident)."""
        self._resident.discard(page)


class MeasuredClient:
    """State shared by both engines when driving the MC loop."""

    def __init__(self, probabilities: np.ndarray, cache: Cache,
                 think_time: float, rng: np.random.Generator,
                 warmup_target: Optional[frozenset[int]] = None):
        if think_time < 0:
            raise ValueError("think_time must be non-negative")
        self.probabilities = probabilities
        self.sampler = ZipfSampler(probabilities, rng)
        self._draws: list[int] = []  # pre-drawn accesses, next one last
        self.cache = cache
        self.think_time = think_time
        self.warmup: Optional[WarmupTracker] = (
            WarmupTracker(warmup_target) if warmup_target else None)
        #: Page the MC is blocked on: set by a :meth:`lookup` miss,
        #: cleared by :meth:`receive` (None while thinking).
        self.waiting: Optional[int] = None
        # Statistics for the current measurement phase: response times
        # over all accesses (hits count as 0) and over misses only.
        self.response_all = Histogram("mc_response_all")
        self.response_miss = Histogram("mc_response_miss")
        self.hits = 0
        self.misses = 0
        self.pulls_sent = 0
        self.accesses = 0
        self.measuring = False

    # -- the access protocol the engines follow ------------------------------
    def draw_page(self) -> int:
        """Draw the next page the MC wants (batched: same pages in the
        same order as a scalar inverse-CDF lookup per access)."""
        draws = self._draws
        if not draws:
            draws.extend(self.sampler.sample(_DRAW_BUFFER)[::-1].tolist())
        return draws.pop()

    def lookup(self, page: int, now: float) -> bool:
        """Check the cache; record a zero-delay response on a hit."""
        self.accesses += 1
        if self.cache.access(page, now):
            if self.measuring:
                self.hits += 1
                self.response_all.observe(0.0)
            return True
        if self.measuring:
            self.misses += 1
        self.waiting = page
        return False

    def record_pull_sent(self, page: int, now: float, outcome) -> None:
        """The MC sent a backchannel request for ``page`` at ``now``; the
        server queue's answer was ``outcome``.  Counted while measuring."""
        if self.measuring:
            self.pulls_sent += 1

    def receive(self, page: int, requested_at: float, now: float) -> None:
        """The awaited page arrived on the broadcast at time ``now``."""
        response_time = now - requested_at
        if response_time < 0:
            raise ValueError("page delivered before it was requested")
        if self.measuring:
            self.response_all.observe(response_time)
            self.response_miss.observe(response_time)
        evicted = self.cache.insert(page, now)
        if self.warmup is not None:
            if evicted is not None:
                self.warmup.on_evict(evicted)
            self.warmup.on_insert(page, now)
        self.waiting = None

    def reset_stats(self) -> None:
        """Clear tallies at the warm-up/measurement boundary."""
        self.response_all = Histogram("mc_response_all")
        self.response_miss = Histogram("mc_response_miss")
        self.hits = 0
        self.misses = 0
        self.pulls_sent = 0
        # Without this, the counter keeps warm-up/settle lookups and any
        # downstream ratio over it mixes phases.
        self.accesses = 0

