"""The vectorized per-user client fleet: struct-of-arrays population.

The paper aggregates everyone but the Measured Client into one Virtual
Client, so per-user experience is invisible.  :class:`FleetState` keeps
``num_clients`` *individually tracked* clients as parallel numpy arrays
(the same struct-of-arrays move that made the columnar trace backend fast)
and advances them one broadcast slot at a time, at a cost proportional
to the clients that act in the slot, not to the population:

- **generate** — clients whose next access falls inside the slot (popped
  from the slot calendar, below) draw one
  batched Zipf rank each; steady warm caches absorb the most-valuable
  prefix by boolean mask; survivors pass the same flat distance-table
  threshold check the Virtual Client uses and either offer a pull or wait
  silently for the push program,
- **deliver** — the slot's frontchannel page completes every client
  waiting on it (clients snoop, exactly like the MC), accumulating the
  per-user wait statistics the fairness metrics are computed from.

Each client is closed-loop: it thinks (exponential, per-client mean),
accesses, waits for its page, and only then thinks again — so the fleet's
aggregate request rate is ``N / (T + W)`` with ``W`` the mean wait, which
approaches the Virtual Client's open-loop ``N / T`` when ``T >> W``
(docs/FLEET.md quantifies the parity).

**The slot calendar.**  A discrete-event kernel schedules each client's
next access once and never polls the rest; the calendar is that idea
over a sliding window.  Once per ``_WINDOW`` slots one population scan
buckets the clients due before the window's end by ``floor(next_access)``;
``generate(t)`` pops bucket ``t`` (nothing to do when nobody is due), and
the only two statements that assign a finite ``next_access`` after
construction — ``deliver``'s re-think and ``generate``'s cache-hit
re-think — enter the client when its new time falls inside the window
(later ones are found by the next window's scan).  The due set is the
per-slot scan's, member for member and in ascending client order: slots
are visited in order, so ``next_access < t + 1`` if and only if
``floor(next_access) <= t``, and whatever is overdue when a window is
built is clamped to ``t``.  The order matters as much as the set — the
i-th Zipf rank and the i-th think time of a slot go to the i-th due
client.  The scan itself lives on as the oracle in
``tests/fleet/reference_scan.py``.

Heterogeneity knobs (all optional): per-client think-time means, cache
sizes, and a rotation of the page-popularity ranking (``zipf_offset``),
drawn once at construction from the seeded fleet generator.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.client.threshold import ThresholdFilter
from repro.fleet.fairness import jain_index
from repro.sim.monitor import Histogram
from repro.workload.zipf import ZipfSampler

__all__ = ["FleetState"]

#: Shared empty result for slots generating no backchannel candidates.
_NO_PAGES = np.empty(0, dtype=np.int64)

#: Slots one calendar window covers.  Only clients due inside the window
#: are indexed: at the loads the fleet is run at, a whole run sees a
#: fraction of the population come due, and indexing everyone up front
#: measured slower than re-scanning once per window.
_WINDOW = 1024


class FleetState:
    """Struct-of-arrays population of individually tracked clients."""

    def __init__(self, *, num_clients: int, mean_think_time: float,
                 think_time_spread: float, zipf_offset_spread: int,
                 cache_size: int, cache_size_spread: float,
                 steady_state_perc: float, probabilities: np.ndarray,
                 value_order: np.ndarray,
                 threshold: Optional[ThresholdFilter],
                 rng: np.random.Generator):
        """Args:
            num_clients: population size (must be positive; a zero-client
                fleet is represented by ``SystemState.fleet is None``).
            mean_think_time: base mean think time in broadcast units.
            think_time_spread: fraction of uniform per-client spread
                around the base mean (0 = homogeneous; below 1, so that
                every client's mean is positive).
            zipf_offset_spread: per-client popularity-ranking rotations
                drawn uniformly from ``[0, spread]`` (0 = homogeneous).
            cache_size: base warm-cache size; absorption models the
                paper's steady-state filter (the ``c - 1`` most valuable
                pages of a size-``c`` cache).
            cache_size_spread: fraction of uniform per-client cache-size
                spread (0 = homogeneous).
            steady_state_perc: fraction of clients with warm caches
                (the paper's SteadyStatePerc, applied per client).
            probabilities: aggregate access distribution (page id == rank).
            value_order: ``value_positions(...)`` array — each page's
                position in the most-valuable-first ordering; a client's
                warm cache absorbs positions below its cache size - 1.
            threshold: ThresPerc filter, or None to skip filtering.
            rng: seeded generator (owns every fleet draw).
        """
        if num_clients < 1:
            raise ValueError("num_clients must be positive")
        if mean_think_time <= 0:
            raise ValueError("mean_think_time must be positive")
        # A spread of 1 admits a per-client mean of 0: a warm client that
        # re-thinks to the same instant forever never leaves its slot.
        if not 0.0 <= think_time_spread < 1.0:
            raise ValueError("think_time_spread must be within [0, 1), "
                             f"got {think_time_spread}")
        if not 0.0 <= cache_size_spread <= 1.0:
            raise ValueError("cache_size_spread must be within [0, 1], "
                             f"got {cache_size_spread}")
        n = num_clients
        self.num_clients = n
        self._db_size = int(probabilities.size)
        self._sampler = ZipfSampler(probabilities, rng)
        self._rng = rng

        # Static per-client attributes, drawn unconditionally (in a fixed
        # order) so toggling one heterogeneity knob never shifts the draw
        # sequence of another.
        self.offsets = rng.integers(0, zipf_offset_spread + 1, size=n)
        self.think_means = mean_think_time * (
            1.0 + think_time_spread * (2.0 * rng.random(n) - 1.0))
        sizes = np.rint(cache_size * (
            1.0 + cache_size_spread * (2.0 * rng.random(n) - 1.0)))
        self.cache_sizes = np.maximum(sizes.astype(np.int64), 0)
        self.steady = rng.random(n) < steady_state_perc
        #: Value-order positions a warm cache absorbs: the paper's
        #: steady-state model holds the cache-size - 1 most valuable pages.
        self._absorb_limit = np.maximum(self.cache_sizes - 1, 0)
        self._value_order = np.asarray(value_order, dtype=np.int64)

        # Dynamic state.  A waiting client has next_access = +inf and its
        # awaited page in ``outstanding``; idle clients carry the time of
        # their next access.  The first access is a stationary exponential
        # gap so the population does not start synchronized.  The array
        # may be written from outside until the first ``generate``; after
        # that, ``next_access`` is written only by ``deliver`` and
        # ``generate``, which keep the calendar in step with it.
        self.next_access = rng.exponential(self.think_means)
        self.outstanding = np.full(n, -1, dtype=np.int64)
        self.requested_at = np.zeros(n, dtype=np.float64)
        #: Waiting clients grouped by awaited page — delivery completes
        #: one page's group in O(group), never an O(N) scan per slot.
        self._waiting_by_page: dict[int, list[int]] = {}
        #: The slot calendar: the clients due in each slot not yet
        #: generated before ``_window_end`` (the first ``generate`` builds
        #: the first window).
        self._calendar: dict[int, list[int]] = {}
        self._window_end = 0
        #: The slot an in-order ``generate`` is called for next; any
        #: other slot (first call, restart, jump) rebuilds the window.
        self._next_slot = -1

        # Per-user wait accumulators (reset at the measurement boundary).
        self.wait_sum = np.zeros(n, dtype=np.float64)
        self.wait_count = np.zeros(n, dtype=np.int64)
        self.wait_max = np.zeros(n, dtype=np.float64)
        # Aggregate accounting (same reset discipline).
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0
        self.offered = 0
        self.delivered = 0

        # Flat distance-table fast path, shared with the Virtual Client:
        # one array index per threshold check instead of a binary search.
        if threshold is not None and threshold.schedule is not None:
            table = threshold.schedule.distance_table(self._db_size)
            self._cycle = table.shape[1]
            self._dist_flat = table.ravel()
            self._threshold_slots = threshold.threshold_slots
        else:
            self._cycle = 0
            self._dist_flat = None
            self._threshold_slots = 0.0

    # -- the per-slot protocol the engines drive -----------------------------
    def deliver(self, page: int, now: float) -> None:
        """The frontchannel page transmitted last slot completes at ``now``.

        Every client waiting on ``page`` receives it (snooping — push or
        pull, requested or filtered), records its wait, and draws a fresh
        think time.
        """
        waiters = self._waiting_by_page.pop(page, None)
        if not waiters:
            return
        idx = np.asarray(waiters, dtype=np.int64)
        waits = now - self.requested_at[idx]
        self.delivered += idx.size
        self.wait_sum[idx] += waits
        self.wait_count[idx] += 1
        self.wait_max[idx] = np.maximum(self.wait_max[idx], waits)
        self.outstanding[idx] = -1
        thinks = now + self._rng.exponential(self.think_means[idx])
        self.next_access[idx] = thinks
        self._index(waiters, thinks)

    def _index(self, clients: list[int], times: np.ndarray) -> None:
        """Enter re-thinking ``clients`` into the calendar at ``times``.

        Times past the window are left to the next window's scan; a time
        before the next slot (a ``deliver`` whose ``now`` lags the slot
        clock) comes due there, as it would under a per-slot scan.
        """
        end = self._window_end
        first = self._next_slot
        calendar = self._calendar
        for client, time in zip(clients, times.tolist()):
            if time < end:
                slot = math.floor(time)
                calendar.setdefault(slot if slot > first else first,
                                    []).append(client)

    def _build_window(self, t: int) -> None:
        """Index every client due before slot ``t + _WINDOW``.

        The one population-wide scan, run once per window.  ``flatnonzero``
        yields ascending client indices, so each bucket starts sorted.
        """
        end = t + _WINDOW
        near = np.flatnonzero(self.next_access < end)
        slots = np.maximum(
            np.floor(self.next_access[near]).astype(np.int64), t)
        calendar: dict[int, list[int]] = {}
        for client, slot in zip(near.tolist(), slots.tolist()):
            calendar.setdefault(slot, []).append(client)
        self._calendar = calendar
        self._window_end = end

    def generate(self, t: int, schedule_pos: int) -> np.ndarray:
        """Process every access falling inside slot ``[t, t+1)``.

        Returns the pages that should reach the backchannel queue (in
        access order): misses that survived cache absorption and the
        threshold filter.  The engine offers them — or discards them when
        the algorithm has no backchannel — while filtered/unoffered
        clients still wait for the push program, and absorbed accesses
        complete instantly as zero-wait cache hits.
        """
        if t != self._next_slot or t >= self._window_end:
            self._build_window(t)
        self._next_slot = t + 1
        bucket = self._calendar.pop(t, None)
        if bucket is None:
            return _NO_PAGES
        # Window inserts arrive out of order; draws are handed out by
        # position, so the set must come out in ascending client index.
        bucket.sort()
        due = np.array(bucket, dtype=np.int64)
        horizon = t + 1.0
        out: list[np.ndarray] = []
        while due.size:
            ranks = self._sampler.sample(due.size)
            now = self.next_access[due]
            self.generated += int(due.size)
            absorbed = self.steady[due] & (
                self._value_order[ranks] < self._absorb_limit[due])

            hit_idx = due[absorbed]
            miss_idx = due[~absorbed]
            # Only clients that just completed (hits) can come due again
            # within this slot; everyone else is waiting or thinking past
            # the horizon, so the re-loop never goes back to the calendar.
            due = hit_idx
            if hit_idx.size:
                self.absorbed_by_cache += int(hit_idx.size)
                self.wait_count[hit_idx] += 1  # zero-wait completion
                thinks = now[absorbed] + self._rng.exponential(
                    self.think_means[hit_idx])
                self.next_access[hit_idx] = thinks
                # A hit that comes due again inside this slot re-loops
                # and is not indexed.
                again = thinks < horizon
                due = hit_idx[again]
                later = ~again
                self._index(hit_idx[later].tolist(), thinks[later])

            if miss_idx.size:
                # The client's rank-space draw maps to a wire page by its
                # personal rotation of the popularity ranking.
                pages = (ranks[~absorbed] + self.offsets[miss_idx]) \
                    % self._db_size
                self.outstanding[miss_idx] = pages
                self.requested_at[miss_idx] = now[~absorbed]
                self.next_access[miss_idx] = math.inf
                if self._dist_flat is not None:
                    base = schedule_pos % self._cycle
                    filtered = (self._dist_flat[pages * self._cycle + base]
                                <= self._threshold_slots)
                    self.filtered_by_threshold += int(filtered.sum())
                    send = pages[~filtered]
                else:
                    send = pages
                self.offered += int(send.size)
                if send.size:
                    out.append(send)
                waiting = self._waiting_by_page
                for client, page in zip(miss_idx.tolist(), pages.tolist()):
                    waiting.setdefault(page, []).append(client)
        if not out:
            return _NO_PAGES
        return out[0] if len(out) == 1 else np.concatenate(out)

    def set_threshold_slots(self, threshold_slots: float) -> None:
        """Retune the fast-path threshold (adaptive controller hook)."""
        self._threshold_slots = threshold_slots

    def set_schedule(self, schedule) -> None:
        """Rebuild the flat distance table after a program reprogram.

        Mirrors :meth:`repro.client.virtual.VirtualClient.set_schedule`:
        the cached table is construction-time state and must follow the
        live program or threshold checks judge the dead one.
        """
        if self._dist_flat is None:
            raise ValueError("this fleet applies no threshold filter")
        table = schedule.distance_table(self._db_size)
        self._cycle = table.shape[1]
        self._dist_flat = table.ravel()

    def reset_stats(self) -> None:
        """Zero the wait accumulators (measurement-phase boundary).

        Client positions and in-flight waits are retained — a client
        already waiting keeps its request time, so its eventual wait
        lands in the measured phase exactly as the MC's does.
        """
        self.wait_sum[:] = 0.0
        self.wait_count[:] = 0
        self.wait_max[:] = 0.0
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0
        self.offered = 0
        self.delivered = 0

    # -- statistics ----------------------------------------------------------
    def user_mean_waits(self) -> np.ndarray:
        """Per-user mean wait over users with at least one completion.

        Cache hits count as zero-wait completions, so a user served
        entirely from cache contributes a mean of 0 — fairness is over
        *experienced* waits, not only broadcast deliveries.
        """
        measured = self.wait_count > 0
        return self.wait_sum[measured] / self.wait_count[measured]

    def snapshot(self) -> dict:
        """Per-user wait statistics as a JSON-ready dict.

        The per-user statistics are one
        :class:`~repro.sim.monitor.Histogram` fed the per-user means in
        one vectorized ``observe_many`` batch.  Clients still waiting
        when the run ends are censored — counted in ``still_waiting``,
        not in the wait statistics.
        """
        means = self.user_mean_waits()
        total_count = int(self.wait_count.sum())
        stats: dict = {
            "num_clients": self.num_clients,
            "users_measured": int(means.size),
            "still_waiting": int((self.outstanding >= 0).sum()),
            "generated": self.generated,
            "absorbed": self.absorbed_by_cache,
            "filtered": self.filtered_by_threshold,
            "offered": self.offered,
            "delivered": self.delivered,
            "mean_wait": (float(self.wait_sum.sum() / total_count)
                          if total_count else math.nan),
            "max_wait": (float(self.wait_max.max())
                         if total_count else math.nan),
        }
        if means.size:
            hist = Histogram("fleet_user_wait")
            hist.observe_many(means)
            quantiles = hist.quantiles()
            assert quantiles is not None  # at least one user measured
            stats.update({
                "user_wait_mean": hist.mean,
                "user_wait_min": hist.min,
                "user_wait_max": hist.max,
                "user_wait_p50": quantiles["p50"],
                "user_wait_p90": quantiles["p90"],
                "user_wait_p99": quantiles["p99"],
                "jain_index": jain_index(means),
            })
        else:
            stats.update({name: math.nan for name in (
                "user_wait_mean", "user_wait_min", "user_wait_max",
                "user_wait_p50", "user_wait_p90", "user_wait_p99",
                "jain_index")})
        return stats
