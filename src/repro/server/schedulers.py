"""Pull-queue scheduling disciplines and push-program reprogramming.

The paper serves the backchannel queue strictly FIFO (Section 3.2) and
keeps the push program fixed for a whole run; §6 explicitly calls for
"more dynamic algorithms".  This module opens both axes behind one small
interface:

- :class:`PullScheduler` — the hook surface a
  :class:`~repro.server.queue.BoundedRequestQueue` drives: ``offer``-side
  hooks receive every request's arrival slot (R×W and LWF keep their
  count-bucketed index of the queued pages current from them), and
  :meth:`PullScheduler.select` picks which queued page the next pull slot
  serves.
- :class:`FifoScheduler` — the paper's discipline, bit-identical to the
  pre-refactor queue: no extra state, no RNG draws, always the head.
- :class:`RxWScheduler` — Aksoy & Franklin's R×W: serve the page with the
  largest ``waiters × wait``; an ``aging`` exponent on the wait term
  interpolates between most-requested-first (``aging → 0``) and
  longest-first-wait (large ``aging``), the knob the Robert & Schabanel
  per-user flow-time objective tunes.
- :class:`LwfScheduler` — longest *total accumulated* wait first: the
  page whose outstanding requests (duplicates included) have together
  waited longest.  Distinct from FIFO, which only honours each page's
  first arrival.
- :class:`PushReprogrammer` — temperature-driven online rebuild of the
  push program: rank pages by observed backchannel demand and rebuild the
  multi-disk schedule so the pages clients actually wait for move to the
  fast disks.

Determinism: no discipline consumes randomness, and equal scores serve
the page that was *enqueued* first (an enqueue sequence number, not the
arrival slot, which several pages can share), so runs stay
bit-reproducible per seed and the FIFO discipline reproduces historic
baselines exactly.  R×W and LWF pick, in every queue state, the page a
front-to-back scan of the queue with a strict ``>`` would: that scan is
the reference oracle in ``tests/server/reference_select.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.broadcast.schedule import Schedule

__all__ = [
    "DISCIPLINES",
    "MAX_AGING",
    "PullScheduler",
    "FifoScheduler",
    "RxWScheduler",
    "LwfScheduler",
    "PushReprogrammer",
    "make_scheduler",
]

#: Selectable pull-queue disciplines (``SchedulerConfig.discipline``).
#: Mirrors ``repro.obs.events.SCHEDULER_DISCIPLINES`` (lint rule REP005
#: enforces the sync without a runtime import).
DISCIPLINES: tuple[str, ...] = ("fifo", "rxw", "lwf")

#: Largest accepted R×W ``aging`` exponent.  The score
#: ``waiters × (wait + 1)^aging`` stays a finite double for every wait and
#: waiter count below 2^53 (2^(53 × 17) < 2^1024); well before the bound
#: the wait term dominates and R×W serves the longest waiter.
MAX_AGING = 16.0


class PullScheduler:
    """Base discipline: the hook surface the bounded queue drives.

    The queue calls the ``on_*`` hooks with the page and its arrival slot
    (the server's absolute tick count) for every offer outcome, and
    :meth:`select` when a pull slot frees up.  The base implementation is
    plain FIFO; subclasses override the hooks they need.

    Two decision counters feed the metrics registry
    (``repro.obs.events.SCHEDULER_DECISIONS``): ``pops`` — pull services
    granted — and ``reordered`` — services that did *not* take the FIFO
    head.  ``temperature`` accumulates per-page observed demand (every
    offer, duplicates and drops included) when ``track_temperature`` is
    set; it deliberately survives measurement-phase counter resets, being
    a demand signal for :class:`PushReprogrammer`, not a statistic.
    """

    name = "fifo"

    def __init__(self, *, track_temperature: bool = False):
        self.track_temperature = track_temperature
        #: Cumulative observed demand per page (offers of any outcome).
        self.temperature: dict[int, int] = {}
        # Decision counters (reset with the queue's stats).
        self.pops = 0
        self.reordered = 0

    def _observe(self, page: int) -> None:
        self.temperature[page] = self.temperature.get(page, 0) + 1

    # -- offer-side hooks --------------------------------------------------
    def on_enqueued(self, page: int, now: int) -> None:
        """A distinct request for ``page`` entered the queue at slot ``now``."""
        if self.track_temperature:
            self._observe(page)

    def on_duplicate(self, page: int, now: int) -> None:
        """Another request arrived for an already-queued page."""
        if self.track_temperature:
            self._observe(page)

    def on_dropped(self, page: int, now: int) -> None:
        """A distinct request was dropped because the queue was full."""
        if self.track_temperature:
            self._observe(page)

    def on_served(self, page: int, now: int) -> None:
        """``page`` was popped for service (clear per-page wait state)."""

    # -- selection ---------------------------------------------------------
    def select(self, fifo: "deque[int]", now: int) -> int:
        """The queued page the next pull slot should serve.

        ``fifo`` is the queue's arrival-ordered deque (never empty here);
        the base class serves its head.  R×W and LWF answer from the
        index their hooks maintain and do not read it.
        """
        return fifo[0]

    def reset_decisions(self) -> None:
        """Zero the decision counters (measurement-phase boundary)."""
        self.pops = 0
        self.reordered = 0


class FifoScheduler(PullScheduler):
    """The paper's discipline — first-come-first-served over distinct pages.

    Identical to the base class; exists so ``discipline="fifo"`` names a
    concrete type and benchmarks can price the hook overhead alone.
    """

    name = "fifo"


#: One index entry, ``(key, seq, page, count)``: ``key`` orders a bucket,
#: ``seq`` numbers enqueues and breaks every tie.
_Entry = tuple[int, int, int, int]

#: Dead index entries tolerated beyond the live count before a rebuild,
#: so a shallow queue is not rebuilt every few offers.
_DEAD_SLACK = 16


class _CountIndexedScheduler(PullScheduler):
    """The index R×W and LWF share: queued pages bucketed by request count.

    Both disciplines score a page from its request count, a per-page
    ``key`` (first-arrival slot for R×W, arrival-slot sum for LWF) and
    ``now``, and for a *fixed* count the score only falls as the key
    grows.  Among pages with the same count the winner is therefore
    always the one with the smallest key, the earlier-enqueued on a tie,
    whatever ``now`` is.  Each bucket is a min-heap of entries, so
    ``select`` compares one candidate per distinct count — the bucket
    heads — instead of every queued page.

    A page that gains a request moves up one bucket and a served page
    leaves.  An entry at its bucket's head is popped; one further down
    is left where it is, dead (``_live`` no longer holds it), and popped
    when it surfaces, so every head is live and ``select`` only reads.
    Dead entries buried under a long-lived head are shed by rebuilding
    the buckets from ``_live`` once :attr:`_dead` passes the live count
    at the last rebuild plus :data:`_DEAD_SLACK`: the index holds at most
    twice the queue's capacity (plus the slack) and a rebuild is paid
    for by the offers that made it necessary.

    Relies on the slot clock never running backwards
    (``BroadcastServer.ticks``): a newly enqueued page then has the
    largest key of bucket 1 and is appended without sifting.  And on
    ``**`` not ranking a longer wait *below* a shorter one; libm's error
    of under one ulp allows that only between waits whose true scores
    are within two ulps, which adjacent integer waits are not until the
    wait passes ``aging × 10^15`` slots.
    """

    #: Whether a duplicate adds its arrival slot to the entry's key (LWF)
    #: or leaves the first arrival in place (R×W).
    _sums_arrivals = False

    def __init__(self, *, track_temperature: bool = False):
        super().__init__(track_temperature=track_temperature)
        #: page -> its live entry.
        self._live: dict[int, _Entry] = {}
        #: count -> min-heap of entries; never empty, head always live.
        self._buckets: dict[int, list[_Entry]] = {}
        self._seq = 0
        #: Dead entries still inside a heap, and the count that triggers
        #: a rebuild.
        self._dead = 0
        self._dead_limit = _DEAD_SLACK

    def on_enqueued(self, page: int, now: int) -> None:
        if self.track_temperature:
            self._observe(page)
        self._seq = seq = self._seq + 1
        self._live[page] = entry = (now, seq, page, 1)
        heap = self._buckets.get(1)
        if heap is None:
            self._buckets[1] = [entry]
        else:
            heap.append(entry)

    def on_duplicate(self, page: int, now: int) -> None:
        if self.track_temperature:
            self._observe(page)
        buckets = self._buckets
        old = self._live[page]
        key, seq, _, count = old
        if self._sums_arrivals:
            key += now
        self._live[page] = entry = (key, seq, page, count + 1)
        heap = buckets.get(count + 1)
        if heap is None:
            buckets[count + 1] = [entry]
        else:
            heappush(heap, entry)
        heap = buckets[count]
        if heap[0] is old:
            self._pop_head(count, heap)
        else:
            # Buried, as most duplicates of a deep queue are: hence inline.
            self._dead = dead = self._dead + 1
            if dead > self._dead_limit:
                self._rebuild()

    def on_served(self, page: int, now: int) -> None:
        entry = self._live.pop(page)
        heap = self._buckets[entry[3]]
        if heap[0] is entry:  # always, for a page ``select`` returned
            self._pop_head(entry[3], heap)
        else:
            self._dead += 1
            if self._dead > self._dead_limit:
                self._rebuild()

    def _pop_head(self, count: int, heap: list[_Entry]) -> None:
        """Drop bucket ``count``'s head and the dead entries under it."""
        live = self._live
        heappop(heap)
        while heap and live.get(heap[0][2]) is not heap[0]:
            heappop(heap)
            self._dead -= 1
        if not heap:
            del self._buckets[count]

    def _rebuild(self) -> None:
        """Re-bucket the live entries, shedding every dead one."""
        buckets: dict[int, list[_Entry]] = {}
        for entry in self._live.values():
            heap = buckets.get(entry[3])
            if heap is None:
                buckets[entry[3]] = [entry]
            else:
                heap.append(entry)
        for heap in buckets.values():
            heapify(heap)
        self._buckets = buckets
        self._dead = 0
        self._dead_limit = len(self._live) + _DEAD_SLACK


class RxWScheduler(_CountIndexedScheduler):
    """R×W (Aksoy & Franklin): serve max ``waiters × (wait + 1)^aging``.

    ``waiters`` counts every request observed for the page while queued
    (the first arrival plus duplicates) and ``wait`` is slots since the
    first arrival, so popular pages and starving pages both rise.  The
    ``aging`` exponent weights the wait term: 1.0 is classic R×W, values
    below 1 favour request counts (toward most-requested-first at 0),
    values above 1 favour the longest waiter (starvation resistance);
    it must be finite and at most :data:`MAX_AGING`.  Equal scores serve
    the earlier-enqueued page.
    """

    name = "rxw"

    def __init__(self, *, aging: float = 1.0,
                 track_temperature: bool = False):
        if not 0 <= aging <= MAX_AGING:  # also false for nan
            raise ValueError(
                f"aging must be within [0, {MAX_AGING:g}], got {aging}")
        super().__init__(track_temperature=track_temperature)
        self.aging = aging

    def waiters(self, page: int) -> int:
        """Requests observed for a queued page (0 when not queued)."""
        entry = self._live.get(page)
        return entry[3] if entry is not None else 0

    def select(self, fifo: "deque[int]", now: int) -> int:
        aging = self.aging
        best = best_seq = None
        best_score = -1.0
        for heap in self._buckets.values():
            first, seq, page, waiters = heap[0]
            score = waiters * (now - first + 1.0) ** aging
            if score > best_score or (score == best_score
                                      and seq < best_seq):
                best = page
                best_seq = seq
                best_score = score
        if best is None:
            raise IndexError("select from an empty queue")
        return best


class LwfScheduler(_CountIndexedScheduler):
    """Longest-total-wait-first: maximize summed outstanding wait.

    Each page's priority is the total wait accumulated by *all* its
    outstanding requests — duplicates included, each from its own arrival
    slot — kept as O(1) running aggregates (request count and arrival-slot
    sum) per page.  A page with many recent duplicates can overtake a
    page with one old request, which is exactly where LWF and FIFO
    diverge.  Equal scores serve the earlier-enqueued page.
    """

    name = "lwf"
    _sums_arrivals = True

    def total_wait(self, page: int, now: int) -> float:
        """Summed wait (slots, +1 each) of a page's outstanding requests."""
        entry = self._live.get(page)
        if entry is None:
            return 0.0
        return entry[3] * (now + 1.0) - entry[0]

    def select(self, fifo: "deque[int]", now: int) -> int:
        best = best_seq = None
        best_score = float("-inf")
        for heap in self._buckets.values():
            arrival_sum, seq, page, count = heap[0]
            score = count * (now + 1.0) - arrival_sum
            if score > best_score or (score == best_score
                                      and seq < best_seq):
                best = page
                best_seq = seq
                best_score = score
        if best is None:
            raise IndexError("select from an empty queue")
        return best


def make_scheduler(discipline: str, *, aging: float = 1.0,
                   track_temperature: bool = False) -> PullScheduler:
    """Construct the discipline named by ``SchedulerConfig.discipline``."""
    if discipline == "rxw":
        return RxWScheduler(aging=aging,
                            track_temperature=track_temperature)
    if discipline == "lwf":
        return LwfScheduler(track_temperature=track_temperature)
    if discipline == "fifo":
        return FifoScheduler(track_temperature=track_temperature)
    raise ValueError(f"unknown discipline {discipline!r} "
                     f"(expected one of {DISCIPLINES})")


class PushReprogrammer:
    """Temperature-driven online rebuild of the push program.

    Every ``interval`` slots the engine asks for a rebuild; one happens
    only when at least ``min_requests`` new backchannel offers were
    observed since the last rebuild (pure silence carries no signal —
    the same principle as the adaptive controller's no-signal windows).

    The rebuild ranks pages by cumulative observed demand (hottest
    first, page id breaking ties) and refills the original disk layout
    in that order, so the pages clients actually wait for migrate to the
    fast disks.  Pages never requested keep their aggregate-rank order
    behind the observed ones.  No Offset transform is applied: observed
    backchannel demand already excludes cache-absorbed pages, which is
    the empirical counterpart of what Offset approximates a priori.

    Chopped programs are rejected at config validation: reprogramming
    rebuilds a *full* program, and re-adding a chopped page would strand
    clients already waiting on the old program's safety net.
    """

    def __init__(self, db_size: int, disk_sizes: tuple[int, ...],
                 rel_freqs: tuple[int, ...], *, interval: int,
                 min_requests: int):
        if interval < 1:
            raise ValueError("interval must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be positive")
        self.db_size = db_size
        self.disk_sizes = tuple(disk_sizes)
        self.rel_freqs = tuple(rel_freqs)
        self.interval = interval
        self.min_requests = min_requests
        self.reprograms = 0
        self._demand_at_last = 0
        #: (slot, window demand) per accepted rebuild.
        self.trace: list[tuple[int, int]] = []

    def ranking(self, temperature: dict[int, int]) -> list[int]:
        """Demand-ranked page order: hot pages first, cold in rank order."""
        hot = sorted(temperature, key=lambda page: (-temperature[page], page))
        hot_set = set(hot)
        return hot + [page for page in range(self.db_size)
                      if page not in hot_set]

    def maybe_reprogram(self, now: int,
                        scheduler: PullScheduler) -> Optional[Schedule]:
        """A rebuilt schedule when enough new demand accrued, else None."""
        demand = sum(scheduler.temperature.values())
        if demand - self._demand_at_last < self.min_requests:
            return None
        self._demand_at_last = demand
        assignment = DiskAssignment.from_ranking(
            self.ranking(scheduler.temperature), self.disk_sizes,
            self.rel_freqs)
        self.reprograms += 1
        self.trace.append((now, demand))
        return build_schedule(assignment)
