"""The bounded backchannel request queue (Section 2.2 / 3.2).

The server holds outstanding pull requests in a queue of capacity
``ServerQSize`` *distinct pages*.  An arriving request is dropped when the
queue is full, and ignored when a request for the same page is already
queued (the earlier broadcast will satisfy both — clients snoop on the
frontchannel).  Clients get no feedback about either outcome.

Arrival order is kept in a FIFO deque; *service* order is delegated to a
:class:`~repro.server.schedulers.PullScheduler` discipline (the paper's
FIFO by default — bit-identical to the historic hard-coded behaviour).
The queue stamps every offer with :attr:`now`, the server's absolute
slot clock, so disciplines can weigh waits without owning a clock.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Optional

from repro.server.schedulers import FifoScheduler, PullScheduler

__all__ = ["BoundedRequestQueue", "Offer"]


class Offer(enum.Enum):
    """Outcome of presenting a request to the server queue.

    Values mirror ``repro.obs.events.OFFER_OUTCOMES`` (lint rule REP005
    enforces the sync without a runtime import).
    """

    #: The request was queued; a pull slot will eventually broadcast it.
    ENQUEUED = "enqueued"
    #: A request for the same page was already queued (benign: the earlier
    #: request's broadcast satisfies this client too).
    DUPLICATE = "duplicate"
    #: The queue was full; the request is thrown away with no feedback.
    DROPPED = "dropped"


# Bound once for offer(): ``Offer.DROPPED`` runs Python code per access.
_ENQUEUED, _DUPLICATE, _DROPPED = Offer


class BoundedRequestQueue:
    """Bounded queue of distinct page requests with drop-on-full semantics."""

    def __init__(self, capacity: int,
                 scheduler: Optional[PullScheduler] = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.scheduler: PullScheduler = (
            scheduler if scheduler is not None else FifoScheduler())
        #: None for plain FIFO, whose three offer-side hooks are no-ops
        #: without temperature tracking: :meth:`offer` skips the calls.
        self._offer_hooks = None if (
            type(self.scheduler) in (PullScheduler, FifoScheduler)
            and not self.scheduler.track_temperature) else self.scheduler
        #: The server's absolute slot clock; offers are stamped with it.
        self.now = 0
        self._fifo: deque[int] = deque()
        self._queued: set[int] = set()
        # Cumulative accounting, one counter per Offer outcome.
        self.enqueued = 0
        self.duplicates = 0
        self.dropped = 0
        self.served = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def __contains__(self, page: int) -> bool:
        return page in self._queued

    @property
    def is_full(self) -> bool:
        """True when another distinct request would be dropped."""
        return len(self._fifo) >= self.capacity

    @property
    def offers(self) -> int:
        """Total requests presented to the queue (duplicates included)."""
        return self.enqueued + self.duplicates + self.dropped

    @property
    def distinct_offers(self) -> int:
        """Offers that competed for queue capacity (``enqueued + dropped``).

        Duplicates are excluded: they neither take a slot nor can be
        dropped, so they carry no information about saturation.
        """
        return self.enqueued + self.dropped

    @property
    def drop_rate(self) -> float:
        """Fraction of *distinct* offers dropped because the queue was full.

        Computed over ``enqueued + dropped``.  Duplicates are excluded
        from the denominator as well as the numerator: a duplicated
        request is satisfied by the already-queued broadcast regardless
        of queue pressure, so counting it would dilute the saturation
        signal the adaptive controller thresholds on — at high load most
        offers for hot pages are duplicates, and the diluted rate could
        sit under ``AdaptivePolicy.high_drop`` while every distinct
        request was being dropped.
        """
        distinct = self.enqueued + self.dropped
        return self.dropped / distinct if distinct else 0.0

    def offer(self, page: int) -> Offer:
        """Present a pull request; returns what happened to it."""
        hooks = self._offer_hooks
        if page in self._queued:
            self.duplicates += 1
            if hooks is not None:
                hooks.on_duplicate(page, self.now)
            return _DUPLICATE
        if len(self._fifo) >= self.capacity:
            self.dropped += 1
            if hooks is not None:
                hooks.on_dropped(page, self.now)
            return _DROPPED
        self._fifo.append(page)
        self._queued.add(page)
        self.enqueued += 1
        if hooks is not None:
            hooks.on_enqueued(page, self.now)
        return _ENQUEUED

    def peek(self) -> Optional[int]:
        """The page the discipline would serve next (None when empty)."""
        if not self._fifo:
            return None
        return self.scheduler.select(self._fifo, self.now)

    def pop(self) -> int:
        """Dequeue the discipline's pick for service (raises if empty)."""
        scheduler = self.scheduler
        fifo = self._fifo
        page = scheduler.select(fifo, self.now)
        scheduler.pops += 1
        if page == fifo[0]:
            fifo.popleft()
        else:
            fifo.remove(page)
            scheduler.reordered += 1
        self._queued.remove(page)
        self.served += 1
        scheduler.on_served(page, self.now)
        return page

    def snapshot(self) -> dict:
        """Point-in-time accounting view (depth plus cumulative counters).

        Plain-dict so observers, the CLI, and the metrics registry can ship
        it without holding a reference to the live queue.  ``drop_rate``
        follows the distinct-offers definition (see :attr:`drop_rate`).
        """
        return {
            "depth": len(self._fifo),
            "capacity": self.capacity,
            "enqueued": self.enqueued,
            "duplicates": self.duplicates,
            "dropped": self.dropped,
            "served": self.served,
            "drop_rate": self.drop_rate,
            "scheduler": {
                "discipline": self.scheduler.name,
                "pops": self.scheduler.pops,
                "reordered": self.scheduler.reordered,
            },
        }

    def reset_stats(self) -> None:
        """Zero the cumulative counters (queue contents are kept).

        Used when a run switches from the warm-up to the measured phase.
        The scheduler's decision counters reset too; its temperature
        accumulator does not (it is a demand signal, not a statistic).
        """
        self.enqueued = 0
        self.duplicates = 0
        self.dropped = 0
        self.served = 0
        self.scheduler.reset_decisions()
