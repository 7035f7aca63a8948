"""The bounded backchannel request queue (Section 2.2 / 3.2).

The server holds outstanding pull requests in a queue of capacity
``ServerQSize`` *distinct pages*.  An arriving request is dropped when the
queue is full, and ignored when a request for the same page is already
queued (the earlier broadcast will satisfy both — clients snoop on the
frontchannel).  Clients get no feedback about either outcome.

*Service* order is delegated to a
:class:`~repro.server.schedulers.PullScheduler` discipline (the paper's
FIFO by default — bit-identical to the historic hard-coded behaviour).
For FIFO the queue keeps arrival order in a deque, with a set beside it
for membership, and always serves the head.  A discipline that reorders
(R×W, LWF) keeps the queued pages in its own enqueue-ordered dict,
``_live``, which is then the queue's only record of them: serving a
page from the middle is a dict delete, not a scan.  The queue stamps
every offer with :attr:`now`, the server's absolute slot clock, so
disciplines can weigh waits without owning a clock.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Optional

from repro.server.schedulers import FifoScheduler, PullScheduler

__all__ = ["BoundedRequestQueue", "Offer"]


class Offer(enum.Enum):
    """Outcome of presenting a request to the server queue.

    Values mirror ``repro.obs.events.OFFER_OUTCOMES`` (a tier-1 test,
    ``tests/lint/test_repo_clean.py``, holds the sync without a runtime
    import).
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


def _notified(scheduler: PullScheduler, hook: str) -> Optional[PullScheduler]:
    """``scheduler`` if its ``hook`` does anything, else None: the base
    class's hook is a no-op when there is no temperature to track."""
    if (scheduler.track_temperature
            or getattr(type(scheduler), hook) is not getattr(PullScheduler,
                                                             hook)):
        return scheduler
    return None


class BoundedRequestQueue:
    """Bounded queue of distinct page requests with drop-on-full semantics."""

    def __init__(self, capacity: int,
                 scheduler: Optional[PullScheduler] = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.scheduler: PullScheduler = (
            scheduler if scheduler is not None else FifoScheduler())
        #: Per offer-side hook, the scheduler to call it on, or None where
        #: it is a no-op (all three for plain FIFO, ``on_dropped`` for
        #: R×W and LWF).  Objects, not bound methods: a queue holds no
        #: callable of its own, so observers can shadow and restore.
        self._notify_enqueued = _notified(self.scheduler, "on_enqueued")
        self._notify_duplicate = _notified(self.scheduler, "on_duplicate")
        self._notify_dropped = _notified(self.scheduler, "on_dropped")
        #: The server's absolute slot clock; offers are stamped with it.
        self.now = 0
        live = self.scheduler._live
        #: Arrival order, for a discipline that serves its head; None when
        #: the discipline keeps the queued pages itself.
        self._fifo: Optional[deque[int]] = deque() if live is None else None
        #: The queued pages: a set beside the deque, or the discipline's
        #: enqueue-ordered ``_live`` dict (``Any``: each path uses only
        #: its own type's operations).  Bound once, never replaced: the
        #: slot step reads depth and emptiness on it directly.
        self.pages: Any = set() if live is None else live
        # Cumulative accounting, one counter per Offer outcome.
        self.enqueued = 0
        self.duplicates = 0
        self.dropped = 0
        self.served = 0

    def __len__(self) -> int:
        return len(self.pages)

    def __contains__(self, page: int) -> bool:
        return page in self.pages

    @property
    def is_full(self) -> bool:
        """True when another distinct request would be dropped."""
        return len(self.pages) >= self.capacity

    @property
    def offers(self) -> int:
        """Total requests presented to the queue (duplicates included)."""
        return self.enqueued + self.duplicates + self.dropped

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
        queued = self.pages
        if page in queued:
            self.duplicates += 1
            notify = self._notify_duplicate
            if notify is not None:
                notify.on_duplicate(page, self.now)
            return _DUPLICATE
        if len(queued) >= self.capacity:
            self.dropped += 1
            notify = self._notify_dropped
            if notify is not None:
                notify.on_dropped(page, self.now)
            return _DROPPED
        fifo = self._fifo
        if fifo is not None:
            fifo.append(page)
            queued.add(page)
        # else the discipline's on_enqueued inserts it into ``_live``.
        self.enqueued += 1
        notify = self._notify_enqueued
        if notify is not None:
            notify.on_enqueued(page, self.now)
        return _ENQUEUED

    def peek(self) -> Optional[int]:
        """The page the discipline would serve next (None when empty)."""
        if not self.pages:
            return None
        fifo = self._fifo
        return self.scheduler.select(
            self.pages if fifo is None else fifo, self.now)

    def pop(self) -> int:
        """Dequeue the discipline's pick for service (raises if empty)."""
        scheduler = self.scheduler
        fifo = self._fifo
        if fifo is None:
            # ``_live``: its first key is the arrival head, and the
            # discipline's on_served below deletes the page.
            live = self.pages
            page = scheduler.select(live, self.now)
            if page != next(iter(live)):
                scheduler.reordered += 1
        else:
            page = scheduler.select(fifo, self.now)
            if page != fifo[0]:
                raise ValueError(
                    f"discipline {scheduler.name!r} picked {page}, not the "
                    f"queue's head: one that reorders keeps the queued "
                    f"pages itself (PullScheduler._live)")
            fifo.popleft()
            self.pages.remove(page)
        scheduler.pops += 1
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
            "depth": len(self.pages),
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
