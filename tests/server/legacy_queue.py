"""Reference oracle: the backchannel queue before pull disciplines.

Hard-coded FIFO service over its own arrival deque and membership set:
no scheduler, no hooks, no reordering.  It carries what
``BroadcastServer.tick``, the engines and the slot tracer use of a
queue, and nothing else.  ``test_schedulers.py`` requires a full run
through the FIFO discipline to produce the same slot trace as the same
run through this queue, on both engines.
"""

from collections import deque

from repro.server.queue import Offer


class LegacyQueue:
    def __init__(self, capacity: int):
        self.capacity = capacity
        #: Stamped by ``BroadcastServer.tick``; this queue never reads it.
        self.now = 0
        self._fifo: deque[int] = deque()
        #: Membership; ``tick`` and the fast engine read depth and
        #: emptiness on it, as on ``BoundedRequestQueue.pages``.
        self.pages: set[int] = set()
        self.enqueued = 0
        self.duplicates = 0
        self.dropped = 0
        self.served = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def offer(self, page: int) -> Offer:
        if page in self.pages:
            self.duplicates += 1
            return Offer.DUPLICATE
        if len(self._fifo) >= self.capacity:
            self.dropped += 1
            return Offer.DROPPED
        self._fifo.append(page)
        self.pages.add(page)
        self.enqueued += 1
        return Offer.ENQUEUED

    def pop(self) -> int:
        page = self._fifo.popleft()
        self.pages.remove(page)
        self.served += 1
        return page

    def reset_stats(self) -> None:
        self.enqueued = 0
        self.duplicates = 0
        self.dropped = 0
        self.served = 0
