"""Reference oracle: R×W and LWF as a front-to-back scan of the queue.

These are the ``select`` bodies ``repro.server.schedulers`` shipped
before the disciplines got their count-bucketed index, with the per-page
dicts they read.  O(depth) per pick and obviously right: every queued
page is scored, a strict ``>`` keeps the earlier-enqueued page on a tie.
``test_indexed_select.py`` requires the indexed disciplines to make the
identical pick in every queue state.
"""

from repro.server.schedulers import PullScheduler


class ScanRxW(PullScheduler):
    name = "rxw"

    def __init__(self, *, aging: float = 1.0):
        super().__init__()
        self.aging = aging
        self._first_arrival: dict[int, int] = {}
        self._waiters: dict[int, int] = {}

    def on_enqueued(self, page, now):
        self._first_arrival[page] = now
        self._waiters[page] = 1

    def on_duplicate(self, page, now):
        self._waiters[page] += 1

    def on_served(self, page, now):
        del self._first_arrival[page]
        del self._waiters[page]

    def select(self, fifo, now):
        first = self._first_arrival
        waiters = self._waiters
        aging = self.aging
        best = fifo[0]
        best_score = -1.0
        for page in fifo:
            score = waiters[page] * (now - first[page] + 1.0) ** aging
            if score > best_score:
                best = page
                best_score = score
        return best


class ScanLwf(PullScheduler):
    name = "lwf"

    def __init__(self):
        super().__init__()
        self._count: dict[int, int] = {}
        self._arrival_sum: dict[int, int] = {}

    def on_enqueued(self, page, now):
        self._count[page] = 1
        self._arrival_sum[page] = now

    def on_duplicate(self, page, now):
        self._count[page] += 1
        self._arrival_sum[page] += now

    def on_served(self, page, now):
        del self._count[page]
        del self._arrival_sum[page]

    def select(self, fifo, now):
        count = self._count
        arrival_sum = self._arrival_sum
        best = fifo[0]
        best_score = float("-inf")
        for page in fifo:
            score = count[page] * (now + 1.0) - arrival_sum[page]
            if score > best_score:
                best = page
                best_score = score
        return best
