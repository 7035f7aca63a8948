"""The per-slot server state machine, shared by both simulation engines.

Each broadcast unit the server emits exactly one slot: a pull response, a
push-program page, a padded empty program slot, or an idle slot (no program
and nothing queued).  Both the reference (event-driven) and the fast
(slot-driven) engine call :meth:`BroadcastServer.tick` once per slot, so the
two implementations share identical server semantics by construction.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.broadcast.schedule import Schedule
from repro.server.mux import PushPullMux
from repro.server.queue import BoundedRequestQueue
from repro.server.schedulers import PullScheduler

__all__ = ["BroadcastServer", "SlotKind"]


class SlotKind(enum.Enum):
    """What a broadcast slot carried.

    Values mirror ``repro.obs.events.SLOT_KINDS`` (importing obs here
    would cycle through core; ``tests/lint/test_repo_clean.py`` holds
    the sync).
    """

    PUSH = "push"      #: a page from the periodic program
    PULL = "pull"      #: a queued backchannel request
    PADDING = "padding"  #: an empty program slot (chunk padding)
    IDLE = "idle"      #: no program and an empty queue (Pure-Pull only)

    @property
    def carries_page(self) -> bool:
        """True for slot kinds that transmit a page a client can receive."""
        return self in (SlotKind.PUSH, SlotKind.PULL)


# Bound once for tick(): ``SlotKind.PULL`` and ``hash(member)`` each run
# Python-level code per use (3.11), so the loop names members through
# globals and counts them by position in ``BroadcastServer._counts``.
_PUSH, _PULL, _PADDING, _IDLE = SlotKind
_N_PUSH, _N_PULL, _N_PADDING, _N_IDLE = range(4)


class BroadcastServer:
    """Broadcast server: periodic program + bounded pull queue + MUX."""

    def __init__(self, schedule: Optional[Schedule], queue_size: int,
                 pull_bw: float, rng: np.random.Generator,
                 scheduler: Optional[PullScheduler] = None):
        """Args:
            schedule: the push program, or None for Pure-Pull (which must
                then use ``pull_bw = 1.0``).
            queue_size: backchannel queue capacity (``ServerQSize``).
            pull_bw: fraction of slots offered to pulls (``PullBW``).
            rng: seeded generator for the MUX coin.
            scheduler: pull-queue service discipline (FIFO when omitted).
        """
        if schedule is None and pull_bw < 1.0:
            raise ValueError("a push program is required when pull_bw < 1")
        self.schedule = schedule
        self._slots = schedule.slots if schedule is not None else ()
        #: ``len(self._slots)``, where ``tick`` wraps the cursor.
        self._cycle = len(self._slots)
        self.queue = BoundedRequestQueue(queue_size, scheduler)
        self.mux = PushPullMux(pull_bw, rng)
        self.schedule_pos = 0
        #: Absolute slot clock: ticks emitted since construction.  Never
        #: reset (unlike the statistics) — it stamps queue arrivals for
        #: the scheduling disciplines, and waits must stay monotone
        #: across measurement-phase boundaries.
        self.ticks = 0
        self._counts = [0, 0, 0, 0]

    @property
    def slot_counts(self) -> dict[SlotKind, int]:
        """Slots emitted since the last reset, by kind."""
        return dict(zip(SlotKind, self._counts))

    @property
    def pending_requests(self) -> int:
        """Requests currently queued on the backchannel."""
        return len(self.queue)

    def request(self, page: int):
        """Present a backchannel request (see :class:`BoundedRequestQueue`)."""
        return self.queue.offer(page)

    def tick(self) -> tuple[Optional[int], SlotKind]:
        """Emit the next slot: ``(page or None, slot kind)``.

        The periodic program's position advances only when the slot actually
        carries a program entry (page or padding), so pull responses delay —
        rather than consume — the push schedule.
        """
        ticks = self.ticks = self.ticks + 1
        # ``self.queue`` is read on every call, not cached: a queue may be
        # swapped in after construction (the FIFO parity oracle is).
        # Emptiness is its page container's truth value, not ``__len__``.
        queue = self.queue
        queue.now = ticks
        if self.mux.wants_pull() and queue.pages:
            page = queue.pop()
            self._counts[_N_PULL] += 1
            return page, _PULL
        slots = self._slots
        if not slots:
            self._counts[_N_IDLE] += 1
            return None, _IDLE
        pos = self.schedule_pos
        page = slots[pos]
        pos += 1
        self.schedule_pos = pos if pos < self._cycle else 0
        if page is None:
            self._counts[_N_PADDING] += 1
            return None, _PADDING
        self._counts[_N_PUSH] += 1
        return page, _PUSH

    def set_schedule(self, schedule: Schedule) -> None:
        """Swap the push program in place (temperature reprogramming).

        The cursor is kept modulo the new cycle so the program keeps
        rolling from an equivalent position.  Its one caller is
        :class:`repro.core.runtime.ControlPlane`, which also refreshes
        every client-side distance table derived from the old program.
        """
        if self.schedule is None:
            raise ValueError("cannot reprogram a server with no push program")
        self.schedule = schedule
        self._slots = schedule.slots
        self._cycle = len(schedule)
        self.schedule_pos %= self._cycle

    def stats_snapshot(self) -> dict:
        """Point-in-time view of the server for observability tooling.

        Combines the slot accounting, the schedule cursor, and the queue's
        own :meth:`~repro.server.queue.BoundedRequestQueue.snapshot`.
        """
        return {
            "schedule_pos": self.schedule_pos,
            "slots": {kind.value: count
                      for kind, count in self.slot_counts.items()},
            "queue": self.queue.snapshot(),
        }

    def reset_stats(self) -> None:
        """Zero slot and queue counters at a measurement-phase boundary."""
        self._counts = [0, 0, 0, 0]
        self.queue.reset_stats()
