"""Slot-level tracing: one structured row per broadcast slot.

A :class:`SlotTracer` attaches to the components both simulation engines
share (:meth:`SlotTracer.attach`) and emits one
:data:`~repro.obs.columnar.SLOT_DTYPE` row per broadcast slot the server
completes, snapshotted at the instant the server ticks (after the
measured client's boundary activity, before the slot's virtual-client
arrivals).  Because the two engines pin the same within-slot event order
(DESIGN.md §6), the rows are directly comparable: on a deterministic
Pure-Push run the reference and fast engines produce *identical* traces,
which is what :mod:`repro.obs.compare` exploits to pinpoint divergences.

The rows go to a :class:`~repro.obs.columnar.ColumnarSink` — in memory,
or written as the one on-disk trace format, a columnar ``.npy``.

Tracing is strictly opt-in — the hooks are shadows on the component
instances (:mod:`repro.obs.attach`), so a run without a tracer executes
no tracing code at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.attach import Attachment
from repro.obs.events import SLOT_KINDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.build import SystemState

__all__ = [
    "OPTIONAL_SLOT_FIELDS",
    "SlotTracer",
]

#: Slot-row fields that may be None: the columnar null-mask bits, in
#: this order (the page is None for padding / idle slots, the measured
#: client's awaited page while it thinks).
OPTIONAL_SLOT_FIELDS: tuple[str, ...] = ("page", "mc_waiting")

# SLOT_KINDS name -> the int8 code a slot row stores.
_KIND_CODE = {name: code for code, name in enumerate(SLOT_KINDS)}


class SlotTracer:
    """Collects hook calls into per-slot rows.

    :meth:`attach` wires the hooks to a system's components:
    :meth:`on_mc_request` / :meth:`on_vc_request` fire as backchannel
    requests head for the server queue and :meth:`on_slot` right after
    each server tick; the tracer folds the arrival counts since the
    previous tick into the row and hands it to the sink.
    """

    def __init__(self, sink):
        self.sink = sink
        self.records_emitted = 0
        self._mc_arrivals = 0
        self._vc_arrivals = 0

    def attach(self, state: "SystemState") -> Attachment:
        """Take the hooks from ``state``'s components until detached:
        a row per ``server.tick`` (slot ``server.ticks - 1``), an MC
        arrival per ``mc.record_pull_sent``, a VC arrival per page
        ``vc.requests_for_slot`` yields."""
        server = state.server
        mc = state.mc
        queue = server.queue

        def tick(inner):
            page, kind = result = inner()
            self.on_slot(server.ticks - 1, kind, page, queue, mc.waiting)
            return result

        def record_pull_sent(inner, page: int, now: float, outcome) -> None:
            inner(page, now, outcome)
            self.on_mc_request(page)

        def requests_for_slot(inner, count: int,
                              schedule_pos: int) -> Iterator[int]:
            for page in inner(count, schedule_pos):
                self.on_vc_request(page)
                yield page

        return Attachment([
            (server, "tick", tick),
            (mc, "record_pull_sent", record_pull_sent),
            (state.vc, "requests_for_slot", requests_for_slot),
        ])

    def on_mc_request(self, page: int) -> None:
        """The measured client sent a backchannel request for ``page``."""
        self._mc_arrivals += 1

    def on_vc_request(self, page: int) -> None:
        """A virtual-client request for ``page`` reached the queue."""
        self._vc_arrivals += 1

    def on_slot(self, slot: int, kind, page: Optional[int], queue,
                mc_waiting: Optional[int]) -> None:
        """The server emitted slot ``slot``; snapshot and ship a row.

        ``kind`` is a :class:`~repro.server.broadcast_server.SlotKind`;
        ``queue`` the server's
        :class:`~repro.server.queue.BoundedRequestQueue`.  The row holds
        the SLOT_DTYPE columns in order: queue depth and cumulative
        queue counters at the snapshot instant (reset with the engine's
        measurement phases), the page the measured client is blocked on,
        the MC / VC requests since the previous row, and the null mask
        (bits follow :data:`OPTIONAL_SLOT_FIELDS`).
        """
        mask = 0
        if page is None:
            mask |= 1
            page = -1
        if mc_waiting is None:
            mask |= 2
            mc_waiting = -1
        self.sink.emit((slot, _KIND_CODE[kind.value], page, len(queue),
                        queue.enqueued, queue.duplicates, queue.dropped,
                        queue.served, mc_waiting, self._mc_arrivals,
                        self._vc_arrivals, mask))
        self._mc_arrivals = 0
        self._vc_arrivals = 0
        self.records_emitted += 1

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()
