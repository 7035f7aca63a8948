"""Request-lifecycle tracing: one structured record per MC access.

PR 1's slot tracer shows what the *server* did each broadcast unit; this
module follows the paper's headline quantity from the other side — where
each measured-client access's wait actually went:

    issued -> cache hit            (wait 0)
    issued -> miss -> [pull sent -> enqueued | duplicate | dropped]
           -> ... queue / push wait ... -> page on air -> served

A :class:`RequestTracer` attaches to the components both engines share
(the measured client, the server and its queue, so the hook points are
identical by construction) and builds one :class:`RequestRecord` per
completed access, encoded once as a
:data:`~repro.obs.columnar.REQUEST_DTYPE` row into a
:class:`~repro.obs.columnar.ColumnarSink` (the sink the slot tracer
writes to as well).  The rows are the whole trace: every aggregate is
computed from them.  :func:`breakdown_of_array` reduces a request table
to its :class:`WaitBreakdown` — the think / push-wait / pull-queue-wait
/ service decomposition over the measured phase — and
:func:`measured_miss_waits` extracts the column whose exact quantiles
are reported, the same way for a live tracer and for a ``.npy`` file
read back (``report --trace``).

Tracing is opt-in: the hooks are shadows on the component instances
(:mod:`repro.obs.attach`), so a run without a request tracer executes no
tracing code at all.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs.attach import Attachment
from repro.obs.columnar import table_of
from repro.obs.events import OFFER_OUTCOMES, SERVED_KINDS
from repro.sim.monitor import exact_quantiles

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.build import SystemState

__all__ = [
    "RequestRecord",
    "RequestTracer",
    "WaitBreakdown",
    "breakdown_of_array",
    "measured_miss_waits",
]

# Registry name -> the int8 code a request row stores.
_OUTCOME_CODE = {name: code for code, name in enumerate(OFFER_OUTCOMES)}
_SERVED_KIND_CODE = {name: code for code, name in enumerate(SERVED_KINDS)}


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """The full lifecycle of one measured-client access."""

    #: MC access sequence number (0-based, all phases).
    index: int
    #: Page the MC wanted.
    page: int
    #: Time the access was issued (broadcast units).
    issued_at: float
    #: True when the access fell inside the measured phase.
    measured: bool
    #: True when the cache answered (wait is then 0).
    hit: bool
    #: True when the MC sent a backchannel request for the page.
    pull_sent: bool
    #: What the server queue did with the MC's request:
    #: "enqueued" / "duplicate" / "dropped", None when no pull was sent.
    pull_outcome: Optional[str]
    #: Push wait the MC would face if it never pulled: slots until the
    #: page's next scheduled appearance (+1 for its transmission), None
    #: for pages not on the push program ("no safety net").
    predicted_push_wait: Optional[float]
    #: Backchannel requests for this page (any client, the MC included)
    #: observed at the server queue while the access was outstanding.
    page_offers: int
    #: Slot boundary at which the page started transmitting (None for
    #: cache hits).
    on_air_at: Optional[float]
    #: Time the page was in the client's hands.
    served_at: float
    #: What satisfied the access: "cache", "push", or "pull".
    served_kind: str
    #: Total response time: served_at - issued_at.
    wait: float
    #: Wait before the page went on air (push wait or pull queue wait,
    #: depending on served_kind); None for cache hits.
    queue_wait: Optional[float]
    #: Time on the air until delivery (<= 1 slot); None for cache hits.
    service: Optional[float]

    def row(self) -> tuple:
        """The record as a REQUEST_DTYPE row tuple.

        A None becomes its column's sentinel (-1 for the outcome code,
        NaN for a float) and sets its null-mask bit, in
        :data:`~repro.obs.columnar.OPTIONAL_REQUEST_FIELDS` order:
        1 = pull_outcome,
        2 = predicted_push_wait, 4 = on_air_at, 8 = queue_wait,
        16 = service.
        """
        mask = 0
        outcome = self.pull_outcome
        if outcome is None:
            mask |= 1
            outcome_code = -1
        else:
            outcome_code = _OUTCOME_CODE[outcome]
        predicted = self.predicted_push_wait
        if predicted is None:
            mask |= 2
            predicted = math.nan
        on_air = self.on_air_at
        if on_air is None:
            mask |= 4
            on_air = math.nan
        queue_wait = self.queue_wait
        if queue_wait is None:
            mask |= 8
            queue_wait = math.nan
        service = self.service
        if service is None:
            mask |= 16
            service = math.nan
        return (self.index, self.page, self.issued_at, self.measured,
                self.hit, self.pull_sent, outcome_code, predicted,
                self.page_offers, on_air, self.served_at,
                _SERVED_KIND_CODE[self.served_kind], self.wait, queue_wait,
                service, mask)


@dataclass
class WaitBreakdown:
    """Where the measured phase's client time went, by lifecycle stage.

    Counts cover measured accesses only (matching ``RunResult``).  The
    wait totals decompose exactly: for every miss,
    ``queue_wait + service == wait``, with ``queue_wait`` attributed to
    ``push_wait`` or ``pull_wait`` by the kind of slot that served it.
    """

    #: Event counts.
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    pulls_sent: int = 0
    pulls_enqueued: int = 0
    pulls_duplicate: int = 0
    pulls_dropped: int = 0
    served_push: int = 0
    served_pull: int = 0
    #: Total think time (accesses x ThinkTime, when the think time is
    #: known).
    think: float = 0.0
    #: Total wait before the page aired, split by the serving slot kind.
    push_wait: float = 0.0
    pull_wait: float = 0.0
    #: Total on-air transmission time.
    service: float = 0.0

    # -- derived views -----------------------------------------------------
    @property
    def total_wait(self) -> float:
        """Total blocked time (push + pull queue waits + service)."""
        return self.push_wait + self.pull_wait + self.service

    @property
    def mean_wait(self) -> float:
        """Mean response time over measured misses (the paper's metric)."""
        return self.total_wait / self.misses if self.misses else math.nan

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (adds the derived totals)."""
        data = asdict(self)
        data["total_wait"] = self.total_wait
        data["mean_wait"] = self.mean_wait
        return data

    def render(self) -> str:
        """Terminal table: stage, blocked time, share, events."""
        from repro.experiments.reporting import format_table

        blocked = self.total_wait
        busy = blocked + self.think

        def share(part: float) -> str:
            return f"{part / busy:.1%}" if busy else "-"

        rows = [
            ("think", self.think, share(self.think), self.accesses),
            ("push wait", self.push_wait, share(self.push_wait),
             self.served_push),
            ("pull queue wait", self.pull_wait, share(self.pull_wait),
             self.served_pull),
            ("service (on air)", self.service, share(self.service),
             self.misses),
        ]
        table = format_table(
            ("stage", "broadcast units", "share", "events"), rows)
        summary = (f"accesses {self.accesses} (hits {self.hits} / misses "
                   f"{self.misses}), pulls sent {self.pulls_sent} "
                   f"(enqueued {self.pulls_enqueued}, duplicate "
                   f"{self.pulls_duplicate}, dropped {self.pulls_dropped})")
        return f"{table}\n{summary}"


def _require_request_table(array: np.ndarray) -> None:
    table = table_of(array)
    if table != "request":
        raise ValueError(f"need a request trace, got a {table} trace")


def breakdown_of_array(array: np.ndarray,
                       think_time: Optional[float] = None,
                       measured_only: bool = True) -> WaitBreakdown:
    """The :class:`WaitBreakdown` of a request table.

    Built by column reductions — no record objects are materialized, so
    a million-row memory-mapped trace aggregates in tens of
    milliseconds.  ``think_time`` (broadcast units per access) fills the
    think row when known.
    """
    _require_request_table(array)
    rows = array[array["measured"]] if measured_only else array[...]
    hit = rows["hit"]
    miss = rows[~hit]
    outcome = miss["pull_outcome"]
    served_pull = miss["served_kind"] == _SERVED_KIND_CODE["pull"]
    queue_wait = np.nan_to_num(miss["queue_wait"], nan=0.0)
    misses = int(miss.shape[0])
    pulled = int(np.count_nonzero(served_pull))
    breakdown = WaitBreakdown(
        accesses=int(rows.shape[0]),
        hits=int(np.count_nonzero(hit)),
        misses=misses,
        pulls_sent=int(np.count_nonzero(miss["pull_sent"])),
        **{f"pulls_{name}": int(np.count_nonzero(outcome == code))
           for name, code in _OUTCOME_CODE.items()},
        served_push=misses - pulled,
        served_pull=pulled,
        push_wait=float(queue_wait[~served_pull].sum()),
        pull_wait=float(queue_wait[served_pull].sum()),
        service=float(np.nan_to_num(miss["service"], nan=0.0).sum()))
    if think_time is not None:
        breakdown.think = think_time * breakdown.accesses
    return breakdown


def measured_miss_waits(array: np.ndarray) -> np.ndarray:
    """The measured-phase miss waits of a request table (float64 copy)."""
    _require_request_table(array)
    selected = array[array["measured"] & ~array["hit"]]
    return np.ascontiguousarray(selected["wait"], dtype=np.float64)


@dataclass
class _OpenRequest:
    """Mutable in-flight state between ``on_access`` and completion."""

    index: int
    page: int
    issued_at: float
    measured: bool
    pull_sent: bool = False
    pull_outcome: Optional[str] = None
    predicted_push_wait: Optional[float] = None
    page_offers: int = 0
    on_air_at: Optional[float] = None
    on_air_kind: Optional[str] = None


class RequestTracer:
    """Collects hook calls into per-request records.

    The MC is a closed loop — at most one access is outstanding — so the
    tracer is a small state machine over one :class:`_OpenRequest`.  Hook
    call order per access::

        on_access -> on_hit
        on_access -> on_miss [-> on_miss_predict] [-> on_pull]
                  -> (on_queue_offer ...) -> on_air -> on_served

    :meth:`attach` wires them to a system's components.
    ``on_queue_offer`` follows the server queue's ``offer``, so it sees
    *every* backchannel request (the VC's included) and counts the ones
    for the page the MC is blocked on.

    The tracer watches only the MC, so the trace has one row per MC
    access (warm-up, settle and measure) and no more.  The sink's rows
    are the trace; :meth:`breakdown` and
    :meth:`wait_quantiles` reduce them with :func:`breakdown_of_array`
    and :func:`~repro.sim.monitor.exact_quantiles`, as ``report
    --trace`` does for the written file.

    Args:
        sink: the :class:`~repro.obs.columnar.ColumnarSink`
            (``table="request"``) completed records are written to.
        think_time: broadcast units the MC thinks between accesses
            (:meth:`attach` fills this in when left None) — used for the
            think row of :meth:`breakdown`.
    """

    def __init__(self, sink, think_time: Optional[float] = None):
        self.sink = sink
        self.think_time = think_time
        self.records_emitted = 0
        #: Accesses seen so far; the next access's index.
        self.accesses_seen = 0
        self._open: Optional[_OpenRequest] = None

    # -- attachment --------------------------------------------------------
    def attach(self, state: "SystemState") -> Attachment:
        """Take the hooks from ``state``'s components until detached.
        ``on_air`` follows the ``server.tick`` that carries the open
        request's page (slot ``server.ticks - 1``) — or the miss itself,
        when the page was already on the air: the last tick carried it
        and opened the slot ``now`` falls in.  Only an event-driven
        engine can miss mid-slot; a slot-stepped one runs a slot's
        accesses before it ticks.
        """
        server = state.server
        mc = state.mc
        threshold = state.mc_threshold
        if self.think_time is None:
            self.think_time = mc.think_time
        #: What the last tick returned: ``(page or None, kind)``.
        aired: tuple = (None, None)

        def tick(inner):
            nonlocal aired
            aired = inner()
            open_ = self._open
            if open_ is not None and open_.page == aired[0]:
                self.on_air(float(server.ticks - 1), aired[1])
            return aired

        def lookup(inner, page: int, now: float) -> bool:
            hit = inner(page, now)
            self.on_access(page, now, mc.measuring)
            if hit:
                self.on_hit(page, now)
                return True
            self.on_miss(page, now)
            self.on_miss_predict(
                threshold.max_push_wait(page, server.schedule_pos))
            slot = math.floor(now)
            if aired[0] == page and server.ticks - 1 == slot:
                self.on_air(slot, aired[1])
            return False

        def record_pull_sent(inner, page: int, now: float, outcome) -> None:
            inner(page, now, outcome)
            self.on_pull(page, now, outcome)

        def receive(inner, page: int, requested_at: float,
                    now: float) -> None:
            inner(page, requested_at, now)
            self.on_served(page, now)

        def offer(inner, page: int):
            outcome = inner(page)
            self.on_queue_offer(page, outcome)
            return outcome

        return Attachment([
            (server, "tick", tick),
            (server.queue, "offer", offer),
            (mc, "lookup", lookup),
            (mc, "record_pull_sent", record_pull_sent),
            (mc, "receive", receive),
        ])

    # -- hooks -------------------------------------------------------------
    def on_access(self, page: int, now: float, measured: bool) -> None:
        """The MC issued an access for ``page`` at ``now``."""
        index = self.accesses_seen
        self.accesses_seen += 1
        self._open = _OpenRequest(index=index, page=page,
                                  issued_at=now, measured=measured)

    def on_hit(self, page: int, now: float) -> None:
        """The cache answered the open access."""
        open_ = self._open
        if open_ is None:
            return
        self._emit(RequestRecord(
            index=open_.index, page=page, issued_at=open_.issued_at,
            measured=open_.measured, hit=True, pull_sent=False,
            pull_outcome=None, predicted_push_wait=None, page_offers=0,
            on_air_at=None, served_at=now, served_kind="cache", wait=0.0,
            queue_wait=None, service=None))

    def on_miss(self, page: int, now: float) -> None:
        """The open access missed the cache; the MC now blocks."""
        # Nothing to record yet — the open request simply stays open
        # until the broadcast (or a pull response) serves it.

    def on_miss_predict(self, push_wait: float) -> None:
        """Predicted push wait for the open miss.

        ``inf`` (page not on the push program) is stored as None so the
        records stay strict-JSON serializable.
        """
        if self._open is not None:
            self._open.predicted_push_wait = (
                None if math.isinf(push_wait) else push_wait)

    def on_pull(self, page: int, now: float, outcome) -> None:
        """The MC sent a backchannel request; ``outcome`` is its
        :class:`~repro.server.queue.Offer`."""
        open_ = self._open
        if open_ is not None and open_.page == page:
            open_.pull_sent = True
            open_.pull_outcome = getattr(outcome, "value", str(outcome))

    def on_queue_offer(self, page: int, outcome) -> None:
        """A backchannel request reached the server queue (any client)."""
        open_ = self._open
        if open_ is not None and open_.page == page:
            open_.page_offers += 1

    def on_air(self, now: float, kind) -> None:
        """The awaited page started transmitting at slot boundary ``now``.

        ``kind`` is the serving :class:`~repro.server.broadcast_server.\
SlotKind` (push or pull).
        """
        open_ = self._open
        if open_ is not None and open_.on_air_at is None:
            open_.on_air_at = now
            open_.on_air_kind = getattr(kind, "value", str(kind))

    def on_served(self, page: int, now: float) -> None:
        """The awaited page arrived; close and emit the record."""
        open_ = self._open
        if open_ is None:
            return
        wait = now - open_.issued_at
        on_air = open_.on_air_at
        if on_air is not None:
            queue_wait = max(0.0, on_air - open_.issued_at)
            service = now - max(on_air, open_.issued_at)
        else:
            # The serving slot was never observed (shouldn't happen when
            # both hook sides are wired); count the whole wait as queueing.
            queue_wait = wait
            service = 0.0
        self._emit(RequestRecord(
            index=open_.index, page=page, issued_at=open_.issued_at,
            measured=open_.measured, hit=False,
            pull_sent=open_.pull_sent, pull_outcome=open_.pull_outcome,
            predicted_push_wait=open_.predicted_push_wait,
            page_offers=open_.page_offers, on_air_at=on_air,
            served_at=now, served_kind=open_.on_air_kind or "push",
            wait=wait, queue_wait=queue_wait, service=service))

    # -- results -----------------------------------------------------------
    def _emit(self, record: RequestRecord) -> None:
        self._open = None
        self.sink.emit(record.row())
        self.records_emitted += 1

    def breakdown(self) -> WaitBreakdown:
        """The measured-phase wait decomposition of the rows (think row
        filled when ``think_time`` is known)."""
        return breakdown_of_array(self.sink.array(), self.think_time)

    def wait_quantiles(self) -> Optional[dict[str, float]]:
        """Exact p50/p90/p99 of the rows' measured miss waits (None
        before any miss)."""
        return exact_quantiles(measured_miss_waits(self.sink.array()))

    def close(self) -> None:
        """Close the sink."""
        self.sink.close()
