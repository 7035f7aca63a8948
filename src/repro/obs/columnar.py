"""The on-disk trace format: structured arrays in a memory-mapped ``.npy``.

Every trace a run writes and every trace anything reads is a numpy
structured array of slot / request records.  Paper-scale sweeps run to
millions of records, and a text trace (``json.loads`` per line, one
frozen dataclass per record) made readback the analysis bottleneck long
before the simulation was:

- :class:`ColumnarSink` — the file-writing
  :class:`~repro.obs.trace.TraceSink`: buffers records into fixed-size
  structured-array chunks and persists them as a single ``.npy`` file
  (written through ``np.lib.format``, so plain
  ``np.load(..., mmap_mode="r")`` maps it back without materializing
  anything),
- :func:`load_columnar` — the single door a trace file comes back in
  by: memory-mapped, dtype and enum codes checked on load, so
  million-record traces open in milliseconds and pages stream in on
  demand,
- :func:`columnar_to_jsonl` — the one text export (``repro-broadcast
  convert``), for ``grep`` / ``jq`` and hand inspection,
- :func:`breakdown_of_array` / :func:`measured_miss_waits` /
  :func:`slot_summary` — vectorized analytics in place of per-record
  Python loops; a waits column goes to
  :func:`repro.sim.monitor.exact_quantiles` for *exact* order
  statistics, not bucket approximations.

Dtype and null convention
-------------------------

Structured dtypes have no native ``None``, so every nullable column uses
a **sentinel + mask** convention:

- nullable integer columns (``page``, ``mc_waiting``) store ``-1``,
- nullable float columns (``predicted_push_wait``, ``on_air_at``,
  ``queue_wait``, ``service``) store ``NaN``,
- nullable enum columns (``pull_outcome``) store ``-1``,
- additionally, every row carries a ``null_mask`` uint8 whose bit *i* is
  set iff the *i*-th nullable column (in :data:`~repro.obs.trace.\
OPTIONAL_SLOT_FIELDS` / :data:`~repro.obs.requests.\
OPTIONAL_REQUEST_FIELDS` order) was ``None``.

The mask is authoritative on decode — sentinels are only a convenience
for vectorized math (``np.isnan`` masks, ``page >= 0`` filters) — which
keeps the record round trip lossless even if a real value ever collided
with a sentinel.  Enum-valued string fields
(``kind``, ``served_kind``, ``pull_outcome``) are stored as int8 codes
indexing the shared registries in :mod:`repro.obs.events`, keeping every
row fixed-width.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.obs.events import OFFER_OUTCOMES, SERVED_KINDS, SLOT_KINDS
from repro.obs.requests import OPTIONAL_REQUEST_FIELDS, RequestRecord, WaitBreakdown
from repro.obs.trace import OPTIONAL_SLOT_FIELDS, SlotRecord, TraceSink

__all__ = [
    "SLOT_DTYPE",
    "REQUEST_DTYPE",
    "TABLES",
    "ColumnarSink",
    "load_columnar",
    "table_of",
    "records_to_array",
    "array_to_records",
    "columnar_to_jsonl",
    "breakdown_of_array",
    "measured_miss_waits",
    "slot_summary",
]

#: Rows buffered per append chunk (64k rows ~ 4 MiB of request records).
DEFAULT_CHUNK = 65536

#: The two record tables the backend stores.
TABLES: tuple[str, ...] = ("slot", "request")

#: One row per broadcast slot (:class:`~repro.obs.trace.SlotRecord`).
#: Nullable: ``page`` / ``mc_waiting`` (-1 + null_mask bits 0 / 1).
SLOT_DTYPE = np.dtype([
    ("slot", "<i8"),
    ("kind", "<i1"),          # code into SLOT_KINDS
    ("page", "<i4"),          # -1 when None (padding / idle slots)
    ("queue_depth", "<i4"),
    ("enqueued", "<i8"),
    ("duplicates", "<i8"),
    ("dropped", "<i8"),
    ("served", "<i8"),
    ("mc_waiting", "<i4"),    # -1 when None (MC thinking)
    ("mc_arrivals", "<i4"),
    ("vc_arrivals", "<i4"),
    ("null_mask", "<u1"),
])

#: One row per measured-client access
#: (:class:`~repro.obs.requests.RequestRecord`).  Nullable:
#: ``pull_outcome`` / ``predicted_push_wait`` / ``on_air_at`` /
#: ``queue_wait`` / ``service`` (null_mask bits 0-4).
REQUEST_DTYPE = np.dtype([
    ("index", "<i8"),
    ("page", "<i4"),
    ("issued_at", "<f8"),
    ("measured", "?"),
    ("hit", "?"),
    ("pull_sent", "?"),
    ("pull_outcome", "<i1"),          # code into OFFER_OUTCOMES, -1 = None
    ("predicted_push_wait", "<f8"),   # NaN when None (page never pushed)
    ("page_offers", "<i4"),
    ("on_air_at", "<f8"),             # NaN when None (cache hits)
    ("served_at", "<f8"),
    ("served_kind", "<i1"),           # code into SERVED_KINDS
    ("wait", "<f8"),
    ("queue_wait", "<f8"),            # NaN when None (cache hits)
    ("service", "<f8"),               # NaN when None (cache hits)
    ("null_mask", "<u1"),
])

# Event-name string <-> int8 code tables (registry order == code order).
_SLOT_KIND_CODE = {name: code for code, name in enumerate(SLOT_KINDS)}
_SERVED_KIND_CODE = {name: code for code, name in enumerate(SERVED_KINDS)}
_OUTCOME_CODE = {name: code for code, name in enumerate(OFFER_OUTCOMES)}

# Registry codes the vectorized analytics test against.
_SERVED_PULL = _SERVED_KIND_CODE["pull"]
_OUTCOME_ENQUEUED = _OUTCOME_CODE["enqueued"]
_OUTCOME_DUPLICATE = _OUTCOME_CODE["duplicate"]
_OUTCOME_DROPPED = _OUTCOME_CODE["dropped"]


def _slot_row(record: SlotRecord) -> tuple:
    """Encode one SlotRecord as a SLOT_DTYPE row tuple.

    null_mask bits follow OPTIONAL_SLOT_FIELDS: 1 = page, 2 = mc_waiting.
    """
    mask = 0
    page = record.page
    if page is None:
        mask |= 1
        page = -1
    mc_waiting = record.mc_waiting
    if mc_waiting is None:
        mask |= 2
        mc_waiting = -1
    return (record.slot, _SLOT_KIND_CODE[record.kind], page,
            record.queue_depth, record.enqueued, record.duplicates,
            record.dropped, record.served, mc_waiting, record.mc_arrivals,
            record.vc_arrivals, mask)


def _slot_record(row: np.void) -> SlotRecord:
    """Decode one SLOT_DTYPE row back into a SlotRecord."""
    mask = int(row["null_mask"])
    return SlotRecord(
        slot=int(row["slot"]),
        kind=SLOT_KINDS[row["kind"]],
        page=None if mask & 1 else int(row["page"]),
        queue_depth=int(row["queue_depth"]),
        enqueued=int(row["enqueued"]),
        duplicates=int(row["duplicates"]),
        dropped=int(row["dropped"]),
        served=int(row["served"]),
        mc_waiting=None if mask & 2 else int(row["mc_waiting"]),
        mc_arrivals=int(row["mc_arrivals"]),
        vc_arrivals=int(row["vc_arrivals"]),
    )


def _request_row(record: RequestRecord) -> tuple:
    """Encode one RequestRecord as a REQUEST_DTYPE row tuple.

    null_mask bits follow OPTIONAL_REQUEST_FIELDS: 1 = pull_outcome,
    2 = predicted_push_wait, 4 = on_air_at, 8 = queue_wait, 16 = service.
    """
    mask = 0
    outcome = record.pull_outcome
    if outcome is None:
        mask |= 1
        outcome_code = -1
    else:
        outcome_code = _OUTCOME_CODE[outcome]
    predicted = record.predicted_push_wait
    if predicted is None:
        mask |= 2
        predicted = np.nan
    on_air = record.on_air_at
    if on_air is None:
        mask |= 4
        on_air = np.nan
    queue_wait = record.queue_wait
    if queue_wait is None:
        mask |= 8
        queue_wait = np.nan
    service = record.service
    if service is None:
        mask |= 16
        service = np.nan
    return (record.index, record.page, record.issued_at, record.measured,
            record.hit, record.pull_sent, outcome_code, predicted,
            record.page_offers, on_air, record.served_at,
            _SERVED_KIND_CODE[record.served_kind], record.wait, queue_wait,
            service, mask)


def _request_record(row: np.void) -> RequestRecord:
    """Decode one REQUEST_DTYPE row back into a RequestRecord."""
    mask = int(row["null_mask"])
    outcome_code = int(row["pull_outcome"])
    served_code = int(row["served_kind"])
    return RequestRecord(
        index=int(row["index"]),
        page=int(row["page"]),
        issued_at=float(row["issued_at"]),
        measured=bool(row["measured"]),
        hit=bool(row["hit"]),
        pull_sent=bool(row["pull_sent"]),
        pull_outcome=None if mask & 1 else OFFER_OUTCOMES[outcome_code],
        predicted_push_wait=(None if mask & 2
                             else float(row["predicted_push_wait"])),
        page_offers=int(row["page_offers"]),
        on_air_at=None if mask & 4 else float(row["on_air_at"]),
        served_at=float(row["served_at"]),
        served_kind=SERVED_KINDS[served_code],
        wait=float(row["wait"]),
        queue_wait=None if mask & 8 else float(row["queue_wait"]),
        service=None if mask & 16 else float(row["service"]),
    )


_TABLE_SPEC = {
    "slot": (SLOT_DTYPE, _slot_row, _slot_record),
    "request": (REQUEST_DTYPE, _request_row, _request_record),
}


class ColumnarSink(TraceSink):
    """Buffers records columnar; persists to a memory-mappable ``.npy``.

    Records append into fixed-size structured-array chunks (no
    per-record Python object survives the emit), and :meth:`close`
    writes them as one contiguous ``.npy`` through
    ``np.lib.format.open_memmap`` — so readback never parses anything.
    With ``path=None`` the sink is purely in-memory; :meth:`array`
    returns everything emitted so far either way.

    The record table ("slot" or "request") is auto-detected from the
    first emitted record; pass ``table=`` to pin it up front (required
    to persist a trace that received no records at all).
    """

    def __init__(self, path: Union[str, Path, None] = None,
                 table: Optional[str] = None,
                 chunk: int = DEFAULT_CHUNK):
        if table is not None and table not in _TABLE_SPEC:
            raise ValueError(
                f"unknown record table {table!r} (expected one of {TABLES})")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        self.path = Path(path) if path is not None else None
        self.table = table
        self.emitted = 0
        self._chunk = int(chunk)
        self._chunks: list[np.ndarray] = []
        self._buf: Optional[np.ndarray] = None
        self._fill = 0
        self._closed = False
        self._encode = None
        if table is not None:
            self._bind(table)

    def _bind(self, table: str) -> None:
        dtype, encode, _ = _TABLE_SPEC[table]
        self.table = table
        self.dtype = dtype
        self._encode = encode
        self._buf = np.empty(self._chunk, dtype)

    def emit(self, record) -> None:
        if self._closed:
            raise ValueError(f"sink for {self.path or '<memory>'} is closed")
        if self._encode is None:
            if isinstance(record, SlotRecord):
                self._bind("slot")
            elif isinstance(record, RequestRecord):
                self._bind("request")
            else:
                raise TypeError(
                    f"cannot store {type(record).__name__} columnar")
        assert self._buf is not None and self._encode is not None
        self._buf[self._fill] = self._encode(record)
        self._fill += 1
        self.emitted += 1
        if self._fill == self._chunk:
            self._chunks.append(self._buf)
            self._buf = np.empty(self._chunk, self.dtype)
            self._fill = 0

    def _parts(self) -> list[np.ndarray]:
        parts = list(self._chunks)
        if self._buf is not None and self._fill:
            parts.append(self._buf[:self._fill])
        return parts

    def array(self) -> np.ndarray:
        """Everything emitted so far, as one structured array (a copy)."""
        if self._encode is None:
            raise ValueError(
                "empty columnar sink has no record table; pass table=")
        parts = self._parts()
        if not parts:
            return np.empty(0, self.dtype)
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts)

    def close(self) -> None:
        """Persist to :attr:`path` (when set) and seal the sink."""
        if self._closed:
            return
        self._closed = True
        if self.path is None:
            return
        if self._encode is None:
            raise ValueError(
                "cannot persist a columnar trace of unknown table; "
                "pass table= to ColumnarSink")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.emitted == 0:
            # Zero-length arrays cannot be memory-mapped; write the
            # header + empty payload directly (still a valid .npy).
            with self.path.open("wb") as handle:
                np.lib.format.write_array(handle, np.empty(0, self.dtype))
            return
        out = np.lib.format.open_memmap(
            self.path, mode="w+", dtype=self.dtype, shape=(self.emitted,))
        offset = 0
        for part in self._parts():
            out[offset:offset + len(part)] = part
            offset += len(part)
        out.flush()
        del out


#: Enum-coded columns per table: ``(column, lowest code, registry)``.
_ENUM_COLUMNS = {
    "slot": (("kind", 0, SLOT_KINDS),),
    "request": (("pull_outcome", -1, OFFER_OUTCOMES),
                ("served_kind", 0, SERVED_KINDS)),
}


def load_columnar(path: Union[str, Path], mmap: bool = True) -> np.ndarray:
    """Open a ``.npy`` trace written by :class:`ColumnarSink`.

    Memory-mapped read-only by default, so million-record traces cost
    no load time and no resident memory until sliced; ``mmap=False``
    reads the whole array eagerly instead.

    This is where a file from outside the program enters, so it is
    where one is checked: anything that is not a ``.npy`` of one of the
    two trace dtypes, or that holds an enum code outside its registry,
    raises a ValueError naming the file (a path that cannot be opened
    raises its OSError).
    """
    path = Path(path)
    try:
        array = np.load(path, mmap_mode="r" if mmap else None)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a columnar trace ({exc})") from exc
    dtype = getattr(array, "dtype", None)  # an .npz loads as a non-array
    if dtype not in (SLOT_DTYPE, REQUEST_DTYPE) or array.ndim != 1:
        raise ValueError(f"{path}: not a columnar trace (dtype {dtype})")
    if array.shape[0]:
        for column, lowest, registry in _ENUM_COLUMNS[table_of(array)]:
            codes = array[column]
            low, high = int(codes.min()), int(codes.max())
            if low < lowest or high >= len(registry):
                raise ValueError(
                    f"{path}: column {column!r} holds code "
                    f"{low if low < lowest else high} outside "
                    f"[{lowest}, {len(registry)})")
    return array


def table_of(array: np.ndarray) -> str:
    """Which record table an array stores: "slot" or "request"."""
    if array.dtype == SLOT_DTYPE:
        return "slot"
    if array.dtype == REQUEST_DTYPE:
        return "request"
    raise ValueError(f"not a columnar trace (dtype {array.dtype})")


def records_to_array(records: Iterable, table: Optional[str] = None
                     ) -> np.ndarray:
    """Convert Slot/Request records to a structured array.

    ``table`` is only needed when ``records`` may be empty (there is
    then no first record to detect the table from).
    """
    sink = ColumnarSink(table=table)
    for record in records:
        sink.emit(record)
    return sink.array()


def array_to_records(array: np.ndarray) -> list:
    """Decode a columnar trace back into record dataclasses.

    The inverse of :func:`records_to_array`: every sentinel/mask pair
    turns back into ``None`` and every enum code back into its registry
    string, so round trips are lossless.
    """
    _, _, decode = _TABLE_SPEC[table_of(array)]
    return [decode(row) for row in array]


def columnar_to_jsonl(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Export a ``.npy`` trace as JSON lines; returns the row count.

    One compact object per record, keys in field order — the text form
    for ``grep`` / ``jq`` and reading by hand.  Nothing reads it back.
    """
    array = load_columnar(src)
    _, _, decode = _TABLE_SPEC[table_of(array)]
    with Path(dst).open("w") as handle:
        for row in array:
            json.dump(decode(row).to_dict(), handle, separators=(",", ":"))
            handle.write("\n")
    return int(array.shape[0])


# -- vectorized analytics --------------------------------------------------

def _require_table(array: np.ndarray, table: str) -> None:
    actual = table_of(array)
    if actual != table:
        raise ValueError(f"need a {table} trace, got a {actual} trace")


def breakdown_of_array(array: np.ndarray,
                       think_time: Optional[float] = None,
                       measured_only: bool = True) -> WaitBreakdown:
    """Vectorized :func:`repro.obs.requests.breakdown_of` over a table.

    Produces the same :class:`~repro.obs.requests.WaitBreakdown` the
    per-record Python loop builds, but via column reductions — no record
    objects are materialized, so a million-row memory-mapped trace
    aggregates in tens of milliseconds.
    """
    _require_table(array, "request")
    rows = array[array["measured"]] if measured_only else array[...]
    breakdown = WaitBreakdown()
    breakdown.accesses = int(rows.shape[0])
    hit = rows["hit"]
    breakdown.hits = int(np.count_nonzero(hit))
    miss = rows[~hit]
    breakdown.misses = int(miss.shape[0])
    breakdown.pulls_sent = int(np.count_nonzero(miss["pull_sent"]))
    outcome = miss["pull_outcome"]
    breakdown.pulls_enqueued = int(
        np.count_nonzero(outcome == _OUTCOME_ENQUEUED))
    breakdown.pulls_duplicate = int(
        np.count_nonzero(outcome == _OUTCOME_DUPLICATE))
    breakdown.pulls_dropped = int(
        np.count_nonzero(outcome == _OUTCOME_DROPPED))
    served_pull = miss["served_kind"] == _SERVED_PULL
    breakdown.served_pull = int(np.count_nonzero(served_pull))
    breakdown.served_push = breakdown.misses - breakdown.served_pull
    queue_wait = np.nan_to_num(miss["queue_wait"], nan=0.0)
    breakdown.pull_wait = float(queue_wait[served_pull].sum())
    breakdown.push_wait = float(queue_wait[~served_pull].sum())
    breakdown.service = float(
        np.nan_to_num(miss["service"], nan=0.0).sum())
    if think_time is not None:
        breakdown.think = think_time * breakdown.accesses
    return breakdown


def measured_miss_waits(array: np.ndarray) -> np.ndarray:
    """The measured-phase miss waits of a request table (float64 copy)."""
    _require_table(array, "request")
    selected = array[array["measured"] & ~array["hit"]]
    return np.ascontiguousarray(selected["wait"], dtype=np.float64)


def slot_summary(array: np.ndarray) -> dict:
    """Aggregate view of a slot table (the ``report`` command's lines).

    Returns ``{"slots": n, "kinds": {name: count}, "mean_queue_depth":
    float, "dropped": int}`` with only the slot kinds actually present.
    """
    _require_table(array, "slot")
    total = int(array.shape[0])
    counts = np.bincount(array["kind"], minlength=len(SLOT_KINDS))
    kinds = {name: int(count)
             for name, count in zip(SLOT_KINDS, counts) if count}
    mean_depth = (float(array["queue_depth"].mean(dtype=np.float64))
                  if total else 0.0)
    dropped = int(array["dropped"][-1]) if total else 0
    return {"slots": total, "kinds": kinds,
            "mean_queue_depth": mean_depth, "dropped": dropped}
