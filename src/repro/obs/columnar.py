"""The on-disk trace format: structured arrays in a memory-mapped ``.npy``.

A trace is a numpy structured array of slot / request rows, in memory,
on disk and in every diff.  Paper-scale sweeps run to millions of rows,
and a text trace (``json.loads`` per line, one frozen dataclass per
record) made readback the analysis bottleneck long before the
simulation was:

- :class:`ColumnarSink` — the one sink both tracers write to: buffers
  row tuples into fixed-size structured-array chunks and, given a path,
  persists them as a single ``.npy`` file (written through
  ``np.lib.format``, so plain ``np.load(..., mmap_mode="r")`` maps it
  back without materializing anything),
- :func:`load_columnar` — the single door a trace file comes back in
  by: memory-mapped, dtype and enum codes checked on load, so
  million-record traces open in milliseconds and pages stream in on
  demand,
- :func:`columnar_to_jsonl` — the one text export (``repro-broadcast
  convert``), for ``grep`` / ``jq`` and hand inspection,
- :func:`slot_summary` — a slot table's vectorized aggregates.  A
  request table's (:func:`~repro.obs.requests.breakdown_of_array`,
  :func:`~repro.obs.requests.measured_miss_waits`) live in
  :mod:`repro.obs.requests`, beside the breakdown they build.

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
OPTIONAL_SLOT_FIELDS` / :data:`OPTIONAL_REQUEST_FIELDS` order) was
  ``None``.

The mask is authoritative on decode — sentinels are only a convenience
for vectorized math (``np.isnan`` masks, ``page >= 0`` filters) — which
keeps the export lossless even if a real value ever collided with a
sentinel.  Enum-valued string fields
(``kind``, ``served_kind``, ``pull_outcome``) are stored as int8 codes
indexing the shared registries in :mod:`repro.obs.events`, keeping every
row fixed-width.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.obs.events import OFFER_OUTCOMES, SERVED_KINDS, SLOT_KINDS
from repro.obs.trace import OPTIONAL_SLOT_FIELDS

__all__ = [
    "SLOT_DTYPE",
    "REQUEST_DTYPE",
    "OPTIONAL_REQUEST_FIELDS",
    "TABLES",
    "ColumnarSink",
    "load_columnar",
    "table_of",
    "decode_row",
    "columnar_to_jsonl",
    "slot_summary",
]

#: Rows buffered per append chunk (64k rows ~ 4 MiB of request records).
DEFAULT_CHUNK = 65536

#: The two record tables the backend stores.
TABLES: tuple[str, ...] = ("slot", "request")

#: One row per broadcast slot (:meth:`~repro.obs.trace.SlotTracer.on_slot`),
#: snapshotted as the server emits it.  Nullable: ``page`` / ``mc_waiting`` (-1 + null_mask bits 0 / 1).
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

#: REQUEST_DTYPE's nullable columns (the RequestRecord fields typed
#: Optional), in null-mask bit order.
OPTIONAL_REQUEST_FIELDS: tuple[str, ...] = (
    "pull_outcome", "predicted_push_wait", "on_air_at", "queue_wait",
    "service")

#: Each table's dtype and nullable fields (null-mask bit order).
_TABLE_SPEC = {
    "slot": (SLOT_DTYPE, OPTIONAL_SLOT_FIELDS),
    "request": (REQUEST_DTYPE, OPTIONAL_REQUEST_FIELDS),
}

#: Enum-coded columns per table: ``(column, lowest code, registry)``.
_ENUM_COLUMNS = {
    "slot": (("kind", 0, SLOT_KINDS),),
    "request": (("pull_outcome", -1, OFFER_OUTCOMES),
                ("served_kind", 0, SERVED_KINDS)),
}


class ColumnarSink:
    """Buffers trace rows columnar; persists to a memory-mappable ``.npy``.

    Row tuples (one per slot or request, in ``table``'s dtype order)
    append into fixed-size structured-array chunks, and :meth:`close`
    writes them as one contiguous ``.npy`` through
    ``np.lib.format.open_memmap`` — so readback never parses anything.
    With ``path=None`` the sink is purely in-memory; :meth:`array`
    returns everything emitted so far either way.
    """

    def __init__(self, path: Union[str, Path, None] = None, *, table: str,
                 chunk: int = DEFAULT_CHUNK):
        if table not in _TABLE_SPEC:
            raise ValueError(
                f"unknown record table {table!r} (expected one of {TABLES})")
        if chunk < 1:
            raise ValueError("chunk must be positive")
        self.path = Path(path) if path is not None else None
        self.table = table
        self.dtype = _TABLE_SPEC[table][0]
        self.emitted = 0
        self._chunk = int(chunk)
        self._chunks: list[np.ndarray] = []
        self._buf = np.empty(self._chunk, self.dtype)
        self._fill = 0
        self._closed = False

    def __enter__(self) -> "ColumnarSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def emit(self, row: tuple) -> None:
        """Append one row tuple (``table``'s columns, in order)."""
        if self._closed:
            raise ValueError(f"sink for {self.path or '<memory>'} is closed")
        self._buf[self._fill] = row
        self._fill += 1
        self.emitted += 1
        if self._fill == self._chunk:
            self._chunks.append(self._buf)
            self._buf = np.empty(self._chunk, self.dtype)
            self._fill = 0

    def _parts(self) -> list[np.ndarray]:
        parts = list(self._chunks)
        if self._fill:
            parts.append(self._buf[:self._fill])
        return parts

    def array(self) -> np.ndarray:
        """Everything emitted so far, as one structured array (a copy)."""
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


def decode_row(row: np.void, table: str) -> dict:
    """One row as a plain dict, keys in column order (``null_mask`` is
    not one): a set null-mask bit reads as None and an enum code as its
    registry name, every other value as the Python scalar ``.item()``
    gives."""
    dtype, nullable = _TABLE_SPEC[table]
    values = dict(zip(dtype.names, row.item()))
    mask = values.pop("null_mask")
    for bit, name in enumerate(nullable):
        if mask >> bit & 1:
            values[name] = None
    for column, _, registry in _ENUM_COLUMNS[table]:
        if values[column] is not None:
            values[column] = registry[values[column]]
    return values


def columnar_to_jsonl(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Export a ``.npy`` trace as JSON lines; returns the row count.

    One compact object per row (:func:`decode_row`), keys in column
    order — the text form for ``grep`` / ``jq`` and reading by hand.
    Nothing reads it back.
    """
    array = load_columnar(src)
    table = table_of(array)
    with Path(dst).open("w") as handle:
        for row in array:
            json.dump(decode_row(row, table), handle, separators=(",", ":"))
            handle.write("\n")
    return int(array.shape[0])


# -- vectorized analytics --------------------------------------------------

def slot_summary(array: np.ndarray) -> dict:
    """Aggregate view of a slot table (the ``report`` command's lines).

    Returns ``{"slots": n, "kinds": {name: count}, "mean_queue_depth":
    float, "dropped": int}`` with only the slot kinds actually present.
    """
    table = table_of(array)
    if table != "slot":
        raise ValueError(f"need a slot trace, got a {table} trace")
    total = int(array.shape[0])
    counts = np.bincount(array["kind"], minlength=len(SLOT_KINDS))
    kinds = {name: int(count)
             for name, count in zip(SLOT_KINDS, counts) if count}
    mean_depth = (float(array["queue_depth"].mean(dtype=np.float64))
                  if total else 0.0)
    dropped = int(array["dropped"][-1]) if total else 0
    return {"slots": total, "kinds": kinds,
            "mean_queue_depth": mean_depth, "dropped": dropped}
