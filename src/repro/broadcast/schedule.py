"""The generated broadcast schedule and its query interface.

A :class:`Schedule` is the immutable major cycle produced by
:func:`repro.broadcast.program.build_schedule`.  Besides the raw slot
sequence it answers the queries the rest of the system needs:

- per-page broadcast frequency (the ``x`` in the PIX metric),
- the distance (in push slots) from a cycle position to a page's next
  broadcast — the quantity the threshold filter compares against,
- a dense numpy distance table used by the vectorized fast engine,
- per-page inter-broadcast spacings for the analytical delay model.
"""

from __future__ import annotations

import math
import mmap
from itertools import chain
from typing import Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.broadcast.program import DiskAssignment

__all__ = ["Schedule", "NOT_BROADCAST"]

#: Distance sentinel for pages that never appear in the schedule.  Kept
#: finite so it fits the int32 distance table; any real distance is smaller
#: because a major cycle is far shorter than this.
NOT_BROADCAST = 2 ** 30

#: Linux: map the table's pages in one call, not one fault per page.
_PREFAULTED = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_POPULATE}
               if hasattr(mmap, "MAP_POPULATE") else {})

#: Rows :meth:`Schedule.distance_table` fills per step: keeps the
#: transient near 100 KB (a 1000-page table is 6 MB) at no visible cost.
_ROW_BLOCK = 16


class Schedule:
    """An immutable periodic broadcast program (one major cycle)."""

    def __init__(self, slots: tuple[Optional[int], ...],
                 assignment: "DiskAssignment | None" = None,
                 minor_cycle: int | None = None):
        if not slots:
            raise ValueError("a schedule needs at least one slot")
        self._slots = tuple(slots)
        self.assignment = assignment
        self.minor_cycle = minor_cycle
        grouped: dict[int, list[int]] = {}
        for index, page in enumerate(self._slots):
            if page is not None:
                grouped.setdefault(page, []).append(index)
        self._positions: dict[int, tuple[int, ...]] = {
            page: tuple(indices) for page, indices in grouped.items()}
        self._distance_table: np.ndarray | None = None

    # -- basic shape ---------------------------------------------------------
    def __len__(self) -> int:
        """Major cycle length in slots (including padded empty slots)."""
        return len(self._slots)

    @property
    def slots(self) -> tuple[Optional[int], ...]:
        """The raw slot sequence (None marks padding)."""
        return self._slots

    @property
    def major_cycle(self) -> int:
        """Alias for ``len(schedule)`` matching the paper's terminology."""
        return len(self._slots)

    @property
    def pages(self) -> frozenset[int]:
        """Set of pages that appear at least once."""
        return frozenset(self._positions)

    @property
    def num_empty_slots(self) -> int:
        """Padded slots per major cycle (bandwidth lost to chunk padding)."""
        return sum(1 for slot in self._slots if slot is None)

    def __contains__(self, page: int) -> bool:
        return page in self._positions

    def page_at(self, slot_index: int) -> Optional[int]:
        """Page broadcast at cycle position ``slot_index`` (mod cycle)."""
        return self._slots[slot_index % len(self._slots)]

    # -- per-page queries ------------------------------------------------------
    def frequency(self, page: int) -> int:
        """Broadcasts of ``page`` per major cycle (0 if not scheduled)."""
        positions = self._positions.get(page)
        return len(positions) if positions else 0

    def frequencies(self) -> dict[int, int]:
        """Mapping page -> broadcasts per cycle for all scheduled pages."""
        return {page: len(pos) for page, pos in self._positions.items()}

    def positions(self, page: int) -> tuple[int, ...]:
        """Sorted cycle positions at which ``page`` is broadcast."""
        return self._positions.get(page, ())

    def distance(self, page: int, slot_index: int) -> int:
        """Push slots from position ``slot_index`` to ``page``'s next start.

        0 means the page occupies the slot about to be broadcast.  Pages not
        in the schedule return :data:`NOT_BROADCAST`.
        """
        positions = self._positions.get(page)
        if not positions:
            return NOT_BROADCAST
        cycle = len(self._slots)
        slot_index %= cycle
        # Binary search for the first position >= slot_index.
        lo, hi = 0, len(positions)
        while lo < hi:
            mid = (lo + hi) // 2
            if positions[mid] < slot_index:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(positions):
            return positions[0] + cycle - slot_index
        return positions[lo] - slot_index

    def spacings(self, page: int) -> tuple[int, ...]:
        """Slot gaps between consecutive broadcasts of ``page`` (wraps)."""
        positions = self._positions.get(page)
        if not positions:
            return ()
        cycle = len(self._slots)
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        gaps.append(positions[0] + cycle - positions[-1])
        return tuple(gaps)

    # -- vectorized support ------------------------------------------------------
    def distance_table(self, num_pages: int) -> np.ndarray:
        """Dense ``(num_pages, cycle)`` int32 table of :meth:`distance`.

        ``table[p, s]`` is the distance from cycle position ``s`` to the
        next broadcast of page ``p``; :data:`NOT_BROADCAST` where ``p`` is
        not scheduled.  Built lazily once (a few MB for paper-scale
        configurations) and cached.
        """
        if (self._distance_table is not None
                and self._distance_table.shape[0] >= num_pages):
            return self._distance_table[:num_pages]
        cycle = len(self._slots)
        # In pages of its own rather than on the malloc heap: a freed
        # table goes back to the OS instead of leaving a hole that the
        # next build's small arrays split, after which the next table no
        # longer fits and the process grows by most of a second one
        # (measured: +10 % peak RSS in sweep workers, on and off).
        cells = num_pages * cycle
        table = np.frombuffer(
            mmap.mmap(-1, max(4 * cells, 1), **_PREFAULTED), np.int32,
            cells).reshape(num_pages, cycle)
        table.fill(NOT_BROADCAST)
        pages = sorted(page for page in self._positions if page < num_pages)
        rows = [self._positions[page] for page in pages]
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int32,
                           count=int(counts.sum()))
        # A row is runs of columns sharing their next broadcast: up to
        # each position, then (wrapping) the first one a cycle later.
        # Repeat each target over its run, subtract the column index.
        ends = np.cumsum(counts)
        target = np.insert(flat, ends, flat[ends - counts] + cycle)
        upto = np.insert(flat, ends, cycle - 1)
        runs = np.diff(upto, prepend=-1)
        # Each row's first run, plus the end of the last row's.
        first = np.append(ends - counts + np.arange(len(rows)), len(runs))
        runs[first[:-1]] = upto[first[:-1]] + 1
        columns = np.arange(cycle, dtype=np.int32)
        for lo in range(0, len(pages), _ROW_BLOCK):
            block = pages[lo:lo + _ROW_BLOCK]
            span = slice(first[lo], first[lo + len(block)])
            distances = np.repeat(target[span], runs[span])
            distances.shape = (len(block), cycle)
            distances -= columns
            table[block] = distances
        self._distance_table = table
        return table

    # -- analytics ---------------------------------------------------------------
    def expected_delay(self, page: int) -> float:
        """Expected slots until ``page`` completes, from a random slot start.

        A page broadcast during slot ``[t, t+1)`` completes at ``t+1``; a
        request issued at a uniformly random slot *boundary* inside a gap of
        ``g`` slots waits on average ``(g + 1) / 2``, weighted by the
        probability ``g / cycle`` of landing in that gap.  Slot-boundary
        alignment matches the simulators (think times are integral); a
        uniformly random real-valued arrival would wait exactly 0.5 slots
        less.  Returns ``inf`` for non-broadcast pages.
        """
        gaps = self.spacings(page)
        if not gaps:
            return math.inf
        cycle = len(self._slots)
        return sum(g / cycle * (g + 1) / 2 for g in gaps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Schedule(cycle={len(self._slots)}, "
                f"pages={len(self._positions)}, "
                f"empty={self.num_empty_slots})")
