"""Broadcast Disks substrate.

Implements the multi-disk periodic broadcast of [Acha95a]/[Acha95b]:

- :class:`~repro.broadcast.program.DiskAssignment` — pages grouped into
  "disks" with relative spin frequencies,
- :func:`~repro.broadcast.program.build_schedule` — the LCM-chunking
  schedule-generation algorithm (Figure 1 of the paper),
- :class:`~repro.broadcast.schedule.Schedule` — the generated major cycle
  with per-page frequency and next-arrival queries,
- :func:`~repro.broadcast.offset.apply_offset` — the *Offset* transform
  (shift the CacheSize hottest pages to the slowest disk),
- :func:`~repro.broadcast.chopping.chop_assignment` — Experiment 3's
  restricted push schedules.
"""

from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.broadcast.schedule import Schedule
from repro.broadcast.offset import apply_offset, offset_page_order
from repro.broadcast.chopping import chop_assignment

__all__ = [
    "Disk",
    "DiskAssignment",
    "build_schedule",
    "Schedule",
    "apply_offset",
    "offset_page_order",
    "chop_assignment",
]
