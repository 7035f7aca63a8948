"""Multi-disk broadcast program generation.

This is the schedule-generation algorithm of [Acha95a] as summarized in
Section 2.1 of the paper.  Pages are grouped onto *disks*; disk *i* spins
``rel_freq[i]`` times faster than the slowest disk.  The algorithm:

1. ``max_chunks = lcm(rel_freq)``;
2. split disk *i* into ``num_chunks(i) = max_chunks / rel_freq(i)`` chunks
   (padding the last chunks with empty slots so all chunks of a disk have
   equal length);
3. for ``j`` in ``0 .. max_chunks-1``: broadcast chunk ``j mod num_chunks(i)``
   of each disk *i* in order.

One pass of step 3's inner loop is a *minor cycle*; the whole sequence is
the *major cycle*.  The paper's Figure 1 example (pages a..g on disks of
relative speeds 4:2:1) produces the 12-slot cycle ``a b d a c e a b f a c g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.broadcast.schedule import Schedule

__all__ = ["Disk", "DiskAssignment", "build_schedule"]

#: Sentinel broadcast for padded (empty) slots.
EMPTY_SLOT: Optional[int] = None


@dataclass(frozen=True)
class Disk:
    """One level of the broadcast hierarchy.

    Attributes:
        pages: page ids on this disk, hottest first.
        rel_freq: spin speed relative to the slowest disk (positive integer).
    """

    pages: tuple[int, ...]
    rel_freq: int

    def __post_init__(self):
        if not isinstance(self.rel_freq, int) or self.rel_freq < 1:
            raise ValueError(f"rel_freq must be a positive integer, "
                             f"got {self.rel_freq!r}")
        object.__setattr__(self, "pages", tuple(self.pages))

    @property
    def size(self) -> int:
        """Number of pages on this disk."""
        return len(self.pages)


@dataclass(frozen=True)
class DiskAssignment:
    """A complete assignment of pages to disks.

    Disks must be ordered fastest-first (non-increasing ``rel_freq``), as in
    the paper ("lower numbered disks have higher broadcast frequency"), and a
    page may appear on at most one disk.
    """

    disks: tuple[Disk, ...] = field(default_factory=tuple)

    def __post_init__(self):
        disks = tuple(self.disks)
        object.__setattr__(self, "disks", disks)
        if not disks:
            raise ValueError("assignment needs at least one disk")
        if any(d.size == 0 for d in disks):
            raise ValueError("disks must be non-empty")
        freqs = [d.rel_freq for d in disks]
        if any(a < b for a, b in zip(freqs, freqs[1:])):
            raise ValueError(f"disks must be ordered fastest-first, "
                             f"got frequencies {freqs}")
        seen: set[int] = set()
        for disk in disks:
            for page in disk.pages:
                if page in seen:
                    raise ValueError(f"page {page} assigned to multiple disks")
                seen.add(page)

    @classmethod
    def from_ranking(cls, ranked_pages: Sequence[int],
                     disk_sizes: Sequence[int],
                     rel_freqs: Sequence[int]) -> "DiskAssignment":
        """Slice a hotness ranking into consecutive disks.

        ``ranked_pages`` is hottest-first; the first ``disk_sizes[0]`` pages
        land on the fastest disk, and so on.  This is the paper's "simplest
        strategy" (before the Offset transform).
        """
        if len(disk_sizes) != len(rel_freqs):
            raise ValueError("disk_sizes and rel_freqs must align")
        if sum(disk_sizes) != len(ranked_pages):
            raise ValueError(
                f"disk sizes sum to {sum(disk_sizes)} but "
                f"{len(ranked_pages)} pages were ranked")
        disks = []
        start = 0
        for size, freq in zip(disk_sizes, rel_freqs):
            disks.append(Disk(tuple(ranked_pages[start:start + size]), freq))
            start += size
        return cls(tuple(disks))

    @property
    def num_disks(self) -> int:
        """Number of disks in the hierarchy."""
        return len(self.disks)

    @property
    def num_pages(self) -> int:
        """Total pages across all disks."""
        return sum(d.size for d in self.disks)

    @property
    def pages(self) -> tuple[int, ...]:
        """All pages, fastest disk first."""
        return tuple(p for d in self.disks for p in d.pages)

    @property
    def slowest(self) -> Disk:
        """The slowest (last) disk."""
        return self.disks[-1]


def _lcm_all(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result = math.lcm(result, value)
    return result


def _split_into_chunks(pages: Sequence[int], num_chunks: int
                       ) -> list[list[Optional[int]]]:
    """Split ``pages`` into ``num_chunks`` equal chunks, padding the tail.

    Padding uses :data:`EMPTY_SLOT`, which becomes an unused broadcast slot
    exactly as in [Acha95a].
    """
    chunk_size = math.ceil(len(pages) / num_chunks)
    padded: list[Optional[int]] = list(pages)
    padded.extend([EMPTY_SLOT] * (chunk_size * num_chunks - len(pages)))
    return [padded[i * chunk_size:(i + 1) * chunk_size]
            for i in range(num_chunks)]


def build_schedule(assignment: DiskAssignment) -> Schedule:
    """Generate the major-cycle broadcast schedule for ``assignment``."""
    freqs = [disk.rel_freq for disk in assignment.disks]
    max_chunks = _lcm_all(freqs)
    chunks_per_disk = [
        _split_into_chunks(disk.pages, max_chunks // disk.rel_freq)
        for disk in assignment.disks
    ]
    slots: list[Optional[int]] = []
    for minor in range(max_chunks):
        for disk_chunks in chunks_per_disk:
            slots.extend(disk_chunks[minor % len(disk_chunks)])
    minor_cycle = len(slots) // max_chunks
    return Schedule(tuple(slots), assignment=assignment,
                    minor_cycle=minor_cycle)
