"""Cache container and replacement-policy interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

__all__ = ["Cache", "ReplacementPolicy"]


class ReplacementPolicy(ABC):
    """Strategy deciding which resident page to eject.

    The :class:`Cache` notifies the policy of every insert, hit, and
    eviction; :meth:`choose_victim` must return a currently resident page.
    ``now`` is the simulation time, used only by recency-aware policies.
    """

    @abstractmethod
    def on_insert(self, page: int, now: float) -> None:
        """A page was brought into the cache."""

    @abstractmethod
    def on_hit(self, page: int, now: float) -> None:
        """A resident page was accessed."""

    @abstractmethod
    def on_evict(self, page: int) -> None:
        """A page was ejected."""

    @abstractmethod
    def choose_victim(self) -> int:
        """Pick the resident page to eject next."""


class Cache:
    """A fixed-capacity page cache driven by a replacement policy.

    The container tracks residency; all ranking lives in the policy.  A
    ``capacity`` of 0 models cache-less clients (every access misses and
    inserts are dropped).
    """

    def __init__(self, capacity: int, policy: ReplacementPolicy):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.policy = policy
        self._resident: set[int] = set()

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, page: int) -> bool:
        return page in self._resident

    @property
    def pages(self) -> frozenset[int]:
        """Snapshot of resident pages."""
        return frozenset(self._resident)

    @property
    def is_full(self) -> bool:
        """True when the cache is at capacity."""
        return len(self._resident) >= self.capacity

    def access(self, page: int, now: float = 0.0) -> bool:
        """Look up ``page``; returns True on a hit (updating recency)."""
        if page in self._resident:
            self.policy.on_hit(page, now)
            return True
        return False

    def insert(self, page: int, now: float = 0.0) -> Optional[int]:
        """Bring ``page`` in, ejecting a victim if full.

        Returns the evicted page id, or None if nothing was ejected.
        Inserting a resident page is treated as a hit.  With capacity 0
        the insert is silently dropped.
        """
        if self.capacity == 0:
            return None
        if page in self._resident:
            self.policy.on_hit(page, now)
            return None
        victim: Optional[int] = None
        if len(self._resident) >= self.capacity:
            victim = self.policy.choose_victim()
            if victim not in self._resident:
                raise RuntimeError(
                    f"policy chose non-resident victim {victim}")
            self._resident.remove(victim)
            self.policy.on_evict(victim)
        self._resident.add(page)
        self.policy.on_insert(page, now)
        return victim

