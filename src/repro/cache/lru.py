"""Least-recently-used replacement — the baseline the paper argues against.

[Acha95a] shows that purely probability/recency-driven replacement can
perform poorly against a multi-disk broadcast because it ignores refetch
cost.  LRU is §2.1's recency baseline in the ``cache-policy`` figure
row, which reproduces that comparison.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.base import ReplacementPolicy

__all__ = ["LruPolicy"]


class LruPolicy(ReplacementPolicy):
    """Eject the least recently used resident page."""

    def __init__(self):
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_insert(self, page: int, now: float) -> None:
        """See :meth:`ReplacementPolicy.on_insert`."""
        self._order[page] = None
        self._order.move_to_end(page)

    def on_hit(self, page: int, now: float) -> None:
        """See :meth:`ReplacementPolicy.on_hit`."""
        self._order.move_to_end(page)

    def on_evict(self, page: int) -> None:
        """See :meth:`ReplacementPolicy.on_evict`."""
        self._order.pop(page, None)

    def choose_victim(self) -> int:
        """See :meth:`ReplacementPolicy.choose_victim`."""
        if not self._order:
            raise RuntimeError("choose_victim() on an empty cache")
        return next(iter(self._order))
