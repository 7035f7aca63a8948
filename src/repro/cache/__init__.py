"""Client cache management.

The paper's central cache result is that replacement must be *cost-based*
in a broadcast environment: the value of a cached page depends both on its
access probability ``p`` and on how quickly it returns on the broadcast
(``x``, its broadcast frequency).

- :class:`~repro.cache.pix.PixPolicy` — PIX, eject the lowest ``p/x``
  (used for Pure-Push and IPP),
- :class:`~repro.cache.p.PPolicy` — P, eject the lowest ``p`` (used for
  Pure-Pull, where there is no periodic broadcast),
- :class:`~repro.cache.lru.LruPolicy` — the classic recency baseline
  the paper's earlier work shows performs poorly here.
"""

from repro.cache.base import Cache, ReplacementPolicy
from repro.cache.pix import PixPolicy
from repro.cache.p import PPolicy
from repro.cache.lru import LruPolicy
from repro.cache.values import page_values, top_valued_pages

__all__ = [
    "Cache",
    "ReplacementPolicy",
    "PixPolicy",
    "PPolicy",
    "LruPolicy",
    "page_values",
    "top_valued_pages",
]
