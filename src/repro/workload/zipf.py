"""Zipf access distributions.

The paper models skewed client access with a Zipf distribution ([Knut81])
over the ``ServerDBSize`` pages: the page of rank *i* (1-based, hottest
first) has probability proportional to ``1 / i**theta``.  Page ids are
0-based here; by convention page id equals rank-1 for the *virtual* client,
while the measured client's ranking may be perturbed by Noise.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Optional

import numpy as np

__all__ = ["zipf_probabilities", "ZipfSampler"]

#: Batches below this many draws keep ``searchsorted``: the guide path is
#: about five numpy calls to its one.  Measured on a 2-core x86 box for
#: Zipf(1000, 0.95), generator draw included, table built: at 1 / 2 / 8
#: draws ``searchsorted`` 2.0 / 2.2 / 2.5 µs, the guide path 5.5 / 4.9 /
#: 5.0 µs; they meet at ~56 (5.3 / 5.4 µs); at 64, 5.8 against 5.4 µs.
#: ``benchmarks/test_bench_substrates.py::test_zipf_sampling_small_batches``
#: times the fleet's 1-, 2- and 8-draw regime and both sides of 64.
_GUIDE_MIN_BATCH = 64
#: Uniforms per pass of the guide path, so its temporaries stay in cache.
_CHUNK = 1 << 12
#: Largest guide table (entries); reached at 65,536 pages.
_MAX_BUCKETS = 1 << 20
#: Most forward steps the guide path takes; a CDF that needs more keeps
#: ``searchsorted`` for every batch.  A step costs ~2 ns a draw, and the
#: heavy skew that needs many makes the binary search's branches
#: predictable: over 1,000 pages, 4.3 against 57.6 ns at θ = 0.9 (1 step),
#: 20.9 against 27.8 at θ = 1.6 (9), 58.9 against 23.6 at θ = 1.8 (29).
_MAX_STEPS = 8


def zipf_probabilities(num_pages: int, theta: float) -> np.ndarray:
    """Normalized Zipf(θ) probabilities, hottest first.

    ``theta = 0`` degenerates to uniform access; larger values skew harder.
    """
    if num_pages < 1:
        raise ValueError("num_pages must be positive")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    weights = ranks ** -theta
    return weights / weights.sum()


class ZipfSampler:
    """Batched sampler for an arbitrary discrete page distribution.

    Sampling is inverse-CDF: uniform ``u`` draws the first page whose CDF
    exceeds it, ``np.searchsorted(cdf, u, side="right")``, so the draw
    order is independent of the probability vector's internal layout
    (important for seeded reproducibility across noise settings).

    Batches of :data:`_GUIDE_MIN_BATCH` or more find that page by a guide
    table (Chen & Asau's index table) instead of a binary search.  ``M``,
    a power of two about sixteen times the page count, splits ``[0, 1)``
    into buckets; ``guide[k]`` is the first page whose CDF exceeds
    ``k / M``.  ``u`` starts at ``guide[floor(u * M)]`` and takes
    ``steps`` vectorised forward steps ``idx += cdf[idx] <= u``, where
    ``steps`` is the most CDF values strictly inside any one bucket (1 for
    the paper's Zipf(1000, 0.95)).  The answer is exactly ``searchsorted``'s:
    ``u * M`` and ``cdf * M`` scale by a power of two and are exact, so
    the bucket of ``u`` and the table's counts see the same reals, and a
    step stops moving once ``cdf[idx] > u``.  The generator is asked for
    the same uniforms either way.  Smaller batches, and distributions
    skewed enough to need more than :data:`_MAX_STEPS` steps, keep the
    binary search, which is cheaper there.  The table is built on the
    first batch that needs it: a sampler drawing one page at a time never
    holds one.
    """

    def __init__(self, probabilities: np.ndarray, rng: np.random.Generator):
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.ndim != 1 or probabilities.size == 0:
            raise ValueError("probabilities must be a non-empty 1-D array")
        if np.any(probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = probabilities.sum()
        if not np.isclose(total, 1.0, rtol=1e-9, atol=1e-12):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        self.probabilities = probabilities
        self._cdf = np.minimum(np.cumsum(probabilities), 1.0)
        # Guard against floating-point error at the top of the CDF: it
        # never exceeds 1 (so it stays sorted) and is exactly 1 from the
        # last positive-probability page on, so no uniform in [0, 1) can
        # reach a zero-probability tail.
        self._cdf[np.flatnonzero(probabilities)[-1]:] = 1.0
        self._rng = rng

    @property
    def num_pages(self) -> int:
        """Size of the page domain."""
        return self.probabilities.size

    @cached_property
    def _guide(self) -> Optional[tuple[np.ndarray, int, int]]:
        """``(guide, steps, M)``, built in O(pages + M); None past
        :data:`_MAX_STEPS`."""
        buckets = min(1 << (16 * self.num_pages - 1).bit_length(),
                      _MAX_BUCKETS)
        scaled = self._cdf * buckets
        # ``guide[k]`` counts the CDF values <= k / M, i.e. those with
        # ceil(c * M) <= k.  The CDF is sorted, so the count is j over
        # buckets [edges[j], edges[j + 1]).
        edges = np.concatenate(([0], np.ceil(scaled).astype(np.intp),
                                [buckets]))
        guide = np.repeat(np.arange(self.num_pages + 1), np.diff(edges))
        # A uniform in bucket b steps over the CDF values strictly inside
        # (b / M, (b + 1) / M); one on an edge is counted by ``guide``.
        lower = np.floor(scaled)
        inside = lower[lower != scaled].astype(np.intp)
        steps = int(np.bincount(inside).max(initial=0))
        if steps > _MAX_STEPS:
            return None
        return guide, steps, buckets

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` page ids as an int64 array."""
        table = self._guide if size >= _GUIDE_MIN_BATCH else None
        if table is None:
            return np.searchsorted(self._cdf, self._rng.random(size),
                                   side="right")
        guide, steps, buckets = table
        cdf = self._cdf
        pages = np.empty(size, dtype=np.intp)
        uniforms = np.empty(_CHUNK)
        for start in range(0, size, _CHUNK):
            idx = pages[start:start + _CHUNK]
            chunk = uniforms[:idx.size]
            # Chunk by chunk, the generator yields the very uniforms (and
            # ends in the very state) of one ``random(size)`` call.
            self._rng.random(out=chunk)
            # Truncation is floor: every uniform is non-negative.
            guide.take((chunk * buckets).astype(np.intp), out=idx)
            for _ in range(steps):
                idx += cdf.take(idx) <= chunk
        return pages

    def sample_one(self) -> int:
        """Draw a single page id."""
        return int(np.searchsorted(self._cdf, self._rng.random(),
                                   side="right"))

    def page_of(self, uniform: float) -> int:
        """The page id a uniform from ``[0, 1)`` draws, as a plain int.

        The first page whose CDF exceeds ``uniform``, exactly
        ``searchsorted(cdf, uniform, side="right")``, found by a binary
        search over the CDF as Python floats: callers that draw their
        own uniforms one or two at a time skip numpy's per-call cost.
        The generator is not touched.
        """
        return bisect_right(self._cdf_list, uniform)

    @cached_property
    def _cdf_list(self) -> list[float]:
        """The CDF as Python floats, built by the first ``page_of``."""
        return self._cdf.tolist()
