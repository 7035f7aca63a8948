"""Sampling policies for request tracing.

Tracing every MC access is exact but costs real time at paper scale and
is out of the question for the million-client fleets the ROADMAP
targets.  A :class:`SamplingPolicy` lets a
:class:`~repro.obs.requests.RequestTracer` trace only a subset of
accesses while still estimating the full-population wait decomposition.
Both policies here keep every record with the same probability, so a
sampled trace carries **one inverse-probability weight** (the
Horvitz-Thompson correction: a record sampled with probability ``1/w``
stands for ``w`` accesses), and the tracer scales the breakdown's counts
and totals by it once.  Because both select on the access *index*
(never on the observed wait), the kept rows are an unbiased sample of
the stream, and their exact quantiles estimate the full trace's.

Two policies:

- :class:`EveryNSampling` — deterministic 1-in-N by index.  Zero RNG
  cost, reproducible by construction, streams records to the sink the
  moment they complete, weight ``N``.  The workhorse for sweeps and
  benches.
- :class:`ReservoirSampling` — Vitter's Algorithm R with a fixed-size
  reservoir and a seeded generator (the seed is explicit, derived
  through :class:`numpy.random.SeedSequence`).  Holds exactly
  ``capacity`` records regardless of run length, so memory is bounded
  a priori; records are only final when the run ends, so they reach the
  sink at :meth:`~repro.obs.requests.RequestTracer.finalize` time, and
  the weight is ``seen / len(reservoir)``.

Both exploit the MC's closed loop (at most one access outstanding): the
keep/skip decision is made at ``on_access`` time, so a skipped access
costs one counter bump and one comparison — none of the per-hook
bookkeeping, record construction, or sink serialization.  Algorithm R
permits this because the admission decision for element ``t`` depends
only on ``t``, not on the element's value; which reservoir slot it
evicts is likewise drawn up front.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # circular only for type checkers
    from repro.obs.requests import RequestRecord

__all__ = [
    "EveryNSampling",
    "ReservoirSampling",
    "SamplingPolicy",
    "sample_stream",
]


class SamplingPolicy(ABC):
    """Decides, per access, whether to trace its lifecycle.

    Protocol (driven by :class:`~repro.obs.requests.RequestTracer`):

    1. :meth:`accept` is called once per access, in index order, before
       any lifecycle bookkeeping.  False means the access is skipped
       entirely.
    2. :meth:`commit` is called with the completed record of every
       accepted access.  True means the record is written now; False
       means the policy holds it (reservoir membership is only final at
       the end of the stream).
    3. :meth:`drain` is called once, at finalize time, and returns the
       held records.

    Every policy also has ``weight``, the accesses each kept record
    stands for, and ``sampled``, the records kept so far (the rows a
    finalized trace holds).
    """

    def __init__(self) -> None:
        #: Accesses offered to the policy (the full-population size).
        self.seen = 0

    def accept(self, index: int) -> bool:
        """Should the access with this stream index be traced?"""
        self.seen += 1
        return self._accept(index)

    @abstractmethod
    def _accept(self, index: int) -> bool:
        """Policy-specific keep/skip decision (``seen`` already bumped)."""

    @abstractmethod
    def commit(self, record: "RequestRecord") -> bool:
        """Take an accepted access's completed record; True when it is
        written now, False when it waits for :meth:`drain`."""

    def drain(self) -> list["RequestRecord"]:
        """Held records, index-sorted; idempotent (once-only)."""
        return []

    @abstractmethod
    def describe(self) -> dict:
        """Provenance dict (policy kind + parameters + counts)."""


class EveryNSampling(SamplingPolicy):
    """Deterministic 1-in-N sampling by access index.

    Keeps the accesses whose index is a multiple of ``n`` (index 0
    always traced), each standing for ``n`` accesses.  Deterministic
    given the access stream — two runs of the same seeded simulation
    sample identical index sets — and needs no RNG at all.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("sampling interval n must be >= 1")
        super().__init__()
        self.n = n
        self.weight = float(n)
        self.sampled = 0

    def _accept(self, index: int) -> bool:
        return index % self.n == 0

    def commit(self, record: "RequestRecord") -> bool:
        self.sampled += 1
        return True

    def describe(self) -> dict:
        return {"policy": "every_n", "n": self.n,
                "seen": self.seen, "sampled": self.sampled}


class ReservoirSampling(SamplingPolicy):
    """Seeded fixed-size uniform reservoir (Vitter's Algorithm R).

    After ``seen`` accesses every access has had probability
    ``len(reservoir) / seen`` of being in the reservoir, so each kept
    record weighs ``seen / len(reservoir)``.  The admission test for
    access ``t`` (``t`` 1-based) is ``U * t < capacity`` with ``U``
    uniform on [0, 1); the same draw, scaled, picks the evicted slot —
    both are decided at accept time, which is what lets the tracer skip
    all bookkeeping for rejected accesses.

    The MC is a closed loop, so at most one accepted access is pending
    between :meth:`accept` and :meth:`commit`; an access that never
    completes (engine stall) simply leaves its chosen slot unreplaced.

    Uniform draws are generated in chunks (one :meth:`numpy.random.\
Generator.random` call per 4096 accesses past the fill phase) so the
    per-access cost stays a couple of array reads.

    Args:
        capacity: reservoir size (max records kept).
        seed: explicit RNG seed, fed through ``SeedSequence`` so nearby
            integer seeds still give independent streams.
    """

    _CHUNK = 4096

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.seed = seed
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._records: list["RequestRecord"] = []
        self._uniforms = np.empty(0)
        self._cursor = 0
        #: Reservoir slot the pending accepted access will occupy.
        self._slot: Optional[int] = None
        self._drained = False

    def _next_uniform(self) -> float:
        if self._cursor >= len(self._uniforms):
            self._uniforms = self._rng.random(self._CHUNK)
            self._cursor = 0
        value = self._uniforms[self._cursor]
        self._cursor += 1
        return value

    def _accept(self, index: int) -> bool:
        if self._drained:
            raise RuntimeError("reservoir already drained")
        if len(self._records) < self.capacity and self._slot is None:
            self._slot = len(self._records)
            return True
        target = int(self._next_uniform() * self.seen)
        if target < self.capacity:
            self._slot = target
            return True
        return False

    def commit(self, record: "RequestRecord") -> bool:
        slot = self._slot
        if slot is None:
            raise RuntimeError("commit without a pending accepted access")
        self._slot = None
        if slot == len(self._records):
            self._records.append(record)
        else:
            self._records[slot] = record
        return False  # membership only final at drain time

    def drain(self) -> list["RequestRecord"]:
        if self._drained:
            return []
        self._drained = True
        return sorted(self._records, key=lambda r: r.index)

    @property
    def weight(self) -> float:
        return self.seen / self.sampled if self.sampled else 1.0

    @property
    def sampled(self) -> int:
        return len(self._records)

    def describe(self) -> dict:
        return {"policy": "reservoir", "capacity": self.capacity,
                "seed": self.seed, "seen": self.seen,
                "sampled": self.sampled}


def sample_stream(records: Iterable["RequestRecord"],
                  policy: SamplingPolicy) -> list["RequestRecord"]:
    """Replay an already-captured record stream through a policy.

    Offline counterpart of the tracer integration — used to validate a
    policy against a full trace (the record set a live sampled tracer
    would have kept is exactly the one this returns, since both key off
    the access index).  Returns the kept records in stream order for
    streaming policies, with held (reservoir) records appended
    index-sorted at the end; each stands for ``policy.weight`` accesses.
    """
    out: list["RequestRecord"] = []
    for record in records:
        if policy.accept(record.index) and policy.commit(record):
            out.append(record)
    out.extend(policy.drain())
    return out
