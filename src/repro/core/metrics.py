"""Run results: what a simulation reports back.

:class:`RunResult` is a plain-data snapshot — picklable, JSON-serializable
— so experiment sweeps can fan runs out to worker processes and archive
the outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Any, Optional

from repro.sim.monitor import Histogram

__all__ = ["TallySnapshot", "RunResult"]


@dataclass(frozen=True)
class TallySnapshot:
    """Frozen summary of a :class:`~repro.sim.monitor.Histogram`.

    The p50/p90/p99 fields carry its interpolated quantiles; they stay
    None for an empty sample and for snapshots loaded from pre-quantile
    archives.
    """

    count: int = 0
    mean: float = math.nan
    stddev: float = math.nan
    min: float = math.nan
    max: float = math.nan
    p50: Optional[float] = None
    p90: Optional[float] = None
    p99: Optional[float] = None

    @classmethod
    def of(cls, histogram: Histogram) -> "TallySnapshot":
        """Freeze the current state of ``histogram``."""
        quantiles = histogram.quantiles()
        if quantiles is None:
            return cls()
        return cls(count=histogram.count, mean=histogram.mean,
                   stddev=histogram.stddev, min=histogram.min,
                   max=histogram.max, **quantiles)


@dataclass(frozen=True)
class RunResult:
    """Everything one simulation run measured.

    Response times are in broadcast units.  ``response_miss`` is the mean
    over accesses that left the cache (the paper's headline metric);
    ``response_all`` additionally counts cache hits as zero-delay.
    """

    algorithm: str
    seed: int
    #: MC response time over cache-missing accesses.
    response_miss: TallySnapshot
    #: MC response time over all accesses (hits count as 0).
    response_all: TallySnapshot
    #: MC cache hits / misses during the measured phase.
    mc_hits: int
    mc_misses: int
    #: Backchannel requests the MC sent.
    mc_pulls_sent: int
    #: Server queue accounting during the measured phase.
    requests_enqueued: int
    requests_duplicate: int
    requests_dropped: int
    requests_served: int
    #: Broadcast slots by kind during the measured phase.
    slots_push: int
    slots_pull: int
    slots_padding: int
    slots_idle: int
    #: Mean backchannel queue length (sampled per slot).
    queue_length_mean: float
    #: Simulated broadcast units in the measured phase.
    measured_slots: float
    #: Total simulated broadcast units including warm-up phases.
    total_slots: float
    #: VC accounting during the measured phase.
    vc_generated: int = 0
    vc_absorbed: int = 0
    vc_filtered: int = 0
    #: Warm-up crossing times (level fraction -> broadcast units), present
    #: only for warm-up runs (Figure 4).
    warmup_times: Optional[dict[float, float]] = None
    #: Per-user fleet statistics (:meth:`repro.fleet.FleetState.snapshot`),
    #: present only when the run simulated a client fleet.
    fleet: Optional[dict[str, Any]] = None
    #: Free-form extras (sweep coordinates etc.).
    params: dict[str, Any] = field(default_factory=dict)
    #: Run provenance (:func:`repro.obs.manifest.run_manifest`).  Carries
    #: a wall-clock timestamp, so it is excluded from equality: two runs
    #: of the same seed stay == even when stamped at different times.
    manifest: Optional[dict[str, Any]] = field(
        default=None, compare=False, repr=False)

    @property
    def mc_miss_rate(self) -> float:
        """Fraction of measured MC accesses that missed the cache."""
        total = self.mc_hits + self.mc_misses
        return self.mc_misses / total if total else math.nan

    @property
    def request_offers(self) -> int:
        """Requests presented to the server queue (all clients)."""
        return (self.requests_enqueued + self.requests_duplicate
                + self.requests_dropped)

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests dropped for a full queue."""
        offers = self.request_offers
        return self.requests_dropped / offers if offers else 0.0

    @property
    def pull_slot_share(self) -> float:
        """Fraction of measured slots spent answering pulls."""
        slots = (self.slots_push + self.slots_pull + self.slots_padding
                 + self.slots_idle)
        return self.slots_pull / slots if slots else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready; warm-up keys stringified)."""
        data = asdict(self)
        if data["warmup_times"] is not None:
            data["warmup_times"] = {
                str(level): time
                for level, time in data["warmup_times"].items()}
        data["drop_rate"] = self.drop_rate
        data["mc_miss_rate"] = self.mc_miss_rate
        return data
