"""Simulation parameters, mirroring Tables 1–3 of the paper.

All percentages from the paper are expressed as fractions here
(SteadyStatePerc 95% → 0.95).  :data:`PAPER_SETTINGS` records Table 3's
values verbatim so experiments and tests can reference them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.algorithms import Algorithm
from repro.server.schedulers import MAX_AGING

__all__ = [
    "ClientConfig",
    "FleetConfig",
    "SchedulerConfig",
    "ServerConfig",
    "RunConfig",
    "SystemConfig",
    "PAPER_SETTINGS",
    "PARITY_EXEMPT",
]

#: Config fields deliberately honoured by a single engine.  Everything
#: else must be read by BOTH core/simulation.py and core/fast.py —
#: enforced by lint rule REP004 (see docs/STATIC_ANALYSIS.md).  Keep each
#: entry justified; stale entries are themselves lint findings.
PARITY_EXEMPT: frozenset[str] = frozenset({
    # The paper's aggregate VC is open-loop; the closed-loop variant is a
    # reference-engine-only ablation (DESIGN.md §4) with no fast-engine
    # counterpart by design.
    "run.vc_closed_loop",
})


@dataclass(frozen=True)
class ClientConfig:
    """Table 1 — client parameters."""

    #: Client cache size in pages (CacheSize).
    cache_size: int = 100
    #: Broadcast units between MC page accesses (MCThinkTime).
    think_time: float = 20.0
    #: Ratio of MC to VC think times (ThinkTimeRatio); the VC load equals a
    #: population of this many MC-rate clients.
    think_time_ratio: float = 10.0
    #: Fraction of VC requests filtered through a warm cache
    #: (SteadyStatePerc).
    steady_state_perc: float = 0.95
    #: Fraction of workload deviation for the MC (Noise).
    noise: float = 0.0
    #: Zipf distribution parameter (θ).
    zipf_theta: float = 0.95
    #: MC replacement policy: "auto" follows the paper (PIX for
    #: push-involved algorithms, P for Pure-Pull); "pix" / "p" / "lru" /
    #: "lix" force one, enabling the cache-policy ablations.
    cache_policy: str = "auto"

    def __post_init__(self) -> None:
        if self.cache_policy not in ("auto", "pix", "p", "lru", "lix"):
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        # Each bound is also false for nan; inf would make the VC rate 0
        # or inf and the Zipf weights nan, far from this field.
        for name in ("think_time", "think_time_ratio"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value}")
        for name in ("steady_state_perc", "noise"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if not 0 <= self.zipf_theta < math.inf:
            raise ValueError("zipf_theta must be finite and non-negative, "
                             f"got {self.zipf_theta}")


@dataclass(frozen=True)
class FleetConfig:
    """The per-user client fleet (an extension beyond the paper).

    The paper collapses everyone but the MC into one aggregate Virtual
    Client, which hides per-user experience entirely.  A non-zero
    ``num_clients`` adds a vectorized struct-of-arrays population of
    *individually tracked* clients (:mod:`repro.fleet`) as a third
    request source, with optional heterogeneity in access pattern, cache
    size, and think time.  All spreads at 0 give a homogeneous fleet
    whose aggregate load matches a Virtual Client of rate
    ``num_clients / think_time`` requests per broadcast unit.
    """

    #: Number of individually tracked clients (0 disables the fleet).
    num_clients: int = 0
    #: Mean think time between a client's accesses (broadcast units).
    think_time: float = 4000.0
    #: Per-client think-time heterogeneity: means drawn uniformly from
    #: ``think_time * [1 - spread, 1 + spread]``, with ``spread < 1`` so
    #: every mean is positive.
    think_time_spread: float = 0.0
    #: Per-client access-pattern heterogeneity: each client's page
    #: popularity ranking is rotated by an offset drawn uniformly from
    #: ``[0, zipf_offset_spread]`` (0 = everyone shares the server view).
    zipf_offset_spread: int = 0
    #: Warm-cache size per client (pages); absorption follows the paper's
    #: steady-state model: the ``cache_size - 1`` most valuable pages.
    cache_size: int = 100
    #: Per-client cache-size heterogeneity: sizes drawn uniformly from
    #: ``cache_size * [1 - spread, 1 + spread]`` (integer, clipped >= 0).
    cache_size_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.num_clients < 0:
            raise ValueError("num_clients must be non-negative")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if self.zipf_offset_spread < 0:
            raise ValueError("zipf_offset_spread must be non-negative")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        # A think-time spread of 1 admits a per-client mean of 0, and a
        # warm client that re-thinks to the same instant never leaves its
        # slot (FleetState checks the same bound for direct callers).
        if not 0.0 <= self.think_time_spread < 1.0:
            raise ValueError("think_time_spread must be within [0, 1), "
                             f"got {self.think_time_spread}")
        if not 0.0 <= self.cache_size_spread <= 1.0:
            raise ValueError("cache_size_spread must be within [0, 1], "
                             f"got {self.cache_size_spread}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Pull-queue discipline and push-program reprogramming (beyond the
    paper; §6's "more dynamic algorithms").

    The default is the paper's configuration: FIFO service, no
    reprogramming — bit-identical to the pre-scheduler engines.
    """

    #: Pull-queue service discipline; one of
    #: :data:`repro.server.schedulers.DISCIPLINES`.
    discipline: str = "fifo"
    #: RxW aging exponent on the wait term (1.0 = classic R×W; toward 0
    #: degenerates to most-requested-first, above 1 resists starvation).
    #: Finite, within ``[0, repro.server.schedulers.MAX_AGING]``.
    aging: float = 1.0
    #: Slots between temperature-driven push-program rebuild attempts
    #: (0 disables reprogramming).
    reprogram_interval: int = 0
    #: Minimum newly observed backchannel demand (offers since the last
    #: rebuild) before a rebuild actually happens.
    reprogram_min_requests: int = 500

    def __post_init__(self) -> None:
        if self.discipline not in ("fifo", "rxw", "lwf"):
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if not 0 <= self.aging <= MAX_AGING:  # also false for nan
            raise ValueError(
                f"aging must be within [0, {MAX_AGING:g}], got {self.aging}")
        if self.reprogram_interval < 0:
            raise ValueError("reprogram_interval must be non-negative")
        if self.reprogram_min_requests < 1:
            raise ValueError("reprogram_min_requests must be positive")


@dataclass(frozen=True)
class ServerConfig:
    """Table 2 — server parameters."""

    #: Number of distinct pages in the database (ServerDBSize).
    db_size: int = 1000
    #: Pages per disk, fastest first (DiskSize_i).
    disk_sizes: tuple[int, ...] = (100, 400, 500)
    #: Relative broadcast frequency per disk (RelFreq_i).
    rel_freqs: tuple[int, ...] = (3, 2, 1)
    #: Backchannel queue capacity (ServerQSize).
    queue_size: int = 100
    #: Fraction of broadcast slots offered to pulls (PullBW).
    pull_bw: float = 0.5
    #: Threshold as a fraction of the major cycle (ThresPerc).
    thresh_perc: float = 0.0
    #: Apply the Offset transform (all paper results use it).
    offset: bool = True
    #: Pages removed from the push program (Experiment 3's chopping).
    chop: int = 0

    def __post_init__(self) -> None:
        if self.db_size < 1:
            raise ValueError("db_size must be positive")
        if len(self.disk_sizes) != len(self.rel_freqs):
            raise ValueError("disk_sizes and rel_freqs must align")
        if sum(self.disk_sizes) != self.db_size:
            raise ValueError(
                f"disk sizes {self.disk_sizes} must sum to db_size "
                f"{self.db_size}")
        if any(s < 1 for s in self.disk_sizes):
            raise ValueError("disk sizes must be positive")
        if any(f < 1 for f in self.rel_freqs):
            raise ValueError("relative frequencies must be positive")
        if self.queue_size < 1:
            raise ValueError("queue_size must be positive")
        if not 0.0 <= self.pull_bw <= 1.0:
            raise ValueError("pull_bw must be within [0, 1]")
        if not 0.0 <= self.thresh_perc <= 1.0:
            raise ValueError("thresh_perc must be within [0, 1]")
        if not 0 <= self.chop < self.db_size:
            raise ValueError("chop must leave at least one broadcast page")


@dataclass(frozen=True)
class RunConfig:
    """Simulation-control parameters (Section 4's methodology).

    Steady-state runs warm the MC cache, settle for ``settle_accesses``
    further accesses ("measurements started only 4000 accesses after the
    cache filled up"), then measure ``measure_accesses`` accesses.
    """

    #: Accesses between cache-full and the measured phase.
    settle_accesses: int = 4000
    #: Accesses measured for the reported statistics.
    measure_accesses: int = 5000
    #: RNG seed.
    seed: int = 0
    #: Hard cap on simulated broadcast units (guards runaway runs).
    max_slots: int = 50_000_000
    #: Model the VC as blocking on each response (reference engine only;
    #: the paper's aggregate VC is open-loop, see DESIGN.md §4).
    vc_closed_loop: bool = False

    def __post_init__(self) -> None:
        if self.settle_accesses < 0:
            raise ValueError("settle_accesses must be non-negative")
        if self.measure_accesses < 1:
            raise ValueError("measure_accesses must be positive")
        if self.max_slots < 1:
            raise ValueError("max_slots must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated system: algorithm + client + server + run."""

    algorithm: Algorithm = Algorithm.IPP
    client: ClientConfig = field(default_factory=ClientConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    run: RunConfig = field(default_factory=RunConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        if (self.algorithm is Algorithm.PURE_PUSH
                and self.server.chop > 0):
            raise ValueError(
                "Pure-Push cannot chop pages: a missed non-broadcast page "
                "would never arrive")
        if self.client.cache_size > self.server.disk_sizes[-1]:
            raise ValueError(
                "the Offset transform requires cache_size to fit on the "
                "slowest disk")
        if self.scheduler.reprogram_interval > 0:
            if not (self.algorithm.has_push_program
                    and self.algorithm.uses_backchannel):
                raise ValueError(
                    "temperature reprogramming needs both a push program "
                    "to rebuild and a backchannel to observe demand on "
                    "(i.e. the interleaved algorithms)")
            if self.server.chop > 0:
                raise ValueError(
                    "reprogramming rebuilds a full program and cannot be "
                    "combined with chopping: re-adding a chopped page "
                    "would strand clients waiting on the old safety net")

    # -- derived views --------------------------------------------------------
    @property
    def pull_bw(self) -> float:
        """PullBW in force after the algorithm's override."""
        return self.algorithm.effective_pull_bw(self.server.pull_bw)

    @property
    def thresh_perc(self) -> float:
        """ThresPerc in force after the algorithm's override."""
        return self.algorithm.effective_thresh_perc(self.server.thresh_perc)

    def with_(self, **updates: object) -> "SystemConfig":
        """Return a copy with nested fields replaced.

        Accepts top-level field names plus dotted shorthands expanded by
        sub-config: ``client__think_time_ratio=250`` etc.
        """
        top: dict = {}
        nested: dict[str, dict] = {"client": {}, "server": {}, "run": {},
                                   "fleet": {}, "scheduler": {}}
        for key, value in updates.items():
            if "__" in key:
                section, field_name = key.split("__", 1)
                if section not in nested:
                    raise TypeError(f"unknown config section {section!r}")
                nested[section][field_name] = value
            else:
                top[key] = value
        for section, fields in nested.items():
            if fields:
                top[section] = replace(getattr(self, section), **fields)
        return replace(self, **top)


#: Table 3 — the paper's experiment settings, verbatim.
PAPER_SETTINGS: Mapping[str, tuple] = {
    "CacheSize": (100,),
    "ThinkTime": (20,),
    "ThinkTimeRatio": (10, 25, 50, 100, 250),
    "SteadyStatePerc": (0.0, 0.95),
    "Noise": (0.0, 0.15, 0.35),
    "ZipfTheta": (0.95,),
    "ServerDBSize": (1000,),
    "NumDisks": (3,),
    "DiskSizes": ((100, 400, 500),),
    "RelFreqs": ((3, 2, 1),),
    "ServerQSize": (100,),
    "PullBW": (0.10, 0.20, 0.30, 0.40, 0.50),
    "ThresPerc": (0.0, 0.10, 0.25, 0.35),
}
