"""Simulation parameters, mirroring Tables 1–3 of the paper.

All percentages from the paper are expressed as fractions here
(SteadyStatePerc 95% → 0.95).  :data:`PAPER_SETTINGS` records Table 3's
values verbatim so experiments and tests can reference them by name.

Every field of every section — and of every :class:`Settings` class
outside SystemConfig: the net server's, the load generator's, the
self-test's, the sweep profile's and the adaptive policy's — states its
legal values once, as a :class:`Domain` in its ``dataclasses.field``
metadata.  The constructor check, the CLI's flags and the tests' value
strategies are all derived from it; only rules coupling two fields are
written by hand.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields, is_dataclass, replace
from numbers import Integral, Real
from typing import Any, ClassVar, Mapping, cast

from repro.core.algorithms import Algorithm
from repro.server.schedulers import DISCIPLINES, MAX_AGING

__all__ = [
    "ClientConfig",
    "Domain",
    "FleetConfig",
    "SchedulerConfig",
    "ServerConfig",
    "RunConfig",
    "SystemConfig",
    "PAPER_SETTINGS",
    "PARITY_EXEMPT",
    "Settings",
    "check_value",
    "config_field",
    "setting",
]

#: Config fields deliberately honoured by a single engine.  Everything
#: else must be read by BOTH core/simulation.py and core/fast.py —
#: checked by ``tests/lint/test_repo_clean.py`` (see docs/DETERMINISM.md).
#: Keep each entry justified; an entry both engines read fails that test.
PARITY_EXEMPT: frozenset[str] = frozenset({
    # The paper's aggregate VC is open-loop; the closed-loop variant is a
    # reference-engine-only ablation (DESIGN.md §4) with no fast-engine
    # counterpart by design.
    "run.vc_closed_loop",
})


@dataclass(frozen=True)
class Domain:
    """The legal values of one config field.

    ``kind`` is ``int``, ``float``, ``bool``, ``str`` or a class.  An int
    field takes any ``numbers.Integral`` and a float field any finite
    ``numbers.Real``, ``bool`` being neither; ``ge`` / ``gt`` / ``le`` /
    ``lt`` are their closed / open bounds.  A ``str`` field is a choice
    among ``values``, or any string without them; a class field takes
    its instances.  With ``each`` the field is a tuple whose every
    element has this domain; with ``optional`` it also takes ``None``.
    Values are never coerced.
    """

    kind: type
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    values: tuple[str, ...] = ()
    each: bool = False
    optional: bool = False

    def admits(self, value: Any) -> bool:
        """Whether ``value`` is legal for the field."""
        if self.optional and value is None:
            return True
        if self.each:
            return isinstance(value, tuple) and all(
                map(replace(self, each=False).admits, value))
        if self.kind is bool:
            return isinstance(value, bool)
        if self.kind is str:
            return isinstance(value, str) and (
                not self.values or value in self.values)
        if self.kind not in (int, float):
            return isinstance(value, self.kind)
        number = isinstance(value, Integral if self.kind is int else Real)
        if isinstance(value, bool) or not number:
            return False
        # Every comparison is false for nan.
        return bool(-math.inf < value < math.inf
                    and (self.ge is None or value >= self.ge)
                    and (self.gt is None or value > self.gt)
                    and (self.le is None or value <= self.le)
                    and (self.lt is None or value < self.lt))

    def describe(self) -> str:
        """The domain in words: ``finite and > 0``, ``within [0, 1)``..."""
        if self.optional:
            return "None or " + replace(self, optional=False).describe()
        if self.each:
            return ("a tuple whose every element is "
                    + replace(self, each=False).describe())
        if self.kind is str and self.values:
            return "one of " + ", ".join(map(repr, self.values))
        if self.kind not in (int, float):
            return f"a {self.kind.__name__}"
        low = (f"[{self.ge:g}" if self.ge is not None
               else f"({self.gt:g}" if self.gt is not None else "")
        high = (f"{self.le:g}]" if self.le is not None
                else f"{self.lt:g})" if self.lt is not None else "")
        if low and high:
            bounds = f"within {low}, {high}"
        else:
            bounds = " and ".join(
                f"{op} {bound:g}" for op, bound in (
                    (">=", self.ge), (">", self.gt), ("<=", self.le),
                    ("<", self.lt)) if bound is not None)
            if self.kind is float:
                bounds = f"finite and {bounds}"
        return f"an int {bounds}" if self.kind is int else bounds


def setting(default: Any, kind: type | str, **domain: Any) -> Any:
    """A field defaulting to ``default`` (``MISSING``: required) with
    ``Domain(kind, **domain)`` or, for a dotted ``kind`` such as
    ``"run.seed"``, with the domain of the field it names."""
    if isinstance(kind, str):
        return field(default=default, metadata=config_field(kind).metadata)
    return field(default=default, metadata={"domain": Domain(kind, **domain)})


def check_value(dotted: str, value: Any) -> None:
    """Reject ``value`` unless the field ``dotted`` names admits it; the
    message starts with ``dotted``."""
    domain: Domain = config_field(dotted).metadata["domain"]
    if not domain.admits(value):
        raise ValueError(f"{dotted} must be {domain.describe()}, "
                         f"got {value!r}")


#: Every Settings class by its prefix, the first part of dotted names.
_SETTINGS: dict[str, Any] = {}


class Settings:
    """A frozen dataclass whose every field declares a :class:`Domain`.

    A subclass states its ``prefix`` once (``class
    ClientConfig(Settings, prefix="client")``); constructing one rejects
    the first field outside its domain, naming it ``prefix.field``.  A
    subclass's own ``__post_init__`` adds only rules coupling fields.
    """

    prefix: ClassVar[str]

    def __init_subclass__(cls, prefix: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.prefix = prefix
        _SETTINGS[prefix] = cls

    def __post_init__(self) -> None:
        for spec in fields(cast(Any, self)):
            check_value(f"{self.prefix}.{spec.name}",
                        getattr(self, spec.name))


@dataclass(frozen=True)
class ClientConfig(Settings, prefix="client"):
    """Table 1 — client parameters."""

    #: Client cache size in pages (CacheSize).
    cache_size: int = setting(100, int, ge=0)
    #: Broadcast units between MC page accesses (MCThinkTime).
    think_time: float = setting(20.0, float, gt=0)
    #: Ratio of MC to VC think times (ThinkTimeRatio); the VC load equals a
    #: population of this many MC-rate clients.
    think_time_ratio: float = setting(10.0, float, gt=0)
    #: Fraction of VC requests filtered through a warm cache
    #: (SteadyStatePerc).
    steady_state_perc: float = setting(0.95, float, ge=0, le=1)
    #: Fraction of workload deviation for the MC (Noise).
    noise: float = setting(0.0, float, ge=0, le=1)
    #: Zipf distribution parameter (θ).
    zipf_theta: float = setting(0.95, float, ge=0)
    #: MC replacement policy: "auto" follows the paper (PIX for
    #: push-involved algorithms, P for Pure-Pull); "pix" / "p" / "lru"
    #: force one, as the ``cache-policy`` figure row does.
    cache_policy: str = setting("auto", str,
                                values=("auto", "pix", "p", "lru"))


@dataclass(frozen=True)
class FleetConfig(Settings, prefix="fleet"):
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
    num_clients: int = setting(0, int, ge=0)
    #: Mean think time between a client's accesses (broadcast units).
    think_time: float = setting(4000.0, float, gt=0)
    #: Per-client think-time heterogeneity: means drawn uniformly from
    #: ``think_time * [1 - spread, 1 + spread]``.  Below 1: a mean of 0
    #: would let a warm client re-think to the same instant and never
    #: leave its slot (FleetState checks the same bound).
    think_time_spread: float = setting(0.0, float, ge=0, lt=1)
    #: Per-client access-pattern heterogeneity: each client's page
    #: popularity ranking is rotated by an offset drawn uniformly from
    #: ``[0, zipf_offset_spread]`` (0 = everyone shares the server view).
    zipf_offset_spread: int = setting(0, int, ge=0)
    #: Warm-cache size per client (pages); absorption follows the paper's
    #: steady-state model: the ``cache_size - 1`` most valuable pages.
    cache_size: int = setting(100, int, ge=0)
    #: Per-client cache-size heterogeneity: sizes drawn uniformly from
    #: ``cache_size * [1 - spread, 1 + spread]`` (integer, clipped >= 0).
    cache_size_spread: float = setting(0.0, float, ge=0, le=1)


@dataclass(frozen=True)
class SchedulerConfig(Settings, prefix="scheduler"):
    """Pull-queue discipline and push-program reprogramming (beyond the
    paper; §6's "more dynamic algorithms").

    The default is the paper's configuration: FIFO service, no
    reprogramming — bit-identical to the pre-scheduler engines.
    """

    #: Pull-queue service discipline; one of
    #: :data:`repro.server.schedulers.DISCIPLINES`.
    discipline: str = setting("fifo", str, values=DISCIPLINES)
    #: RxW aging exponent on the wait term (1.0 = classic R×W; toward 0
    #: degenerates to most-requested-first, above 1 resists starvation).
    aging: float = setting(1.0, float, ge=0, le=MAX_AGING)
    #: Slots between temperature-driven push-program rebuild attempts
    #: (0 disables reprogramming).
    reprogram_interval: int = setting(0, int, ge=0)
    #: Minimum newly observed backchannel demand (offers since the last
    #: rebuild) before a rebuild actually happens.
    reprogram_min_requests: int = setting(500, int, ge=1)


@dataclass(frozen=True)
class ServerConfig(Settings, prefix="server"):
    """Table 2 — server parameters."""

    #: Number of distinct pages in the database (ServerDBSize).
    db_size: int = setting(1000, int, ge=1)
    #: Pages per disk, fastest first (DiskSize_i).
    disk_sizes: tuple[int, ...] = setting((100, 400, 500), int, ge=1,
                                          each=True)
    #: Relative broadcast frequency per disk (RelFreq_i).
    rel_freqs: tuple[int, ...] = setting((3, 2, 1), int, ge=1, each=True)
    #: Backchannel queue capacity (ServerQSize).
    queue_size: int = setting(100, int, ge=1)
    #: Fraction of broadcast slots offered to pulls (PullBW).
    pull_bw: float = setting(0.5, float, ge=0, le=1)
    #: Threshold as a fraction of the major cycle (ThresPerc).
    thresh_perc: float = setting(0.0, float, ge=0, le=1)
    #: Apply the Offset transform (all paper results use it).
    offset: bool = setting(True, bool)
    #: Pages removed from the push program (Experiment 3's chopping).
    chop: int = setting(0, int, ge=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.disk_sizes) != len(self.rel_freqs):
            raise ValueError(
                "server.disk_sizes and server.rel_freqs must align, got "
                f"{self.disk_sizes} and {self.rel_freqs}")
        if sum(self.disk_sizes) != self.db_size:
            raise ValueError(
                f"server.disk_sizes must sum to server.db_size "
                f"{self.db_size}, got {self.disk_sizes}")
        if self.chop >= self.db_size:
            raise ValueError(
                f"server.chop must be < server.db_size {self.db_size} (at "
                f"least one page stays on the air), got {self.chop}")


@dataclass(frozen=True)
class RunConfig(Settings, prefix="run"):
    """Simulation-control parameters (Section 4's methodology).

    Steady-state runs warm the MC cache, settle for ``settle_accesses``
    further accesses ("measurements started only 4000 accesses after the
    cache filled up"), then measure ``measure_accesses`` accesses.
    """

    #: Accesses between cache-full and the measured phase.
    settle_accesses: int = setting(4000, int, ge=0)
    #: Accesses measured for the reported statistics.
    measure_accesses: int = setting(5000, int, ge=1)
    #: RNG seed.
    seed: int = setting(0, int, ge=0)
    #: Hard cap on simulated broadcast units (guards runaway runs).
    max_slots: int = setting(50_000_000, int, ge=1)
    #: Model the VC as blocking on each response (reference engine only;
    #: the paper's aggregate VC is open-loop, see DESIGN.md §4).
    vc_closed_loop: bool = setting(False, bool)


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
        # Never coerced, as no Domain coerces: "ipp" is not Algorithm.IPP.
        if not isinstance(self.algorithm, Algorithm):
            raise ValueError(
                "algorithm must be one of "
                + ", ".join(f"Algorithm.{a.name}" for a in Algorithm)
                + f", got {self.algorithm!r}")
        if (self.algorithm is Algorithm.PURE_PUSH
                and self.server.chop > 0):
            raise ValueError(
                "server.chop must be 0 under Pure-Push: a missed "
                "non-broadcast page would never arrive")
        # A single disk is the whole database: the Offset transform still
        # needs one page that no steady-state cache holds.
        fits = min(self.server.disk_sizes[-1], self.server.db_size - 1)
        if self.client.cache_size > fits:
            raise ValueError(
                "client.cache_size must fit on the slowest disk and leave "
                f"a page uncached for the Offset transform (<= {fits}), "
                f"got {self.client.cache_size}")
        if self.scheduler.reprogram_interval > 0:
            if not (self.algorithm.has_push_program
                    and self.algorithm.uses_backchannel):
                raise ValueError(
                    "scheduler.reprogram_interval > 0 needs both a push "
                    "program to rebuild and a backchannel to observe "
                    "demand on (i.e. the interleaved algorithms)")
            if self.server.chop > 0:
                raise ValueError(
                    "scheduler.reprogram_interval > 0 cannot be combined "
                    "with server.chop > 0: reprogramming rebuilds a full "
                    "program, and re-adding a chopped page would strand "
                    "clients waiting on the old safety net")

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
        sub-config: ``client__think_time_ratio=250`` etc.  Shorthands
        apply on top of a section given in the same call.
        """
        top: dict[str, Any] = {}
        nested: dict[str, dict[str, object]] = {
            section: {} for section in _SECTIONS}
        for key, value in updates.items():
            if "__" in key:
                section, field_name = key.split("__", 1)
                if section not in nested:
                    raise TypeError(f"unknown config section {section!r}")
                nested[section][field_name] = value
            else:
                top[key] = value
        for section, changes in nested.items():
            if changes:
                top[section] = replace(top.get(section,
                                               getattr(self, section)),
                                       **changes)
        return replace(self, **top)


#: SystemConfig's sections by field name, each its section's prefix.
_SECTIONS: dict[str, Any] = {
    spec.name: spec.default_factory for spec in fields(SystemConfig)
    if is_dataclass(spec.default_factory)}


def config_field(dotted: str) -> Field[Any]:
    """The field a dotted name such as ``"client.noise"`` names: its
    ``default``, and its :class:`Domain` in ``metadata["domain"]``."""
    prefix, name = dotted.split(".")
    return cast("Field[Any]", _SETTINGS[prefix].__dataclass_fields__[name])


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
