"""Mini config tree where every field reaches both engines (REP004 clean)."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RunConfig:
    seed: int = 7
    horizon: float = 1000.0
    settle: int = 10


@dataclass(frozen=True)
class SystemConfig:
    run: RunConfig = field(default_factory=RunConfig)
    slot_ms: float = 1.0
    reference_trace: bool = False


# reference-engine-only diagnostic toggle; the fast engine has no
# equivalent code path by design.
PARITY_EXEMPT = frozenset({"reference_trace"})
