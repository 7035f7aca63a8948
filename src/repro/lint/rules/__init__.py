"""Rule modules; importing this package populates the registry.

Rule inventory (ids are stable, documented in docs/STATIC_ANALYSIS.md):

- ``REP001`` wall-clock        — no host clocks/timers or ambient RNG
- ``REP003`` sim-time-float-eq — no ==/!= on simulated-time floats
- ``REP004`` config-parity     — config fields reach both engines
- ``REP005`` event-registry    — event names come from obs/events.py
- ``REP007`` fire-and-forget-task — create_task handles must be kept alive
- ``REP008`` blocking-in-async — no loop-blocking calls in async def
- ``REP009`` await-point-hazard — no blind self-state writes across awaits
- ``LINT000``                  — reserved: malformed allow-pragmas
- ``LINT001``                  — reserved: unused allow-pragmas

Retired ids are not reused: REP002 and REP010 (seed discipline and seed
flow, covered at runtime by ``repro-broadcast sanitize``) and REP006.
"""

from repro.lint.rules import (  # noqa: F401
    asyncio_rules,
    determinism,
    events,
    parity,
    simtime,
)
from repro.lint.rules.base import (
    REGISTRY,
    FileRule,
    ProjectRule,
    Rule,
    register,
)

__all__ = ["REGISTRY", "Rule", "FileRule", "ProjectRule", "register"]

#: Rule id reserved for pragma-syntax findings emitted by the engine.
PRAGMA_RULE_ID = "LINT000"

#: Rule id reserved for unused-exemption findings emitted by the engine.
UNUSED_PRAGMA_RULE_ID = "LINT001"
