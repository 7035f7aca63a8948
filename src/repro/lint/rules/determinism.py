"""REP001 determinism hazards: wall clocks, host timers, ambient RNG state.

The reproduction's headline invariant is bit-reproducibility from an
explicit seed.  REP001 guards its static half: wall-clock and host-timer
reads (``time.time``, ``datetime.now``, ``time.perf_counter``, ...) and
global RNG state (``random.*``, legacy ``np.random.*``) must not leak
into simulation logic; legitimate uses (provenance timestamps, profiler
timers) carry an inline ``# lint: allow[REP001] -- rationale`` pragma.

Names resolve through the module's scope table, so ``def f(time):
return time.time()`` is a parameter, not the ``time`` module.  Whether
every generator's seed derives from the configured one is checked at
runtime instead: ``repro-broadcast sanitize`` replays a run in-process
and under another ``PYTHONHASHSEED`` and diffs the traces bit-exactly.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules.base import FileRule, register
from repro.lint.scopes import table_for
from repro.lint.source import SourceFile

__all__ = ["WallClockRule"]

#: Exact canonical callables that read host clocks / timers.
WALL_CLOCK = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.localtime": "wall clock",
    "time.gmtime": "wall clock",
    "time.ctime": "wall clock",
    "time.asctime": "wall clock",
    "time.strftime": "wall clock",
    "time.monotonic": "host timer",
    "time.monotonic_ns": "host timer",
    "time.perf_counter": "host timer",
    "time.perf_counter_ns": "host timer",
    "time.process_time": "host timer",
    "time.process_time_ns": "host timer",
    "time.sleep": "wall-clock dependency",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
}

#: numpy.random names that are part of the Generator-era seeded API.
_NUMPY_SEEDED_API = frozenset({
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


def _is_forbidden(canonical: str) -> str | None:
    """Reason string when ``canonical`` is a determinism hazard."""
    reason = WALL_CLOCK.get(canonical)
    if reason is not None:
        return reason
    if canonical.startswith("random.") and canonical != "random.Random":
        return "global random state"
    if (canonical.startswith("numpy.random.")
            and canonical.split(".")[2] not in _NUMPY_SEEDED_API):
        return "legacy numpy global RNG"
    return None


@register
class WallClockRule(FileRule):
    """REP001 — no wall clocks, host timers, or ambient RNG state."""

    id = "REP001"
    name = "wall-clock"
    summary = ("forbid wall-clock/timer reads and global RNG state "
               "(time.time, datetime.now, random.*, legacy np.random.*)")
    hint = ("inject a clock or seeded Generator instead; if this is "
            "provenance or profiling (not simulation logic), add "
            "'# lint: allow[REP001] -- <why>'")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        assert source.tree is not None
        table = table_for(source)
        flagged: set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                canonical = table.canonical(node.func)
                if canonical is None:
                    continue
                reason = _is_forbidden(canonical)
                if reason is not None:
                    flagged.add(id(node.func))
                    yield self.finding(
                        source, node.lineno,
                        f"call to {canonical} ({reason})")
            elif isinstance(node, (ast.Attribute, ast.Name)):
                # Bare references (aliasing, defaults, callbacks): e.g.
                # `_pc = time.perf_counter` smuggles the timer past a
                # call-only check.
                if id(node) in flagged:
                    continue
                canonical = table.canonical(node)
                if canonical is None:
                    continue
                reason = _is_forbidden(canonical)
                if reason is not None:
                    # Skip inner parts of an already-flagged chain.
                    for inner in ast.walk(node):
                        flagged.add(id(inner))
                    yield self.finding(
                        source, node.lineno,
                        f"reference to {canonical} ({reason})")
