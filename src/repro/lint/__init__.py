"""repro.lint — domain-aware static analysis for the reproduction.

Generic linters cannot check the two invariants this repo's credibility
rests on: runs are bit-reproducible from an explicit seed, and the
reference and fast engines consume the exact same model surface.  This
package is a small AST-based analyzer with rules for exactly those
invariants:

- ``REP001`` wall-clock sanitizer (no host clocks/timers, no ambient RNG),
- ``REP003`` no float equality on simulated-time values,
- ``REP004`` cross-engine config parity (every config field reaches both
  engines, or is PARITY_EXEMPT with a rationale),
- ``REP005`` event-name registry discipline (``repro/obs/events.py`` is
  the single event vocabulary),
- ``REP007`` no fire-and-forget tasks (``create_task`` handles are kept),
- ``REP008`` no loop-blocking calls inside ``async def``,
- ``REP009`` no blind ``self.`` state writes across an ``await``.

That every generator's seed derives from the configured one is checked
at runtime, not here: ``repro-broadcast sanitize`` replays a run and
diffs the traces bit-exactly (:mod:`repro.lint.sanitize`).

Run it as ``repro-broadcast lint`` or ``python -m repro.lint``; see
``docs/STATIC_ANALYSIS.md`` for the allow-pragma — the one way to excuse
a finding — and how to add a rule.
"""

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding
from repro.lint.rules import REGISTRY

__all__ = [
    "Finding",
    "LintResult",
    "run_lint",
    "REGISTRY",
]
