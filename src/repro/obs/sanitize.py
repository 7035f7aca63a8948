"""Runtime determinism sanitizer: replay a config, diff traces bit-exactly.

Running the same :class:`~repro.core.config.SystemConfig` twice on the
same engine must produce bit-identical slot traces.  That is also what
pins every RNG to the configured seed: a generator seeded from OS
entropy, the process id or a salted ``hash()`` diverges on one replay or
the other, and so does a host clock or global RNG that reaches a result.
Each engine is replayed two ways:

- **in-process** — a second :func:`~repro.obs.compare.capture_trace` in
  the same interpreter catches leaked module/global state (a cached RNG,
  an accumulator that survives engine construction),
- **subprocess under a different ``PYTHONHASHSEED``** — hash
  randomization can only change before interpreter start, so a child
  process (``python -m repro.obs.sanitize``) replays the config with a
  different hash seed and ships its trace back as a columnar ``.npy``.
  A diff here means iteration order of a dict or set leaked into
  simulation state — invisible to any in-process check.

The scope boundary follows DESIGN.md: the *simulation state machine* is
deterministic and is what gets diffed; the wall-clock ``repro.net``
layer is nondeterministic by construction and is out of scope here (its
invariants are checked by ``serve --self-test`` instead).

``--inject-divergence SLOT`` perturbs the in-process replay from that
slot onward — the documented self-test hook proving the diff actually
trips and names the first divergent slot.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

import repro
from repro.core import ENGINES
from repro.core.config import SystemConfig
from repro.obs.columnar import load_columnar
from repro.obs.compare import capture_trace, diff_traces
from repro.obs.manifest import config_from_dict, config_to_dict

__all__ = [
    "DEFAULT_HASH_SEED",
    "ENGINES",
    "ReplayCheck",
    "EngineReport",
    "SanitizeReport",
    "sanitize_config",
    "main",
]

#: PYTHONHASHSEED handed to the subprocess replay (any value that is
#: unlikely to be the parent's own seed does the job).
DEFAULT_HASH_SEED = "31337"

#: Wall-clock ceiling on one subprocess replay (the child runs the same
#: config the parent just ran in-process, so 10 minutes is generous).
CHILD_TIMEOUT = 600.0


@dataclass(frozen=True)
class ReplayCheck:
    """One baseline-vs-replay comparison."""

    #: What was replayed: "replay" (in-process) or
    #: "subprocess PYTHONHASHSEED=<seed>".
    label: str
    #: True when the replay matched the baseline record for record.
    ok: bool
    #: First divergent slot (None when identical).
    divergent_slot: Optional[int]
    #: The full divergence report (empty string when identical).
    detail: str


@dataclass(frozen=True)
class EngineReport:
    """All replay checks for one engine."""

    engine: str
    #: Baseline trace length in slot records.
    slots: int
    checks: tuple[ReplayCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


@dataclass(frozen=True)
class SanitizeReport:
    """Outcome of sanitizing one config across engines."""

    engines: tuple[EngineReport, ...]

    @property
    def ok(self) -> bool:
        return all(engine.ok for engine in self.engines)

    def to_dict(self) -> dict:
        """JSON-ready form (mirrors :meth:`format`)."""
        return {
            "ok": self.ok,
            "engines": [
                {
                    "engine": engine.engine,
                    "ok": engine.ok,
                    "slots": engine.slots,
                    "checks": [
                        {
                            "label": check.label,
                            "ok": check.ok,
                            "divergent_slot": check.divergent_slot,
                        }
                        for check in engine.checks
                    ],
                }
                for engine in self.engines
            ],
        }

    def format(self) -> str:
        """Human-readable report; failures include the trace diff."""
        lines = []
        for engine in self.engines:
            lines.append(f"engine {engine.engine}: {engine.slots} slot "
                         f"records")
            for check in engine.checks:
                verdict = ("identical" if check.ok
                           else f"DIVERGED at slot {check.divergent_slot}")
                lines.append(f"  {check.label:<34}: {verdict}")
                if not check.ok:
                    for row in check.detail.splitlines():
                        lines.append(f"    {row}")
        checks = sum(len(engine.checks) for engine in self.engines)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"sanitize: {verdict} ({len(self.engines)} engine(s), "
                     f"{checks} check(s))")
        return "\n".join(lines)


def _inject(trace: np.ndarray, slot: int) -> np.ndarray:
    """A copy of ``trace`` with every row from ``slot`` onward perturbed
    (self-test hook).

    Bumps ``queue_depth`` — a field every slot row carries — so the
    diff must trip exactly at the first perturbed row.  A ``slot``
    beyond the end of the trace perturbs the last row instead, so the
    hook can never silently do nothing.
    """
    trace = trace.copy()
    if not trace.size:
        return trace
    perturbed = trace["slot"] >= slot
    if not perturbed.any():
        perturbed[-1] = True
    trace["queue_depth"][perturbed] += 1
    return trace


def _check(label: str, baseline: np.ndarray, replay: np.ndarray,
           context: int) -> ReplayCheck:
    """Diff a replay against the baseline; bit-exact or it fails."""
    diff = diff_traces(baseline, replay, context=context)
    if diff.identical:
        return ReplayCheck(label=label, ok=True, divergent_slot=None,
                           detail="")
    return ReplayCheck(label=label, ok=False,
                       divergent_slot=diff.divergent_slot,
                       detail=diff.format())


def _subprocess_replay(config: SystemConfig, engine: str, hash_seed: str,
                       timeout: float = CHILD_TIMEOUT) -> np.ndarray:
    """Replay ``config`` in a child interpreter under ``hash_seed``.

    The child is ``python -m repro.obs.sanitize``; it reads the config as
    JSON on stdin and writes its slot trace as a columnar ``.npy``, which
    keeps the exchange format independent of the hash seed being varied.
    """
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as tmp:
        out = Path(tmp) / "replay.npy"
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.obs.sanitize",
                 "--engine", engine, "--out", str(out)],
                input=json.dumps(config_to_dict(config)),
                capture_output=True, text=True, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RuntimeError(
                f"sanitize child ({engine}) exceeded {timeout:.0f}s")
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip()
            raise RuntimeError(
                f"sanitize child ({engine}) exited "
                f"{proc.returncode}: {detail}")
        return load_columnar(out, mmap=False)


def sanitize_config(config: SystemConfig,
                    engines: Sequence[str] = tuple(ENGINES),
                    hash_seed: Optional[str] = DEFAULT_HASH_SEED,
                    inject_divergence: Optional[int] = None,
                    context: int = 3) -> SanitizeReport:
    """Replay ``config`` per engine and diff the traces bit-exactly.

    Args:
        config: the :class:`~repro.core.config.SystemConfig` to replay.
        engines: which engines to check (default: both).
        hash_seed: ``PYTHONHASHSEED`` for the subprocess replay; ``None``
            skips the subprocess check entirely.
        inject_divergence: perturb the in-process replay from this slot
            onward (self-test hook; see module docstring).
        context: matching records shown before a divergence.

    Raises:
        ValueError: on an unknown engine name (from ``capture_trace``).
        RuntimeError: when a subprocess replay fails to produce a trace.
    """
    reports = []
    for engine in engines:
        baseline = capture_trace(config, engine=engine)
        replay = capture_trace(config, engine=engine)
        if inject_divergence is not None:
            replay = _inject(replay, inject_divergence)
        checks = [_check("replay (in-process)", baseline, replay, context)]
        if hash_seed is not None:
            child = _subprocess_replay(config, engine, hash_seed)
            checks.append(_check(
                f"subprocess PYTHONHASHSEED={hash_seed}",
                baseline, child, context))
        reports.append(EngineReport(engine=engine, slots=len(baseline),
                                    checks=tuple(checks)))
    return SanitizeReport(engines=tuple(reports))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.obs.sanitize`` — the subprocess replay's child.

    Reads the config as JSON on stdin and writes its slot trace to
    ``--out``.  The user-facing front end is ``repro-broadcast sanitize``.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.sanitize",
        description="determinism-sanitizer subprocess child")
    parser.add_argument("--engine", choices=ENGINES, default="fast")
    parser.add_argument("--out", type=Path, required=True,
                        help="columnar .npy trace destination")
    args = parser.parse_args(argv)
    config = config_from_dict(json.load(sys.stdin))
    trace = capture_trace(config, engine=args.engine)
    np.save(args.out, trace)
    print(json.dumps({
        "records": len(trace),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
