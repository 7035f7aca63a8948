"""Runtime determinism sanitizer: replay a config, diff traces bit-exactly.

The static rules prove the *sources* of nondeterminism are absent —
REP001 bans wall clocks in sim state, REP002/REP010 pin every RNG to the
configured seed, REP007-REP009 police the asyncio layer.  This module
checks the *outcome*: running the same :class:`~repro.core.config.\
SystemConfig` twice on the same engine must produce bit-identical slot
traces.  Each engine is replayed two ways:

- **in-process** — a second :func:`~repro.obs.compare.capture_trace` in
  the same interpreter catches leaked module/global state (a cached RNG,
  an accumulator that survives engine construction),
- **subprocess under a different ``PYTHONHASHSEED``** — hash
  randomization can only change before interpreter start, so a child
  process (``python -m repro.lint.sanitize --child``) replays the config
  with a different hash seed and ships its trace back as a columnar
  ``.npy``.  A diff here means iteration order of a dict or set leaked
  into simulation state — invisible to any in-process check.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from repro.core import ENGINES
from repro.obs.compare import capture_trace, diff_traces
from repro.obs.trace import SlotRecord

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


def _inject(records: list[SlotRecord], slot: int) -> list[SlotRecord]:
    """Perturb every record from ``slot`` onward (self-test hook).

    Bumps ``queue_depth`` — a field every slot record carries — so the
    diff must trip exactly at the first perturbed record.  A ``slot``
    beyond the end of the trace perturbs the last record instead, so the
    hook can never silently do nothing.
    """
    if not records:
        return records
    if all(record.slot < slot for record in records):
        return records[:-1] + [replace(records[-1],
                                       queue_depth=records[-1].queue_depth + 1)]
    return [replace(record, queue_depth=record.queue_depth + 1)
            if record.slot >= slot else record
            for record in records]


def _check(label: str, baseline: Sequence[SlotRecord],
           replay: Sequence[SlotRecord], context: int) -> ReplayCheck:
    """Diff a replay against the baseline; bit-exact or it fails."""
    diff = diff_traces(baseline, replay, context=context)
    if diff.identical:
        return ReplayCheck(label=label, ok=True, divergent_slot=None,
                           detail="")
    return ReplayCheck(label=label, ok=False,
                       divergent_slot=diff.divergent_slot,
                       detail=diff.format())


def _subprocess_replay(config, engine: str, hash_seed: str,
                       timeout: float = CHILD_TIMEOUT) -> list[SlotRecord]:
    """Replay ``config`` in a child interpreter under ``hash_seed``.

    The child is ``python -m repro.lint.sanitize --child``; it reads the
    config as JSON on stdin and writes its slot trace as a columnar
    ``.npy``, which keeps the exchange format independent of the hash
    seed being varied.
    """
    from repro.obs.columnar import array_to_records, load_columnar
    from repro.obs.manifest import config_to_dict

    import repro

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
                [sys.executable, "-m", "repro.lint.sanitize", "--child",
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
        return array_to_records(load_columnar(out, mmap=False))


def sanitize_config(config, engines: Sequence[str] = tuple(ENGINES),
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


def _child_main(args) -> int:
    """Child-mode entry: config on stdin, columnar trace to ``--out``."""
    from repro.obs.columnar import ColumnarSink
    from repro.obs.manifest import config_from_dict

    config = config_from_dict(json.load(sys.stdin))
    records = capture_trace(config, engine=args.engine)
    with ColumnarSink(args.out, table="slot") as sink:
        for record in records:
            sink.emit(record)
    print(json.dumps({
        "records": len(records),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.lint.sanitize`` — the subprocess child entry.

    The user-facing front end is ``repro-broadcast sanitize``; running
    this module directly only supports ``--child`` mode.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.sanitize",
        description="determinism-sanitizer subprocess child")
    parser.add_argument("--child", action="store_true",
                        help="replay the config read from stdin")
    parser.add_argument("--engine", choices=ENGINES, default="fast")
    parser.add_argument("--out", type=Path, required=False,
                        help="(--child) columnar .npy trace destination")
    args = parser.parse_args(argv)
    if not args.child or args.out is None:
        parser.error("this entry point only supports --child --out FILE; "
                     "use 'repro-broadcast sanitize' instead")
    return _child_main(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
