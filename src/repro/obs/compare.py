"""Trace diffing: pinpoint where two engine runs diverge.

The cross-engine tests (``tests/integration/test_cross_engine.py``) can
say *that* the reference and fast engines disagree; this module says
*where*.  Both engines are run with a slot tracer into an in-memory
:class:`~repro.obs.columnar.ColumnarSink` over the same configuration
and the two :data:`~repro.obs.columnar.SLOT_DTYPE` arrays are compared:
the report names the first divergent slot, the fields that differ, and
a window of context rows before it.

On deterministic configurations (Pure-Push, any seed) the traces must be
identical — an empty diff.  Stochastic algorithms consume randomness in
different orders across the engines, so their traces legitimately differ;
the diff is still useful there for eyeballing *when* behaviour separates
(e.g. the first dropped request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.columnar import SLOT_DTYPE, ColumnarSink, decode_row
from repro.obs.trace import SlotTracer

__all__ = ["TraceDiff", "diff_traces", "capture_trace", "compare_engines"]

#: Slot-row fields compared, in reporting order.
_COMPARED_FIELDS: tuple[str, ...] = tuple(
    name for name in SLOT_DTYPE.names if name != "null_mask")


@dataclass(frozen=True)
class TraceDiff:
    """Outcome of comparing two slot traces."""

    #: First slot index whose rows differ (None when the common prefix
    #: is identical).
    divergent_slot: Optional[int]
    #: Names of the fields that differ at the divergent slot.
    fields: tuple[str, ...]
    #: The two SLOT_DTYPE rows at the divergence (None when no divergence).
    left: Optional[np.void]
    right: Optional[np.void]
    #: Matching rows immediately before the divergence (context window).
    context: np.ndarray
    #: Full trace lengths (they may differ by the engines' stop slack).
    length_left: int
    length_right: int

    @property
    def identical(self) -> bool:
        """True when both traces match row for row, full length."""
        return (self.divergent_slot is None
                and self.length_left == self.length_right)

    @property
    def empty(self) -> bool:
        """True when the compared common prefix shows no divergence."""
        return self.divergent_slot is None

    def format(self) -> str:
        """Human-readable divergence report."""
        if self.empty:
            lines = [f"no divergence in {min(self.length_left, self.length_right)} "
                     f"compared slots"]
            if self.length_left != self.length_right:
                lines.append(
                    f"note: trace lengths differ "
                    f"({self.length_left} vs {self.length_right} records)")
            return "\n".join(lines)
        lines = [
            f"first divergence at slot {self.divergent_slot} "
            f"(fields: {', '.join(self.fields)})",
        ]
        for row in self.context:
            lines.append(f"  = {_format_record(decode_row(row, 'slot'))}")
        assert self.left is not None and self.right is not None
        left = decode_row(self.left, "slot")
        right = decode_row(self.right, "slot")
        lines.append(f"  < {_format_record(left)}")
        lines.append(f"  > {_format_record(right)}")
        for name in self.fields:
            lines.append(f"    {name}: {left[name]!r} != {right[name]!r}")
        return "\n".join(lines)


def _format_record(record: dict) -> str:
    waiting = ("-" if record["mc_waiting"] is None
               else str(record["mc_waiting"]))
    page = "-" if record["page"] is None else str(record["page"])
    return (f"slot {record['slot']:>6} {record['kind']:<7} page={page:<5} "
            f"qdepth={record['queue_depth']:<3} "
            f"enq={record['enqueued']} dup={record['duplicates']} "
            f"drop={record['dropped']} served={record['served']} "
            f"mc_wait={waiting} arr=mc:{record['mc_arrivals']}/"
            f"vc:{record['vc_arrivals']}")


def diff_traces(left: np.ndarray, right: np.ndarray,
                context: int = 3) -> TraceDiff:
    """Compare two slot traces; report the first divergent row with context.

    Only the common prefix is compared row by row — the engines' stop
    conditions can legitimately differ by a trailing slot — but the full
    lengths are reported so callers can insist on strict equality via
    :attr:`TraceDiff.identical`.
    """
    if context < 0:
        raise ValueError("context must be non-negative")
    common = min(len(left), len(right))
    differs = np.flatnonzero(left[:common] != right[:common])
    if not differs.size:
        return TraceDiff(divergent_slot=None, fields=(), left=None,
                         right=None, context=left[:0],
                         length_left=len(left), length_right=len(right))
    index = int(differs[0])
    row_l, row_r = left[index], right[index]
    return TraceDiff(
        divergent_slot=int(row_l["slot"]),
        fields=tuple(name for name in _COMPARED_FIELDS
                     if row_l[name] != row_r[name]),
        left=row_l,
        right=row_r,
        context=left[max(0, index - context):index],
        length_left=len(left),
        length_right=len(right),
    )


def capture_trace(config, engine: str = "fast",
                  warmup: bool = False) -> np.ndarray:
    """Run ``config`` on one engine; its slot trace as a SLOT_DTYPE array.

    ``engine`` is a key of :data:`repro.core.ENGINES`.  A tracer keeps the
    fast engine on the general slot loop, so Pure-Push runs produce a real
    per-slot trace (the analytic shortcut never ticks slots).
    """
    from repro.core import ENGINES  # lazy import: obs -> core

    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} "
                         f"(known: {', '.join(ENGINES)})")
    sink = ColumnarSink(table="slot")
    eng = ENGINES[engine](config, tracer=SlotTracer(sink))
    if warmup:
        eng.run_warmup()
    else:
        eng.run()
    return sink.array()


def compare_engines(config, context: int = 3,
                    warmup: bool = False) -> TraceDiff:
    """Trace ``config`` on both engines and diff the rows.

    The reference engine is the left side, the fast engine the right, so
    a report reads "reference expected X, fast produced Y".
    """
    reference = capture_trace(config, engine="reference", warmup=warmup)
    fast = capture_trace(config, engine="fast", warmup=warmup)
    return diff_traces(reference, fast, context=context)
