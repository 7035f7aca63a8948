"""Trace capture for sweeps: engine runs into columnar ``.npy`` files.

Figure sweeps can attach a trace to their representative points
(``repro-broadcast figures --trace DIR``), and the ``trace`` subcommand
captures a single configured run.  Both paths meet here: one helper per
record table that runs the chosen engine with the tracer attached to a
:class:`~repro.obs.columnar.ColumnarSink`, and closes the sink even
when the run raises.  The resulting ``.npy`` memory-maps back in
milliseconds and feeds the vectorized analytics in
:mod:`repro.obs.columnar`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.core import ENGINES
from repro.core.config import SystemConfig
from repro.obs.columnar import ColumnarSink
from repro.obs.requests import RequestTracer
from repro.obs.trace import SlotTracer

__all__ = [
    "write_request_trace",
    "write_slot_trace",
]


def write_slot_trace(config: SystemConfig, path: Union[str, Path],
                     engine: str = "fast") -> int:
    """Run ``config`` with a slot tracer; returns the record count."""
    with ColumnarSink(path, table="slot") as sink:
        tracer = SlotTracer(sink)
        ENGINES[engine](config, tracer=tracer).run()
        return sink.emitted


def write_request_trace(config: SystemConfig, path: Union[str, Path],
                        engine: str = "fast") -> RequestTracer:
    """Run ``config`` with a request tracer writing to ``path``.

    Returns the tracer (its sink already closed), whose rows are the
    file's: callers summarize them without re-reading the trace.
    """
    tracer = RequestTracer(ColumnarSink(path, table="request"))
    try:
        ENGINES[engine](config, request_tracer=tracer).run()
    finally:
        tracer.close()
    return tracer

