"""Trace capture for sweeps: engine runs into pluggable trace formats.

Figure sweeps can attach a trace to their representative points
(``repro-broadcast figures --trace DIR``), and the ``trace`` subcommand
captures a single configured run.  Both paths meet here: one helper per
record table that builds the right sink for the requested format
("jsonl" or "columnar", or "auto" to pick by the output path's suffix),
runs the chosen engine with the tracer attached, and closes the sink
even when the run raises.

Paper-scale sweeps should opt into ``columnar``: the resulting ``.npy``
memory-maps back in milliseconds and feeds the vectorized analytics in
:mod:`repro.obs.columnar`, where a million-record JSONL readback takes
tens of seconds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.core import ENGINES
from repro.core.config import SystemConfig
from repro.obs.columnar import ColumnarSink
from repro.obs.requests import RequestTracer
from repro.obs.trace import JsonlSink, SlotTracer, TraceSink

__all__ = [
    "TRACE_FORMATS",
    "open_trace_sink",
    "trace_path_for",
    "trace_representative",
    "write_request_trace",
    "write_slot_trace",
]

#: Selectable on-disk trace formats ("auto" resolves by path suffix).
TRACE_FORMATS: tuple[str, ...] = ("auto", "jsonl", "columnar")


def _resolve_format(path: Path, fmt: str) -> str:
    if fmt not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {fmt!r} (expected one of {TRACE_FORMATS})")
    if fmt == "auto":
        return "columnar" if path.suffix == ".npy" else "jsonl"
    return fmt


def trace_path_for(directory: Path, stem: str, fmt: str) -> Path:
    """The conventional trace filename for ``stem`` in ``fmt``."""
    suffix = ".npy" if fmt == "columnar" else ".jsonl"
    return Path(directory) / f"{stem}{suffix}"


def open_trace_sink(path: Union[str, Path], fmt: str = "auto",
                    table: str = "slot") -> TraceSink:
    """A writing sink for ``path``: JSONL or columnar by ``fmt``.

    Creates parent directories.  ``table`` ("slot" / "request") pins the
    columnar record table so even an empty run persists a typed file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if _resolve_format(path, fmt) == "columnar":
        return ColumnarSink(path, table=table)
    return JsonlSink(path)


def write_slot_trace(config: SystemConfig, path: Union[str, Path],
                     engine: str = "fast", fmt: str = "auto") -> int:
    """Run ``config`` with a slot tracer; returns the record count."""
    with open_trace_sink(path, fmt, table="slot") as sink:
        tracer = SlotTracer(sink)
        ENGINES[engine](config, tracer=tracer).run()
        return sink.emitted


def write_request_trace(config: SystemConfig, path: Union[str, Path],
                        engine: str = "fast", fmt: str = "auto",
                        sampling=None) -> RequestTracer:
    """Run ``config`` with a request tracer writing to ``path``.

    ``sampling`` is an optional
    :class:`~repro.obs.sampling.SamplingPolicy`; sampled records carry
    inverse-probability weights in the returned tracer's aggregates.
    The tracer is closed — not just the sink — before returning, so a
    deferring (reservoir) policy has flushed its records into the file.

    Returns the tracer (its sink already closed), so callers can render
    the in-memory breakdown and quantiles without re-reading the trace.
    """
    sink = open_trace_sink(path, fmt, table="request")
    tracer = RequestTracer(sink, sampling=sampling)
    try:
        ENGINES[engine](config, request_tracer=tracer).run()
    finally:
        tracer.close()
    return tracer


def trace_representative(fig_id: str, profile, out_dir: Union[str, Path],
                         fmt: str = "jsonl", engine: str = "fast"
                         ) -> tuple[Path, int]:
    """Slot-trace a figure's representative sweep point into ``out_dir``.

    Returns ``(path, emitted)``; the filename is ``trace_<fig_id>`` with
    the format's suffix, so JSONL and columnar captures can coexist.
    """
    from repro.experiments.points import representative_config

    resolved = "jsonl" if fmt == "auto" else fmt
    config = profile.apply(representative_config(fig_id), profile.base_seed)
    path = trace_path_for(Path(out_dir), f"trace_{fig_id}", resolved)
    emitted = write_slot_trace(config, path, engine=engine, fmt=resolved)
    return path, emitted
