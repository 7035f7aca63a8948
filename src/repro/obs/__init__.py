"""repro.obs — observability: tracing, metrics, trace diffing, provenance.

The simulators' only output used to be end-of-run aggregates; this package
opens the black box:

- :mod:`repro.obs.attach` — the one way to observe a run: shadows on
  the shared components' bound methods, stackable and undone in order,
- :mod:`repro.obs.trace` — one structured row per broadcast slot,
- :mod:`repro.obs.columnar` — the one form a trace takes: numpy
  structured arrays, built by the one sink, persisted as memory-mapped
  ``.npy`` (checked on load) and exported as JSON lines,
- :mod:`repro.obs.metrics` — a counters/histograms registry for the
  numbers no component owns (the wire's and the load generator's),
- :mod:`repro.obs.compare` — trace diffing that pinpoints the first slot
  where two engine runs diverge,
- :mod:`repro.obs.sanitize` — the determinism check: replay a config
  per engine, in-process and under another ``PYTHONHASHSEED``, and diff
  the slot traces bit-exactly (``repro-broadcast sanitize``),
- :mod:`repro.obs.requests` — request-lifecycle tracing: one row per
  measured-client access (the trace is always full: it watches only
  the MC, so it is bounded by the run's access count), and the wait
  decomposition and miss-wait column vectorized reductions read from
  those rows,
- :mod:`repro.obs.manifest` — run/sweep provenance manifests (seed,
  config, versions, timestamp).

Everything is opt-in: the engines carry no observer code, so a run
without a tracer executes none.  Every module here has a reader outside
its own tests — a figure, a BENCH or spine number, a CI gate or
``report``; docs/OBSERVABILITY.md's reader table names it.  Per-layer
wall time is the benchmark spine's (``benchmarks/spine``, ``--trace
1``), not this package's.

Summarising a sample is not defined here: the streaming
:class:`Histogram` (moments + interpolated quantiles on the
:data:`LATENCY_BUCKETS` ladder) and :func:`exact_quantiles` live in the
leaf module :mod:`repro.sim.monitor`, which the measured client and the
fleet use too; they are re-exported for convenience.
"""

from repro.obs.attach import Attachment
from repro.obs.columnar import (
    REQUEST_DTYPE,
    SLOT_DTYPE,
    ColumnarSink,
    columnar_to_jsonl,
    load_columnar,
    slot_summary,
    table_of,
)
from repro.obs.compare import TraceDiff, capture_trace, compare_engines, diff_traces
from repro.obs.manifest import (
    MANIFEST_VERSION,
    config_to_dict,
    package_version,
    run_manifest,
    sweep_manifest,
)
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.requests import (
    RequestRecord,
    RequestTracer,
    WaitBreakdown,
    breakdown_of_array,
    measured_miss_waits,
)
from repro.obs.trace import SlotTracer
from repro.sim.monitor import (
    LATENCY_BUCKETS,
    Histogram,
    exact_quantiles,
    log_buckets,
)

__all__ = [
    "Attachment",
    "SlotTracer",
    "ColumnarSink",
    "SLOT_DTYPE",
    "REQUEST_DTYPE",
    "load_columnar",
    "table_of",
    "columnar_to_jsonl",
    "breakdown_of_array",
    "measured_miss_waits",
    "exact_quantiles",
    "slot_summary",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TraceDiff",
    "diff_traces",
    "capture_trace",
    "compare_engines",
    "RequestRecord",
    "RequestTracer",
    "WaitBreakdown",
    "LATENCY_BUCKETS",
    "log_buckets",
    "MANIFEST_VERSION",
    "config_to_dict",
    "package_version",
    "run_manifest",
    "sweep_manifest",
]
