"""repro.obs — observability: tracing, metrics, profiling, trace diffing.

The simulators' only output used to be end-of-run aggregates; this package
opens the black box:

- :mod:`repro.obs.attach` — the one way to observe a run: shadows on
  the shared components' bound methods, stackable and undone in order,
- :mod:`repro.obs.trace` — per-slot structured records through pluggable
  sinks (null / in-memory ring / columnar file),
- :mod:`repro.obs.columnar` — the on-disk trace format: numpy
  structured-array sink with memory-mapped ``.npy`` persistence,
  checked on load, one JSON-lines export, and vectorized breakdown
  analytics for million-record traces,
- :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with a
  shared no-op mode for zero-cost disabled instrumentation,
- :mod:`repro.obs.profile` — wall time per component-call phase of
  either engine (slots/sec, per-phase breakdown),
- :mod:`repro.obs.compare` — trace diffing that pinpoints the first slot
  where two engine runs diverge,
- :mod:`repro.obs.requests` — request-lifecycle tracing: one record per
  measured-client access with a wait decomposition,
- :mod:`repro.obs.sampling` — 1-in-N and seeded-reservoir sampling
  policies for the request tracer, with inverse-probability correction
  weights so sampled aggregates estimate the full population,
- :mod:`repro.obs.dashboard` — live terminal telemetry: sweep-progress
  monitor (``figures --watch``) and net STATS frame rendering (``serve
  --watch`` / ``loadgen --watch``) over one metrics vocabulary,
- :mod:`repro.obs.manifest` — run/sweep provenance manifests (seed,
  config, versions, timestamp),
- :mod:`repro.obs.server_metrics` — adapter mirroring the broadcast
  server's own slot/queue counters into a metrics registry, so
  simulated runs and the :mod:`repro.net` server share one
  metrics-export path.

Everything is opt-in: the engines carry no observer code, so a run
without a tracer/profiler executes none.

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
    array_to_records,
    breakdown_of_array,
    columnar_to_jsonl,
    load_columnar,
    measured_miss_waits,
    records_to_array,
    slot_summary,
    table_of,
)
from repro.obs.compare import TraceDiff, capture_trace, compare_engines, diff_traces
from repro.obs.dashboard import (
    Dashboard,
    SweepMonitor,
    quantiles_from_bucket_snapshot,
    render_stats_frame,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    config_to_dict,
    package_version,
    run_manifest,
    sweep_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.profile import HotLoopProfile, profile_run
from repro.obs.sampling import (
    EveryNSampling,
    ReservoirSampling,
    SamplingPolicy,
    sample_stream,
)
from repro.obs.server_metrics import ServerMetricsAdapter, bind_server_metrics
from repro.obs.requests import (
    RequestRecord,
    RequestTracer,
    WaitBreakdown,
    breakdown_of,
)
from repro.obs.trace import (
    MemorySink,
    NullSink,
    SlotRecord,
    SlotTracer,
    TraceSink,
)
from repro.sim.monitor import (
    LATENCY_BUCKETS,
    Histogram,
    exact_quantiles,
    log_buckets,
)

__all__ = [
    "Attachment",
    "SlotRecord",
    "SlotTracer",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "ColumnarSink",
    "SLOT_DTYPE",
    "REQUEST_DTYPE",
    "load_columnar",
    "table_of",
    "records_to_array",
    "array_to_records",
    "columnar_to_jsonl",
    "breakdown_of_array",
    "measured_miss_waits",
    "exact_quantiles",
    "slot_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "HotLoopProfile",
    "profile_run",
    "TraceDiff",
    "diff_traces",
    "capture_trace",
    "compare_engines",
    "RequestRecord",
    "RequestTracer",
    "WaitBreakdown",
    "breakdown_of",
    "LATENCY_BUCKETS",
    "log_buckets",
    "MANIFEST_VERSION",
    "config_to_dict",
    "package_version",
    "run_manifest",
    "sweep_manifest",
    "SamplingPolicy",
    "EveryNSampling",
    "ReservoirSampling",
    "sample_stream",
    "Dashboard",
    "SweepMonitor",
    "render_stats_frame",
    "quantiles_from_bucket_snapshot",
    "ServerMetricsAdapter",
    "bind_server_metrics",
]
