"""The paper's primary contribution: integrated push/pull data delivery.

- :mod:`~repro.core.algorithms` — Pure-Push, Pure-Pull, and IPP,
- :mod:`~repro.core.config` — parameter dataclasses mirroring Tables 1–3,
- :mod:`~repro.core.build` — wiring configs into simulated systems,
- :mod:`~repro.core.runtime` — the run protocol (warm → settle → measure,
  result assembly) and the control plane (retune, program swap, stall)
  shared by both engines and the net server,
- :mod:`~repro.core.simulation` — the readable event-driven reference engine,
- :mod:`~repro.core.fast` — the optimized slot-driven engine the
  experiments use,
- :mod:`~repro.core.metrics` — run results (response times, drop rates,
  warm-up traces),
- :mod:`~repro.core.adaptive` — a feedback controller for PullBW /
  threshold (the paper's future-work extension).
"""

from repro.core.algorithms import Algorithm
from repro.core.config import (
    ClientConfig,
    RunConfig,
    ServerConfig,
    SystemConfig,
    PAPER_SETTINGS,
)
from repro.core.metrics import RunResult, TallySnapshot
from repro.core.build import build_system, SystemState
from repro.core.fast import FastEngine, simulate
from repro.core.simulation import ReferenceEngine

#: The one name -> class lookup of the simulation engines; both take
#: ``(config, state=None, tracer=None, request_tracer=None)``.
ENGINES: dict[str, type] = {
    "fast": FastEngine,
    "reference": ReferenceEngine,
}

__all__ = [
    "ENGINES",
    "Algorithm",
    "ClientConfig",
    "ServerConfig",
    "RunConfig",
    "SystemConfig",
    "PAPER_SETTINGS",
    "RunResult",
    "TallySnapshot",
    "build_system",
    "SystemState",
    "FastEngine",
    "ReferenceEngine",
    "simulate",
]
