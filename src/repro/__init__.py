"""repro — Balancing Push and Pull for Data Broadcast.

A from-scratch reproduction of Acharya, Franklin & Zdonik's SIGMOD 1997
simulation study of integrating a pull backchannel with the Broadcast
Disks push paradigm.

Quickstart::

    from repro import Algorithm, SystemConfig, simulate

    config = SystemConfig(algorithm=Algorithm.IPP).with_(
        client__think_time_ratio=50, server__pull_bw=0.5)
    result = simulate(config)
    print(result.response_miss.mean, "broadcast units")

See :mod:`repro.experiments` for the paper's figure sweeps and the
``repro-broadcast`` CLI for running them from a shell.
"""

from repro.core import (
    Algorithm,
    ClientConfig,
    FastEngine,
    PAPER_SETTINGS,
    ReferenceEngine,
    RunConfig,
    RunResult,
    ServerConfig,
    SystemConfig,
    build_system,
    simulate,
)
from repro.core.fast import simulate_warmup

__version__ = "1.0.0"

__all__ = [
    "Algorithm",
    "ClientConfig",
    "ServerConfig",
    "RunConfig",
    "SystemConfig",
    "PAPER_SETTINGS",
    "RunResult",
    "FastEngine",
    "ReferenceEngine",
    "build_system",
    "simulate",
    "simulate_warmup",
    "__version__",
]
