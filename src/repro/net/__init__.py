"""repro.net — the real asyncio serving layer.

The simulation engines measure the paper's push/pull crossover in
*simulated slots*; this package measures it on *real sockets*:

- :mod:`repro.net.protocol` — the length-prefixed frame format (PAGE
  push frames, REQUEST pull frames, HELLO/STATS control frames) shared
  by server and clients,
- :mod:`repro.net.server` — an asyncio broadcast server that wraps the
  existing :class:`~repro.server.broadcast_server.BroadcastServer`
  state machine unchanged: a slot-clock task calls ``tick()`` once per
  wall-clock slot and writes the emitted frame straight to every
  connection's transport (bounded by each transport's unsent bytes:
  slow consumers shed frames and are eventually dropped), while
  per-connection backchannel readers feed ``queue.offer()``,
- :mod:`repro.net.client` — a client-fleet load generator driving N
  concurrent connections from the same Zipf access model and cache
  policies the simulator uses, recording wall-clock request-to-page
  latency,
- :mod:`repro.net.selftest` — the loopback ``serve --self-test`` mode:
  server plus fleet in one process, swept across PullBW, emitting a
  figure-schema-compatible stats JSON and checking the wall-clock
  latency ordering against the simulator's.

The serving layer *wraps* the simulated server — it never forks the
tick semantics — so every number it produces is attributable to the
same state machine the paper figures come from.  See docs/SERVING.md.
"""

from repro.net.client import ClientFleet, FleetResult
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    Frame,
    FrameDecoder,
    FrameError,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.selftest import SelfTestSettings, run_selftest
from repro.net.server import NetServer, NetServerSettings

__all__ = [
    "Frame",
    "FrameDecoder",
    "FrameError",
    "Hello",
    "Page",
    "Request",
    "Stats",
    "StatsRequest",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_frame",
    "write_frame",
    "NetServer",
    "NetServerSettings",
    "ClientFleet",
    "FleetResult",
    "SelfTestSettings",
    "run_selftest",
]
