"""The asyncio broadcast server.

The server *wraps* the simulated
:class:`~repro.server.broadcast_server.BroadcastServer` — the same
object, built by the same :func:`~repro.core.build.build_system`, with
the exact tick semantics the engines validate — and gives it a network
face:

- a **slot clock** task calls ``server.tick()`` once per wall-clock
  slot (``slot_duration`` seconds, scheduled against the event loop's
  monotonic clock so processing delays never accumulate as drift) and
  fans any page-carrying slot out to every connection as a PAGE frame;
  while the clock is late it holds the frames and writes up to
  :data:`_LATE_BATCH_FRAMES` of them in one write per connection;
- each frame is encoded once and written **straight to every
  connection's transport**, with no queue or task in between.  A slow
  socket is bounded by its transport's unsent bytes: a client already
  ``send_queue_frames`` PAGE frames behind has the frame shed for it
  only (counted in telemetry), and a client that keeps shedding — it
  stopped reading — is disconnected.  The slot clock itself never
  blocks on a socket;
- per-connection **backchannel readers** translate REQUEST frames into
  ``server.request()`` — i.e. :meth:`BoundedRequestQueue.offer` — with
  the paper's no-feedback semantics, and answer STATS frames with a
  telemetry snapshot.

Each telemetry number has one owner.  The server's slot mix and the
queue's outcomes are the wrapped server's own
:meth:`~repro.server.broadcast_server.BroadcastServer.stats_snapshot`,
the same dict ``simulate --metrics`` reports; the
:class:`~repro.obs.metrics.MetricsRegistry` holds only the ``net_*``
counters this module increments.

This module runs on real time by design, but only through the event
loop's clock: it imports no host clock itself, so it is not on the
host-clock allowlist in ``tests/lint/test_repo_clean.py`` — an ``import
time`` added here fails that test until the list names it and says why.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Optional

from repro.core.build import build_system
from repro.core.config import Settings, SystemConfig, setting
from repro.core.runtime import ControlPlane
from repro.net.protocol import (
    FrameError,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    encode_frame,
    encode_page,
    read_frame,
)
from repro.obs.events import SLOT_KINDS
from repro.obs.metrics import MetricsRegistry
from repro.server.broadcast_server import SlotKind

__all__ = ["NetServer", "NetServerSettings"]

#: PAGE frames a late clock holds before it writes them, joined, in one
#: ``transport.write`` per connection.  It also flushes before it next
#: sleeps, at ``max_slots``, before a STATS reply and before a new
#: connection registers, so a frame waits for at most this many
#: page-carrying slots.
#: Each write wakes one reader per connection, so a larger cap means
#: fewer writes and wake-ups per slot.  But a client that decodes gets
#: a batch as one burst of GC-tracked ``Page`` objects, and once the
#: bursts outgrow the young generation's threshold (700 allocations)
#: collections cost more than the wake-ups saved.  ``net_fanout`` (48
#: listeners, 2 decoding requesters, saturated clock, 1500 slots) on a
#: shared 2-vCPU x86 box, six alternating 8 s runs per cap, median
#: slots/s and peak RSS: cap 64 48.1k, 51.5 MB; 96 53.6k; 128 53.2k;
#: 160 56.0k; 192 56.8k, 52.4 MB; 224 53.1k; 256 53.0k, 53.4 MB; 320
#: 51.7k; 512 42.4k, 55.0 MB.  Collections per pass (young / middle /
#: old): 8.2 / 0.7 / 0.1 at 64, 16.3 / 1.5 / 0.2 at 192, 20.9 / 1.9 /
#: 0.2 at 256, 36.6 / 3.4 / 0.4 at 512.
_LATE_BATCH_FRAMES = 192


@dataclass(frozen=True)
class NetServerSettings(Settings, prefix="serve"):
    """Network-side knobs (everything simulated lives in SystemConfig)."""

    #: Interface to bind; any string, which the bind itself checks.
    host: str = setting("127.0.0.1", str)
    #: TCP port; 0 binds an ephemeral port (read it back via ``port``).
    port: int = setting(0, int, ge=0, le=65535)
    #: Wall-clock seconds per broadcast slot.
    slot_duration: float = setting(0.005, float, gt=0)
    #: Per-connection send bound in PAGE frames: a frame (or STATS reply)
    #: is shed for a client whose transport already holds this many
    #: frames' bytes unsent.  Roughly the number of slots a client may
    #: fall behind, past what the kernel's socket buffers absorb.
    send_queue_frames: int = setting(256, int, ge=1)
    #: Consecutive shed frames after which a client is declared dead and
    #: disconnected (it has stopped reading for ``send_queue_frames +
    #: drop_after`` slots by then).
    drop_after: int = setting(64, int, ge=1)
    #: Stop the slot clock after this many slots (None = run forever).
    max_slots: Optional[int] = setting(None, int, ge=1, optional=True)


class _Connection:
    """One client connection's server-side state."""

    __slots__ = ("writer", "transport", "client_id",
                 "shed_total", "shed_consecutive")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.transport = writer.transport
        self.client_id: Optional[int] = None
        self.shed_total = 0
        self.shed_consecutive = 0


class NetServer:
    """Serve one configured broadcast system over TCP.

    Usage::

        server = NetServer(config, NetServerSettings(max_slots=2000))
        await server.start()
        ...
        await server.wait_finished()   # max_slots reached
        await server.stop()
    """

    def __init__(self, config: SystemConfig,
                 settings: Optional[NetServerSettings] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config
        self.settings = settings if settings is not None else (
            NetServerSettings())
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The complete simulated system; only ``state.server`` (the
        #: per-slot state machine) is driven — the sim-side MC/VC models
        #: are replaced by real connections.
        self.state = build_system(config)
        self.server = self.state.server
        #: The engines' control plane, minus what has no wire message: it
        #: polls ``state.reprogrammer`` and swaps the program; the clock
        #: ends itself, so the plane carries no ``max_slots`` stall.
        self.control = ControlPlane(self.state)
        metrics = self.registry
        self._connections_total = metrics.counter(
            "net_connections_total", "connections ever accepted")
        self._frames_sent = metrics.counter(
            "net_frames_sent_total", "PAGE frames written to clients")
        self._frames_shed = metrics.counter(
            "net_frames_shed_total",
            "PAGE frames dropped because a client was over its send bound")
        self._clients_dropped = metrics.counter(
            "net_clients_dropped_total",
            "clients disconnected for not reading (slow consumers)")
        self._requests_received = metrics.counter(
            "net_requests_received_total", "REQUEST frames received")
        self._stats_served = metrics.counter(
            "net_stats_requests_total", "STATS snapshots served")
        self._lagging_slots = metrics.counter(
            "net_lagging_slots_total",
            "slots whose tick started after their wall-clock deadline")
        #: Unsent bytes at which a connection is over its send bound.
        self._send_bound = self.settings.send_queue_frames * len(
            encode_frame(Page(0, 0, "push")))
        self.slot = 0
        #: Encoded PAGE frames of late slots not yet written.
        self._pending: list[bytes] = []
        self._connections: dict[int, _Connection] = {}
        #: Every running connection handler, reaped or not.
        self._handlers: set[asyncio.Task] = set()
        self._next_conn_key = 0
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._clock_task: Optional[asyncio.Task] = None
        self._finished = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`bind` or :meth:`start`)."""
        if self._tcp_server is None:
            raise RuntimeError("server is not bound")
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def connected_clients(self) -> int:
        return len(self._connections)

    async def bind(self) -> None:
        """Bind the socket without starting the slot clock: connections
        register, but no slot ticks until :meth:`start`."""
        if self._tcp_server is not None:
            raise RuntimeError("server already bound")
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port)

    async def start(self) -> None:
        """Start the slot clock, binding the socket first unless
        :meth:`bind` already has."""
        if self._clock_task is not None:
            raise RuntimeError("server already started")
        if self._tcp_server is None:
            await self.bind()
        self._clock_task = asyncio.create_task(
            self._slot_clock(), name="repro-net-slot-clock")

    async def wait_finished(self) -> None:
        """Block until the slot clock has emitted ``max_slots`` slots."""
        await self._finished.wait()

    async def stop(self) -> None:
        """Stop the clock, drop every connection, close the socket."""
        if self._clock_task is not None:
            self._clock_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._clock_task
            self._clock_task = None
        for key in list(self._connections):
            self._close_connection(key)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        # Each handler ends on its aborted transport: none outlives stop().
        await asyncio.gather(*self._handlers, return_exceptions=True)

    # -- telemetry -----------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The STATS frame payload: the server's own accounting under
        ``server``, the ``net_*`` counters under ``metrics``."""
        return {
            "slot": self.slot,
            "slot_duration": self.settings.slot_duration,
            "connected_clients": len(self._connections),
            "server": self.server.stats_snapshot(),
            "metrics": self.registry.snapshot(),
        }

    # -- the slot clock ------------------------------------------------------
    async def _slot_clock(self) -> None:
        settings = self.settings
        duration = settings.slot_duration
        max_slots = settings.max_slots
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        control = self.control
        due = control.due
        pending = self._pending
        # tick() returns a page exactly when the slot carries one, and
        # SlotKind members themselves: `page is not None` and `kind is
        # pull` stand in for the enum's per-call property lookups.
        pull = SlotKind.PULL
        push_code = SLOT_KINDS.index(SlotKind.PUSH.value)
        pull_code = SLOT_KINDS.index(pull.value)
        while max_slots is None or self.slot < max_slots:
            if self.slot >= due:
                due = control.poll(self.slot)
            page, kind = self.server.tick()
            if page is not None:
                pending.append(encode_page(
                    page, self.slot,
                    pull_code if kind is pull else push_code))
            self.slot += 1
            target = epoch + self.slot * duration
            delay = target - loop.time()
            if delay > 0:
                self._flush()
                await asyncio.sleep(delay)
            else:
                self._lagging_slots.inc()
                if len(pending) >= _LATE_BATCH_FRAMES:
                    self._flush()
                # Yield so readers run even when the clock lags.
                await asyncio.sleep(0)
        self._flush()
        self._finished.set()

    def _flush(self) -> None:
        """Write every held PAGE frame, in slot order, in one write per
        connection."""
        pending = self._pending
        if pending:
            self._broadcast(b"".join(pending), len(pending))
            pending.clear()

    def _broadcast(self, data: bytes, frames: int) -> None:
        """Write ``frames`` encoded PAGE frames, joined in ``data``, to
        every connection, never blocking.  Sends and sheds count frames,
        not writes: a shed write counts every frame it held."""
        bound = self._send_bound
        drop_after = self.settings.drop_after
        sent = 0
        dead: list[int] = []
        for key, conn in self._connections.items():
            transport = conn.transport
            if transport.is_closing():
                continue  # lost; its reader reaps it
            if transport.get_write_buffer_size() < bound:
                transport.write(data)
                conn.shed_consecutive = 0
                sent += 1
                continue
            conn.shed_total += frames
            conn.shed_consecutive += frames
            self._frames_shed.inc(frames)
            if conn.shed_consecutive >= drop_after:
                dead.append(key)
        self._frames_sent.inc(sent * frames)
        for key in dead:
            self._clients_dropped.inc()
            self._close_connection(key)

    # -- connections ---------------------------------------------------------
    def _close_connection(self, key: int) -> None:
        """Forget a connection and abort its transport: unsent bytes are
        discarded, as a send queue's backlog would be, so a client that
        stopped reading cannot hold its socket open."""
        conn = self._connections.pop(key, None)
        if conn is not None:
            conn.transport.abort()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        key = self._next_conn_key
        self._next_conn_key += 1
        conn = _Connection(writer)
        # Held frames are for slots before this connection registered.
        self._flush()
        self._connections[key] = conn
        self._connections_total.inc()
        handler = asyncio.current_task()
        self._handlers.add(handler)
        server = self.server
        try:
            while True:
                frame = await read_frame(reader)
                if isinstance(frame, Request):
                    # The paper's no-feedback backchannel: present the
                    # request to the bounded queue and say nothing.
                    server.request(frame.page)
                    self._requests_received.inc()
                elif isinstance(frame, Hello):
                    conn.client_id = frame.client_id
                elif isinstance(frame, StatsRequest):
                    # Never ahead of a PAGE frame for a slot it counts,
                    # and under the same send bound as PAGE frames.
                    self._flush()
                    transport = conn.transport
                    if (not transport.is_closing()
                            and transport.get_write_buffer_size()
                            < self._send_bound):
                        transport.write(
                            encode_frame(Stats(self.stats_snapshot())))
                        self._stats_served.inc()
                # PAGE / STATS from a client are ignored (harmless).
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                FrameError):
            pass
        finally:
            self._close_connection(key)
            self._handlers.discard(handler)
