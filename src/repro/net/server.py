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
- per-connection **bounded send queues** decouple the clock from slow
  sockets: a full queue sheds the frame for that client only (counted
  in telemetry), and a client that keeps shedding — it stopped reading
  — is disconnected.  The slot clock itself never blocks on a socket;
- per-connection **backchannel readers** translate REQUEST frames into
  ``server.request()`` — i.e. :meth:`BoundedRequestQueue.offer` — with
  the paper's no-feedback semantics, and answer STATS frames with a
  metrics-registry snapshot.

Telemetry flows through one :class:`~repro.obs.metrics.MetricsRegistry`
shared with the sim-side export path (see
:mod:`repro.obs.server_metrics`), so a live STATS snapshot and a
simulated run report through identical instrument names.

This module runs on real time by design, but only through the event
loop's clock: it reads no host clock itself, so it carries no REP001
exemption — a direct read added here needs its own allow-pragma.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Optional

from repro.core.build import build_system
from repro.core.config import SystemConfig
from repro.core.runtime import ControlPlane
from repro.net.protocol import (
    FrameError,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    encode_frame,
    read_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.server_metrics import bind_server_metrics

__all__ = ["NetServer", "NetServerSettings"]


@dataclass(frozen=True)
class NetServerSettings:
    """Network-side knobs (everything simulated lives in SystemConfig)."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it back via ``port``).
    port: int = 0
    #: Wall-clock seconds per broadcast slot.
    slot_duration: float = 0.005
    #: Per-connection send-queue capacity in frames.  Roughly the number
    #: of slots a client may fall behind before frames are shed.
    send_queue_frames: int = 256
    #: Consecutive shed frames after which a client is declared dead and
    #: disconnected (it has stopped reading for ``send_queue_frames +
    #: drop_after`` slots by then).
    drop_after: int = 64
    #: Stop the slot clock after this many slots (None = run forever).
    max_slots: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.send_queue_frames < 1:
            raise ValueError("send_queue_frames must be positive")
        if self.drop_after < 1:
            raise ValueError("drop_after must be positive")
        if self.max_slots is not None and self.max_slots < 1:
            raise ValueError("max_slots must be positive when set")


class _Connection:
    """One client connection's server-side state."""

    __slots__ = ("writer", "queue", "sender", "client_id",
                 "shed_total", "shed_consecutive")

    def __init__(self, writer: asyncio.StreamWriter, capacity: int):
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        self.sender: Optional[asyncio.Task] = None
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
        self.adapter = bind_server_metrics(self.registry, self.server)
        metrics = self.registry
        self._connected = metrics.gauge(
            "net_connected_clients", "currently connected clients")
        self._connections_total = metrics.counter(
            "net_connections_total", "connections ever accepted")
        self._frames_sent = metrics.counter(
            "net_frames_sent_total", "PAGE frames enqueued to clients")
        self._frames_shed = metrics.counter(
            "net_frames_shed_total",
            "PAGE frames dropped because a client's send queue was full")
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
        self.slot = 0
        self._connections: dict[int, _Connection] = {}
        self._next_conn_key = 0
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._clock_task: Optional[asyncio.Task] = None
        self._finished = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._tcp_server is None:
            raise RuntimeError("server is not started")
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def connected_clients(self) -> int:
        return len(self._connections)

    async def start(self) -> None:
        """Bind the socket and start the slot clock."""
        if self._tcp_server is not None:
            raise RuntimeError("server already started")
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, self.settings.host, self.settings.port)
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
        # Let cancelled sender tasks and closed transports unwind.
        await asyncio.sleep(0)

    # -- telemetry -----------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The STATS frame payload: registry + raw server accounting."""
        self.adapter.sync()
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
        while max_slots is None or self.slot < max_slots:
            if self.slot >= due:
                due = control.poll(self.slot)
            page, kind = self.server.tick()
            if kind.carries_page:
                assert page is not None
                self._broadcast(encode_frame(Page(page, self.slot,
                                                  kind.value)))
            self.slot += 1
            target = epoch + self.slot * duration
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                self._lagging_slots.inc()
                # Yield so readers/senders run even when the clock lags.
                await asyncio.sleep(0)
        self._finished.set()

    def _broadcast(self, frame: bytes) -> None:
        """Fan one encoded frame out to every connection, never blocking."""
        drop_after = self.settings.drop_after
        dead: list[int] = []
        for key, conn in self._connections.items():
            try:
                conn.queue.put_nowait(frame)
            except asyncio.QueueFull:
                conn.shed_total += 1
                conn.shed_consecutive += 1
                self._frames_shed.inc()
                if conn.shed_consecutive >= drop_after:
                    dead.append(key)
            else:
                conn.shed_consecutive = 0
                self._frames_sent.inc()
        for key in dead:
            self._clients_dropped.inc()
            self._close_connection(key)

    # -- connections ---------------------------------------------------------
    def _close_connection(self, key: int) -> None:
        conn = self._connections.pop(key, None)
        if conn is None:
            return
        self._connected.dec()
        if conn.sender is not None:
            conn.sender.cancel()
        with contextlib.suppress(Exception):
            conn.writer.close()

    async def _sender(self, conn: _Connection) -> None:
        """Drain one connection's send queue onto its socket.

        Frames already queued are written in one batch per drain, so a
        burst of slots costs one syscall-ish flush, not one per frame.
        """
        writer = conn.writer
        queue = conn.queue
        try:
            while True:
                writer.write(await queue.get())
                while True:
                    try:
                        writer.write(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        key = self._next_conn_key
        self._next_conn_key += 1
        conn = _Connection(writer, self.settings.send_queue_frames)
        conn.sender = asyncio.create_task(self._sender(conn))
        self._connections[key] = conn
        self._connections_total.inc()
        self._connected.inc()
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
                    payload = encode_frame(Stats(self.stats_snapshot()))
                    with contextlib.suppress(asyncio.QueueFull):
                        conn.queue.put_nowait(payload)
                        self._stats_served.inc()
                # PAGE / STATS from a client are ignored (harmless).
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                FrameError):
            pass
        finally:
            self._close_connection(key)
