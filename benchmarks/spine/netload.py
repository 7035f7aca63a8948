"""The ``net_fanout`` load: one ``NetServer`` and its whole audience on
one event loop.

The slot clock is the only load driver: with a slot duration no host
can keep it ticks flat out, yielding to the loop once per slot, and the
audience size is an input like ``db_size``.  *Listeners* only count
bytes (the read side of fan-out at its cheapest); *requesters* decode
every PAGE frame and send one seeded-Zipf REQUEST per
``request_every`` frames received, so the backchannel's write side runs
beside it.  Everything crosses the host's loopback interface inside one
thread; no link rate or wire latency is measured or claimed.

The clock starts with ``server.start()``, before anyone is connected,
so — as ``bench_net.py`` does — the measured window opens at the first
slot after the last client registered.  A listener decodes frames only
until it has seen that slot, then counts raw bytes.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional

import numpy as np

from benchmarks.spine.spans import (
    SpanRecorder,
    install_shims,
    uninstall_shims,
)
from repro.core.config import SystemConfig
from repro.net.protocol import FrameDecoder, Page, Request, encode_frame
from repro.net.server import NetServer, NetServerSettings
from repro.obs.metrics import MetricsRegistry
from repro.workload.zipf import ZipfSampler

__all__ = ["FRAME_BYTES", "connect_audience", "disconnect", "fanout_pass"]

#: Every PAGE frame has the same size on the wire.
FRAME_BYTES = len(encode_frame(Page(0, 0, "push")))
#: How long the tail of the frame stream may take to cross the loopback
#: after the clock stopped before the pass counts as stalled.
_DRAIN_TIMEOUT_S = 5.0


class _Audience:
    """Shared state of one pass's clients."""

    def __init__(self, listeners: int, requesters: int):
        self.size = listeners + requesters
        #: First slot of the measured window (None until all connected).
        self.window_slot: Optional[int] = None
        #: Bytes each client received over its whole connection.
        self.total_bytes = [0] * self.size
        #: Listeners: bytes inside the window.
        self.window_bytes = [0] * listeners
        #: Requesters: PAGE frames inside the window, REQUESTs sent.
        self.window_frames = [0] * requesters
        self.requests_sent = 0
        self.tasks: list[asyncio.Task] = []
        self.writers: list[asyncio.StreamWriter] = []


async def _listen(reader: asyncio.StreamReader, audience: _Audience,
                  index: int) -> None:
    decoder: Optional[FrameDecoder] = FrameDecoder()
    while True:
        data = await reader.read(1 << 16)
        if not data:
            return
        audience.total_bytes[index] += len(data)
        if decoder is None:
            audience.window_bytes[index] += len(data)
            continue
        frames = decoder.feed(data)
        start = audience.window_slot
        if start is None:
            continue
        inside = sum(1 for f in frames if f.slot >= start)
        if inside:
            audience.window_bytes[index] += (
                inside * FRAME_BYTES + decoder.pending_bytes)
            decoder = None


async def _request(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter, audience: _Audience,
                   index: int, slot: int, sampler: ZipfSampler,
                   request_every: int) -> None:
    decoder = FrameDecoder()
    owed = 0
    while True:
        data = await reader.read(1 << 16)
        if not data:
            return
        audience.total_bytes[index] += len(data)
        start = audience.window_slot
        if start is None:
            decoder.feed(data)
            continue
        inside = sum(1 for f in decoder.feed(data) if f.slot >= start)
        audience.window_frames[slot] += inside
        owed += inside
        while owed >= request_every:
            owed -= request_every
            writer.write(encode_frame(Request(sampler.sample_one())))
            audience.requests_sent += 1


async def connect_audience(server: NetServer, seed: int, listeners: int,
                           requesters: int, request_every: int,
                           ) -> _Audience:
    """Connect every client and wait until the server registered all."""
    audience = _Audience(listeners, requesters)
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(requesters)]
    host, port = server.settings.host, server.port
    for index in range(audience.size):
        reader, writer = await asyncio.open_connection(host, port)
        audience.writers.append(writer)
        if index < listeners:
            job = _listen(reader, audience, index)
        else:
            slot = index - listeners
            sampler = ZipfSampler(server.state.vc_probabilities, rngs[slot])
            job = _request(reader, writer, audience, index, slot, sampler,
                           request_every)
        audience.tasks.append(asyncio.create_task(job))
    while server.connected_clients < audience.size:
        await asyncio.sleep(0)
    return audience


async def disconnect(server: NetServer, audience: _Audience) -> None:
    """Stop the server and close every client of ``audience``."""
    await server.stop()
    for writer in audience.writers:
        writer.close()
    for task in audience.tasks:
        task.cancel()
    await asyncio.gather(*audience.tasks, return_exceptions=True)


async def fanout_pass(config: SystemConfig, *, slots: int, listeners: int,
                      requesters: int, request_every: int,
                      slot_duration: float,
                      recorder: Optional[SpanRecorder] = None,
                      ) -> dict[str, Any]:
    """Serve ``slots`` slots to the audience; return what was observed.

    With a ``recorder`` the server's state machine is shimmed for the
    length of the measured window and the window is its root span.
    """
    registry = MetricsRegistry()
    server = NetServer(
        config, NetServerSettings(slot_duration=slot_duration,
                                  max_slots=slots),
        registry=registry)
    await server.start()
    audience = await connect_audience(
        server, config.run.seed, listeners, requesters, request_every)
    installed: list = []
    try:
        if server.slot >= slots:
            raise RuntimeError(
                f"the clock ran its {slots} slots before the audience of "
                f"{audience.size} had connected")
        before = registry.snapshot()
        audience.window_slot = server.slot + 1
        cpu_started = time.process_time()
        started = time.perf_counter()
        if recorder is not None:
            installed = install_shims(recorder, server.state)
            with recorder.root("net.serve"):
                stalled = await _serve_window(server, registry, audience)
        else:
            stalled = await _serve_window(server, registry, audience)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        after = registry.snapshot()
        queue = server.server.queue
        offers = queue.offers
    finally:
        uninstall_shims(installed)
        await disconnect(server, audience)

    def moved(name: str) -> int:
        return int(after[name]["value"] - before[name]["value"])

    shed = int(after["net_frames_shed_total"]["value"])
    received = int(after["net_requests_received_total"]["value"])
    frames = set(audience.window_frames)
    expected = frames.pop() if len(frames) == 1 else -1
    failures = _delivery_failures(
        audience, expected, stalled=stalled, shed=shed,
        dropped=int(after["net_clients_dropped_total"]["value"]),
        enqueued=int(after["net_frames_sent_total"]["value"]),
        received=received, offers=offers)
    delivered = sum(audience.window_bytes) // FRAME_BYTES + sum(
        audience.window_frames)
    attempted = max(expected, 0) * audience.size + audience.requests_sent
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "slots": slots - audience.window_slot,
        "frames_delivered": delivered,
        "frames_sent": moved("net_frames_sent_total"),
        "shed": shed,
        "requests_sent": audience.requests_sent,
        "requests_received": received,
        "lagging_slots": moved("net_lagging_slots_total"),
        "queue": {"enqueued": queue.enqueued,
                  "duplicate": queue.duplicates,
                  "dropped": queue.dropped},
        "attempted": max(attempted, 1),
        "failed": (max(attempted - delivered - received, 1)
                   if failures else 0),
        "failures": failures,
    }


def _delivery_failures(audience: _Audience, expected: int, *, stalled: bool,
                       shed: int, dropped: int, enqueued: int,
                       received: int, offers: int) -> list[str]:
    """What went wrong on the wire (empty when every byte is accounted
    for).  ``expected`` is the window's frame count as the requesters
    decoded it, -1 when they disagree."""
    failures: list[str] = []
    if stalled:
        failures.append("frame or request tail never arrived")
    if shed or dropped:
        failures.append(f"{shed} frames shed, {dropped} clients dropped")
    if expected < 0:
        failures.append(f"requesters disagree: {audience.window_frames}")
    if any(count != expected * FRAME_BYTES
           for count in audience.window_bytes):
        failures.append(
            "listeners' byte counts differ from the decoded frame count "
            "(unequal, or a partial trailing frame): "
            f"{sorted(set(audience.window_bytes))} vs "
            f"{expected * FRAME_BYTES}")
    if sum(audience.total_bytes) != enqueued * FRAME_BYTES:
        failures.append(
            f"{enqueued} frames enqueued but "
            f"{sum(audience.total_bytes) / FRAME_BYTES:.2f} delivered")
    if received != audience.requests_sent:
        failures.append(f"{audience.requests_sent} REQUESTs sent, "
                        f"{received} received")
    if offers != received:
        failures.append(f"{received} REQUESTs received, {offers} offered")
    return failures


async def _serve_window(server: NetServer, registry: MetricsRegistry,
                        audience: _Audience) -> bool:
    """Wait for the clock to finish and the tail to arrive.

    Returns True when the tail did not arrive in time (a stall).
    """
    await server.wait_finished()
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    while time.perf_counter() < deadline:
        snapshot = registry.snapshot()
        sent = snapshot["net_frames_sent_total"]["value"]
        received = snapshot["net_requests_received_total"]["value"]
        if (sum(audience.total_bytes) >= sent * FRAME_BYTES
                and received >= audience.requests_sent):
            return False
        await asyncio.sleep(0.0005)
    return True
