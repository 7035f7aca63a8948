"""The asyncio broadcast server: slot clock, fan-out, slow consumers."""

from __future__ import annotations

import asyncio
import logging
import socket

import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.net.protocol import (
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.server import NetServer, NetServerSettings
from repro.obs.metrics import MetricsRegistry

CONFIG = SystemConfig(algorithm=Algorithm.IPP)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _collect_pages(reader, count):
    pages = []
    while len(pages) < count:
        frame = await read_frame(reader)
        if isinstance(frame, Page):
            pages.append(frame)
    return pages


async def _read_to_eof(reader):
    frames = []
    while True:
        try:
            frames.append(await read_frame(reader))
        except asyncio.IncompleteReadError:
            return frames


async def _next_stats(reader):
    while True:
        frame = await read_frame(reader)
        if isinstance(frame, Stats):
            return frame


async def _open_wedged(port):
    """Connect a client that really stops reading: a small receive
    buffer, and its transport's reading paused (it can still write)."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
    reader, writer = await asyncio.open_connection(sock=sock)
    writer.transport.pause_reading()
    return reader, writer


async def _registered(server, client_id):
    """The server-side connection that sent HELLO ``client_id``."""
    while True:
        for conn in server._connections.values():
            if conn.client_id == client_id:
                return conn
        await asyncio.sleep(0.001)


def _shrink_send_buffer(conn):
    """Leave the kernel little room, so unsent bytes stay in the
    transport where the send bound sees them."""
    conn.writer.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 1024)


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"slot_duration": 0.0},
        {"send_queue_frames": 0},
        {"drop_after": 0},
        {"max_slots": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetServerSettings(**kwargs)


class TestSlotClock:
    def test_emits_monotonic_slots_and_finishes(self):
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=120))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            pages = await _collect_pages(reader, 30)
            await server.wait_finished()
            stats = server.stats_snapshot()
            await server.stop()
            writer.close()
            return pages, stats

        pages, stats = run(scenario())
        slots = [p.slot for p in pages]
        assert slots == sorted(slots)
        assert all(p.kind in ("push", "pull") for p in pages)
        assert stats["slot"] == 120
        # The wrapped state machine did the ticking: its slot-kind
        # counters account for every emitted slot.
        assert sum(stats["server"]["slots"].values()) == 120

    def test_wraps_state_machine_unchanged(self):
        """The net server drives repro.server's BroadcastServer as-is."""
        from repro.core.build import build_system
        from repro.server.broadcast_server import BroadcastServer

        server = NetServer(CONFIG, NetServerSettings(max_slots=1))
        assert isinstance(server.server, BroadcastServer)
        assert server.server is server.state.server
        reference = build_system(CONFIG)
        assert type(server.state) is type(reference)


class TestBackchannel:
    def test_requests_reach_the_bounded_queue(self):
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=300))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(writer, Hello(0))
            for page in (900, 901, 901):  # one duplicate
                write_frame(writer, Request(page))
            await writer.drain()
            await asyncio.sleep(0.05)
            queue = server.server.queue
            counts = (queue.enqueued, queue.duplicates)
            await server.stop()
            writer.close()
            return counts

        enqueued, duplicates = run(scenario())
        assert enqueued == 2
        assert duplicates == 1

    def test_stats_frame_round_trip(self):
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=500))
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(writer, StatsRequest())
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if isinstance(frame, Stats):
                    break
            # No await between the two: the clock cannot tick in between.
            local, own = server.stats_snapshot(), server.server.stats_snapshot()
            await server.stop()
            writer.close()
            return frame.payload, local, own

        payload, local, own = run(scenario())
        assert payload["connected_clients"] == 1
        assert set(payload["server"]) == {"schedule_pos", "slots", "queue"}
        # The server block is the wrapped server's own accounting, and
        # the registry holds only the counters NetServer increments.
        assert local["server"] == own
        assert sorted(payload["metrics"]) == sorted(local["metrics"]) == [
            "net_clients_dropped_total", "net_connections_total",
            "net_frames_sent_total", "net_frames_shed_total",
            "net_lagging_slots_total", "net_requests_received_total",
            "net_stats_requests_total"]
        assert payload["metrics"]["net_connections_total"]["value"] == 1


class TestReprogramming:
    def test_served_program_follows_backchannel_demand(self):
        """``scheduler.reprogram_interval`` is honoured on the wire: the
        clock polls the reprogrammer and the swap reaches every holder of
        the program, exactly as in the engines."""
        config = CONFIG.with_(scheduler__reprogram_interval=25,
                              scheduler__reprogram_min_requests=4)

        async def scenario():
            server = NetServer(config, NetServerSettings(
                slot_duration=0.001, max_slots=2000))
            original = server.server.schedule
            await server.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(writer, Hello(0))
            for page in range(990, 1000):  # cold pages: distinct demand
                write_frame(writer, Request(page))
            await writer.drain()
            reprogrammer = server.state.reprogrammer
            while not reprogrammer.reprograms:
                await asyncio.sleep(0.001)
            await server.stop()
            writer.close()
            return server, original

        server, original = run(scenario())
        state = server.state
        assert state.reprogrammer.reprograms >= 1
        assert all(slot % 25 == 0 for slot, _ in state.reprogrammer.trace)
        assert server.server.schedule is not original
        assert server.server.schedule is state.mc_threshold.schedule


class TestSlowConsumer:
    def test_non_reader_is_shed_then_dropped_without_stalling(self):
        """A client that stops reading loses frames (counted), then its
        connection; the slot clock and other clients never stall."""
        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=400,
                send_queue_frames=4, drop_after=8), registry=registry)
            await server.start()
            good_reader, good_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(good_writer, Hello(0))
            bad_reader, bad_writer = await _open_wedged(server.port)
            write_frame(bad_writer, Hello(1))
            await good_writer.drain()
            await bad_writer.drain()
            await _registered(server, 0)
            _shrink_send_buffer(await _registered(server, 1))
            # The good client keeps reading the whole time.
            pages = await _collect_pages(good_reader, 300)
            await server.wait_finished()
            snapshot = registry.snapshot()
            connected = server.connected_clients
            await server.stop()
            good_writer.close()
            bad_writer.close()
            return pages, snapshot, connected

        pages, snapshot, connected = run(scenario())
        # The reading client observed a monotone slot stream to the end.
        slots = [p.slot for p in pages]
        assert slots == sorted(slots)
        assert snapshot["net_frames_shed_total"]["value"] > 0
        assert snapshot["net_clients_dropped_total"]["value"] == 1
        assert connected == 1  # only the reading client survived

    def test_stats_reply_honours_the_send_bound(self):
        """A STATS request from a client over its send bound gets no
        reply, and the reply is not counted as served."""
        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=5000,
                send_queue_frames=4, drop_after=10**6), registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.transport.pause_reading()
            write_frame(writer, Hello(1))
            await writer.drain()
            conn = await _registered(server, 1)
            _shrink_send_buffer(conn)
            # A backlog (1.1 MB) far past the bound and past what the
            # kernel's buffers take: the connection stays over it.
            conn.transport.write(encode_frame(Page(0, 0, "push")) * 50_000)
            counters = registry.snapshot
            write_frame(writer, StatsRequest())
            write_frame(writer, Request(900))  # read after the STATS one
            await writer.drain()
            while counters()["net_requests_received_total"]["value"] < 1:
                await asyncio.sleep(0.001)
            served = counters()["net_stats_requests_total"]["value"]
            # Catch up, then ask again: the first STATS frame to arrive
            # must answer the second request, not the first.
            writer.transport.resume_reading()
            reply = asyncio.create_task(_next_stats(reader))
            while conn.transport.get_write_buffer_size():
                await asyncio.sleep(0.001)
            write_frame(writer, Request(901))
            write_frame(writer, StatsRequest())
            await writer.drain()
            payload = (await reply).payload
            await server.stop()
            writer.close()
            return served, payload

        served, payload = run(scenario())
        assert served == 0
        assert payload["metrics"]["net_requests_received_total"]["value"] == 2
        assert payload["metrics"]["net_stats_requests_total"]["value"] == 0


class TestLostClient:
    def test_vanished_client_is_reaped_without_writes(self, caplog):
        """A client that aborts mid-run is reaped; the clock still runs
        to the end and no frame goes to (or is counted for) it after."""
        caplog.set_level(logging.WARNING, logger="asyncio")

        async def scenario():
            registry = MetricsRegistry()
            # Slots long enough that the loss is seen before the next one.
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.025, max_slots=30), registry=registry)
            await server.start()
            kept_reader, kept_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            gone_reader, gone_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            while server.connected_clients < 2:
                await asyncio.sleep(0.001)
            kept = asyncio.create_task(_read_to_eof(kept_reader))
            gone = await _collect_pages(gone_reader, 3)
            gone_writer.transport.abort()
            await server.wait_finished()
            sent = registry.snapshot()["net_frames_sent_total"]["value"]
            connected = server.connected_clients
            await server.stop()
            frames = await kept
            kept_writer.close()
            return server.slot, sent, connected, len(frames), len(gone)

        slot, sent, connected, kept, gone = run(scenario())
        assert slot == 30
        assert connected == 1
        assert sent == kept + gone
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.WARNING]

    def test_closing_transport_is_neither_written_nor_counted(self, caplog):
        """Between a connection's loss and its reaping, broadcasts skip
        it: no write to the lost transport, no frame sent, none shed."""
        caplog.set_level(logging.WARNING, logger="asyncio")

        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=1), registry=registry)
            await server.start()
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            while server.connected_clients < 1:
                await asyncio.sleep(0.001)
            await server.wait_finished()
            (conn,) = server._connections.values()
            before = registry.snapshot()
            conn.transport.abort()
            # No await in between: the reader has not seen the loss yet.
            for slot in range(8):
                server._broadcast(encode_frame(Page(0, slot, "push")))
            after = registry.snapshot()
            await server.stop()
            writer.close()
            return before, after, conn.shed_total

        before, after, shed = run(scenario())
        assert after == before
        assert shed == 0
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.WARNING]
