"""The asyncio broadcast server: slot clock, fan-out, slow consumers."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.net.protocol import (
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
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
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=500), registry=registry)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(writer, StatsRequest())
            await writer.drain()
            while True:
                frame = await read_frame(reader)
                if isinstance(frame, Stats):
                    break
            await server.stop()
            writer.close()
            return frame.payload

        payload = run(scenario())
        assert payload["connected_clients"] == 1
        assert "server" in payload and "queue" in payload["server"]
        metrics = payload["metrics"]
        assert metrics["net_connections_total"]["value"] == 1
        # The sim-side adapter instruments are present in the same
        # snapshot (shared export path).
        assert "server_slots_push_total" in metrics


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
            bad_reader, bad_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            write_frame(bad_writer, Hello(1))
            await good_writer.drain()
            await bad_writer.drain()
            while {c.client_id for c in server._connections.values()} != {
                    0, 1}:  # both HELLOs processed
                await asyncio.sleep(0.001)
            # Simulate a wedged consumer: stall the server-side sender so
            # its bounded queue stops draining (the OS socket buffers
            # would otherwise absorb far more than this test's frames).
            for conn in server._connections.values():
                if conn.client_id == 1:
                    conn.sender.cancel()
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
