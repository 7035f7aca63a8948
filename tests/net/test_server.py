"""The asyncio broadcast server: slot clock, fan-out, slow consumers."""

from __future__ import annotations

import asyncio
import logging
import socket
import struct

import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.net.server import _LATE_BATCH_FRAMES, NetServer, NetServerSettings
from repro.obs.metrics import MetricsRegistry

CONFIG = SystemConfig(algorithm=Algorithm.IPP)
#: Every PAGE frame's size on the wire.
FRAME_BYTES = len(encode_frame(Page(0, 0, "push")))
#: A slot duration no host keeps: the clock is late at every slot.
SATURATED = 1e-6


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


def _record_page_slots(server):
    """Shadow the state machine's tick: the list of slots that carried a
    page, in the order they were ticked."""
    carried = []
    tick = server.server.tick

    def recording():
        page, kind = tick()
        if kind.carries_page:
            carried.append(server.slot)
        return page, kind

    server.server.tick = recording
    return carried


class _Registrations(dict):
    """A connection table that notes the slot each connection joined at
    (the next slot the clock ticks), in the order they joined."""

    def __init__(self, server):
        super().__init__()
        self.server = server
        self.slots: list[int] = []

    def __setitem__(self, key, conn):
        self.slots.append(self.server.slot)
        super().__setitem__(key, conn)


def _record_registrations(server):
    table = _Registrations(server)
    server._connections = table
    return table.slots


class _Tally:
    """One client's view of the wire: every frame decoded, every byte."""

    def __init__(self):
        self.frames = []
        self.bytes = 0

    @property
    def page_slots(self):
        return [f.slot for f in self.frames if isinstance(f, Page)]


async def _tally(reader, tally):
    decoder = FrameDecoder()
    while data := await reader.read(1 << 16):
        tally.bytes += len(data)
        tally.frames.extend(decoder.feed(data))


async def _until(predicate, seconds=5.0):
    """Poll ``predicate`` until it holds or ``seconds`` pass."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + seconds
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.001)


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

    def test_saturated_clock_ticks_one_slot_per_loop_turn(self):
        """A client connecting to a clock late at every slot registers
        within a few slots: a loopback connect takes four loop turns,
        and the clock ticks once a turn.  The spine's 50 clients connect
        in about 200 of its 1,500 slots; a clock ticking k slots a turn
        would need about 200 * k."""
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=SATURATED, max_slots=100_000))
            joined = _record_registrations(server)
            await server.start()
            asked, writers = [], []
            for _ in range(10):
                asked.append(server.slot)
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writers.append(writer)
                while len(joined) < len(asked):
                    await asyncio.sleep(0)
            await server.stop()
            for writer in writers:
                writer.close()
            return asked, joined

        asked, joined = run(scenario())
        assert all(0 < j - a <= 6 for a, j in zip(asked, joined))

    def test_bind_starts_no_clock(self):
        """A bound server accepts connections but ticks no slot until
        :meth:`NetServer.start`."""
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=SATURATED, max_slots=50))
            await server.bind()
            _, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            await _until(lambda: server.connected_clients == 1)
            idle = server.slot
            await server.start()
            await server.wait_finished()
            await server.stop()
            writer.close()
            return idle, server.slot

        assert run(scenario()) == (0, 50)


class TestLateSlotBatching:
    def test_saturated_clock_keeps_wire_order(self):
        """A clock late at every slot holds its frames and writes them in
        batches, yet each client decodes every page-carrying slot from
        the one it registered at, *s*, in order and none before *s* (the
        frames held then go to the clients already there), and its
        bytes are whole frames."""
        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=SATURATED, max_slots=1500), registry=registry)
            carried = _record_page_slots(server)
            joined = _record_registrations(server)
            batches = []
            broadcast = server._broadcast

            def recording(data, frames):
                batches.append(frames)
                broadcast(data, frames)

            server._broadcast = recording
            await server.start()
            tallies, tasks, writers = [], [], []
            for after_slot in (0, 600):
                while server.slot < after_slot:
                    await asyncio.sleep(0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                tally = _Tally()
                tallies.append(tally)
                tasks.append(asyncio.create_task(_tally(reader, tally)))
                writers.append(writer)
            await server.wait_finished()

            def sent():
                return registry.snapshot()["net_frames_sent_total"]["value"]

            await _until(lambda: sum(t.bytes for t in tallies)
                         >= sent() * FRAME_BYTES)
            snapshot = registry.snapshot()
            await server.stop()
            for writer in writers:
                writer.close()
            await asyncio.gather(*tasks)
            return carried, joined, batches, tallies, snapshot

        carried, joined, batches, tallies, snapshot = run(scenario())
        assert len(joined) == 2 and joined[1] >= 600
        for tally, slot in zip(tallies, joined):
            slots = tally.page_slots
            assert slots == [s for s in carried if s >= slot]
            assert tally.bytes == FRAME_BYTES * len(tally.frames)
        sent = snapshot["net_frames_sent_total"]["value"]
        assert sum(t.bytes for t in tallies) == FRAME_BYTES * sent
        assert snapshot["net_frames_shed_total"]["value"] == 0
        # The clock really was late, and wrote frames in batches.
        assert snapshot["net_lagging_slots_total"]["value"] > 0
        assert max(batches) > 1
        assert sum(batches) == len(carried)

    def test_on_time_clock_writes_each_slot_before_it_sleeps(self):
        """A clock that keeps its deadlines makes one ``_broadcast`` call
        of one frame per page-carrying slot, as an unbatched one does.
        A host stall longer than a slot makes some slot late; its frame
        is held and goes out with the next on-time slot's."""
        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.05, max_slots=12), registry=registry)
            carried = _record_page_slots(server)
            lagging = []
            counter = server._lagging_slots

            class Recording:
                def inc(self):
                    # Counted after the tick: the late slot is the last.
                    lagging.append(server.slot - 1)
                    counter.inc()

            server._lagging_slots = Recording()
            # Set by a tick, cleared once the clock's step yields: a
            # write that sees it set came before the clock slept.
            ticking = []
            loop = asyncio.get_running_loop()
            tick = server.server.tick

            def marking():
                ticking.append(True)
                loop.call_soon(ticking.clear)
                return tick()

            server.server.tick = marking
            calls = []
            broadcast = server._broadcast

            def recording(data, frames):
                calls.append((server.slot, frames, bool(ticking)))
                broadcast(data, frames)

            server._broadcast = recording
            await server.start()
            await server.wait_finished()
            counted = registry.snapshot()["net_lagging_slots_total"]["value"]
            await server.stop()
            return carried, calls, lagging, counted

        carried, calls, lagging, counted = run(scenario())
        assert len(lagging) == counted
        assert len(lagging) < 12 // 2, "most slots keep their deadline"
        # Each on-time slot's frame went out in the iteration that
        # ticked it, before the clock slept: alone, unless a late slot
        # before it held one.
        expected, held = [], 0
        for slot in range(12):
            held += slot in carried
            if slot not in lagging and held:
                expected.append((slot + 1, held, True))
                held = 0
        if held:
            expected.append((12, held, False))
        assert calls == expected

    def test_stats_reply_is_never_ahead_of_a_counted_slot(self):
        """Every PAGE frame for a slot a STATS reply counts reaches the
        client before that reply, though the clock holds frames."""
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=SATURATED, max_slots=3000))
            carried = _record_page_slots(server)
            joined = _record_registrations(server)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            tally = _Tally()
            task = asyncio.create_task(_tally(reader, tally))
            asked = 0
            while asked == 0 or not server._finished.is_set():
                write_frame(writer, StatsRequest())
                await writer.drain()
                asked += 1
                await asyncio.sleep(0.002)
            write_frame(writer, StatsRequest())  # counts all 3000 slots
            await writer.drain()
            # Every request answered, so none is left unread at stop().
            await _until(lambda: sum(isinstance(f, Stats)
                                     for f in tally.frames) > asked)
            await server.stop()
            writer.close()
            await task
            return carried, joined, tally.frames

        carried, joined, frames = run(scenario())
        (start,) = joined
        counted = []
        for index, frame in enumerate(frames):
            if not isinstance(frame, Stats):
                continue
            ahead = [f.slot for f in frames[:index] if isinstance(f, Page)]
            counted.append(frame.payload["slot"])
            assert ahead == [s for s in carried if start <= s < counted[-1]]
            # One client: the frames counted sent are the frames ahead.
            sent = frame.payload["metrics"]["net_frames_sent_total"]
            assert sent["value"] == len(ahead)
        assert len(counted) > 2 and counted[-1] == 3000

    def test_saturated_clock_fills_batches_to_the_cap(self):
        """A late clock writes at most ``_LATE_BATCH_FRAMES`` frames at
        once, and with one client and no STATS request to flush early,
        it reaches the cap."""
        async def scenario():
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=SATURATED, max_slots=1500))
            carried = _record_page_slots(server)
            batches = []
            broadcast = server._broadcast

            def recording(data, frames):
                batches.append(frames)
                broadcast(data, frames)

            server._broadcast = recording
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            tally = _Tally()
            task = asyncio.create_task(_tally(reader, tally))
            await server.wait_finished()
            await server.stop()
            writer.close()
            await task
            return carried, batches

        carried, batches = run(scenario())
        assert max(batches) == _LATE_BATCH_FRAMES
        assert sum(batches) == len(carried)


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


    def test_batched_write_sheds_every_frame_it_held(self):
        """A held batch that meets a connection over its send bound is
        shed whole: each of its frames counts in ``shed_total``, in
        ``net_frames_shed_total`` and toward ``drop_after``."""
        async def scenario():
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=1,
                send_queue_frames=4, drop_after=10), registry=registry)
            await server.start()
            _reader, writer = await _open_wedged(server.port)
            write_frame(writer, Hello(1))
            await writer.drain()
            conn = await _registered(server, 1)
            await server.wait_finished()
            _shrink_send_buffer(conn)
            conn.transport.write(encode_frame(Page(0, 0, "push")) * 50_000)
            before = registry.snapshot()
            frame = encode_frame(Page(0, 1, "push"))
            seen = []
            for _ in range(3):
                server._pending.extend([frame] * 4)
                server._flush()
                seen.append((conn.shed_total, conn.shed_consecutive,
                             server.connected_clients))
            after = registry.snapshot()
            await server.stop()
            writer.close()
            return seen, before, after

        seen, before, after = run(scenario())
        # 4, then 8 consecutive sheds; the third batch crosses 10.
        assert seen == [(4, 4, 1), (8, 8, 1), (12, 12, 0)]

        def moved(name):
            return after[name]["value"] - before[name]["value"]

        assert moved("net_frames_shed_total") == 12
        assert moved("net_frames_sent_total") == 0
        assert moved("net_clients_dropped_total") == 1


class TestMalformedFrame:
    @pytest.mark.parametrize("garbage", [
        struct.pack("!IB", 1, 0xEE),
        struct.pack("!I", MAX_FRAME_BYTES + 1),
    ], ids=["unknown-type", "oversized-length"])
    def test_costs_only_its_own_connection(self, garbage, caplog):
        """A client that sends a malformed frame loses its connection; the
        clock runs to the end, the other client gets every frame, and no
        server task outlives ``stop()``."""
        caplog.set_level(logging.WARNING, logger="asyncio")

        async def scenario():
            running = asyncio.all_tasks()
            registry = MetricsRegistry()
            server = NetServer(CONFIG, NetServerSettings(
                slot_duration=0.001, max_slots=300), registry=registry)
            carried = _record_page_slots(server)
            joined = _record_registrations(server)
            await server.start()
            good_reader, good_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            good = _Tally()
            good_task = asyncio.create_task(_tally(good_reader, good))
            _bad_reader, bad_writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            while server.connected_clients < 2:
                await asyncio.sleep(0.001)
            bad_writer.write(garbage)
            await bad_writer.drain()
            await _until(lambda: server.connected_clients < 2)
            connected = server.connected_clients
            await server.wait_finished()
            expected = [s for s in carried if s >= joined[0]]
            await _until(lambda: len(good.frames) >= len(expected))
            slot = server.slot
            await server.stop()
            leftover = asyncio.all_tasks() - running - {good_task}
            good_writer.close()
            bad_writer.close()
            await good_task
            return connected, slot, expected, good.page_slots, leftover

        connected, slot, expected, received, leftover = run(scenario())
        assert connected == 1
        assert slot == 300
        assert received == expected
        assert not leftover
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.WARNING]


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
        logged = [r for r in caplog.records
                  if r.name == "asyncio" and r.levelno >= logging.WARNING]
        assert not logged, [(r.name, r.levelname, r.getMessage())
                            for r in logged]

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
                server._broadcast(encode_frame(Page(0, slot, "push")), 1)
            after = registry.snapshot()
            await server.stop()
            writer.close()
            return before, after, conn.shed_total

        before, after, shed = run(scenario())
        assert after == before
        assert shed == 0
        assert not [r for r in caplog.records
                    if r.name == "asyncio" and r.levelno >= logging.WARNING]
