"""Unit tests for the shared server state machine."""

import numpy as np
import pytest

from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.broadcast.schedule import Schedule
from repro.server.broadcast_server import BroadcastServer, SlotKind


def fig1_schedule():
    return build_schedule(DiskAssignment((
        Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))


def make_server(pull_bw=0.5, queue_size=3, seed=0, schedule="fig1"):
    sched = fig1_schedule() if schedule == "fig1" else schedule
    return BroadcastServer(sched, queue_size, pull_bw,
                           np.random.default_rng(seed))


class TestConstruction:
    def test_pure_pull_requires_full_pull_bw(self):
        with pytest.raises(ValueError):
            BroadcastServer(None, 10, 0.5, np.random.default_rng(0))

    def test_pure_pull_without_schedule_allowed(self):
        server = BroadcastServer(None, 10, 1.0, np.random.default_rng(0))
        assert server.schedule is None


class TestPushOnly:
    def test_follows_schedule_in_order(self):
        server = make_server(pull_bw=0.0)
        pages = [server.tick()[0] for _ in range(12)]
        assert pages == [0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 2, 6]

    def test_schedule_wraps(self):
        server = make_server(pull_bw=0.0)
        first = [server.tick()[0] for _ in range(12)]
        second = [server.tick()[0] for _ in range(12)]
        assert first == second

    def test_requests_ignored_slots_still_push(self):
        server = make_server(pull_bw=0.0)
        server.request(6)
        page, kind = server.tick()
        assert kind is SlotKind.PUSH
        assert server.pending_requests == 1  # queued but never served

    def test_padding_slots_reported(self):
        schedule = build_schedule(DiskAssignment((
            Disk((0,), 2), Disk((1, 2, 3), 1))))
        server = BroadcastServer(schedule, 3, 0.0, np.random.default_rng(0))
        kinds = [server.tick()[1] for _ in range(len(schedule))]
        assert kinds.count(SlotKind.PADDING) == schedule.num_empty_slots


class TestPullInterleaving:
    def test_empty_queue_gives_slot_back_to_push(self):
        server = make_server(pull_bw=1.0)
        page, kind = server.tick()
        assert kind is SlotKind.PUSH
        assert page == 0

    def test_queued_request_served_on_pull_slot(self):
        server = make_server(pull_bw=1.0)
        server.request(6)
        page, kind = server.tick()
        assert (page, kind) == (6, SlotKind.PULL)

    def test_pull_slot_does_not_advance_program(self):
        server = make_server(pull_bw=1.0)
        server.request(6)
        server.tick()                      # pull slot
        page, kind = server.tick()         # program resumes where it was
        assert (page, kind) == (0, SlotKind.PUSH)

    def test_pure_pull_idles_when_queue_empty(self):
        server = BroadcastServer(None, 5, 1.0, np.random.default_rng(0))
        page, kind = server.tick()
        assert (page, kind) == (None, SlotKind.IDLE)

    def test_pull_share_tracks_pull_bw(self):
        server = make_server(pull_bw=0.3, queue_size=1000, seed=11)
        # Keep the queue non-empty throughout.
        for page in range(1000):
            server.queue.offer(page)
        kinds = [server.tick()[1] for _ in range(2000)]
        share = kinds.count(SlotKind.PULL) / len(kinds)
        assert share == pytest.approx(0.3, abs=0.03)

    def test_slot_counts_accumulate(self):
        server = make_server(pull_bw=1.0)
        server.request(4)
        server.tick()
        server.tick()
        assert server.slot_counts[SlotKind.PULL] == 1
        assert server.slot_counts[SlotKind.PUSH] == 1

    def test_reset_stats(self):
        server = make_server(pull_bw=0.0)
        server.tick()
        server.reset_stats()
        assert all(count == 0 for count in server.slot_counts.values())

    def test_slot_counts_keep_their_mapping_shape(self):
        # Counted in plain ints internally; readers still get one entry
        # per SlotKind, in declaration order, summing to the ticks.
        schedule = Schedule((0, None, 1))
        server = make_server(pull_bw=0.5, schedule=schedule)
        for page in range(40):
            server.request(page % 3)
            server.tick()
        assert list(server.slot_counts) == list(SlotKind)
        assert sum(server.slot_counts.values()) == 40
        assert server.slot_counts[SlotKind.IDLE] == 0
        assert all(server.slot_counts[kind] > 0 for kind in (
            SlotKind.PUSH, SlotKind.PULL, SlotKind.PADDING))
        assert server.stats_snapshot()["slots"] == {
            kind.value: count for kind, count in server.slot_counts.items()}

    def test_tick_hands_the_loop_plain_python_values(self):
        server = make_server(pull_bw=0.5, schedule=Schedule((0, None, 1)))
        for page in range(60):
            server.request(page % 5)
            page, kind = server.tick()
            assert page is None or type(page) is int
            assert type(kind) is SlotKind
            assert type(server.schedule_pos) is int
