"""Tests for the pull-scheduler discipline zoo and push reprogramming.

Three layers:

- property tests: every discipline preserves the bounded queue's
  invariants (counters partition offers, depth bounded, dedup) under
  arbitrary offer/pop/clock sequences,
- behaviour tests: each discipline picks the page its priority rule says
  it should, with FIFO tie-breaks,
- parity: the FIFO discipline is bit-identical to the pre-refactor
  queue (``legacy_queue.py``: hard-coded head service, no scheduler
  hooks) through both engines' full slot traces.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SchedulerConfig
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs.columnar import ColumnarSink
from repro.obs.trace import SlotTracer
from repro.server.queue import BoundedRequestQueue, Offer
from repro.server.schedulers import (
    DISCIPLINES,
    MAX_AGING,
    FifoScheduler,
    LwfScheduler,
    PushReprogrammer,
    RxWScheduler,
    make_scheduler,
)
from tests.conftest import observe_offers, small_config
from tests.server.legacy_queue import LegacyQueue


class TestMakeScheduler:
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_names_round_trip(self, discipline):
        assert make_scheduler(discipline).name == discipline

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError, match="unknown discipline"):
            make_scheduler("lifo")

    def test_negative_aging_rejected(self):
        with pytest.raises(ValueError, match="aging"):
            RxWScheduler(aging=-0.5)

    @pytest.mark.parametrize("aging", [
        float("nan"), float("inf"), float("-inf"), 400.0,
        math.nextafter(MAX_AGING, math.inf)])
    def test_non_finite_or_overflowing_aging_rejected(self, aging):
        """nan compared false against every score (the run served FIFO
        under an ``rxw`` manifest) and 400 overflowed ``**`` mid-run."""
        with pytest.raises(ValueError, match="aging"):
            RxWScheduler(aging=aging)
        with pytest.raises(ValueError, match="aging"):
            SchedulerConfig(discipline="rxw", aging=aging)

    def test_largest_aging_survives_the_longest_wait(self):
        """At ``MAX_AGING`` a 2^53-slot wait with 10^4 waiters still
        scores a finite double: no ``OverflowError`` mid-run."""
        assert SchedulerConfig(aging=MAX_AGING).aging == MAX_AGING
        queue = BoundedRequestQueue(3, RxWScheduler(aging=MAX_AGING))
        queue.offer(1)
        queue.now = 5
        for _ in range(10_000):
            queue.offer(2)
        queue.now = 2 ** 53
        assert [queue.pop(), queue.pop()] == [2, 1]

    def test_types(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("rxw"), RxWScheduler)
        assert isinstance(make_scheduler("lwf"), LwfScheduler)


#: op = (kind, page): kind 0 -> offer(page), 1 -> pop, 2 -> advance clock.
_OPS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)),
                max_size=300)


class TestDisciplineInvariants:
    """The queue's contract holds whatever discipline reorders service."""

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS, capacity=st.integers(min_value=1, max_value=5))
    def test_invariants_under_arbitrary_traffic(self, discipline, ops,
                                                capacity):
        queue = BoundedRequestQueue(
            capacity, make_scheduler(discipline, track_temperature=True))
        seen: list[tuple[int, Offer]] = []
        observe_offers(queue, lambda page, outcome:
                       seen.append((page, outcome)))
        offered = popped = 0
        for kind, page in ops:
            if kind == 2:
                queue.now += 1
                continue
            if kind == 1:
                if len(queue):
                    before = len(queue)
                    served = queue.pop()
                    popped += 1
                    assert served not in queue
                    assert len(queue) == before - 1
                continue
            offered += 1
            was_queued = page in queue
            was_full = queue.is_full
            outcome = queue.offer(page)
            if was_queued:
                assert outcome is Offer.DUPLICATE
            elif was_full:
                assert outcome is Offer.DROPPED
            else:
                assert outcome is Offer.ENQUEUED
                assert page in queue
            # Depth never exceeds capacity.
            assert len(queue) <= capacity

        # Counters partition the offers.
        assert queue.offers == offered
        assert (queue.enqueued + queue.duplicates + queue.dropped
                == offered)
        # Service accounting: can't serve what never entered.
        assert queue.served == popped
        assert queue.served <= queue.enqueued
        assert len(queue) == queue.enqueued - queue.served
        # Scheduler decision counters mirror the queue's accounting.
        assert queue.scheduler.pops == popped
        assert 0 <= queue.scheduler.reordered <= queue.scheduler.pops
        if discipline == "fifo":
            assert queue.scheduler.reordered == 0
        # Temperature saw every offer, of any outcome.
        assert sum(queue.scheduler.temperature.values()) == offered
        # The observer saw every outcome, in order.
        assert len(seen) == offered
        assert ([outcome for _, outcome in seen].count(Offer.ENQUEUED)
                == queue.enqueued)

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    @settings(max_examples=30, deadline=None)
    @given(ops=_OPS, capacity=st.integers(min_value=1, max_value=5))
    def test_peek_agrees_with_pop(self, discipline, ops, capacity):
        queue = BoundedRequestQueue(capacity, make_scheduler(discipline))
        for kind, page in ops:
            if kind == 2:
                queue.now += 1
            elif kind == 1 and len(queue):
                # Peeking is not observable: twice the same, then the pop.
                first = queue.peek()
                assert queue.peek() == first
                assert queue.pop() == first
            elif kind == 0:
                queue.offer(page)
        if not len(queue):
            assert queue.peek() is None

    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_reset_stats_clears_decisions_keeps_temperature(self,
                                                            discipline):
        queue = BoundedRequestQueue(
            3, make_scheduler(discipline, track_temperature=True))
        queue.offer(1)
        queue.offer(1)
        queue.pop()
        queue.reset_stats()
        assert queue.scheduler.pops == 0
        assert queue.scheduler.reordered == 0
        assert queue.scheduler.temperature == {1: 2}

    def test_temperature_off_by_default(self):
        queue = BoundedRequestQueue(3)
        queue.offer(1)
        assert queue.scheduler.temperature == {}


class TestRxW:
    def queue(self, aging=1.0):
        return BoundedRequestQueue(10, RxWScheduler(aging=aging))

    def test_more_waiters_win_at_equal_wait(self):
        queue = self.queue()
        queue.offer(1)
        queue.offer(2)
        queue.offer(2)   # duplicate: page 2 has two waiters
        assert queue.pop() == 2
        assert queue.scheduler.reordered == 1

    def test_longer_wait_wins_at_equal_waiters(self):
        queue = self.queue()
        queue.offer(1)
        queue.now += 5
        queue.offer(2)
        assert queue.pop() == 1

    def test_tie_breaks_in_fifo_order(self):
        queue = self.queue()
        queue.offer(3)
        queue.offer(1)
        queue.offer(2)
        assert [queue.pop(), queue.pop(), queue.pop()] == [3, 1, 2]
        assert queue.scheduler.reordered == 0

    def test_aging_zero_is_pure_waiter_count(self):
        queue = self.queue(aging=0.0)
        queue.offer(1)           # oldest, 1 waiter
        queue.now += 100
        queue.offer(2)
        queue.offer(2)           # 2 waiters, brand new
        assert queue.pop() == 2

    def test_large_aging_favours_the_starving_page(self):
        queue = self.queue(aging=3.0)
        queue.offer(1)           # old single request
        queue.now += 10
        for _ in range(4):       # popular page, much younger
            queue.offer(2)
        assert queue.pop() == 1

    def test_waiters_cleared_on_service(self):
        queue = self.queue()
        queue.offer(1)
        queue.offer(1)
        assert queue.scheduler.waiters(1) == 2
        queue.pop()
        assert queue.scheduler.waiters(1) == 0
        # Re-request starts fresh, no stale priority.
        queue.offer(1)
        assert queue.scheduler.waiters(1) == 1


class TestLwf:
    def queue(self):
        return BoundedRequestQueue(10, LwfScheduler())

    def test_accumulated_wait_beats_single_old_request(self):
        queue = self.queue()
        queue.offer(1)               # one request at t=0
        queue.now += 4
        queue.offer(2)               # three requests at t=4
        queue.offer(2)
        queue.offer(2)
        queue.now += 4
        # t=8: page 1 waited 1*9=9 (with +1), page 2 waited 3*5=15.
        assert queue.scheduler.total_wait(1, queue.now) == pytest.approx(9.0)
        assert queue.scheduler.total_wait(2, queue.now) == pytest.approx(15.0)
        assert queue.pop() == 2

    def test_single_requests_reduce_to_fifo(self):
        queue = self.queue()
        queue.offer(5)
        queue.now += 1
        queue.offer(3)
        queue.now += 1
        queue.offer(7)
        assert [queue.pop(), queue.pop(), queue.pop()] == [5, 3, 7]
        assert queue.scheduler.reordered == 0

    def test_total_wait_zero_when_not_queued(self):
        assert LwfScheduler().total_wait(9, 100) == 0.0


class TestPushReprogrammer:
    def reprogrammer(self, **overrides):
        kwargs = dict(db_size=20, disk_sizes=(4, 6, 10), rel_freqs=(3, 2, 1),
                      interval=100, min_requests=5)
        kwargs.update(overrides)
        return PushReprogrammer(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0}, {"min_requests": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            self.reprogrammer(**kwargs)

    def test_ranking_hot_first_then_cold_in_id_order(self):
        reprogrammer = self.reprogrammer()
        ranking = reprogrammer.ranking({7: 3, 2: 9, 5: 3})
        assert ranking[:3] == [2, 5, 7]      # demand desc, id tie-break
        assert ranking[3:] == [p for p in range(20) if p not in (2, 5, 7)]
        assert sorted(ranking) == list(range(20))

    def test_below_min_requests_is_no_signal(self):
        reprogrammer = self.reprogrammer(min_requests=10)
        scheduler = FifoScheduler(track_temperature=True)
        for page in range(9):
            scheduler.on_enqueued(page, 0)
        assert reprogrammer.maybe_reprogram(100, scheduler) is None
        assert reprogrammer.reprograms == 0

    def test_rebuild_moves_hot_page_to_fast_disk(self):
        reprogrammer = self.reprogrammer()
        scheduler = FifoScheduler(track_temperature=True)
        # Page 19 (slowest disk in the default aggregate ranking) becomes
        # the hottest observed page.
        for _ in range(50):
            scheduler.on_enqueued(19, 0)
            scheduler.on_served(19, 0)
        schedule = reprogrammer.maybe_reprogram(100, scheduler)
        assert schedule is not None
        frequencies = schedule.frequencies()
        # Hot page now broadcasts as often as the fastest disk spins.
        assert frequencies[19] == max(frequencies.values())
        assert reprogrammer.reprograms == 1
        assert reprogrammer.trace == [(100, 50)]

    def test_demand_window_is_differenced(self):
        reprogrammer = self.reprogrammer(min_requests=5)
        scheduler = FifoScheduler(track_temperature=True)
        for _ in range(6):
            scheduler.on_enqueued(3, 0)
            scheduler.on_served(3, 0)
        assert reprogrammer.maybe_reprogram(100, scheduler) is not None
        # No *new* demand since: the cumulative total must not re-trigger.
        assert reprogrammer.maybe_reprogram(200, scheduler) is None


def _slot_trace(engine_cls, config, legacy: bool):
    from repro.core.build import build_system

    state = build_system(config)
    if legacy:
        state.server.queue = LegacyQueue(config.server.queue_size)
    sink = ColumnarSink(table="slot")
    engine_cls(config, state=state, tracer=SlotTracer(sink)).run()
    return sink.array().tolist()  # the rows, as comparable tuples


@pytest.mark.parametrize("engine_cls", [FastEngine, ReferenceEngine])
def test_fifo_discipline_bit_identical_to_legacy_queue(engine_cls):
    """The scheduler refactor must not move a single slot: a full run's
    trace through the FIFO discipline equals the same run through a
    replica of the pre-refactor queue, for both engines."""
    config = small_config(client__think_time_ratio=40,
                          run__measure_accesses=400, run__seed=11)
    refactored = _slot_trace(engine_cls, config, legacy=False)
    legacy = _slot_trace(engine_cls, config, legacy=True)
    assert refactored == legacy


def test_fifo_discipline_config_is_the_default():
    config = small_config()
    assert config.scheduler == SchedulerConfig()
    assert config.scheduler.discipline == "fifo"


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_disciplines_run_through_both_engines(discipline):
    """Every discipline completes a small run on both engines and the
    queue snapshot carries its name."""
    config = small_config(client__think_time_ratio=40,
                          run__measure_accesses=150,
                          scheduler__discipline=discipline)
    for engine_cls in (FastEngine, ReferenceEngine):
        from repro.core.build import build_system

        state = build_system(config)
        result = engine_cls(config, state=state).run()
        assert result.response_miss.count > 0
        snapshot = state.server.queue.snapshot()
        assert snapshot["scheduler"]["discipline"] == discipline
