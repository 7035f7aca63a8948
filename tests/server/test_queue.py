"""Unit and property tests for the bounded request queue."""

import pytest
from hypothesis import given, strategies as st

from repro.obs.attach import Attachment
from repro.server.queue import BoundedRequestQueue, Offer
from repro.server.schedulers import FifoScheduler, make_scheduler
from tests.conftest import observe_offers


class TestOfferSemantics:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BoundedRequestQueue(0)

    def test_enqueue_until_full_then_drop(self):
        queue = BoundedRequestQueue(2)
        assert queue.offer(1) is Offer.ENQUEUED
        assert queue.offer(2) is Offer.ENQUEUED
        assert queue.offer(3) is Offer.DROPPED
        assert len(queue) == 2

    def test_duplicate_detected(self):
        queue = BoundedRequestQueue(5)
        queue.offer(7)
        assert queue.offer(7) is Offer.DUPLICATE
        assert len(queue) == 1

    def test_duplicate_checked_before_capacity(self):
        """A re-request of a queued page is a DUPLICATE even when full —
        the paper's server 'will also ignore a new request for a page that
        is already in the request queue'."""
        queue = BoundedRequestQueue(1)
        queue.offer(1)
        assert queue.offer(1) is Offer.DUPLICATE

    def test_fifo_pop_order(self):
        queue = BoundedRequestQueue(10)
        for page in (5, 3, 9):
            queue.offer(page)
        assert [queue.pop() for _ in range(3)] == [5, 3, 9]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedRequestQueue(2).pop()

    def test_page_can_be_requeued_after_pop(self):
        queue = BoundedRequestQueue(2)
        queue.offer(4)
        queue.pop()
        assert queue.offer(4) is Offer.ENQUEUED

    def test_contains(self):
        queue = BoundedRequestQueue(2)
        queue.offer(8)
        assert 8 in queue and 9 not in queue


class TestOfferHooks:
    """``offer`` skips the discipline's hooks only when they are no-ops:
    plain FIFO without temperature tracking."""

    class Spy(FifoScheduler):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.seen = []

        def on_dropped(self, page, now):
            self.seen.append((page, now))

    def test_plain_fifo_has_nothing_to_call(self):
        assert BoundedRequestQueue(2)._offer_hooks is None
        assert BoundedRequestQueue(2, FifoScheduler())._offer_hooks is None

    def test_temperature_tracking_is_still_fed(self):
        scheduler = FifoScheduler(track_temperature=True)
        queue = BoundedRequestQueue(1, scheduler)
        for page in (4, 4, 9):  # enqueued, duplicate, dropped
            queue.offer(page)
        assert scheduler.temperature == {4: 2, 9: 1}

    @pytest.mark.parametrize("discipline", ["rxw", "lwf"])
    def test_stateful_disciplines_observe(self, discipline):
        scheduler = make_scheduler(discipline)
        assert BoundedRequestQueue(2, scheduler)._offer_hooks is scheduler

    def test_a_fifo_subclass_with_a_hook_is_called(self):
        spy = self.Spy()
        queue = BoundedRequestQueue(1, spy)
        queue.now = 12
        queue.offer(1)
        queue.offer(2)
        assert spy.seen == [(2, 12)]


class TestAccounting:
    def test_counters(self):
        queue = BoundedRequestQueue(2)
        queue.offer(1)
        queue.offer(1)
        queue.offer(2)
        queue.offer(3)
        queue.pop()
        assert queue.enqueued == 2
        assert queue.duplicates == 1
        assert queue.dropped == 1
        assert queue.served == 1
        assert queue.offers == 4

    def test_drop_rate_over_distinct_offers(self):
        """Duplicates are excluded from both sides of the ratio: a dropped
        request among one enqueued and any number of duplicates is a 50%
        drop rate, however often the queued page is re-requested."""
        queue = BoundedRequestQueue(1)
        queue.offer(1)   # enqueued
        queue.offer(1)   # duplicate
        queue.offer(2)   # dropped
        assert queue.distinct_offers == 2
        assert queue.drop_rate == pytest.approx(1 / 2)
        # More duplicates must not dilute the rate.
        queue.offer(1)
        queue.offer(1)
        assert queue.drop_rate == pytest.approx(1 / 2)

    def test_drop_rate_empty(self):
        assert BoundedRequestQueue(1).drop_rate == 0.0

    def test_reset_stats_keeps_contents(self):
        queue = BoundedRequestQueue(3)
        queue.offer(1)
        queue.offer(2)
        queue.reset_stats()
        assert queue.enqueued == queue.dropped == queue.served == 0
        assert len(queue) == 2
        assert queue.pop() == 1


class TestInvariants:
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)),
                    max_size=300),
           st.integers(min_value=1, max_value=5))
    def test_queue_invariants_under_arbitrary_traffic(self, ops, capacity):
        """Length never exceeds capacity; the dedup set mirrors the FIFO;
        counters partition the offers."""
        queue = BoundedRequestQueue(capacity)
        for is_pop, page in ops:
            if is_pop and len(queue):
                queue.pop()
            else:
                queue.offer(page)
            assert len(queue) <= capacity
            assert len(queue._queued) == len(queue._fifo)
            assert set(queue._fifo) == queue._queued
        assert queue.offers == queue.enqueued + queue.duplicates + queue.dropped
        assert queue.served + len(queue) == queue.enqueued


class TestObserver:
    """Observing ``offer`` through an :class:`~repro.obs.attach.Attachment`.

    An observer shadows ``offer`` with an instance attribute; the request
    tracer and the profiler both depend on attach/detach being
    deterministic and fully reversible.
    """

    def test_observer_sees_every_outcome(self):
        queue = BoundedRequestQueue(1)
        seen = []
        observe_offers(queue, lambda page, outcome: seen.append(
            (page, outcome)))
        queue.offer(1)
        queue.offer(1)
        queue.offer(2)
        assert seen == [(1, Offer.ENQUEUED), (1, Offer.DUPLICATE),
                        (2, Offer.DROPPED)]

    def test_attach_twice_raises_and_keeps_first(self):
        """A second attachment that fails to install takes nothing with
        it: placement is all-or-nothing."""
        queue = BoundedRequestQueue(2)
        first = []
        observe_offers(queue, lambda page, outcome: first.append(page))
        under = vars(queue)["offer"]

        with pytest.raises(AttributeError):
            Attachment([(queue, "offer", lambda inner, page: inner(page)),
                        (queue, "no_such_method", None)])
        # The losing attach must not have disturbed the first observer.
        assert vars(queue)["offer"] is under
        queue.offer(7)
        assert first == [7]

    def test_attach_twice_stacks_and_keeps_first(self):
        queue = BoundedRequestQueue(2)
        first, second = [], []
        observe_offers(queue, lambda page, outcome: first.append(page))
        outer = observe_offers(
            queue, lambda page, outcome: second.append(page))
        queue.offer(7)
        assert first == second == [7]
        # Taking the second away leaves the first as it was.
        outer.detach()
        queue.offer(8)
        assert first == [7, 8] and second == [7]

    def test_detach_restores_plain_bound_method(self):
        queue = BoundedRequestQueue(2)
        unobserved = queue.offer
        attachment = observe_offers(queue, lambda page, outcome: None)
        assert queue.offer is not unobserved  # shadowed while attached
        attachment.detach()
        assert "offer" not in queue.__dict__
        assert queue.offer == unobserved  # the plain bound method again

    def test_detach_without_attach_is_a_noop(self):
        queue = BoundedRequestQueue(2)
        attachment = observe_offers(queue, lambda page, outcome: None)
        attachment.detach()
        attachment.detach()  # nothing left to undo
        assert "offer" not in queue.__dict__
        assert queue.offer(1) is Offer.ENQUEUED

    def test_detach_stops_callbacks_but_keeps_semantics(self):
        queue = BoundedRequestQueue(1)
        seen = []
        attachment = observe_offers(
            queue, lambda page, outcome: seen.append(page))
        queue.offer(1)
        attachment.detach()
        assert queue.offer(1) is Offer.DUPLICATE
        assert queue.offer(2) is Offer.DROPPED
        assert seen == [1]

    def test_reattach_after_detach(self):
        queue = BoundedRequestQueue(2)
        observe_offers(queue, lambda page, outcome: None).detach()
        second = []
        observe_offers(queue, lambda page, outcome: second.append(outcome))
        queue.offer(3)
        assert second == [Offer.ENQUEUED]

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)),
                    max_size=300),
           st.integers(min_value=1, max_value=5))
    def test_counters_hold_with_observer_attached(self, ops, capacity):
        """The observed queue keeps the exact unobserved accounting:
        ``enqueued + duplicates + dropped == offers`` and
        ``served <= enqueued``, with the observer log matching the
        counters outcome-for-outcome."""
        queue = BoundedRequestQueue(capacity)
        log = []
        observe_offers(queue, lambda page, outcome: log.append(outcome))
        offers = 0
        for is_pop, page in ops:
            if is_pop and len(queue):
                queue.pop()
            else:
                queue.offer(page)
                offers += 1
        assert queue.offers == offers == len(log)
        assert queue.enqueued + queue.duplicates + queue.dropped == offers
        assert queue.served <= queue.enqueued
        assert queue.served + len(queue) == queue.enqueued
        assert log.count(Offer.ENQUEUED) == queue.enqueued
        assert log.count(Offer.DUPLICATE) == queue.duplicates
        assert log.count(Offer.DROPPED) == queue.dropped
