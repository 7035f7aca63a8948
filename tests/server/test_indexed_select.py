"""The indexed R×W / LWF ``select`` against the scan it replaced.

- differential: an indexed queue and a scan queue (``reference_select``)
  fed the same arbitrary traffic agree on ``peek`` before every pop and
  on every pop, for every aging exponent and for LWF;
- the index stays consistent and bounded, also under the pattern that
  buries dead entries behind a bucket head that is never served.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import schedulers
from repro.server.queue import BoundedRequestQueue
from repro.server.schedulers import LwfScheduler, RxWScheduler
from tests.server.reference_select import ScanLwf, ScanRxW

AGINGS = (0.0, 0.01, 0.5, 1.0, 2.0, 3.7)

#: (indexed, scan) scheduler factories per discipline under test.
PAIRS = {
    **{f"rxw-{aging:g}": (lambda aging=aging: RxWScheduler(aging=aging),
                          lambda aging=aging: ScanRxW(aging=aging))
       for aging in AGINGS},
    "lwf": (LwfScheduler, ScanLwf),
}

#: op = (kind, value): kind 0-5 offers page ``value mod universe``, 6-7
#: pop, 8 advances the clock one slot, 9 jumps it ``value mod 1000``.
#: Offers between two clock ops share a slot.
_OPS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2 ** 16)),
                max_size=60)


def seeded_ops(seed, length, pop_share):
    """``length`` ops in the :data:`_OPS` encoding from a seeded stream:
    hypothesis rarely draws a list long enough to fill a deep queue."""
    rng = random.Random(seed)
    for _ in range(length):
        roll = rng.random()
        if roll < pop_share:
            yield 6, 0
        elif roll < pop_share + 0.1:
            yield rng.choice((8, 8, 8, 9)), rng.randrange(2 ** 16)
        else:
            yield 0, rng.randrange(2 ** 16)


def index_entries(scheduler) -> int:
    """Entries the index holds, after checking it is consistent."""
    live = scheduler._live
    entries = dead = 0
    for count, heap in scheduler._buckets.items():
        assert heap, f"bucket {count} is empty"
        assert live.get(heap[0][2]) is heap[0], f"bucket {count}: dead head"
        for entry in heap:
            entries += 1
            if live.get(entry[2]) is entry:
                assert entry[3] == count
            else:
                dead += 1
    assert dead == scheduler._dead
    assert entries - dead == len(live)
    return entries


@pytest.mark.parametrize("pair", PAIRS)
@settings(max_examples=45, deadline=None)
@given(ops=_OPS, capacity=st.integers(1, 200), spread=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), length=st.integers(0, 1500),
       pop_share=st.sampled_from((0.05, 0.2, 0.45)))
def test_indexed_select_is_the_scan(pair, ops, capacity, spread, seed,
                                    length, pop_share):
    make_indexed, make_scan = PAIRS[pair]
    indexed = BoundedRequestQueue(capacity, make_indexed())
    scan = BoundedRequestQueue(capacity, make_scan())
    universe = spread * capacity + 1
    for kind, value in [*seeded_ops(seed, length, pop_share), *ops]:
        if kind <= 5:
            assert (indexed.offer(value % universe)
                    is scan.offer(value % universe))
        elif kind <= 7:
            if len(scan):
                assert indexed.peek() == scan.peek()
                assert indexed.pop() == scan.pop()
        else:
            step = 1 if kind == 8 else value % 1000
            indexed.now += step
            scan.now += step
    # Drain: every remaining state agrees too.
    while len(scan):
        assert indexed.pop() == scan.pop()
        indexed.now = scan.now = scan.now + 1
    assert (indexed.scheduler.reordered, indexed.scheduler.pops) == (
        scan.scheduler.reordered, scan.scheduler.pops)
    assert index_entries(indexed.scheduler) == 0
    assert not indexed.scheduler._live


@pytest.mark.parametrize("make", [lambda: RxWScheduler(aging=0.0),
                                  lambda: RxWScheduler(aging=1.0),
                                  LwfScheduler], ids=["rxw-0", "rxw-1", "lwf"])
@pytest.mark.parametrize("capacity", [1, 7, 40])
def test_index_stays_bounded_behind_a_head_that_is_never_served(make,
                                                                capacity):
    """A single-waiter page at the head of bucket 1 that R×W with
    ``aging = 0`` never serves, while every other page is enqueued,
    duplicated (its bucket-1 entry dies buried behind that head) and
    served from bucket 2: without a rebuild the dead entries pile up
    for as long as the run lasts."""
    queue = BoundedRequestQueue(capacity, make())
    scheduler = queue.scheduler
    bound = 2 * capacity + schedulers._DEAD_SLACK
    queue.offer(0)
    page = 0
    for turn in range(100 * capacity):
        queue.now += 1
        for _ in range(capacity):
            page += 1
            queue.offer(page)
            queue.offer(page)
        queue.pop()
        assert sum(map(len, scheduler._buckets.values())) <= bound
        if turn % 16 == 0:
            index_entries(scheduler)
            # The index is the queue's only record of its pages.
            assert queue.pages is scheduler._live
            assert queue._fifo is None
    if capacity > 1 and scheduler.name == "rxw" and scheduler.aging == 0:
        assert 0 in queue, "the pattern must leave page 0 unserved"


def test_pop_from_an_empty_indexed_queue_raises():
    for scheduler in (RxWScheduler(), LwfScheduler()):
        with pytest.raises(IndexError):
            BoundedRequestQueue(3, scheduler).pop()


def test_equal_scores_serve_the_earlier_enqueued_of_one_slot():
    """Pages 5 and 3 arrive in one slot and tie in every bucket they
    share: the enqueue order decides, not the page id or the slot."""
    for scheduler in (RxWScheduler(), LwfScheduler()):
        queue = BoundedRequestQueue(4, scheduler)
        for page in (5, 3, 5, 3):       # both reach two waiters, slot 0
            queue.offer(page)
        queue.now = 9
        assert [queue.pop(), queue.pop()] == [5, 3]
