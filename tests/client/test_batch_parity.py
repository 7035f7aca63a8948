"""The batched slot path against verbatim replicas of the per-draw one.

PR 12 replaced three per-call paths by buffered ones: the virtual
client's per-draw generator (``AccessStream.next()`` + set membership +
a numpy-scalar threshold compare), the MUX's scalar ``rng.random()`` and
the measured client's scalar ``searchsorted``.  The replicas below are
the deleted code, kept as the reference: driven side by side on equal
seeds they must produce the same survivors, the same counters and leave
the generator in the same state.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.cache.base import Cache
from repro.cache.lru import LruPolicy
from repro.client.measured import MeasuredClient
from repro.client.threshold import ThresholdFilter
from repro.client.virtual import VirtualClient
from repro.server.mux import PushPullMux
from repro.workload.zipf import ZipfSampler, zipf_probabilities

DB_SIZE = 40
BUFFER = 1 << 16
PROBABILITIES = zipf_probabilities(DB_SIZE, 0.95)
STEADY_SET = frozenset(range(0, DB_SIZE, 3))


def program(ranking, rel_freqs=(3, 2, 1)):
    return build_schedule(DiskAssignment.from_ranking(
        list(ranking), (5, 15, 20), rel_freqs))


SCHEDULES = (program(range(DB_SIZE)),
             program(reversed(range(DB_SIZE)), rel_freqs=(4, 2, 1)))


class LegacyAccessStream:
    """``AccessStream`` as of PR 11: two Python lists and ``next()``."""

    def __init__(self, sampler, steady_state_perc, rng):
        self._sampler = sampler
        self._steady_perc = steady_state_perc
        self._rng = rng
        self._pages = []
        self._steady = []
        self._cursor = 0

    def _refill(self):
        self._pages = self._sampler.sample(BUFFER).tolist()
        if self._steady_perc >= 1.0:
            self._steady = [True] * BUFFER
        elif self._steady_perc <= 0.0:
            self._steady = [False] * BUFFER
        else:
            self._steady = (
                self._rng.random(BUFFER) < self._steady_perc).tolist()
        self._cursor = 0

    def next(self):
        if self._cursor >= len(self._pages):
            self._refill()
        index = self._cursor
        self._cursor = index + 1
        return self._pages[index], self._steady[index]


class LegacyVirtualClient:
    """The filtering half of ``VirtualClient`` as of PR 11."""

    def __init__(self, steady_perc, threshold, rng):
        self.steady_set = STEADY_SET
        self._stream = LegacyAccessStream(
            ZipfSampler(PROBABILITIES, rng), steady_perc, rng)
        if threshold is not None and threshold.schedule is not None:
            table = threshold.schedule.distance_table(DB_SIZE)
            self._cycle = table.shape[1]
            self._dist_flat = table.ravel()
            self._threshold_slots = threshold.threshold_slots
        else:
            self._cycle = 0
            self._dist_flat = None
            self._threshold_slots = 0.0
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0

    def set_threshold_slots(self, threshold_slots):
        self._threshold_slots = threshold_slots

    def set_schedule(self, schedule):
        table = schedule.distance_table(DB_SIZE)
        self._cycle = table.shape[1]
        self._dist_flat = table.ravel()

    def requests_for_slot(self, count, schedule_pos):
        stream_next = self._stream.next
        steady_set = self.steady_set
        dist_flat = self._dist_flat
        threshold_slots = self._threshold_slots
        base = schedule_pos % self._cycle if self._cycle else 0
        cycle = self._cycle
        self.generated += count
        for _ in range(count):
            page, steady = stream_next()
            if steady and page in steady_set:
                self.absorbed_by_cache += 1
                continue
            if (dist_flat is not None
                    and dist_flat[page * cycle + base] <= threshold_slots):
                self.filtered_by_threshold += 1
                continue
            yield page


def make_pair(steady_perc, thresh_perc, seed):
    """(new, legacy) virtual clients on equal seeds, plus their rngs."""
    clients, rngs = [], []
    for legacy in (False, True):
        rng = np.random.default_rng(seed)
        threshold = (None if thresh_perc is None
                     else ThresholdFilter(SCHEDULES[0], thresh_perc))
        if legacy:
            clients.append(LegacyVirtualClient(steady_perc, threshold, rng))
        else:
            clients.append(VirtualClient(
                PROBABILITIES, STEADY_SET, steady_perc, mc_think_time=20.0,
                think_time_ratio=100.0, threshold=threshold, rng=rng))
        rngs.append(rng)
    return clients, rngs


#: One step of a drive: draw ``count`` accesses at a position, retune the
#: threshold, or swap the program (the last two mid-buffer by design).
STEPS = st.one_of(
    st.tuples(st.just("draw"), st.integers(0, 40), st.integers(0, 500)),
    st.tuples(st.just("draw"), st.just(1), st.integers(0, 500)),
    st.tuples(st.just("threshold"), st.sampled_from((0.0, 3.0, 17.5, 60.0))),
    st.tuples(st.just("schedule"), st.integers(0, 1)),
)


@settings(max_examples=25, deadline=None)
@given(
    steady_perc=st.sampled_from((0.0, 0.95, 1.0)),
    thresh_perc=st.sampled_from((None, 0.0, 0.35)),
    seed=st.integers(0, 2 ** 16),
    short_of_refill=st.integers(0, 60),
    steps=st.lists(STEPS, min_size=1, max_size=30),
)
def test_batched_vc_matches_the_per_draw_path(steady_perc, thresh_perc, seed,
                                              short_of_refill, steps):
    (new, old), (new_rng, old_rng) = make_pair(steady_perc, thresh_perc, seed)
    # Park both cursors just short of the refill boundary, so the drawn
    # counts that follow straddle it.
    steps = [("draw", BUFFER - short_of_refill, 0)] + steps
    for step in steps:
        if step[0] == "draw":
            _, count, pos = step
            survivors = list(new.requests_for_slot(count, pos))
            assert survivors == list(old.requests_for_slot(count, pos))
            assert all(type(page) is int for page in survivors)
        elif thresh_perc is None:
            continue  # nothing to retune on an unfiltered client
        elif step[0] == "threshold":
            new.set_threshold_slots(step[1])
            old.set_threshold_slots(step[1])
        else:
            new.threshold.set_schedule(SCHEDULES[step[1]])
            new.set_schedule(SCHEDULES[step[1]])
            old.set_schedule(SCHEDULES[step[1]])
        assert (new.generated, new.absorbed_by_cache,
                new.filtered_by_threshold) == (
            old.generated, old.absorbed_by_cache, old.filtered_by_threshold)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_refill_is_as_lazy_as_the_per_draw_path():
    """A buffer consumed to its last draw is refilled by the next draw,
    not before: Poisson chunks share the generator, so an early refill
    would reorder the stream."""
    (new, old), (new_rng, old_rng) = make_pair(0.95, 0.35, seed=3)
    for count in (BUFFER, 0):
        assert (list(new.requests_for_slot(count, 0))
                == list(old.requests_for_slot(count, 0)))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert new.arrivals_for_slots(8) == old_rng.poisson(new.rate, 8).tolist()
    assert (list(new.requests_for_slot(3, 5))
            == list(old.requests_for_slot(3, 5)))
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    # Runs of slots under one PullBW; 5000 crosses the coin buffer.
    runs=st.lists(st.tuples(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
                            st.sampled_from((1, 7, 300, 5000))),
                  min_size=1, max_size=6),
)
def test_buffered_mux_coins_equal_scalar_draws(seed, runs):
    mux = PushPullMux(0.5, np.random.default_rng(seed))
    scalar = np.random.default_rng(seed)
    for pull_bw, slots in runs:
        mux.pull_bw = pull_bw  # a retune lands wherever the buffer is
        for _ in range(slots):
            if pull_bw <= 0.0:
                expected = False
            elif pull_bw >= 1.0:
                expected = True
            else:
                expected = bool(scalar.random() < pull_bw)
            wants = mux.wants_pull()
            assert type(wants) is bool
            assert wants == expected


def test_buffered_mc_draws_equal_scalar_draws():
    probabilities = zipf_probabilities(300, 0.95)
    mc = MeasuredClient(probabilities, Cache(10, LruPolicy()), 20.0,
                        np.random.default_rng(9))
    scalar = ZipfSampler(probabilities, np.random.default_rng(9))
    for _ in range(2500):  # the draw buffer holds 1024
        page = mc.draw_page()
        assert type(page) is int
        assert page == scalar.sample_one()
