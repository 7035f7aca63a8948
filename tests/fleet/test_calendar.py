"""The slot calendar against the per-slot scan it replaced.

- differential: a calendar fleet and a scanning fleet
  (``reference_scan``) built from one seed and driven through the same
  ``deliver`` / ``generate`` sequence agree after every slot on the
  returned pages, every dynamic array, every counter and the generator's
  state — the due set is the scan's, member for member and in order —
  once with every batch through the numpy kernel and once with every
  batch through the scalar one;
- the calendar holds exactly the clients due before the window's end,
  each once, in the slot the scan would find it;
- a think-time spread that admits a zero mean is rejected.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.client.threshold import ThresholdFilter
from repro.core.config import FleetConfig
from repro.fleet import state as fleet_state
from repro.fleet.state import FleetState
from repro.workload.zipf import zipf_probabilities
from tests.fleet.reference_scan import ScanningFleetState

DB_SIZE = 30
PROBABILITIES = zipf_probabilities(DB_SIZE, 0.95)
SCHEDULE = build_schedule(DiskAssignment.from_ranking(
    list(range(DB_SIZE)), (5, 10, 15), (3, 2, 1)))

#: ``_VECTOR_MIN_BATCH`` patched to 0 sends every batch through the numpy
#: kernel; patched past any batch, through the scalar one.
KERNELS = {"numpy": 0, "scalar": 1 << 30}

ARRAYS = ("next_access", "outstanding", "requested_at",
          "wait_sum", "wait_count", "wait_max")
COUNTERS = ("generated", "absorbed_by_cache", "filtered_by_threshold",
            "offered", "delivered")


def make_pair(seed, **kwargs):
    """A calendar fleet and a scanning fleet from the same seed."""
    kwargs = {"zipf_offset_spread": 0, "cache_size": 5,
              "cache_size_spread": 0.0, "think_time_spread": 0.0,
              "steady_state_perc": 0.8, "threshold": None, **kwargs}
    return tuple(cls(probabilities=PROBABILITIES,
                     value_order=np.arange(DB_SIZE, dtype=np.int64),
                     rng=np.random.default_rng(seed), **kwargs)
                 for cls in (FleetState, ScanningFleetState))


def assert_same_state(calendar, scan):
    for name in ARRAYS:
        assert np.array_equal(getattr(calendar, name),
                              getattr(scan, name)), name
    for name in COUNTERS:
        assert getattr(calendar, name) == getattr(scan, name), name
    assert (calendar._rng.bit_generator.state
            == scan._rng.bit_generator.state)


def assert_calendar_consistent(fleet):
    """The calendar is the scan's answer for every slot left in the
    window: each client due before its end sits once, in the slot a
    per-slot scan would first find it, and nobody else is indexed."""
    indexed = {}
    for slot, clients in fleet._calendar.items():
        assert clients, f"empty bucket {slot}"
        for client in clients:
            assert client not in indexed, f"client {client} indexed twice"
            indexed[client] = slot
    due = np.flatnonzero(fleet.next_access < fleet._window_end)
    assert sorted(indexed) == due.tolist()
    for client, slot in indexed.items():
        assert slot == max(math.floor(fleet.next_access[client]),
                           fleet._next_slot)


def drive(calendar, scan, ops, t, slots):
    """``slots`` slots of deliver-then-generate on both fleets, compared
    after every slot; returns the next slot.

    The delivered page is mostly one somebody awaits (the closed loop
    needs completions to keep moving), sometimes an arbitrary one, and
    one delivery in twenty lags the slot clock — its re-thinks land
    before the slot about to be generated.
    """
    for _ in range(slots):
        roll = ops.random()
        waiting = list(scan._waiting_by_page)
        if waiting and roll < 0.7:
            page = waiting[ops.integers(len(waiting))]
        else:
            page = int(ops.integers(DB_SIZE))
        now = float(t) if roll > 0.05 else float(t - ops.integers(1, 4))
        calendar.deliver(page, now)
        scan.deliver(page, now)
        pages = calendar.generate(t, t)
        assert all(type(page) is int for page in pages)
        assert list(pages) == scan.generate(t, t).tolist()
        assert_same_state(calendar, scan)
        t += 1
    assert_calendar_consistent(calendar)
    return t


def run_pair(window, num_clients, think, spreads, steady, cache_size,
             thresh_perc, seed, back, forward):
    """Build the two fleets and drive them in order across two window
    boundaries, through a restart ``back`` windows earlier (possibly
    before slot 0) and a jump ``forward`` windows ahead, and in order
    again after each; once per kernel."""
    # ``think`` in [0, 1] runs the base mean log-uniformly from 0.3 slots
    # (every client acts several times a slot) to 50 windows (hardly
    # anyone is ever inside the window); the floor keeps the population's
    # accesses per slot, and so the test's time, bounded.
    low = max(0.3, num_clients / 40.0)
    mean_think_time = low * (50.0 * window / low) ** think
    think_spread, offset_spread, cache_spread = spreads
    for min_batch in KERNELS.values():
        calendar, scan = make_pair(
            seed, num_clients=num_clients, mean_think_time=mean_think_time,
            think_time_spread=think_spread, zipf_offset_spread=offset_spread,
            cache_size=cache_size, cache_size_spread=cache_spread,
            steady_state_perc=steady,
            threshold=(None if thresh_perc is None
                       else ThresholdFilter(SCHEDULE, thresh_perc)))
        assert_same_state(calendar, scan)
        ops = np.random.default_rng(seed)
        with mock.patch.object(fleet_state, "_WINDOW", window), \
                mock.patch.object(fleet_state, "_VECTOR_MIN_BATCH",
                                  min_batch):
            t = drive(calendar, scan, ops, 3, int(2.2 * window))
            t = drive(calendar, scan, ops, t - 1 - int(back * window),
                      window // 2 + 2)
            drive(calendar, scan, ops, t + 1 + int(forward * window),
                  window // 2 + 2)
    return calendar


@settings(max_examples=60, deadline=None)
@given(window=st.sampled_from((5, 48)),
       num_clients=st.integers(1, 2000),
       think=st.floats(0.0, 1.0),
       spreads=st.sampled_from(((0.0, 0, 0.0), (0.5, 7, 0.5),
                                (0.99, 29, 1.0))),
       steady=st.sampled_from((0.0, 0.8, 1.0)),
       cache_size=st.integers(0, DB_SIZE + 1),
       thresh_perc=st.sampled_from((None, 0.25)),
       seed=st.integers(0, 2 ** 32 - 1),
       back=st.floats(0.0, 3.0), forward=st.floats(0.0, 3.0))
def test_calendar_due_set_is_the_scan(**example):
    """Short windows: the same code crosses many more boundaries per
    second of test time than at the real width."""
    run_pair(**example)


@pytest.mark.parametrize("think", [0.45, 0.9], ids=["dense", "sparse"])
def test_calendar_due_set_is_the_scan_at_the_real_window(think):
    """2000 clients at think means of ~1 and ~25 windows: most of the
    population inside the window, and almost none of it."""
    fleet = run_pair(window=fleet_state._WINDOW, num_clients=2000,
                     think=think, spreads=(0.5, 7, 0.5), steady=0.8,
                     cache_size=5, thresh_perc=0.25, seed=17,
                     back=1.5, forward=1.5)
    assert fleet.generated > 200


def test_first_generate_reads_outside_writes_to_next_access():
    """The scalar kernel reads through views taken at construction: an
    in-place write before the first call is seen there too; once per
    kernel."""
    for kernel, min_batch in KERNELS.items():
        calendar, scan = make_pair(1, num_clients=50, mean_think_time=40.0)
        for fleet in (calendar, scan):
            fleet.next_access[::2] = 6.5
            fleet.next_access[1::2] = 2.25  # overdue at the first call
        with mock.patch.object(fleet_state, "_VECTOR_MIN_BATCH", min_batch):
            pages = calendar.generate(6, 0)
        assert list(pages) == scan.generate(6, 0).tolist(), kernel
        assert calendar.generated >= 50, kernel
        assert_same_state(calendar, scan)


def test_empty_slots_touch_no_generator_state():
    fleet, _ = make_pair(3, num_clients=20, mean_think_time=1e9)
    before = fleet._rng.bit_generator.state
    for t in range(3 * fleet_state._WINDOW):
        assert len(fleet.generate(t, t)) == 0
    assert fleet._rng.bit_generator.state == before
    assert fleet.generated == 0


class TestThinkTimeSpreadBound:
    """``spread = 1`` admits a per-client mean of 0: a warm client that
    re-thinks to the same instant never leaves its slot."""

    @pytest.mark.parametrize("spread", [1.0, math.nan, -0.1, 1.5])
    def test_fleet_state_rejects(self, spread):
        with pytest.raises(ValueError, match="think_time_spread"):
            make_pair(0, num_clients=4, mean_think_time=5.0,
                      think_time_spread=spread)

    @pytest.mark.parametrize("spread", [1.0, math.nan, -0.1, 1.5])
    def test_fleet_config_rejects(self, spread):
        with pytest.raises(ValueError, match="think_time_spread"):
            FleetConfig(think_time_spread=spread)

    def test_largest_spread_below_one_is_accepted_at_both_sites(self):
        spread = math.nextafter(1.0, 0.0)
        assert FleetConfig(think_time_spread=spread).think_time_spread < 1
        fleet, _ = make_pair(0, num_clients=200, mean_think_time=5.0,
                             think_time_spread=spread)
        assert (fleet.think_means > 0).all()

    @pytest.mark.parametrize("spread", [math.nan, -0.1, 1.5])
    def test_cache_size_spread_stays_closed(self, spread):
        assert FleetConfig(cache_size_spread=1.0).cache_size_spread == 1.0
        make_pair(0, num_clients=4, mean_think_time=5.0,
                  cache_size_spread=1.0)
        with pytest.raises(ValueError, match="cache_size_spread"):
            FleetConfig(cache_size_spread=spread)
        with pytest.raises(ValueError, match="cache_size_spread"):
            make_pair(0, num_clients=4, mean_think_time=5.0,
                      cache_size_spread=spread)
