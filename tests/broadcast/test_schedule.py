"""Unit and property tests for Schedule queries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.chopping import chop_assignment
from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.broadcast.schedule import NOT_BROADCAST, Schedule
from repro.workload.zipf import zipf_probabilities


@pytest.fixture
def fig1():
    return build_schedule(DiskAssignment((
        Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))


class TestBasics:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            Schedule(())

    def test_len_and_major_cycle(self, fig1):
        assert len(fig1) == fig1.major_cycle == 12

    def test_contains(self, fig1):
        assert 0 in fig1
        assert 99 not in fig1

    def test_page_at_wraps(self, fig1):
        assert fig1.page_at(0) == 0
        assert fig1.page_at(12) == 0
        assert fig1.page_at(14) == fig1.page_at(2) == 3

    def test_positions_sorted(self, fig1):
        assert fig1.positions(0) == (0, 3, 6, 9)
        assert fig1.positions(2) == (4, 10)
        assert fig1.positions(42) == ()

    def test_padding_counted(self):
        schedule = Schedule((0, None, 1, None))
        assert schedule.num_empty_slots == 2
        assert schedule.pages == frozenset({0, 1})


class TestDistance:
    def test_distance_zero_at_own_slot(self, fig1):
        assert fig1.distance(0, 0) == 0
        assert fig1.distance(3, 2) == 0

    def test_distance_counts_forward(self, fig1):
        # Page 2 appears at slots 4 and 10.
        assert fig1.distance(2, 0) == 4
        assert fig1.distance(2, 5) == 5
        assert fig1.distance(2, 11) == 5  # wraps to slot 4 next cycle

    def test_distance_wraps_past_cycle_end(self, fig1):
        # Page 3 appears only at slot 2.
        assert fig1.distance(3, 3) == 11

    def test_distance_for_missing_page(self, fig1):
        assert fig1.distance(42, 0) == NOT_BROADCAST

    def test_distance_accepts_unnormalized_slot(self, fig1):
        assert fig1.distance(2, 12) == fig1.distance(2, 0)

    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=23))
    def test_distance_matches_linear_scan(self, page, slot):
        schedule = build_schedule(DiskAssignment((
            Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))
        expected = next(
            d for d in range(len(schedule))
            if schedule.page_at(slot + d) == page)
        assert schedule.distance(page, slot) == expected


class TestDistanceTable:
    def test_matches_scalar_distance(self, fig1):
        table = fig1.distance_table(8)
        for page in range(8):
            for slot in range(len(fig1)):
                assert table[page, slot] == fig1.distance(page, slot)

    def test_missing_page_is_sentinel(self, fig1):
        table = fig1.distance_table(9)
        assert np.all(table[7] == NOT_BROADCAST)
        assert np.all(table[8] == NOT_BROADCAST)

    def test_cached_and_sliced(self, fig1):
        full = fig1.distance_table(8)
        smaller = fig1.distance_table(3)
        assert smaller.shape == (3, 12)
        assert np.shares_memory(smaller, full)

    def test_cache_grows_when_more_pages_requested(self, fig1):
        small = fig1.distance_table(3)
        bigger = fig1.distance_table(7)
        assert bigger.shape == (7, 12)
        # The regrown table still agrees with the scalar queries.
        for page in range(7):
            for slot in (0, 5, 11):
                assert bigger[page, slot] == fig1.distance(page, slot)
        assert np.array_equal(small, bigger[:3])

    def test_table_with_padding_slots(self):
        schedule = Schedule((0, None, 1, None))
        table = schedule.distance_table(2)
        assert table[0, 0] == 0
        assert table[0, 1] == 3
        assert table[1, 3] == 3
        assert table[1, 1] == 1


def _padded_program():
    # 7 + 5 pages at frequencies 3:1 do not split into equal chunks, so
    # the builder pads the minor cycles with empty slots.
    return build_schedule(DiskAssignment.from_ranking(
        list(range(12)), (7, 5), (3, 1)))


def _chopped_program():
    full = DiskAssignment.from_ranking(list(range(30)), (4, 10, 16),
                                       (3, 2, 1))
    return build_schedule(chop_assignment(
        full, 9, zipf_probabilities(30, 0.95)))


def _single_disk_program():
    return build_schedule(DiskAssignment((Disk(tuple(range(9)), 1),)))


class TestVectorizedDistanceTable:
    """The table is built from run lengths, not slot by slot: it must
    equal the scalar query in every cell, whatever the program's shape."""

    @pytest.mark.parametrize("build, num_pages", [
        (_padded_program, 12),
        (_chopped_program, 30),     # NOT_BROADCAST rows for chopped pages
        (_single_disk_program, 9),
        (_single_disk_program, 13),  # rows past the program's last page
        (_padded_program, 5),        # fewer rows than scheduled pages
    ])
    def test_every_cell_equals_scalar_distance(self, build, num_pages):
        schedule = build()
        table = schedule.distance_table(num_pages)
        assert table.dtype == np.int32
        assert table.shape == (num_pages, len(schedule))
        assert table.flags["C_CONTIGUOUS"]
        expected = [[schedule.distance(page, slot)
                     for slot in range(len(schedule))]
                    for page in range(num_pages)]
        assert table.tolist() == expected

    def test_shapes_are_what_they_claim(self):
        assert _padded_program().num_empty_slots > 0
        chopped = _chopped_program()
        assert len(chopped.pages) == 21
        assert (chopped.distance_table(30) == NOT_BROADCAST).all(axis=1).sum() == 9

    def test_all_padding_program(self):
        table = Schedule((None, None)).distance_table(3)
        assert (table == NOT_BROADCAST).all()

    @settings(max_examples=40)
    @given(slots=st.lists(st.one_of(st.none(), st.integers(0, 6)),
                          min_size=1, max_size=24),
           num_pages=st.integers(0, 9))
    def test_arbitrary_slot_sequences(self, slots, num_pages):
        schedule = Schedule(tuple(slots))
        table = schedule.distance_table(num_pages)
        assert table.shape == (num_pages, len(slots))
        for page in range(num_pages):
            for slot in range(len(slots)):
                assert table[page, slot] == schedule.distance(page, slot)


class TestSpacingsAndDelay:
    def test_spacings_sum_to_cycle(self, fig1):
        for page in range(7):
            assert sum(fig1.spacings(page)) == len(fig1)

    def test_spacings_for_missing_page(self, fig1):
        assert fig1.spacings(42) == ()

    def test_evenly_spaced_page(self, fig1):
        assert fig1.spacings(0) == (3, 3, 3, 3)

    def test_expected_delay_even_spacing(self, fig1):
        # Page 0 every 3 slots: gaps of 3, E[wait] = (3+1)/2 = 2.
        assert fig1.expected_delay(0) == pytest.approx(2.0)

    def test_expected_delay_single_broadcast(self, fig1):
        # Page 3 once per 12 slots: E[wait] = (12+1)/2.
        assert fig1.expected_delay(3) == pytest.approx(6.5)

    def test_expected_delay_missing_page(self, fig1):
        assert math.isinf(fig1.expected_delay(42))

    @settings(max_examples=25)
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=2,
                    max_size=30))
    def test_expected_delay_equals_empirical_mean(self, slots):
        schedule = Schedule(tuple(slots))
        for page in schedule.pages:
            # A request at slot boundary s completes distance+1 slots later;
            # expected_delay is exactly the mean of that over the cycle.
            empirical = sum(
                schedule.distance(page, s) + 1 for s in range(len(schedule))
            ) / len(schedule)
            assert schedule.expected_delay(page) == pytest.approx(empirical)
