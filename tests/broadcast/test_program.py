"""Unit tests for disks, assignments, and schedule generation."""

import pytest

from repro.broadcast.program import Disk, DiskAssignment, build_schedule


def three_disk_assignment():
    """The paper's Figure 1: pages a..g mapped to ids 0..6."""
    return DiskAssignment((
        Disk((0,), rel_freq=4),
        Disk((1, 2), rel_freq=2),
        Disk((3, 4, 5, 6), rel_freq=1),
    ))


class TestDisk:
    def test_size(self):
        assert Disk((1, 2, 3), rel_freq=2).size == 3

    def test_rel_freq_must_be_positive_int(self):
        with pytest.raises(ValueError):
            Disk((1,), rel_freq=0)
        with pytest.raises(ValueError):
            Disk((1,), rel_freq=1.5)

    def test_pages_are_immutable_tuple(self):
        disk = Disk([5, 6], rel_freq=1)
        assert disk.pages == (5, 6)
        assert isinstance(disk.pages, tuple)


class TestDiskAssignment:
    def test_requires_at_least_one_disk(self):
        with pytest.raises(ValueError):
            DiskAssignment(())

    def test_rejects_empty_disk(self):
        with pytest.raises(ValueError):
            DiskAssignment((Disk((), rel_freq=1),))

    def test_rejects_increasing_frequencies(self):
        with pytest.raises(ValueError, match="fastest-first"):
            DiskAssignment((Disk((0,), 1), Disk((1,), 2)))

    def test_equal_frequencies_allowed(self):
        assignment = DiskAssignment((Disk((0,), 2), Disk((1,), 2)))
        assert assignment.num_disks == 2

    def test_rejects_duplicate_pages(self):
        with pytest.raises(ValueError, match="multiple disks"):
            DiskAssignment((Disk((0, 1), 2), Disk((1, 2), 1)))

    def test_counts_and_pages(self):
        assignment = three_disk_assignment()
        assert assignment.num_disks == 3
        assert assignment.num_pages == 7
        assert assignment.pages == (0, 1, 2, 3, 4, 5, 6)
        assert assignment.slowest.rel_freq == 1

    def test_disk_of(self):
        assignment = three_disk_assignment()
        holding = {page: index for index, disk in enumerate(assignment.disks)
                   for page in disk.pages}
        assert (holding[0], holding[2], holding[6]) == (0, 1, 2)
        assert 99 not in holding

    def test_from_ranking_slices_hottest_first(self):
        assignment = DiskAssignment.from_ranking(
            [9, 8, 7, 6, 5], disk_sizes=(2, 3), rel_freqs=(2, 1))
        assert assignment.disks[0].pages == (9, 8)
        assert assignment.disks[1].pages == (7, 6, 5)

    def test_from_ranking_validates_sizes(self):
        with pytest.raises(ValueError):
            DiskAssignment.from_ranking([1, 2, 3], (2, 2), (2, 1))
        with pytest.raises(ValueError):
            DiskAssignment.from_ranking([1, 2, 3], (1, 2), (2,))


class TestBuildSchedule:
    def test_figure1_example(self):
        """The paper's 7-page, 3-disk program with speeds 4:2:1 yields the
        12-slot major cycle a b d a c e a b f a c g."""
        schedule = build_schedule(three_disk_assignment())
        assert schedule.slots == (0, 1, 3, 0, 2, 4, 0, 1, 5, 0, 2, 6)
        assert len(schedule) == 12
        assert schedule.minor_cycle == 3

    def test_figure1_frequencies(self):
        schedule = build_schedule(three_disk_assignment())
        assert schedule.frequency(0) == 4
        assert schedule.frequency(1) == schedule.frequency(2) == 2
        for page in (3, 4, 5, 6):
            assert schedule.frequency(page) == 1

    def test_single_disk_is_flat_broadcast(self):
        assignment = DiskAssignment((Disk((0, 1, 2, 3), 1),))
        schedule = build_schedule(assignment)
        assert schedule.slots == (0, 1, 2, 3)
        assert schedule.num_empty_slots == 0

    def test_padding_when_sizes_do_not_divide(self):
        # Disk 2 has 3 pages over 2 chunks -> chunk size 2 with 1 pad slot.
        assignment = DiskAssignment((Disk((0,), 2), Disk((1, 2, 3), 1)))
        schedule = build_schedule(assignment)
        assert schedule.num_empty_slots == 1
        # Every page still appears the right number of times.
        assert schedule.frequency(0) == 2
        for page in (1, 2, 3):
            assert schedule.frequency(page) == 1

    def test_paper_configuration_cycle_length(self):
        """Table 3's disks (100/400/500 at 3:2:1) give a 1608-slot cycle:
        lcm=6 minor cycles of 50 + 134 + 84 slots (with 2+4 pads)."""
        assignment = DiskAssignment.from_ranking(
            list(range(1000)), (100, 400, 500), (3, 2, 1))
        schedule = build_schedule(assignment)
        assert len(schedule) == 1608
        assert schedule.minor_cycle == 268
        # Disk 2: 6 minor cycles x 134-slot chunks carry 2x400 pages ->
        # 4 pads; disk 3: 6 x 84 carry 1x500 pages -> 4 pads.
        assert schedule.num_empty_slots == (6 * 134 - 2 * 400) + (6 * 84 - 500)

    def test_relative_frequencies_hold_in_paper_configuration(self):
        assignment = DiskAssignment.from_ranking(
            list(range(1000)), (100, 400, 500), (3, 2, 1))
        schedule = build_schedule(assignment)
        assert schedule.frequency(0) == 3
        assert schedule.frequency(150) == 2
        assert schedule.frequency(999) == 1

    def test_every_page_appears(self):
        assignment = DiskAssignment.from_ranking(
            list(range(60)), (10, 20, 30), (4, 2, 1))
        schedule = build_schedule(assignment)
        assert schedule.pages == frozenset(range(60))
