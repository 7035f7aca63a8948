"""Unit tests for the aggregate virtual client."""

import numpy as np
import pytest

from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.client.threshold import ThresholdFilter
from repro.client.virtual import VirtualClient
from repro.workload.zipf import zipf_probabilities


def fig1_schedule():
    return build_schedule(DiskAssignment((
        Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))


def make_vc(steady_set=frozenset(), steady_perc=0.95, ttr=10.0,
            threshold=None, seed=0, n=7):
    return VirtualClient(zipf_probabilities(n, 0.95), steady_set,
                         steady_perc, mc_think_time=20.0,
                         think_time_ratio=ttr, threshold=threshold,
                         rng=np.random.default_rng(seed))


class TestArrivals:
    def test_rate_formula(self):
        vc = make_vc(ttr=250.0)
        assert vc.rate == pytest.approx(12.5)

    def test_poisson_mean_tracks_rate(self):
        vc = make_vc(ttr=100.0)  # rate 5.0
        counts = vc.arrivals_for_slots(20_000)
        assert np.mean(counts) == pytest.approx(5.0, abs=0.1)


class TestFiltering:
    def test_steady_requests_absorbed_by_steady_set(self):
        vc = make_vc(steady_set=frozenset(range(7)), steady_perc=1.0)
        survivors = list(vc.requests_for_slot(500, schedule_pos=0))
        assert survivors == []
        assert vc.absorbed_by_cache == 500

    def test_warm_requests_bypass_cache(self):
        vc = make_vc(steady_set=frozenset(range(7)), steady_perc=0.0)
        survivors = list(vc.requests_for_slot(500, schedule_pos=0))
        assert len(survivors) == 500
        assert vc.absorbed_by_cache == 0

    def test_threshold_filters_near_pages(self):
        threshold = ThresholdFilter(fig1_schedule(), 1.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        survivors = list(vc.requests_for_slot(300, schedule_pos=0))
        # Every page is on the program within one cycle: all filtered.
        assert survivors == []
        assert vc.filtered_by_threshold == 300

    def test_zero_threshold_blocks_imminent_page_only(self):
        threshold = ThresholdFilter(fig1_schedule(), 0.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        survivors = list(vc.requests_for_slot(1000, schedule_pos=0))
        # Page 0 occupies position 0; it is the only filtered page.
        assert 0 not in survivors
        assert vc.filtered_by_threshold > 0
        assert len(survivors) + vc.filtered_by_threshold == 1000

    def test_generated_counts_every_access(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=0.5)
        list(vc.requests_for_slot(400, schedule_pos=0))
        assert vc.generated == 400

    def test_reset_stats(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=1.0)
        list(vc.requests_for_slot(100, schedule_pos=0))
        vc.reset_stats()
        assert vc.generated == vc.absorbed_by_cache == 0
        assert vc.filtered_by_threshold == 0

    def test_set_threshold_slots_changes_filtering(self):
        threshold = ThresholdFilter(fig1_schedule(), 0.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        vc.set_threshold_slots(float(len(fig1_schedule())))
        survivors = list(vc.requests_for_slot(300, schedule_pos=0))
        assert survivors == []

    def test_steady_misses_still_reach_server(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=1.0, seed=5)
        survivors = list(vc.requests_for_slot(2000, schedule_pos=0))
        # Hot page 0 absorbed; everything else flows through.
        assert 0 not in survivors
        assert len(survivors) > 0
