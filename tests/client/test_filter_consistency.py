"""The virtual client's vectorized threshold path must match the scalar
ThresholdFilter exactly — a divergence here would silently skew every
IPP experiment."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.client.threshold import ThresholdFilter
from repro.client.virtual import VirtualClient
from repro.workload.zipf import zipf_probabilities


def build_vc(thresh_perc, steady_perc=0.0, seed=0):
    schedule = build_schedule(DiskAssignment((
        Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))
    threshold = ThresholdFilter(schedule, thresh_perc)
    vc = VirtualClient(zipf_probabilities(7, 0.95), frozenset(),
                       steady_perc, mc_think_time=20.0,
                       think_time_ratio=10.0, threshold=threshold,
                       rng=np.random.default_rng(seed))
    return vc, threshold


@settings(max_examples=40)
@given(
    thresh_perc=st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0)),
    schedule_pos=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=100),
)
def test_vectorized_filter_matches_scalar(thresh_perc, schedule_pos, seed):
    vc, threshold = build_vc(thresh_perc, seed=seed)
    survivors = set(vc.requests_for_slot(300, schedule_pos))
    # Recompute which pages *can* survive via the scalar filter.
    allowed = {page for page in range(7)
               if threshold.passes(page, schedule_pos)}
    assert survivors <= allowed
    # Every allowed page with non-trivial probability shows up in a
    # 300-draw sample of a 7-page Zipf (p_min ~ 2.5%); if one is missing
    # the vectorized path filtered something the scalar path allows.
    vc2, _ = build_vc(thresh_perc, seed=seed)
    drawn = set(vc2._stream.take(300))  # steady_perc 0: nothing absorbed
    assert survivors == (allowed & drawn)


@settings(max_examples=20)
@given(schedule_pos=st.integers(min_value=0, max_value=11))
def test_full_threshold_blocks_exactly_the_scheduled_pages(schedule_pos):
    vc, _ = build_vc(1.0)
    survivors = list(vc.requests_for_slot(500, schedule_pos))
    assert survivors == []  # every page is on the 12-slot program
