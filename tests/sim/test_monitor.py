"""Unit and property tests for the statistics collectors."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import Tally
from repro.sim.monitor import (
    Histogram,
    bucket_quantile,
    exact_quantiles,
    quantile_label,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestTally:
    def test_empty_tally(self):
        tally = Tally()
        assert tally.count == 0
        assert math.isnan(tally.mean)
        assert math.isnan(tally.variance)

    def test_single_observation(self):
        tally = Tally()
        tally.add(5.0)
        assert tally.count == 1
        assert tally.mean == 5.0
        assert tally.min == tally.max == 5.0
        assert math.isnan(tally.variance)

    def test_known_moments(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        tally = Tally()
        for value in values:
            tally.add(value)
        assert tally.mean == pytest.approx(statistics.fmean(values))
        assert tally.variance == pytest.approx(statistics.variance(values))
        assert tally.stddev == pytest.approx(statistics.stdev(values))
        assert tally.min == 2.0
        assert tally.max == 9.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        tally = Tally()
        for value in values:
            tally.add(value)
        assert tally.mean == pytest.approx(np.mean(values), rel=1e-9,
                                           abs=1e-6)
        assert tally.variance == pytest.approx(np.var(values, ddof=1),
                                               rel=1e-6, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.lists(finite_floats, min_size=1, max_size=50))
    def test_merge_equals_combined_stream(self, first, second):
        separate = Tally()
        for value in first:
            separate.add(value)
        other = Tally()
        for value in second:
            other.add(value)
        separate.merge(other)

        combined = Tally()
        for value in first + second:
            combined.add(value)
        assert separate.count == combined.count
        assert separate.mean == pytest.approx(combined.mean, rel=1e-9,
                                              abs=1e-6)
        assert separate.min == combined.min
        assert separate.max == combined.max

    def test_merge_empty_is_noop(self):
        tally = Tally()
        tally.add(1.0)
        tally.merge(Tally())
        assert tally.count == 1

    def test_merge_into_empty_copies(self):
        tally = Tally()
        other = Tally()
        other.add(3.0)
        other.add(5.0)
        tally.merge(other)
        assert tally.count == 2
        assert tally.mean == 4.0

    def test_non_finite_observation_rejected(self):
        """NaN/inf must raise instead of silently poisoning the moments
        while min/max comparisons stay false."""
        tally = Tally()
        tally.add(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                tally.add(bad)
        assert tally.count == 1  # nothing was absorbed
        assert tally.mean == 1.0


class TestWeightedRounding:
    """No weighted update is left to round ``_m2`` below zero: each
    Welford step adds ``delta * (value - new_mean)``, two factors of one
    sign, so the variance needs no clamp."""

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_variance_never_goes_negative(self, values):
        tally = Tally()
        for value in values:
            tally.add(value)
            assert tally._m2 >= 0.0
        assert not tally.variance < 0.0


class TestFromMoments:
    def test_matches_streamed_equivalent(self):
        values = [2.0, 4.0, 4.5, 7.0, 9.0]
        arr = np.asarray(values)
        mean = float(arr.mean())
        batch = Tally.from_moments(arr.size, mean,
                                   float(np.square(arr - mean).sum()),
                                   float(arr.min()), float(arr.max()))
        streamed = Tally()
        for value in values:
            streamed.add(value)
        assert batch.count == streamed.count
        assert batch.mean == pytest.approx(streamed.mean)
        assert batch.variance == pytest.approx(streamed.variance)
        assert batch.min == streamed.min
        assert batch.max == streamed.max

    def test_zero_count_gives_empty_tally(self):
        tally = Tally.from_moments(0, math.nan, math.nan,
                                   math.nan, math.nan)
        assert tally.count == 0
        assert math.isnan(tally.mean)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Tally.from_moments(-1, 0.0, 0.0, 0.0, 0.0)

    def test_non_finite_moments_rejected(self):
        with pytest.raises(ValueError):
            Tally.from_moments(3, math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Tally.from_moments(3, 0.0, math.inf, 0.0, 0.0)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.lists(finite_floats, min_size=1, max_size=50))
    def test_merge_of_clean_batches_matches_pooled_stream(self, first,
                                                          second):
        def batch(values):
            arr = np.asarray(values, dtype=np.float64)
            mean = float(arr.mean())
            return Tally.from_moments(
                arr.size, mean, float(np.square(arr - mean).sum()),
                float(arr.min()), float(arr.max()))

        merged = batch(first)
        merged.merge(batch(second))
        pooled = Tally()
        for value in first + second:
            pooled.add(value)
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-9,
                                            abs=1e-6)
        if pooled.count > 1:
            assert merged.variance == pytest.approx(pooled.variance,
                                                    rel=1e-6, abs=1e-6)
        assert merged.min == pooled.min
        assert merged.max == pooled.max


#: The values fed to the accumulator, one call each.
observations = st.lists(finite_floats, min_size=1, max_size=60)

#: Quantile levels whose ``int(q * 100)`` and ``int(round(q * 100))``
#: disagree (0.29 * 100 == 28.999999999999996), plus the usual three.
AWKWARD_QS = (0.29, 0.57, 0.58, 0.50, 0.90, 0.99)


class TestHistogramIsATallyWithBuckets:
    @given(observations)
    def test_moments_equal_a_bare_tally_bit_for_bit(self, calls):
        hist = Histogram()
        tally = Tally()
        for value in calls:
            hist.observe(value)
            tally.add(value)
        assert hist.count == tally.count
        assert hist.mean == tally.mean
        assert hist.min == tally.min and hist.max == tally.max
        # NaN below two observations: compare reprs.
        assert repr(hist.stddev) == repr(tally.stddev)
        assert sum(hist.counts) == tally.count

    @given(observations,
           st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=8))
    def test_quantile_is_monotone_and_inside_the_observed_range(self, calls,
                                                                qs):
        hist = Histogram()
        for value in calls:
            hist.observe(value)
        marks = [hist.quantile(q) for q in sorted(qs)]
        assert all(hist.min <= mark <= hist.max for mark in marks)
        assert all(a <= b for a, b in zip(marks, marks[1:]))
        assert hist.quantile(0.0) == hist.min

    @given(observations)
    def test_snapshot_reader_returns_exactly_the_live_quantiles(self, calls):
        hist = Histogram()
        for value in calls:
            hist.observe(value)
        live = hist.quantiles(AWKWARD_QS)
        assert list(live) == ["p29", "p57", "p58", "p50", "p90", "p99"]
        snapshot = hist.snapshot()
        # What a STATS frame carries: equal floats, not merely close ones.
        assert {key: snapshot[key] for key in ("p50", "p90", "p99")} \
            == hist.quantiles()

    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0 and math.isnan(hist.mean)
        assert hist.quantiles() is None
        assert all(math.isnan(hist.snapshot()[key])
                   for key in ("p50", "p90", "p99"))
        assert math.isnan(bucket_quantile(0.5, (1.0,), [0, 0], 0,
                                          math.inf, -math.inf))
        snapshot = hist.snapshot()
        assert math.isnan(snapshot["min"]) and math.isnan(snapshot["max"])


class TestRejectedObservationsLeaveNoTrace:
    """``observe`` validates before it touches a bucket, so ``counts``
    and ``count`` cannot drift apart."""

    @pytest.mark.parametrize("value, kept", [
        (math.nan, 1), (math.inf, 1), (-math.inf, 1),
    ])
    def test_counts_and_count_unchanged(self, value, kept):
        """``kept`` good observations come before the rejected one."""
        hist = Histogram(buckets=(1, 10))
        for _ in range(kept):
            hist.observe(3.0)
        before = (list(hist.counts), hist.count, hist.mean, hist.min,
                  hist.max)
        with pytest.raises(ValueError):
            hist.observe(value)
        assert (hist.counts, hist.count, hist.mean, hist.min,
                hist.max) == before
        assert sum(hist.counts) == hist.count == kept


class TestExactQuantiles:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_is_the_sorted_list_order_statistic(self, values):
        ordered = sorted(values)
        n = len(ordered)
        assert exact_quantiles(values, AWKWARD_QS) == {
            quantile_label(q): ordered[min(n - 1, int(q * n))]
            for q in AWKWARD_QS}

    def test_empty_and_defaults(self):
        assert exact_quantiles([]) is None
        assert exact_quantiles(np.array([7.0])) == {
            "p50": 7.0, "p90": 7.0, "p99": 7.0}

    def test_labels_round_rather_than_truncate(self):
        assert [quantile_label(q) for q in (0.29, 0.57, 0.58, 0.5)] \
            == ["p29", "p57", "p58", "p50"]
