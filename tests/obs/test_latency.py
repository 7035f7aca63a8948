"""The streaming accumulator: log buckets and interpolated quantiles.

(The file and class names predate the move of ``LatencyHistogram`` into
:class:`repro.sim.monitor.Histogram`; the test ids are pinned.)
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.monitor import LATENCY_BUCKETS, Histogram, log_buckets


class TestLogBuckets:
    def test_one_two_five_ladder(self):
        assert log_buckets(1.0, 100.0) == (
            1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

    def test_sub_unit_decades_stay_round(self):
        # Regression: the old running `decade *= 10.0` product drifted
        # (5e-06 came out as 4.9999999999999996e-06) and the final rung
        # could miss `high` entirely.  Recomputing each decade as
        # 10.0 ** exponent keeps every rung exact.
        assert log_buckets(1e-6, 1e-5) == (1e-6, 2e-6, 5e-6, 1e-5)
        assert log_buckets(1e-3, 1.0) == (
            1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1.0)

    @given(exponent=st.integers(-8, 5),
           low_mantissa=st.sampled_from([1.0, 2.0, 5.0]),
           high_mantissa=st.sampled_from([1.0, 2.0, 5.0]),
           span=st.integers(1, 10))
    def test_round_endpoints_survive(self, exponent, low_mantissa,
                                     high_mantissa, span):
        # Endpoints as users write them: round decimal literals.
        low = float(f"{low_mantissa:g}e{exponent}")
        high = float(f"{high_mantissa:g}e{exponent + span}")
        bounds = log_buckets(low, high)
        assert bounds[0] == low
        assert bounds[-1] == high
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(low <= b <= high for b in bounds)
        # ~3 rungs per decade: the ladder never degenerates or explodes.
        assert span <= len(bounds) <= 3 * (span + 1) + 1

    def test_respects_bounds(self):
        bounds = log_buckets(1.0, 1e5)
        assert bounds[0] == 1.0
        assert bounds[-1] == 1e5
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(10.0, 10.0)

    def test_default_buckets_cover_sub_slot_waits(self):
        assert LATENCY_BUCKETS[0] == 0.5
        assert LATENCY_BUCKETS[-1] == 1e5


class TestLatencyHistogram:
    def test_empty_quantiles_are_none(self):
        hist = Histogram()
        assert math.isnan(hist.quantile(0.5))
        assert hist.quantiles() is None

    def test_single_value_collapses_all_quantiles(self):
        hist = Histogram()
        hist.observe(7.0)
        quantiles = hist.quantiles()
        assert quantiles == {"p50": 7.0, "p90": 7.0, "p99": 7.0}

    def test_quantiles_clamp_to_observed_range(self):
        hist = Histogram()
        for value in (3.0, 4.0, 4.5):
            hist.observe(value)
        assert hist.quantile(0.0) >= 3.0
        assert hist.quantile(1.0) <= 4.5

    def test_interpolated_median_of_uniform_data(self):
        hist = Histogram()
        for value in range(1, 101):  # uniform on [1, 100]
            hist.observe(float(value))
        # Log buckets are coarse; interpolation should still land the
        # median within its owning bucket's ~2x span of the true value.
        assert hist.quantile(0.5) == pytest.approx(50.0, rel=0.5)
        assert hist.quantile(0.9) == pytest.approx(90.0, rel=0.5)

    def test_monotone_in_q(self):
        hist = Histogram()
        for value in (0.2, 1.5, 3.0, 8.0, 40.0, 900.0):
            hist.observe(value)
        marks = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert marks == sorted(marks)

    def test_extreme_quantiles_hit_observed_range(self):
        hist = Histogram()
        for value in (3.0, 4.0, 4.5):
            hist.observe(value)
        assert hist.quantile(0.0) == 3.0
        assert hist.quantile(1.0) == 4.5

    def test_rank_on_bucket_edge_interpolates_to_bound(self):
        hist = Histogram(buckets=(10.0, 20.0))
        hist.observe(5.0)
        hist.observe(15.0)
        # rank = 1.0 falls exactly on the first bucket's cumulative
        # count; full interpolation inside that bucket reaches its
        # upper bound.
        assert hist.quantile(0.5) == 10.0

    def test_empty_buckets_do_not_shift_quantiles(self):
        # Regression companion to the metrics fix: empty buckets between
        # observations must contribute nothing (the old loop carried a
        # dead `cumulative += count` for them).
        hist = Histogram(buckets=(1.0, 10.0, 100.0, 1000.0))
        hist.observe(0.5)
        hist.observe(500.0)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 500.0
        assert 0.5 <= hist.quantile(0.5) <= 500.0

    def test_rejects_out_of_range_q(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_inherits_histogram_protocol(self):
        hist = Histogram("x", "help")
        hist.observe(2.5)
        snapshot = hist.snapshot()
        assert snapshot["count"] == 1


class TestRunResultQuantiles:
    def test_engine_results_carry_quantiles(self, ipp_config):
        from repro.core.fast import FastEngine

        result = FastEngine(ipp_config).run()
        assert result.response_miss.p50 is not None
        assert result.response_miss.p50 <= result.response_miss.p90
        assert result.response_miss.p90 <= result.response_miss.p99
        assert (result.response_miss.min <= result.response_miss.p50
                <= result.response_miss.max)
        # All-access quantiles exist too (hits count as zero wait).
        assert result.response_all.p50 is not None

    def test_tally_snapshot_defaults_stay_none(self):
        from repro.core.metrics import TallySnapshot

        # An empty sample and a pre-quantile archive both read None.
        assert TallySnapshot.of(Histogram()) == TallySnapshot()
        archived = TallySnapshot(count=1, mean=1.0, min=1.0, max=1.0)
        assert archived.p50 is None and archived.p99 is None
        hist = Histogram()
        hist.observe(1.0)
        snapshot = TallySnapshot.of(hist)
        assert (snapshot.p50, snapshot.p90, snapshot.p99) == (1.0, 1.0, 1.0)
        assert (snapshot.count, snapshot.mean) == (1, 1.0)


class TestLatencyHistogramMerge:
    def test_merged_quantiles_match_pooled_stream(self):
        import random

        rng = random.Random(5)
        streams = [[rng.lognormvariate(3.0, 1.2) for _ in range(400)]
                   for _ in range(3)]
        pooled = Histogram("lat")
        merged = Histogram("lat")
        for stream in streams:
            part = Histogram("lat")
            for value in stream:
                part.observe(value)
                pooled.observe(value)
            merged.merge(part)
        assert merged.count == pooled.count
        assert merged.quantiles() == pooled.quantiles()
        assert merged.quantile(0.5) == pytest.approx(pooled.quantile(0.5))

    def test_merge_requires_identical_bucket_ladders(self):
        coarse = Histogram("a", buckets=(1.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("b").merge(coarse)
