"""Unit tests for the measured client and warm-up tracking."""

import numpy as np
import pytest

from repro.cache.base import Cache
from repro.cache.p import PPolicy
from repro.client.measured import MeasuredClient, WarmupTracker
from repro.server.queue import Offer
from repro.workload.zipf import zipf_probabilities


def make_client(cache_size=3, n=10, warm_target=None, seed=0):
    probs = zipf_probabilities(n, 0.95)
    cache = Cache(cache_size, PPolicy(probs))
    return MeasuredClient(probs, cache, think_time=4.0,
                          rng=np.random.default_rng(seed),
                          warmup_target=warm_target)


class TestWarmupTracker:
    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            WarmupTracker(frozenset())

    def test_levels_cross_in_order(self):
        tracker = WarmupTracker(frozenset({0, 1, 2, 3}),
                                levels=(0.25, 0.5, 0.75, 1.0))
        tracker.on_insert(0, now=10.0)
        tracker.on_insert(99, now=11.0)  # non-target: ignored
        tracker.on_insert(1, now=20.0)
        assert tracker.crossing_times == {0.25: 10.0, 0.5: 20.0}
        assert not tracker.complete
        tracker.on_insert(2, now=30.0)
        tracker.on_insert(3, now=40.0)
        assert tracker.complete
        assert tracker.crossing_times[1.0] == 40.0

    def test_eviction_decrements_but_does_not_uncross(self):
        tracker = WarmupTracker(frozenset({0, 1}), levels=(0.5, 1.0))
        tracker.on_insert(0, now=1.0)
        tracker.on_evict(0)
        assert tracker.fraction == 0.0
        assert tracker.crossing_times == {0.5: 1.0}  # first crossing stands

    def test_single_insert_can_cross_multiple_levels(self):
        tracker = WarmupTracker(frozenset({5}), levels=(0.25, 0.5, 1.0))
        tracker.on_insert(5, now=3.0)
        assert tracker.crossing_times == {0.25: 3.0, 0.5: 3.0, 1.0: 3.0}
        assert tracker.complete

    def test_reinsert_does_not_double_count(self):
        """A target re-broadcast while already resident must not inflate
        the warm fraction (it used to count every insert)."""
        tracker = WarmupTracker(frozenset({0, 1}), levels=(0.5, 1.0))
        tracker.on_insert(0, now=1.0)
        tracker.on_insert(0, now=2.0)
        assert tracker.fraction == pytest.approx(0.5)
        assert not tracker.complete

    def test_unmatched_evict_does_not_go_negative(self):
        """Evicting a target that was never inserted is a no-op; the
        fraction stays consistent afterwards."""
        tracker = WarmupTracker(frozenset({0, 1}), levels=(0.5, 1.0))
        tracker.on_evict(0)
        assert tracker.fraction == 0.0
        tracker.on_insert(0, now=1.0)
        assert tracker.fraction == pytest.approx(0.5)

    def test_evict_then_reinsert_round_trips(self):
        tracker = WarmupTracker(frozenset({0, 1}), levels=(0.5, 1.0))
        tracker.on_insert(0, now=1.0)
        tracker.on_evict(0)
        tracker.on_evict(0)  # double evict: already gone, ignored
        assert tracker.fraction == 0.0
        tracker.on_insert(0, now=2.0)
        tracker.on_insert(1, now=3.0)
        assert tracker.complete


class TestMeasuredClient:
    def test_negative_think_time_rejected(self):
        probs = zipf_probabilities(5, 0.5)
        with pytest.raises(ValueError):
            MeasuredClient(probs, Cache(2, PPolicy(probs)), -1.0,
                           np.random.default_rng(0))

    def test_draw_page_in_range(self):
        client = make_client()
        for _ in range(200):
            assert 0 <= client.draw_page() < 10

    def test_stats_gated_by_measuring_flag(self):
        client = make_client()
        client.cache.insert(0)
        assert client.lookup(0, now=1.0)          # hit, not measuring
        assert not client.lookup(5, now=2.0)      # miss, not measuring
        assert client.hits == client.misses == 0
        client.measuring = True
        client.lookup(0, now=3.0)
        client.lookup(5, now=4.0)
        assert client.hits == 1 and client.misses == 1

    def test_hit_records_zero_response(self):
        client = make_client()
        client.measuring = True
        client.cache.insert(0)
        client.lookup(0, now=1.0)
        assert client.response_all.count == 1
        assert client.response_all.mean == 0.0
        assert client.response_miss.count == 0

    def test_receive_records_response_and_caches(self):
        client = make_client()
        client.measuring = True
        client.receive(7, requested_at=10.0, now=14.5)
        assert client.response_miss.mean == pytest.approx(4.5)
        assert client.response_all.mean == pytest.approx(4.5)
        assert 7 in client.cache

    def test_receive_before_request_rejected(self):
        client = make_client()
        with pytest.raises(ValueError):
            client.receive(1, requested_at=5.0, now=4.0)

    def test_receive_updates_warmup_tracker(self):
        client = make_client(cache_size=2, warm_target=frozenset({0, 1}))
        client.receive(0, requested_at=0.0, now=1.0)
        assert client.warmup is not None
        assert client.warmup.fraction == pytest.approx(0.5)
        # Fill the cache so the next insert evicts.
        client.receive(1, requested_at=0.0, now=2.0)
        assert client.warmup.fraction == pytest.approx(1.0)
        client.receive(9, requested_at=0.0, now=3.0)  # evicts a target
        assert client.warmup.fraction < 1.0

    def test_waiting_is_the_page_of_the_open_miss(self):
        client = make_client()
        assert client.waiting is None
        client.cache.insert(0)
        assert client.lookup(0, now=0.0)
        assert client.waiting is None  # a hit blocks on nothing
        assert not client.lookup(5, now=1.0)
        assert client.waiting == 5
        client.receive(5, requested_at=1.0, now=3.0)
        assert client.waiting is None

    def test_reset_stats(self):
        client = make_client()
        client.measuring = True
        client.lookup(5, now=0.0)
        client.receive(5, requested_at=0.0, now=2.0)
        client.record_pull_sent(5, 0.0, Offer.ENQUEUED)
        client.reset_stats()
        assert client.hits == client.misses == client.pulls_sent == 0
        assert client.accesses == 0
        assert client.response_all.count == 0

    def test_two_accumulators_carry_every_summary(self):
        from repro.sim.monitor import Histogram

        def accumulators(client):
            return {name for name, value in vars(client).items()
                    if isinstance(value, Histogram)}

        client = make_client()
        assert accumulators(client) == {"response_all", "response_miss"}
        client.measuring = True
        client.cache.insert(0)
        client.lookup(0, now=0.0)
        for wait in (2.0, 6.0, 40.0):
            client.receive(9, requested_at=0.0, now=wait)
        # Moments and quantiles come from the same object.
        assert client.response_all.count == 4
        assert client.response_miss.count == 3
        assert client.response_miss.mean == pytest.approx(16.0)
        assert (client.response_miss.min, client.response_miss.max) \
            == (2.0, 40.0)
        assert set(client.response_miss.quantiles()) == {"p50", "p90", "p99"}
        before = client.response_all
        client.reset_stats()
        assert accumulators(client) == {"response_all", "response_miss"}
        assert client.response_all is not before
        assert client.response_miss.quantiles() is None

    def test_miss_rate(self):
        client = make_client()
        client.measuring = True
        client.cache.insert(0)
        client.lookup(0, now=0.0)
        client.lookup(9, now=1.0)
        assert client.miss_rate == pytest.approx(0.5)


class TestAccessCounterCoversMeasuredWindow:
    """Regression: reset_stats used to leave ``accesses`` counting the
    warm-up/settle lookups, so any ratio over it mixed phases."""

    @pytest.mark.parametrize("engine_cls_name",
                             ["FastEngine", "ReferenceEngine"])
    def test_accesses_matches_measured_hits_plus_misses(self,
                                                        engine_cls_name):
        from repro.core.fast import FastEngine
        from repro.core.simulation import ReferenceEngine
        from tests.conftest import small_config

        engine_cls = {"FastEngine": FastEngine,
                      "ReferenceEngine": ReferenceEngine}[engine_cls_name]
        config = small_config(run__settle_accesses=80,
                              run__measure_accesses=150)
        engine = engine_cls(config)
        result = engine.run()
        mc = engine.state.mc
        # The warm-up -> measurement transition zeroed the counter, so it
        # covers exactly the measured window in both engines.
        assert mc.accesses == result.mc_hits + result.mc_misses == 150
