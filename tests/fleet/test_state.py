"""Unit tests for the struct-of-arrays client fleet."""

import math

import numpy as np
import pytest

from repro.fleet.state import FleetState
from repro.workload.zipf import zipf_probabilities


def make_fleet(num_clients=8, mean_think_time=5.0, think_time_spread=0.0,
               zipf_offset_spread=0, cache_size=3, cache_size_spread=0.0,
               steady_state_perc=0.0, db_size=20, seed=0, value_order=None):
    probs = zipf_probabilities(db_size, 0.95)
    if value_order is None:
        value_order = np.arange(db_size, dtype=np.int64)
    return FleetState(
        num_clients=num_clients, mean_think_time=mean_think_time,
        think_time_spread=think_time_spread,
        zipf_offset_spread=zipf_offset_spread,
        cache_size=cache_size, cache_size_spread=cache_size_spread,
        steady_state_perc=steady_state_perc, probabilities=probs,
        value_order=value_order,
        threshold=None, rng=np.random.default_rng(seed))


class TestConstruction:
    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            make_fleet(num_clients=0)

    def test_nonpositive_think_time_rejected(self):
        with pytest.raises(ValueError):
            make_fleet(mean_think_time=0.0)

    @pytest.mark.parametrize("name, value", [
        ("mean_think_time", math.nan),
        ("steady_state_perc", math.nan),
        ("steady_state_perc", 1.5),
        ("value_order", np.arange(19, dtype=np.int64)),
        ("cache_size", -3),
        ("zipf_offset_spread", -1),
    ], ids=["think-nan", "steady-nan", "steady-1.5", "value-order-short",
            "cache-negative", "offset-spread-negative"])
    def test_bad_argument_is_rejected_by_name(self, name, value):
        """Each would otherwise skew a run silently, clamp, or fail far
        from its cause (an ``IndexError`` mid-run, numpy's ``high <= 0``)."""
        with pytest.raises(ValueError, match=name):
            make_fleet(**{name: value})

    def test_homogeneous_population(self):
        fleet = make_fleet()
        assert (fleet.offsets == 0).all()
        assert np.allclose(fleet.think_means, 5.0)
        assert (fleet.cache_sizes == 3).all()
        assert not fleet.steady.any()

    def test_heterogeneous_draws_stay_bounded(self):
        fleet = make_fleet(num_clients=200, think_time_spread=0.5,
                           zipf_offset_spread=7, cache_size_spread=0.5)
        assert fleet.think_means.min() >= 2.5 - 1e-9
        assert fleet.think_means.max() <= 7.5 + 1e-9
        assert len(set(fleet.think_means.tolist())) > 1
        assert fleet.offsets.min() >= 0
        assert fleet.offsets.max() <= 7
        assert (fleet.cache_sizes >= 0).all()

    def test_think_spread_does_not_shift_other_draws(self):
        """Static attributes are drawn in a fixed order, so toggling one
        heterogeneity knob must not change later knobs' sequences."""
        base = make_fleet(num_clients=50, seed=3)
        spread = make_fleet(num_clients=50, seed=3, think_time_spread=0.5)
        assert np.array_equal(base.offsets, spread.offsets)
        assert np.array_equal(base.cache_sizes, spread.cache_sizes)
        assert np.array_equal(base.steady, spread.steady)


class TestGenerateDeliver:
    def test_no_accesses_before_horizon(self):
        fleet = make_fleet()
        fleet.next_access[:] = 100.0
        assert len(fleet.generate(0, 0)) == 0
        assert fleet.generated == 0

    def test_miss_registers_waiter(self):
        fleet = make_fleet(num_clients=4, db_size=1)
        fleet.next_access[:] = 0.25
        pages = fleet.generate(0, 0)
        assert list(pages) == [0, 0, 0, 0]
        assert (fleet.outstanding == 0).all()
        assert np.isinf(fleet.next_access).all()
        assert fleet.generated == 4
        assert fleet.offered == 4

    def test_deliver_completes_every_snooper(self):
        fleet = make_fleet(num_clients=4, db_size=1)
        fleet.next_access[:] = 0.25
        fleet.generate(0, 0)
        fleet.deliver(0, 3.0)
        assert fleet.delivered == 4
        assert (fleet.wait_count == 1).all()
        assert np.allclose(fleet.wait_sum, 2.75)
        assert (fleet.outstanding == -1).all()
        assert np.isfinite(fleet.next_access).all()

    def test_deliver_unwaited_page_is_noop(self):
        fleet = make_fleet()
        fleet.deliver(5, 1.0)
        assert fleet.delivered == 0

    def test_warm_cache_absorbs_everything_within_reach(self):
        fleet = make_fleet(num_clients=6, db_size=4, cache_size=5,
                           steady_state_perc=1.0, mean_think_time=20.0)
        fleet.next_access[:] = 0.5
        out = fleet.generate(0, 0)
        assert len(out) == 0
        assert fleet.absorbed_by_cache == fleet.generated
        assert fleet.generated >= 6
        assert (fleet.wait_count >= 1).all()
        snap = fleet.snapshot()
        assert snap["user_wait_mean"] == 0.0
        assert snap["jain_index"] == 1.0

    def test_offset_rotates_wire_pages(self):
        base = make_fleet(num_clients=5, db_size=4, seed=11)
        rotated = make_fleet(num_clients=5, db_size=4, seed=11)
        rotated.offsets[:] = 2
        base.next_access[:] = 0.5
        rotated.next_access[:] = 0.5
        pages = base.generate(0, 0)
        assert list(rotated.generate(0, 0)) == [(p + 2) % 4 for p in pages]


class TestResetAndSnapshot:
    def test_reset_keeps_inflight_request_times(self):
        fleet = make_fleet(num_clients=3, db_size=1)
        fleet.next_access[:] = 0.5
        fleet.generate(0, 0)
        fleet.reset_stats()
        assert fleet.generated == 0
        assert fleet.offered == 0
        assert fleet.snapshot()["still_waiting"] == 3
        fleet.deliver(0, 4.0)
        # The pre-reset request time survives: waits span the boundary.
        assert np.allclose(fleet.wait_sum, 3.5)

    def test_snapshot_without_completions_is_nan(self):
        snap = make_fleet().snapshot()
        assert snap["users_measured"] == 0
        assert math.isnan(snap["mean_wait"])
        assert math.isnan(snap["user_wait_p99"])
        assert math.isnan(snap["jain_index"])

    def test_snapshot_keys_are_stable(self):
        assert set(make_fleet().snapshot()) == {
            "num_clients", "users_measured", "still_waiting",
            "generated", "absorbed", "filtered", "offered", "delivered",
            "mean_wait", "max_wait",
            "user_wait_mean", "user_wait_min", "user_wait_max",
            "user_wait_p50", "user_wait_p90", "user_wait_p99",
            "jain_index",
        }

    def test_still_waiting_clients_are_censored(self):
        fleet = make_fleet(num_clients=2, db_size=20, seed=1)
        fleet.next_access[:] = 0.5
        fleet.generate(0, 0)
        first, second = fleet.outstanding.tolist()
        assert first != second  # distinct pages for this seed
        fleet.deliver(first, 2.0)
        snap = fleet.snapshot()
        assert snap["users_measured"] == 1
        assert snap["still_waiting"] == 1
        assert snap["mean_wait"] == pytest.approx(1.5)

    def test_set_threshold_slots_updates_fast_path(self):
        fleet = make_fleet()
        fleet.set_threshold_slots(7.0)
        assert fleet._threshold_slots == 7.0
