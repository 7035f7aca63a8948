"""Unit tests for run-result records."""

import math
import pickle

import pytest

from repro.core.metrics import RunResult, TallySnapshot
from repro.sim.monitor import Histogram


def make_result(**overrides):
    defaults = dict(
        algorithm="ipp", seed=0,
        response_miss=TallySnapshot(count=10, mean=50.0, stddev=5.0,
                                    min=40.0, max=60.0),
        response_all=TallySnapshot(count=20, mean=25.0, stddev=3.0,
                                   min=0.0, max=60.0),
        mc_hits=10, mc_misses=10, mc_pulls_sent=8,
        requests_enqueued=100, requests_duplicate=30, requests_dropped=70,
        requests_served=95,
        slots_push=500, slots_pull=300, slots_padding=10, slots_idle=0,
        queue_length_mean=12.0, measured_slots=810.0, total_slots=2000.0,
    )
    defaults.update(overrides)
    return RunResult(**defaults)


class TestTallySnapshot:
    def test_of_empty_tally(self):
        snapshot = TallySnapshot.of(Histogram())
        assert snapshot.count == 0
        assert math.isnan(snapshot.mean)

    def test_of_populated_tally(self):
        histogram = Histogram()
        for value in (1.0, 3.0):
            histogram.observe(value)
        snapshot = TallySnapshot.of(histogram)
        assert snapshot.count == 2
        assert snapshot.mean == 2.0
        assert snapshot.min == 1.0 and snapshot.max == 3.0
        assert (snapshot.p50, snapshot.p90, snapshot.p99) == tuple(
            histogram.quantiles().values())


class TestRunResult:
    def test_miss_rate(self):
        assert make_result().mc_miss_rate == pytest.approx(0.5)

    def test_miss_rate_no_accesses_is_nan(self):
        result = make_result(mc_hits=0, mc_misses=0)
        assert math.isnan(result.mc_miss_rate)

    def test_drop_rate(self):
        result = make_result()
        assert result.request_offers == 200
        assert result.drop_rate == pytest.approx(0.35)

    def test_drop_rate_no_offers(self):
        result = make_result(requests_enqueued=0, requests_duplicate=0,
                             requests_dropped=0)
        assert result.drop_rate == 0.0

    def test_pull_slot_share(self):
        assert make_result().pull_slot_share == pytest.approx(300 / 810)

    def test_to_dict_round_trip(self):
        data = make_result(warmup_times={0.5: 100.0}).to_dict()
        assert data["warmup_times"] == {"0.5": 100.0}
        assert data["drop_rate"] == pytest.approx(0.35)
        assert data["response_miss"]["mean"] == 50.0

    def test_picklable(self):
        result = make_result()
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result

    def test_params_bag(self):
        result = make_result(params={"ttr": 50})
        assert result.params["ttr"] == 50
