"""Sampling policies: selection, weights, and tracer integration."""

import math

import pytest

from repro.core.fast import FastEngine
from repro.experiments.tracing import write_request_trace
from repro.obs import (
    ColumnarSink,
    EveryNSampling,
    RequestTracer,
    ReservoirSampling,
    load_columnar,
    measured_miss_waits,
    sample_stream,
)

from tests.conftest import small_config
from tests.obs.test_requests import _record


def _records(count):
    """A synthetic miss stream with distinguishable waits."""
    return [_record(index=i, issued_at=float(i), served_at=float(i) + 1 + i % 7,
                    wait=1.0 + i % 7, queue_wait=float(i % 7), service=1.0)
            for i in range(count)]


class TestEveryNSampling:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            EveryNSampling(0)

    def test_keeps_every_nth_index_with_weight_n(self):
        policy = EveryNSampling(3)
        kept = sample_stream(_records(10), policy)
        assert [record.index for record in kept] == [0, 3, 6, 9]
        assert policy.weight == 3.0
        assert policy.seen == 10 and policy.sampled == 4

    def test_n_equals_one_keeps_everything(self):
        policy = EveryNSampling(1)
        kept = sample_stream(_records(5), policy)
        assert len(kept) == 5
        assert policy.weight == 1.0

    def test_describe_carries_parameters_and_counts(self):
        policy = EveryNSampling(4)
        sample_stream(_records(8), policy)
        assert policy.describe() == {
            "policy": "every_n", "n": 4, "seen": 8, "sampled": 2}


class TestReservoirSampling:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampling(0, seed=1)

    def test_short_stream_keeps_everything_at_weight_one(self):
        policy = ReservoirSampling(10, seed=3)
        kept = sample_stream(_records(6), policy)
        assert [record.index for record in kept] == list(range(6))
        assert policy.weight == 1.0

    def test_long_stream_keeps_capacity_records(self):
        policy = ReservoirSampling(25, seed=3)
        kept = sample_stream(_records(500), policy)
        assert len(kept) == 25
        assert policy.weight == 500 / 25
        indexes = [record.index for record in kept]
        assert indexes == sorted(indexes)
        # Later elements do get in: the reservoir is not just the prefix.
        assert max(indexes) >= 25

    def test_same_seed_reproduces_the_sample(self):
        first = sample_stream(_records(300), ReservoirSampling(20, seed=11))
        second = sample_stream(_records(300), ReservoirSampling(20, seed=11))
        assert [r.index for r in first] == [r.index for r in second]

    def test_different_seeds_sample_differently(self):
        first = sample_stream(_records(300), ReservoirSampling(20, seed=11))
        second = sample_stream(_records(300), ReservoirSampling(20, seed=12))
        assert [r.index for r in first] != [r.index for r in second]

    def test_drain_is_idempotent(self):
        policy = ReservoirSampling(5, seed=1)
        sample_stream(_records(50), policy)
        assert policy.drain() == []

    def test_accept_after_drain_raises(self):
        policy = ReservoirSampling(5, seed=1)
        sample_stream(_records(50), policy)
        with pytest.raises(RuntimeError):
            policy.accept(50)

    def test_sampling_is_roughly_uniform_over_the_stream(self):
        # 200 draws of a 50-slot reservoir over a 400-long stream: the
        # mean kept index should approach the stream's mid-point.
        total = 0.0
        count = 0
        for seed in range(20):
            kept = sample_stream(_records(400),
                                 ReservoirSampling(50, seed=seed))
            total += sum(record.index for record in kept)
            count += len(kept)
        assert count == 20 * 50
        assert total / count == pytest.approx(400 / 2, rel=0.10)


class TestTracerIntegration:
    def _run(self, sampling=None):
        config = small_config()
        tracer = RequestTracer(ColumnarSink(table="request"),
                               sampling=sampling)
        FastEngine(config, request_tracer=tracer).run()
        return tracer

    def test_sampling_none_is_the_historic_exact_path(self):
        full = self._run()
        again = self._run(sampling=EveryNSampling(1))
        # 1-in-1 sampling keeps every access at weight 1 — identical
        # (bit-for-bit) counts and wait totals.
        assert again.breakdown().to_dict() == full.breakdown().to_dict()
        assert again.wait_quantiles() == full.wait_quantiles()

    def test_unsampled_breakdown_counts_stay_exact_ints(self):
        full = self._run()
        stats = full.breakdown()
        assert isinstance(stats.accesses, int)
        assert isinstance(stats.misses, int)

    def test_every_n_keeps_exactly_the_nth_records(self):
        full = self._run().sink.array()
        sampled = self._run(sampling=EveryNSampling(5))
        expected = full[full["index"] % 5 == 0]
        assert sampled.sink.array().tobytes() == expected.tobytes()
        assert sampled.records_emitted == len(expected)
        assert sampled.accesses_seen == len(full)

    def test_every_n_corrected_estimates_track_the_full_trace(self):
        full = self._run()
        sampled = self._run(sampling=EveryNSampling(5))
        exact = full.breakdown()
        estimate = sampled.breakdown()
        assert estimate.accesses == pytest.approx(exact.accesses, rel=0.15)
        assert estimate.mean_wait == pytest.approx(exact.mean_wait, rel=0.25)
        quantiles = sampled.wait_quantiles()
        assert quantiles is not None
        assert quantiles["p90"] == pytest.approx(
            full.wait_quantiles()["p90"], rel=0.35)

    def test_reservoir_defers_records_until_finalize(self):
        sampled = self._run(sampling=ReservoirSampling(40, seed=9))
        sink = sampled.sink
        assert sampled.records_emitted == 0 and not sink.emitted
        stats = sampled.breakdown()  # auto-finalizes
        assert sampled.records_emitted == sink.emitted > 0
        assert sink.emitted <= 40
        # The reservoir spans settle + measure; the breakdown's weighted
        # count estimates the *measured* population only.
        exact = self._run().breakdown().accesses
        assert stats.accesses == pytest.approx(exact, rel=0.30)
        # finalize is idempotent: a second aggregate query adds nothing.
        sampled.wait_quantiles()
        assert sampled.records_emitted == sink.emitted

    def test_reservoir_weighted_mean_tracks_the_full_trace(self):
        full = self._run()
        sampled = self._run(sampling=ReservoirSampling(60, seed=4))
        assert sampled.breakdown().mean_wait == pytest.approx(
            full.breakdown().mean_wait, rel=0.35)

    def test_hits_never_enter_the_wait_histogram(self):
        sampled = self._run(sampling=EveryNSampling(3))
        stats = sampled.breakdown()
        waits = measured_miss_waits(sampled.sink.array())
        assert len(waits) * sampled.weight == pytest.approx(stats.misses)
        assert (waits > 0).all()
        assert not math.isnan(stats.mean_wait)

    @pytest.mark.parametrize("policy", [
        lambda: EveryNSampling(7),
        lambda: ReservoirSampling(40, seed=2),
    ], ids=["every_n", "reservoir"])
    def test_sampled_is_the_row_count_of_the_written_file(self, tmp_path,
                                                          policy):
        policy = policy()
        path = tmp_path / "req.npy"
        write_request_trace(small_config(), path, sampling=policy)
        rows = load_columnar(path).shape[0]
        assert policy.describe()["sampled"] == rows
        assert 0 < rows < policy.seen
