"""Cross-engine consistency of traced wait decompositions.

The engines consume randomness in different orders, so per-request records
differ — but the *decomposition* of mean wait into push-wait, pull-queue
wait, and service must agree statistically, and within each engine the
decomposition must tie out exactly against the run's own tallies.
"""

import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs import (
    ColumnarSink,
    Histogram,
    RequestTracer,
    exact_quantiles,
    measured_miss_waits,
)
from tests.conftest import small_config


def averaged_breakdown(engine_cls, config, seeds=(1, 2, 3)):
    """Mean wait components per miss, averaged over seeded replicates."""
    totals = {"push_wait": 0.0, "pull_wait": 0.0, "service": 0.0,
              "mean_wait": 0.0, "pull_share": 0.0}
    for seed in seeds:
        tracer = RequestTracer(ColumnarSink(table="request"))
        engine_cls(config.with_(run__seed=seed),
                   request_tracer=tracer).run()
        b = tracer.breakdown()
        assert b.misses > 0
        totals["push_wait"] += b.push_wait / b.misses
        totals["pull_wait"] += b.pull_wait / b.misses
        totals["service"] += b.service / b.misses
        totals["mean_wait"] += b.mean_wait
        totals["pull_share"] += b.served_pull / b.misses
    return {k: v / len(seeds) for k, v in totals.items()}


class TestCrossEngineDecomposition:
    @pytest.mark.parametrize("algorithm,ttr", [
        (Algorithm.PURE_PULL, 20.0),
        (Algorithm.IPP, 2.0),
        (Algorithm.IPP, 20.0),
    ])
    def test_wait_components_within_tolerance(self, algorithm, ttr):
        config = small_config(algorithm, client__think_time_ratio=ttr,
                              run__measure_accesses=800)
        fast = averaged_breakdown(FastEngine, config)
        ref = averaged_breakdown(ReferenceEngine, config)
        assert fast["mean_wait"] == pytest.approx(
            ref["mean_wait"], rel=0.25, abs=2.0)
        assert fast["push_wait"] == pytest.approx(
            ref["push_wait"], rel=0.35, abs=2.0)
        assert fast["pull_wait"] == pytest.approx(
            ref["pull_wait"], rel=0.35, abs=2.0)
        assert fast["service"] == pytest.approx(
            ref["service"], rel=0.25, abs=0.5)
        assert fast["pull_share"] == pytest.approx(
            ref["pull_share"], abs=0.15)

    def test_pure_push_decomposition_agrees_exactly(self):
        config = small_config(Algorithm.PURE_PUSH,
                              run__measure_accesses=500)
        breakdowns = []
        for engine_cls in (FastEngine, ReferenceEngine):
            tracer = RequestTracer(ColumnarSink(table="request"))
            engine_cls(config, request_tracer=tracer).run()
            breakdowns.append(tracer.breakdown())
        fast, ref = breakdowns
        assert fast.misses == ref.misses
        assert fast.pull_wait == ref.pull_wait == 0.0
        assert fast.push_wait == pytest.approx(ref.push_wait)
        assert fast.service == pytest.approx(ref.service)


class TestDecompositionTiesToTallies:
    @pytest.mark.parametrize("engine_cls", [FastEngine, ReferenceEngine],
                             ids=["fast", "reference"])
    def test_components_sum_to_measured_mean(self, engine_cls):
        config = small_config(Algorithm.IPP, client__think_time_ratio=5.0,
                              run__measure_accesses=800)
        tracer = RequestTracer(ColumnarSink(table="request"))
        result = engine_cls(config, request_tracer=tracer).run()
        b = tracer.breakdown()
        # The decomposition partitions the run's own measured mean exactly.
        assert (b.push_wait + b.pull_wait + b.service) / b.misses == \
            pytest.approx(result.response_miss.mean)
        # The same waits reach both sides: bucketed like the MC's own
        # histogram they give the run's quantiles, and the tracer's
        # quantiles are their exact order statistics.
        waits = measured_miss_waits(tracer.sink.array())
        histogram = Histogram()
        histogram.observe_many(waits)
        assert histogram.quantile(0.50) == pytest.approx(
            result.response_miss.p50)
        assert histogram.quantile(0.99) == pytest.approx(
            result.response_miss.p99)
        assert tracer.wait_quantiles() == exact_quantiles(waits)
