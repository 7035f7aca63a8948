"""Cross-engine consistency of traced wait decompositions.

The engines consume randomness in different orders, so per-request records
differ — but the *decomposition* of mean wait into push-wait, pull-queue
wait, and service must agree statistically, and within each engine the
decomposition must tie out exactly against the run's own tallies.
"""

import hashlib

import numpy as np
import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.experiments.figures import FIGURES
from repro.experiments.tracing import write_request_trace
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


class TestFullTracePinned:
    """A full request trace of figure 3a's representative point, pinned.

    The digest of the written rows and the summary lines ``trace
    --requests`` prints of them were recorded before the request-sampling
    path was deleted from the tracer; a full trace must keep them.
    """

    SHA256 = ("1d08ead5c478774b274a5227a124ac2f"
              "119e8ff954e762cfe4a9878396fa9465")
    SUMMARY = [
        "           stage  broadcast units  share  events\n"
        "----------------  ---------------  -----  ------\n"
        "           think          8,000.0  94.6%     400\n"
        "       push wait             0.00   0.0%       0\n"
        " pull queue wait            314.0   3.7%     145\n"
        "service (on air)            145.0   1.7%     145\n"
        "accesses 400 (hits 255 / misses 145), pulls sent 145 "
        "(enqueued 145, duplicate 0, dropped 0)",
        "measured miss wait quantiles: p50=2.0  p90=7.0  p99=12.0  "
        "max=12.0",
    ]

    def test_figure_3a_trace_bytes_and_summary(self, tmp_path):
        from repro.cli import _request_summary

        config = FIGURES["3a"].representative_config().with_(
            run__settle_accesses=300, run__measure_accesses=400)
        path = tmp_path / "req.npy"
        tracer = write_request_trace(config, path)
        array = np.load(path)
        assert tracer.records_emitted == array.shape[0] == 865
        assert hashlib.sha256(array.tobytes()).hexdigest() == self.SHA256
        assert _request_summary(array, tracer.think_time) == self.SUMMARY
