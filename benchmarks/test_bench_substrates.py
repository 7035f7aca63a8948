"""Micro-benchmarks of the substrates the simulation engines sit on.

These are conventional pytest-benchmark timings (many rounds) covering
the hot paths: schedule generation, distance-table construction, Zipf
sampling, cache churn, queue traffic, and raw engine throughput.
"""

import numpy as np
import pytest

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.cache.base import Cache
from repro.cache.pix import PixPolicy
from repro.client.threshold import ThresholdFilter
from repro.core.algorithms import Algorithm
from repro.core.config import ClientConfig, RunConfig, ServerConfig, SystemConfig
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.fleet.state import _VECTOR_MIN_BATCH, FleetState
from repro.server.queue import BoundedRequestQueue
from repro.workload.zipf import (
    _GUIDE_MIN_BATCH,
    ZipfSampler,
    zipf_probabilities,
)


def paper_assignment():
    return DiskAssignment.from_ranking(list(range(1000)), (100, 400, 500),
                                       (3, 2, 1))


def test_build_paper_schedule(benchmark):
    assignment = paper_assignment()
    schedule = benchmark(build_schedule, assignment)
    assert len(schedule) == 1608


def test_distance_table_construction(benchmark):
    def build():
        schedule = build_schedule(paper_assignment())
        return schedule.distance_table(1000)

    table = benchmark(build)
    assert table.shape == (1000, 1608)


def test_zipf_sampling_100k(benchmark):
    sampler = ZipfSampler(zipf_probabilities(1000, 0.95),
                          np.random.default_rng(0))
    draws = benchmark(sampler.sample, 100_000)
    assert draws.size == 100_000


@pytest.mark.parametrize("size", [1, 2, 8, _GUIDE_MIN_BATCH - 1,
                                  _GUIDE_MIN_BATCH])
def test_zipf_sampling_small_batches(benchmark, size):
    """The fleet's regime (1-2 draws a call) and both sides of the size
    below which ``ZipfSampler.sample`` keeps ``searchsorted``."""
    sampler = ZipfSampler(zipf_probabilities(1000, 0.95),
                          np.random.default_rng(0))
    draws = benchmark(sampler.sample, size)
    assert draws.size == size


@pytest.mark.parametrize("size", [1, 2, _VECTOR_MIN_BATCH - 1,
                                  _VECTOR_MIN_BATCH])
def test_fleet_generate_batches(benchmark, size):
    """One slot's ``FleetState.generate`` with ``size`` clients due: the
    fleet's regime (1-2 a slot) and both sides of the batch size below
    which it runs the scalar kernel.  Round ``t`` generates slot ``t``,
    whose calendar bucket holds ``size`` clients; a hit re-thinks past
    the window, so no round sees another's clients."""
    rounds = 500
    fleet = FleetState(
        num_clients=size * rounds, mean_think_time=1e9,
        think_time_spread=0.5, zipf_offset_spread=200, cache_size=100,
        cache_size_spread=0.5, steady_state_perc=0.8,
        probabilities=zipf_probabilities(1000, 0.95),
        value_order=np.arange(1000),
        threshold=ThresholdFilter(build_schedule(paper_assignment()), 0.25),
        rng=np.random.default_rng(0))
    fleet.next_access[:] = np.arange(size * rounds) // size + 0.5
    fleet.generate(-1, 0)  # builds the window over every round's slot
    slots = iter(range(rounds))
    calls = 0  # ``rounds``, or 1 under --benchmark-disable

    def generate():
        nonlocal calls
        calls += 1
        t = next(slots)
        return fleet.generate(t, t)

    benchmark.pedantic(generate, rounds=rounds)
    assert fleet.generated == size * calls


def test_pix_cache_churn(benchmark):
    probs = zipf_probabilities(1000, 0.95)
    freqs = {p: (3 if p < 100 else 2 if p < 500 else 1)
             for p in range(1000)}
    pages = ZipfSampler(probs, np.random.default_rng(1)).sample(10_000)

    def churn():
        cache = Cache(100, PixPolicy(probs, freqs))
        hits = 0
        for page in pages:
            if cache.access(page):
                hits += 1
            else:
                cache.insert(page)
        return hits

    hits = benchmark(churn)
    assert hits > 0


def test_queue_traffic(benchmark):
    pages = np.random.default_rng(2).integers(0, 1000, 20_000).tolist()

    def traffic():
        queue = BoundedRequestQueue(100)
        for i, page in enumerate(pages):
            queue.offer(page)
            if i % 3 == 0 and len(queue):
                queue.pop()
        return queue.offers

    assert benchmark(traffic) == 20_000


def _small_system(algorithm):
    return SystemConfig(
        algorithm=algorithm,
        client=ClientConfig(cache_size=5, think_time=4.0,
                            think_time_ratio=5.0),
        server=ServerConfig(db_size=20, disk_sizes=(4, 6, 10),
                            rel_freqs=(3, 2, 1), queue_size=5),
        run=RunConfig(settle_accesses=100, measure_accesses=400, seed=1),
    )


def test_fast_engine_throughput(benchmark):
    result = benchmark(lambda: FastEngine(_small_system(Algorithm.IPP)).run())
    assert result.mc_misses > 0


def test_reference_engine_throughput(benchmark):
    result = benchmark(
        lambda: ReferenceEngine(_small_system(Algorithm.IPP)).run())
    assert result.mc_misses > 0


def test_fast_engine_traced_throughput(benchmark):
    """Tracing overhead: same run as test_fast_engine_throughput but with
    the slot tracer attached to an in-memory sink.  Compare the two means
    to see what a row per slot costs."""
    from repro.obs import ColumnarSink, SlotTracer

    config = _small_system(Algorithm.IPP)

    def traced():
        return FastEngine(
            config, tracer=SlotTracer(ColumnarSink(table="slot"))).run()

    result = benchmark(traced)
    assert result.mc_misses > 0


def test_fast_engine_request_traced_memory(benchmark):
    """Request-tracing overhead, in-memory sink: one record per measured
    access (far fewer than per-slot) plus the queue-observer wrapper.
    Compare against test_fast_engine_throughput for the attached cost and
    against test_fast_engine_traced_throughput for the per-slot tracer."""
    from repro.obs import ColumnarSink, RequestTracer

    config = _small_system(Algorithm.IPP)

    def traced():
        sink = ColumnarSink(table="request")
        return FastEngine(config,
                          request_tracer=RequestTracer(sink)).run()

    result = benchmark(traced)
    assert result.mc_misses > 0


def test_fast_engine_request_traced_columnar(benchmark, tmp_path):
    """Request-tracing overhead with records written to a columnar
    ``.npy`` — what a user pays when tracing to disk."""
    from repro.obs import ColumnarSink, RequestTracer

    config = _small_system(Algorithm.IPP)
    counter = iter(range(10_000_000))

    def traced():
        path = tmp_path / f"req_{next(counter)}.npy"
        with ColumnarSink(path, table="request") as sink:
            return FastEngine(config,
                              request_tracer=RequestTracer(sink)).run()

    result = benchmark(traced)
    assert result.mc_misses > 0


def test_fast_engine_request_tracing_disabled(benchmark):
    """Guard: with no request tracer the general loop pays one hoisted
    boolean per access — this must stay indistinguishable from
    test_fast_engine_throughput (force_general isolates the loop choice)."""
    config = _small_system(Algorithm.IPP)

    def untraced():
        return FastEngine(config, force_general=True).run()

    result = benchmark(untraced)
    assert result.mc_misses > 0


def test_pure_push_analytic_throughput(benchmark):
    config = SystemConfig(algorithm=Algorithm.PURE_PUSH,
                          run=RunConfig(settle_accesses=500,
                                        measure_accesses=5000, seed=1))
    result = benchmark(lambda: FastEngine(config).run())
    assert result.mc_misses > 0
