"""Micro-benchmarks of the substrates the simulation engines sit on.

These are conventional pytest-benchmark timings (many rounds) covering
the hot paths: schedule generation, distance-table construction, Zipf
sampling, cache churn, queue traffic, and raw engine throughput.
"""

import numpy as np

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.cache.base import Cache
from repro.cache.pix import PixPolicy
from repro.core.algorithms import Algorithm
from repro.core.config import ClientConfig, RunConfig, ServerConfig, SystemConfig
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.server.queue import BoundedRequestQueue
from repro.workload.zipf import ZipfSampler, zipf_probabilities


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
    the slot tracer attached to a discarding sink.  Compare the two means
    to see what a record per slot costs."""
    from repro.obs.trace import NullSink, SlotTracer

    config = _small_system(Algorithm.IPP)

    def traced():
        return FastEngine(config, tracer=SlotTracer(NullSink())).run()

    result = benchmark(traced)
    assert result.mc_misses > 0


def test_fast_engine_request_traced_memory(benchmark):
    """Request-tracing overhead, in-memory sink: one record per measured
    access (far fewer than per-slot) plus the queue-observer wrapper.
    Compare against test_fast_engine_throughput for the attached cost and
    against test_fast_engine_traced_throughput for the per-slot tracer."""
    from repro.obs import MemorySink, RequestTracer

    config = _small_system(Algorithm.IPP)

    def traced():
        return FastEngine(config,
                          request_tracer=RequestTracer(MemorySink())).run()

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
