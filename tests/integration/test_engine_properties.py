"""Property-based and failure-injection tests of the simulation engines."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.core.fast import FastEngine
from repro.core.runtime import SimulationStall
from repro.core.simulation import ReferenceEngine
from repro.obs import MemorySink, RequestTracer
from tests.config_strategies import system_configs
from tests.conftest import small_config

ENGINE_SETTINGS = settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

#: Test-side ``(floor, cap)`` on legal draws that keeps every run small:
#: a short run within a 2000-5000 slot budget; at most 40 VC and 40 fleet
#: accesses a slot; and fleet offsets and cache sizes that numpy's int64
#: and a finite ``think_time * (1 + spread)`` hold.
RUN_SCALE = {
    "run.settle_accesses": (None, 20),
    "run.measure_accesses": (None, 40),
    "run.max_slots": (2000, 5000),
    "fleet.num_clients": (None, 40),
    "client.think_time_ratio": (None, 40),
    "client.think_time": (1, None),
    "fleet.think_time": (1, 1e6),
    "fleet.zipf_offset_spread": (None, 10**6),
    "fleet.cache_size": (None, 10**6),
}
#: The fields a cross-field rule names when it rejects legal values.
CROSS_FIELD = {"server.disk_sizes", "server.chop", "client.cache_size",
               "scheduler.reprogram_interval"}


def run_checked(config, engine_cls, traced):
    """Run ``config``; unless it stalls at ``max_slots``, check that every
    accounting identity holds."""
    tracer = RequestTracer(MemorySink()) if traced else None
    engine = engine_cls(config, request_tracer=tracer)
    try:
        result = engine.run()
    except SimulationStall as exc:
        assert f"max_slots={config.run.max_slots}" in str(exc)
        assert engine.state.server.ticks <= config.run.max_slots
        return
    measure = config.run.measure_accesses
    # The measured window contains exactly the configured accesses.
    assert result.mc_hits + result.mc_misses == measure
    assert result.response_all.count == measure
    assert result.response_miss.count == result.mc_misses
    # Response times are non-negative and bounded by the run.
    if result.response_miss.count:
        assert result.response_miss.min >= 0
        assert result.response_miss.max <= result.total_slots
    # Hits contribute zeros: the all-access mean is the diluted miss mean.
    if result.mc_misses:
        expected = result.response_miss.mean * result.mc_miss_rate
        assert math.isclose(result.response_all.mean, expected,
                            rel_tol=1e-9, abs_tol=1e-9)
    # The offers partition, by outcome and by source.
    queue = engine.state.server.queue
    assert queue.offers == queue.enqueued + queue.duplicates + queue.dropped
    assert 0.0 <= result.drop_rate <= 1.0
    assert (result.requests_served
            <= result.requests_enqueued + config.server.queue_size)
    fleet = result.fleet
    if config.algorithm.uses_backchannel:
        vc = result.vc_generated - result.vc_absorbed - result.vc_filtered
        assert result.request_offers == (
            result.mc_pulls_sent + vc + (fleet["offered"] if fleet else 0))
    else:
        assert result.request_offers == 0
    # Pull slots only on the MUX coin's heads: Binomial(slots, PullBW),
    # bounded five standard deviations out (exact at PullBW 0 and 1).
    slots = (result.slots_push + result.slots_pull + result.slots_padding
             + result.slots_idle)
    p = config.pull_bw
    assert result.slots_pull <= p * slots + 5 * math.sqrt(
        slots * p * (1 - p))
    if config.algorithm is Algorithm.PURE_PULL:
        assert result.slots_push == 0
    # Censored vs lost: every fleet miss is delivered or still waiting
    # (plus at most one request per client from before the window).
    if fleet:
        misses = fleet["generated"] - fleet["absorbed"]
        assert fleet["offered"] + fleet["filtered"] == misses
        assert 0 <= (fleet["delivered"] + fleet["still_waiting"]
                     - misses) <= config.fleet.num_clients
    if tracer is not None:
        # The MC loses no access: each one is a record, none left open.
        records = tracer.sink.records
        assert tracer.records_emitted == tracer.accesses_seen
        assert sum(record.measured for record in records) == measure
        missed = [record for record in records if not record.hit]
        assert sum(record.measured for record in missed) == result.mc_misses
        for record in missed:
            assert math.isclose(record.queue_wait + record.service,
                                record.wait, rel_tol=1e-9, abs_tol=1e-9)


def reject_or_run(drawn, traced):
    """The drawn config is rejected naming one of its illegal fields or a
    cross-field rule's field, or it passes :func:`run_checked` on both
    engines."""
    algorithm, updates, broken = drawn
    try:
        config = SystemConfig(algorithm=algorithm).with_(**updates)
    except ValueError as exc:
        assert str(exc).split(" ", 1)[0] in broken | CROSS_FIELD, exc
        return
    assert not broken, f"accepted illegal {sorted(broken)}"
    for engine_cls in (FastEngine, ReferenceEngine):
        run_checked(config, engine_cls, traced)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=system_configs(scale=RUN_SCALE, broken_fields=1),
       traced=st.booleans())
def test_run_invariants(drawn, traced):
    """Every drawn config, over all six sections, is rejected naming a
    field, or runs on both engines to completion with its accounting
    intact, or stalls at ``max_slots``."""
    reject_or_run(drawn, traced)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=system_configs(scale=RUN_SCALE, broken_fields=0,
                            algorithms=(Algorithm.IPP,)),
       traced=st.booleans())
def test_ipp_knobs_never_break_invariants(drawn, traced):
    """Legal IPP configs only: PullBW, ThresPerc and every other knob."""
    reject_or_run(drawn, traced)


@ENGINE_SETTINGS
@given(seed=st.integers(min_value=0, max_value=1000))
def test_warmup_times_always_monotone(seed):
    config = small_config(Algorithm.IPP, run__seed=seed)
    result = FastEngine(config).run_warmup()
    assert result.warmup_times is not None
    levels = sorted(result.warmup_times)
    times = [result.warmup_times[level] for level in levels]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)


class TestFailureInjection:
    def test_tiny_queue_degrades_gracefully(self):
        """A 1-slot queue drops nearly everything under load but the run
        still completes with sane statistics."""
        config = small_config(Algorithm.IPP,
                              client__think_time_ratio=30.0,
                              server__queue_size=1,
                              run__measure_accesses=150)
        result = FastEngine(config).run()
        assert result.drop_rate > 0.3
        assert result.response_miss.count == result.mc_misses

    def test_starved_pull_bandwidth_still_terminates(self):
        config = small_config(Algorithm.IPP,
                              client__think_time_ratio=30.0,
                              server__pull_bw=0.05,
                              run__measure_accesses=100)
        result = FastEngine(config).run()
        # With 5% pull slots the push program carries nearly everything.
        assert result.slots_push > result.slots_pull

    def test_pathological_skew_terminates(self):
        """θ=2 concentrates nearly all mass on one page; both extremes of
        cache behaviour must still terminate."""
        for cache in (0, 5):
            config = small_config(Algorithm.IPP,
                                  client__zipf_theta=2.0,
                                  client__cache_size=cache,
                                  run__measure_accesses=100)
            result = FastEngine(config).run()
            assert result.mc_hits + result.mc_misses == 100

    def test_vc_rate_underflowing_to_zero_runs_on_both_engines(self):
        """A subnormal ThinkTimeRatio is legal and its VC rate is 0.0: the
        reference engine divided by it for the mean gap."""
        config = small_config(Algorithm.IPP, client__think_time_ratio=5e-324,
                              run__measure_accesses=50)
        for engine_cls in (FastEngine, ReferenceEngine):
            result = engine_cls(config).run()
            assert result.vc_generated == 0
            assert result.mc_hits + result.mc_misses == 50

    def test_uniform_access_terminates(self):
        config = small_config(Algorithm.IPP, client__zipf_theta=0.0,
                              run__measure_accesses=100)
        result = FastEngine(config).run()
        assert result.mc_misses > 0
