"""The client fleet: workload fidelity, accounting, censoring."""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.net.client import (
    ClientFleet,
    FleetResult,
    FleetSettings,
    fit_slot_duration,
)
from repro.net.server import NetServer, NetServerSettings

CONFIG = SystemConfig(algorithm=Algorithm.IPP)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _drive(config, fleet_settings, *, seed=0, slots=500,
                 slot_duration=0.001):
    """Run a server to completion with a fleet attached; return the fleet
    and its results."""
    server = NetServer(config, NetServerSettings(
        slot_duration=slot_duration, max_slots=slots))
    await server.start()
    fleet = ClientFleet(config, "127.0.0.1", server.port, slot_duration,
                        fleet_settings, seed=seed)
    try:
        await fleet.start()
        await server.wait_finished()
        await asyncio.sleep(10 * slot_duration)
        result = await fleet.stop(fetch_stats=True)
    finally:
        await server.stop()
    return fleet, result


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"num_clients": 0},
        {"think_time": 0.0},
        {"settle_slots": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FleetSettings(**kwargs)

    def test_slot_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="slot_duration"):
            ClientFleet(CONFIG, "127.0.0.1", 1, 0.0)

    def test_cannot_start_twice(self):
        fleet = ClientFleet(CONFIG, "127.0.0.1", 1, 0.001,
                            FleetSettings(num_clients=1))

        async def scenario():
            fleet._started = True
            await fleet.start()

        with pytest.raises(RuntimeError, match="already started"):
            run(scenario())


class TestWarmCaches:
    def test_warm_fleet_starts_with_full_caches(self):
        fleet = ClientFleet(CONFIG, "127.0.0.1", 1, 0.001,
                            FleetSettings(num_clients=3))
        for client in fleet._clients:
            assert len(client.cache) == CONFIG.client.cache_size

    def test_cold_fleet_starts_empty(self):
        fleet = ClientFleet(CONFIG, "127.0.0.1", 1, 0.001,
                            FleetSettings(num_clients=3, warm_caches=False))
        for client in fleet._clients:
            assert len(client.cache) == 0

    def test_cache_size_override(self):
        fleet = ClientFleet(CONFIG, "127.0.0.1", 1, 0.001,
                            FleetSettings(num_clients=1, cache_size=5))
        assert fleet._clients[0].cache.capacity == 5

    def test_clients_draw_distinct_streams(self):
        fleet = ClientFleet(CONFIG, "127.0.0.1", 1, 0.001,
                            FleetSettings(num_clients=2))
        a, b = fleet._clients
        draws_a = [int(a.sampler.sample_one()) for _ in range(50)]
        draws_b = [int(b.sampler.sample_one()) for _ in range(50)]
        assert draws_a != draws_b


class TestAgainstLiveServer:
    def test_accounting_invariants(self):
        fleet, result = run(_drive(
            CONFIG,
            FleetSettings(num_clients=10, think_time=20.0),
            slots=600))
        assert result.accesses == result.hits + result.misses
        assert result.accesses > 0
        assert result.requests_sent <= result.misses
        assert result.pages_seen > 0
        assert 0.0 <= result.hit_rate <= 1.0
        # Completed + still-pending misses account for every miss.
        completed = len(result.all_latencies_slots)
        assert completed + result.censored == result.misses
        assert all(v >= 0 for v in result.all_latencies_slots)
        # The fleet's registry counters are the counts the result reads.
        assert {name: state["value"]
                for name, state in fleet.registry.snapshot().items()
                if state["type"] == "counter"} == {
            "fleet_accesses_total": result.accesses,
            "fleet_hits_total": result.hits,
            "fleet_misses_total": result.misses,
            "fleet_requests_sent_total": result.requests_sent,
            "fleet_pages_seen_total": result.pages_seen}
        # stop(fetch_stats=True) captured the server's view.
        assert result.server_stats is not None
        assert "server" in result.server_stats

    def test_effective_slot_duration_is_fitted(self):
        _, result = run(_drive(
            CONFIG, FleetSettings(num_clients=4, think_time=50.0),
            slots=400))
        nominal = 0.001
        # Loaded CI hosts run the clock slower than nominal, never faster.
        assert result.effective_slot_duration == pytest.approx(
            nominal, rel=3.0)
        assert result.first_slot is not None
        assert result.last_slot is not None
        assert result.last_slot > result.first_slot

    def test_pure_push_sends_no_requests(self):
        config = SystemConfig(algorithm=Algorithm.PURE_PUSH)
        _, result = run(_drive(
            config, FleetSettings(num_clients=6, think_time=20.0),
            slots=600))
        assert result.requests_sent == 0
        assert result.accesses > 0
        # Misses still complete by snooping the push broadcast.
        assert result.pages_seen > 0

    def test_settle_slots_censor_early_latencies(self):
        _, settled = run(_drive(
            CONFIG,
            FleetSettings(num_clients=8, think_time=10.0, settle_slots=10_000),
            slots=500))
        # Every request was issued before slot 10000, so nothing is
        # "measured" — but the raw record keeps them all.
        assert settled.latencies_slots == []
        assert settled.quantiles() is None
        assert len(settled.all_latencies_slots) + settled.censored == (
            settled.misses)


def _arrivals(slots, times):
    return [(int(slot), float(at)) for slot, at in zip(slots, times)]


class TestSlotDurationFit:
    """Synthetic (slot, arrival) observations of an epoch-anchored clock:
    slot ``s`` is ticked no earlier than ``epoch + s * duration``."""

    NOMINAL = 0.005
    EPOCH = 1000.0

    def on_time(self, slots, seed=0):
        """Arrivals up to 2 ms late (network and reader jitter)."""
        jitter = np.random.default_rng(seed).uniform(0, 0.002, len(slots))
        return self.EPOCH + np.asarray(slots) * self.NOMINAL + jitter

    def test_on_time_clock_fits_nominal(self):
        slots = np.arange(3, 2000)
        fitted = fit_slot_duration(_arrivals(slots, self.on_time(slots)),
                                   self.NOMINAL)
        assert fitted == pytest.approx(self.NOMINAL, rel=1e-3)

    def test_catch_up_burst_does_not_shorten_the_fit(self):
        """The clock stalled ~1 s while a fleet connected, then ticked its
        late slots back to back: slots 3..209 arrive in one burst.  The
        first-and-last fit reads 11% short; this fit does not."""
        slots = np.arange(3, 2000)
        times = self.on_time(slots)
        caught_up = self.EPOCH + 210 * self.NOMINAL
        times[slots < 210] = caught_up + np.linspace(0, 1e-3, 207)
        observations = _arrivals(slots, times)
        first_last = (times[-1] - times[0]) / (slots[-1] - slots[0])
        assert first_last < 0.9 * self.NOMINAL
        fitted = fit_slot_duration(observations, self.NOMINAL)
        assert fitted == pytest.approx(self.NOMINAL, rel=2e-3)

    def test_late_first_frame_is_ignored(self):
        slots = np.arange(3, 500)
        times = self.on_time(slots)
        times[0] += 0.5
        observations = _arrivals(slots, times)
        assert fit_slot_duration(observations, self.NOMINAL) == (
            fit_slot_duration(observations[1:], self.NOMINAL))

    def test_slow_clock_keeps_its_whole_run(self):
        """A host that runs every slot 25% long, its frames written in
        batches of 64 (a late clock's batching): the fit is the slow
        rate, not the nominal one."""
        slots = np.arange(0, 4096)
        ticked = self.EPOCH + slots * 1.25 * self.NOMINAL
        written = ticked[(slots // 64) * 64 + 63]
        fitted = fit_slot_duration(_arrivals(slots, written), self.NOMINAL)
        assert fitted == pytest.approx(1.25 * self.NOMINAL, rel=1e-3)

    @pytest.mark.parametrize("observations", [[], [(7, 1.0)]])
    def test_fewer_than_two_slots_is_nan(self, observations):
        assert math.isnan(fit_slot_duration(observations, self.NOMINAL))


class TestResultQuantiles:
    def test_quantiles_are_the_shared_order_statistic(self):
        from repro.sim.monitor import exact_quantiles

        latencies = [((7 * i) % 101) / 4 for i in range(137)]
        result = FleetResult(
            latencies_slots=latencies, all_latencies_slots=latencies,
            accesses=200, hits=63, misses=137, requests_sent=137,
            pages_seen=500, censored=0, effective_slot_duration=0.001)
        ordered = sorted(latencies)
        assert result.quantiles() == exact_quantiles(latencies) == {
            "p50": ordered[int(0.50 * 137)], "p90": ordered[int(0.90 * 137)],
            "p99": ordered[int(0.99 * 137)]}
        assert result.to_dict()["quantiles_slots"] == result.quantiles()
        assert all(type(v) is float for v in result.quantiles().values())


class TestCensoring:
    def test_pending_misses_are_censored_when_server_never_answers(self):
        """Against a black-hole server every miss waits forever."""
        async def scenario():
            async def swallow(reader, writer):
                try:
                    while await reader.read(1 << 16):
                        pass
                finally:
                    writer.close()

            server = await asyncio.start_server(
                swallow, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            fleet = ClientFleet(
                CONFIG, "127.0.0.1", port, 0.001,
                FleetSettings(num_clients=5, think_time=1.0,
                              warm_caches=False))
            await fleet.start()
            assert not await fleet.wait_for_slot(0, timeout=0.05)
            await asyncio.sleep(0.3)
            result = await fleet.stop()
            server.close()
            await server.wait_closed()
            return result

        result = run(scenario())
        # Cold caches + no PAGE frames: every client's first access is a
        # miss that never resolves.
        assert result.censored == 5
        assert result.misses == 5
        assert result.hits == 0
        assert result.all_latencies_slots == []
        assert result.requests_sent == 5  # IPP has a backchannel
