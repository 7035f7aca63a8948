"""The client fleet: workload fidelity, accounting, censoring."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.net.client import ClientFleet, FleetResult, FleetSettings
from repro.net.server import NetServer, NetServerSettings
from repro.obs.metrics import MetricsRegistry

CONFIG = SystemConfig(algorithm=Algorithm.IPP)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _drive(config, fleet_settings, *, seed=0, slots=500,
                 slot_duration=0.001, registry=None):
    """Run a server to completion with a fleet attached; return results."""
    server = NetServer(config, NetServerSettings(
        slot_duration=slot_duration, max_slots=slots))
    await server.start()
    fleet = ClientFleet(config, "127.0.0.1", server.port, slot_duration,
                        fleet_settings, seed=seed, registry=registry)
    try:
        await fleet.start()
        await server.wait_finished()
        await asyncio.sleep(10 * slot_duration)
        result = await fleet.stop(fetch_stats=True)
    finally:
        await server.stop()
    return result


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
        registry = MetricsRegistry()
        result = run(_drive(
            CONFIG,
            FleetSettings(num_clients=10, think_time=20.0),
            slots=600, registry=registry))
        assert result.accesses == result.hits + result.misses
        assert result.accesses > 0
        assert result.requests_sent <= result.misses
        assert result.pages_seen > 0
        assert 0.0 <= result.hit_rate <= 1.0
        # Completed + still-pending misses account for every miss.
        completed = len(result.all_latencies_slots)
        assert completed + result.censored == result.misses
        assert all(v >= 0 for v in result.all_latencies_slots)
        # The live registry mirrors the aggregate counts.
        snapshot = registry.snapshot()
        assert snapshot["fleet_accesses_total"]["value"] == result.accesses
        assert snapshot["fleet_hits_total"]["value"] == result.hits
        assert snapshot["fleet_misses_total"]["value"] == result.misses
        # stop(fetch_stats=True) captured the server's view.
        assert result.server_stats is not None
        assert "server" in result.server_stats

    def test_effective_slot_duration_is_fitted(self):
        result = run(_drive(
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
        result = run(_drive(
            config, FleetSettings(num_clients=6, think_time=20.0),
            slots=600))
        assert result.requests_sent == 0
        assert result.accesses > 0
        # Misses still complete by snooping the push broadcast.
        assert result.pages_seen > 0

    def test_settle_slots_censor_early_latencies(self):
        settled = run(_drive(
            CONFIG,
            FleetSettings(num_clients=8, think_time=10.0, settle_slots=10_000),
            slots=500))
        # Every request was issued before slot 10000, so nothing is
        # "measured" — but the raw record keeps them all.
        assert settled.latencies_slots == []
        assert settled.quantiles() is None
        assert len(settled.all_latencies_slots) + settled.censored == (
            settled.misses)


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
                while await reader.read(1 << 16):
                    pass

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
