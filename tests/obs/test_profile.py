"""Unit tests for hot-loop phase timing."""

import pytest

from repro.core.fast import FastEngine
from repro.obs.profile import ENGINE_PHASES, HotLoopProfile, PhaseTimer, profile_run


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPhaseTimer:
    def test_add_accumulates(self):
        timer = PhaseTimer()
        timer.add("tick", 0.5)
        timer.add("tick", 0.25, calls=3)
        timer.add("deliver", 1.0)
        assert timer.seconds["tick"] == pytest.approx(0.75)
        assert timer.calls["tick"] == 4
        assert timer.total == pytest.approx(1.75)

    def test_context_manager_uses_clock(self):
        clock = FakeClock()
        timer = PhaseTimer(clock=clock)
        with timer.time("phase"):
            clock.now = 2.5
        assert timer.seconds["phase"] == pytest.approx(2.5)
        assert timer.calls["phase"] == 1


class TestHotLoopProfile:
    def test_starts_empty(self):
        prof = HotLoopProfile()
        assert prof.timed_seconds == 0.0
        assert prof.slots_per_second == 0.0
        assert list(prof.phase_seconds) == list(ENGINE_PHASES)

    def test_throughput(self):
        prof = HotLoopProfile()
        prof.slots = 1000
        prof.wall_seconds = 0.5
        assert prof.slots_per_second == pytest.approx(2000.0)

    def test_render_mentions_every_phase(self):
        prof = HotLoopProfile()
        prof.server_tick = 0.3
        prof.vc_arrivals = 0.1
        prof.slots = 100
        prof.wall_seconds = 0.5
        text = prof.render()
        for phase in ENGINE_PHASES:
            assert phase in text
        assert "100" in text            # slot count
        assert "(untimed)" in text      # 0.5 wall > 0.4 timed


class TestProfileRun:
    def test_profile_run_matches_plain_run(self, ipp_config):
        plain = FastEngine(ipp_config).run()
        result, prof = profile_run(ipp_config)
        plain_dict, result_dict = plain.to_dict(), result.to_dict()
        plain_dict.pop("manifest")  # timestamps differ between the runs
        result_dict.pop("manifest")
        assert result_dict == plain_dict

    def test_phases_are_populated(self, ipp_config):
        _, prof = profile_run(ipp_config)
        assert prof.slots > 0
        assert prof.wall_seconds > 0.0
        assert prof.slots_per_second > 0.0
        # The engine ticks and draws arrivals every slot; those phases
        # must have accumulated real time.
        assert prof.server_tick > 0.0
        assert prof.vc_arrivals > 0.0
        assert prof.timed_seconds <= prof.wall_seconds

    def test_pure_push_goes_through_general_loop(self, push_config):
        _, prof = profile_run(push_config)
        assert prof.slots > 0
        assert prof.deliver >= 0.0

    def test_reprogram_poll_is_control_time(self, ipp_config):
        _, plain = profile_run(ipp_config)
        assert plain.control == 0.0  # no controller, no reprogrammer
        reprogramming = ipp_config.with_(
            scheduler__reprogram_interval=40,
            scheduler__reprogram_min_requests=5)
        bare = FastEngine(reprogramming).run().to_dict()
        result, prof = profile_run(reprogramming)
        profiled = result.to_dict()
        bare.pop("manifest")
        profiled.pop("manifest")
        assert profiled == bare  # looking does not change the run
        # The poll (and each rebuild + swap) sits behind the control
        # plane's deadline, so it is control time, not deliver time.
        assert prof.control > 0.0
        assert prof.timed_seconds <= prof.wall_seconds

    def test_fleet_time_is_its_own_phase(self, ipp_config):
        _, plain = profile_run(ipp_config)
        assert plain.fleet_arrivals == 0.0  # no fleet, nothing to time
        fleet_config = ipp_config.with_(fleet__num_clients=500,
                                        fleet__think_time=400.0)
        bare = FastEngine(fleet_config).run().to_dict()
        result, prof = profile_run(fleet_config)
        profiled = result.to_dict()
        bare.pop("manifest")
        profiled.pop("manifest")
        assert profiled == bare  # looking does not change the run
        assert prof.fleet_arrivals > 0.0
        assert prof.vc_arrivals > 0.0
        assert prof.timed_seconds <= prof.wall_seconds
