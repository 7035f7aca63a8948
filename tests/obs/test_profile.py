"""Unit tests for per-phase host-time attribution."""

import pytest

from repro.core.build import build_system
from repro.core.fast import FastEngine
from repro.core.runtime import SimulationStall
from repro.core.simulation import ReferenceEngine
from repro.obs.profile import ENGINE_PHASES, HotLoopProfile, profile_run


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
        assert prof.queue_offer > 0.0
        assert prof.timed_seconds <= prof.wall_seconds

    def test_slots_are_the_ticks_of_the_run(self, ipp_config):
        result, prof = profile_run(ipp_config)
        # The tick that airs the last page is the run's last slot; the
        # fast engine's exit-slack tick after it is not counted.
        assert prof.slots == int(result.total_slots)

    def test_stalled_run_still_reports_slots_and_wall_time(self, ipp_config):
        stalling = ipp_config.with_(client__think_time_ratio=50.0,
                                    run__max_slots=300)
        prof = HotLoopProfile()
        with pytest.raises(SimulationStall):
            FastEngine(stalling, profiler=prof).run()
        assert prof.slots == 300
        assert prof.wall_seconds > 0.0
        assert 0.0 < prof.timed_seconds <= prof.wall_seconds
        assert "slots simulated : 300" in prof.render()

    def test_attached_by_hand_it_reads_the_reference_engine(self, ipp_config):
        state = build_system(ipp_config)
        prof = HotLoopProfile()
        with prof.attach(state):
            result = ReferenceEngine(ipp_config, state).run()
        assert prof.server_tick > 0.0
        assert prof.mc_access > 0.0
        assert prof.vc_arrivals > 0.0
        assert prof.queue_offer > 0.0
        assert prof.slots == state.server.ticks
        assert prof.slots >= int(result.total_slots)
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
