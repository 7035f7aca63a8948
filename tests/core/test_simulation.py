"""Unit tests for the reference (event-driven) engine."""

import numpy as np
import pytest

from repro.core.fast import FastEngine, SimulationStall
from repro.core.simulation import ReferenceEngine
from tests.conftest import small_config


class TestReferenceEngine:
    def test_pure_push_matches_fast_engine_exactly(self, push_config):
        """Pure-Push is deterministic: both engines must agree bit-for-bit."""
        fast = FastEngine(push_config).run()
        ref = ReferenceEngine(push_config).run()
        assert ref.response_miss.mean == pytest.approx(
            fast.response_miss.mean)
        assert ref.mc_hits == fast.mc_hits
        assert ref.mc_misses == fast.mc_misses

    def test_measure_access_count_honoured(self, ipp_config):
        result = ReferenceEngine(ipp_config).run()
        assert (result.mc_hits + result.mc_misses
                == ipp_config.run.measure_accesses)

    def test_deterministic_given_seed(self, ipp_config):
        a = ReferenceEngine(ipp_config).run()
        b = ReferenceEngine(ipp_config).run()
        assert a == b

    def test_warmup_run(self, ipp_config):
        result = ReferenceEngine(ipp_config).run_warmup()
        assert result.warmup_times
        assert 0.95 in result.warmup_times

    def test_warmup_requires_cache(self):
        config = small_config(client__cache_size=0)
        with pytest.raises(ValueError):
            ReferenceEngine(config).run_warmup()

    def test_max_slots_stall_raises(self, ipp_config):
        config = ipp_config.with_(run__max_slots=30)
        with pytest.raises(SimulationStall):
            ReferenceEngine(config).run()

    def test_stall_guard_boundary(self, ipp_config):
        """No event at or past ``max_slots`` fires, whatever its priority
        and however early it was scheduled; one just before it does."""
        from repro.sim.core import URGENT

        engine = ReferenceEngine(ipp_config.with_(run__max_slots=30))
        fired = []
        for delay in (30.0, 30.0 - 1e-9):
            engine.env.timeout(delay, value=delay, priority=URGENT).add_callback(
                lambda event: fired.append(event.value))
        with pytest.raises(SimulationStall, match="max_slots=30"):
            engine.run()
        assert fired == [30.0 - 1e-9]

    def test_drained_calendar_stalls_rather_than_spinning(self, push_config):
        """A model whose processes all end without finishing the run leaves
        nothing to step: that is a stall, not an endless loop."""
        engine = ReferenceEngine(push_config.with_(run__max_slots=30))

        def ends_early(*_args):
            yield engine.env.timeout(1.0)

        engine._mc_process = engine._server_process = ends_early
        with pytest.raises(SimulationStall, match="max_slots=30"):
            engine.run()

    @pytest.mark.parametrize("first", ["run", "run_warmup"])
    @pytest.mark.parametrize("second", ["run", "run_warmup"])
    def test_second_run_is_refused(self, ipp_config, first, second):
        """The first run's server and VC processes are still on the
        engine's environment; a second run would tick one server from two
        processes and return plausible garbage."""
        engine = ReferenceEngine(ipp_config)
        getattr(engine, first)()
        with pytest.raises(RuntimeError, match="runs once"):
            getattr(engine, second)()

    def test_refused_configuration_does_not_use_up_the_engine(self):
        engine = ReferenceEngine(small_config(client__cache_size=0))
        with pytest.raises(ValueError):
            engine.run_warmup()
        assert engine.run().mc_misses > 0

    def test_chunked_vc_gaps_are_the_scalar_draws(self):
        """The VC process draws its exponential gaps a chunk at a time;
        numpy fills an array with the scalar routine, so gap for gap and
        bit-generator state for state nothing moved."""
        from repro.core.simulation import _VC_GAP_CHUNK

        chunked, scalar = (np.random.default_rng(
            np.random.SeedSequence((7, 0xBEEF))) for _ in range(2))
        for mean_gap in (0.8, 0.016):
            assert (chunked.exponential(mean_gap, _VC_GAP_CHUNK).tolist()
                    == [scalar.exponential(mean_gap)
                        for _ in range(_VC_GAP_CHUNK)])
        assert chunked.bit_generator.state == scalar.bit_generator.state

    def test_closed_loop_vc_produces_less_load(self, ipp_config):
        """A closed-loop VC blocks on every response, so it offers fewer
        requests per unit time than the open-loop model."""
        open_loop = ReferenceEngine(
            ipp_config.with_(client__think_time_ratio=20.0)).run()
        closed = ReferenceEngine(
            ipp_config.with_(client__think_time_ratio=20.0,
                             run__vc_closed_loop=True)).run()
        open_rate = open_loop.request_offers / open_loop.measured_slots
        closed_rate = closed.request_offers / closed.measured_slots
        assert closed_rate < open_rate

    def test_pure_pull_runs(self, pull_config):
        result = ReferenceEngine(pull_config).run()
        assert result.slots_push == 0
        assert result.response_miss.count == result.mc_misses

    def test_chopped_program_runs(self):
        """Non-broadcast pages must be pulled; the reference engine's
        arrival-event plumbing has to deliver them too."""
        config = small_config(server__chop=8, server__pull_bw=0.5,
                              run__measure_accesses=150)
        result = ReferenceEngine(config).run()
        assert result.mc_misses > 0
        assert result.slots_pull > 0

    def test_threshold_suppresses_reference_requests(self):
        free = ReferenceEngine(small_config()).run()
        filtered = ReferenceEngine(
            small_config(server__thresh_perc=1.0)).run()
        # With a full-cycle threshold only chopped pages could be pulled,
        # and nothing is chopped here: the MC sends no requests at all.
        assert filtered.mc_pulls_sent == 0
        assert free.mc_pulls_sent > 0
