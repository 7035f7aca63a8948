"""The shared run protocol and control plane (repro.core.runtime)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ENGINES
from repro.core.adaptive import AdaptiveController, AdaptivePolicy
from repro.core.build import build_system
from repro.core.runtime import ControlPlane, RunProtocol, SimulationStall
from tests.conftest import small_config


class _Resets:
    """A component that only counts its ``reset_stats`` calls."""

    def __init__(self):
        self.resets = 0

    def reset_stats(self):
        self.resets += 1


def _fake_state(*, warmup=None):
    """Just enough of a ``SystemState`` for the phase machine: a cache
    whose fullness the test sets and components that count resets."""
    mc = _Resets()
    mc.cache = SimpleNamespace(is_full=False)
    mc.warmup = warmup
    mc.measuring = False
    return SimpleNamespace(mc=mc, server=_Resets(), vc=_Resets(),
                           fleet=_Resets())


def _protocol(state, *, settle, measure, warmup_mode=False):
    config = small_config(run__settle_accesses=settle,
                          run__measure_accesses=measure)
    return RunProtocol(config, state, "fast", warmup_mode)


class TestPhaseMachine:
    def test_warm_settle_measure_stop_at_exact_count(self):
        state = _fake_state()
        run = _protocol(state, settle=3, measure=4)
        for now in (1.0, 2.0):  # warming: the cache is not full yet
            assert not run.access_completed(now)
        state.mc.cache.is_full = True
        # The access that fills the cache ends the warm phase and is not
        # counted as settled.
        assert not run.access_completed(3.0)
        for now in (4.0, 5.0):
            assert not run.access_completed(now)
            assert not run.measuring
        assert not run.access_completed(6.0)  # third settled access
        assert run.measuring and state.mc.measuring
        assert run.measure_start == 6.0
        for now in (7.0, 8.0, 9.0):
            assert not run.access_completed(now)
            assert run.end_time is None
        assert run.access_completed(10.0)  # fourth measured access
        assert run.end_time == 10.0

    def test_settle_zero_still_consumes_one_access(self):
        state = _fake_state()
        state.mc.cache.is_full = True
        run = _protocol(state, settle=0, measure=1)
        assert not run.access_completed(1.0)  # warm -> settle
        assert not run.measuring
        assert not run.access_completed(2.0)  # the consumed access
        assert run.measuring and run.measure_start == 2.0
        assert run.access_completed(3.0)

    def test_warmup_mode_measures_from_zero_until_complete(self):
        tracker = SimpleNamespace(complete=False, crossing_times={})
        state = _fake_state(warmup=tracker)
        run = _protocol(state, settle=3, measure=1, warmup_mode=True)
        assert run.measuring and run.measure_start == 0.0
        assert state.mc.resets == 1
        for now in (1.0, 2.0, 3.0):  # measure_accesses does not apply
            assert not run.access_completed(now)
        tracker.complete = True
        assert run.access_completed(4.0)
        assert run.end_time == 4.0

    def test_warmup_mode_needs_a_tracker(self):
        with pytest.raises(ValueError):
            _protocol(_fake_state(), settle=0, measure=1, warmup_mode=True)

    def test_begin_measure_resets_mc_server_vc_and_fleet(self):
        config = small_config(fleet__num_clients=40,
                              fleet__think_time=30.0)
        state = build_system(config)
        ENGINES["fast"](config, state=state).run()  # dirty every counter
        assert state.mc.hits and state.vc.generated and state.fleet.generated
        assert sum(state.server.slot_counts.values())
        state.mc.measuring = False
        run = RunProtocol(config, state, "fast", warmup_mode=False)
        run.begin_measure(5.0)
        assert run.measuring and state.mc.measuring
        assert run.measure_start == 5.0
        assert state.mc.hits == state.mc.misses == 0
        assert sum(state.server.slot_counts.values()) == 0
        assert state.server.queue.offers == 0
        assert state.vc.generated == 0
        assert state.fleet.generated == 0
        assert int(state.fleet.wait_count.sum()) == 0


class _PollRecorder:
    """Stands in for the reprogrammer: records when it was polled."""

    def __init__(self, interval):
        self.interval = interval
        self.polled = []

    def maybe_reprogram(self, now, scheduler):
        self.polled.append(now)
        return None


class TestDeadline:
    @given(control=st.integers(1, 40), reprogram=st.integers(1, 40),
           max_slots=st.integers(1, 200))
    @example(control=7, reprogram=7, max_slots=50)    # equal
    @example(control=3, reprogram=5, max_slots=31)    # coprime
    @example(control=4, reprogram=6, max_slots=24)    # stall on a multiple
    @settings(max_examples=60, deadline=None)
    def test_polls_land_on_interval_multiples_and_stall_at_max_slots(
            self, control, reprogram, max_slots):
        state = build_system(small_config())
        state.reprogrammer = _PollRecorder(reprogram)
        controller = AdaptiveController(
            AdaptivePolicy(interval=control), 0.5, 0.0)
        plane = ControlPlane(state, max_slots, controller)
        due = plane.due
        compares = 0  # polls taken: none on a slot with nothing due
        t = 0
        with pytest.raises(SimulationStall):
            while True:
                if t >= due:  # the runtimes' one per-slot compare
                    compares += 1
                    due = plane.poll(t)
                t += 1
        # The old loop tested controller, reprogrammer, then max_slots at
        # the top of every slot: polls on 0 < t <= max_slots, then raise.
        assert t == max_slots
        slots = range(1, max_slots + 1)
        assert [now for now, *_ in controller.trace] == [
            float(s) for s in slots if s % control == 0]
        assert state.reprogrammer.polled == [
            s for s in slots if s % reprogram == 0]
        assert compares == len({s for s in slots if s % control == 0
                                or s % reprogram == 0} | {max_slots})

    def test_nothing_is_due_without_controller_reprogrammer_or_cap(self):
        plane = ControlPlane(build_system(small_config()))
        assert plane.due == float("inf")

    def test_retune_reaches_mux_filter_vc_and_fleet(self):
        state = build_system(small_config(fleet__num_clients=10,
                                          fleet__think_time=30.0))
        controller = SimpleNamespace(
            policy=AdaptivePolicy(interval=9),
            decide=lambda now, offers, dropped, **waits: (0.3, 0.25))
        plane = ControlPlane(state, controller=controller)
        assert plane.due == 9
        assert plane.poll(9) == 18
        slots = 0.25 * len(state.server.schedule)
        assert state.server.mux.pull_bw == 0.3
        assert state.mc_threshold.threshold_slots == slots
        assert state.vc._threshold_slots == slots
        assert state.fleet._threshold_slots == slots


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_reprogramming_swaps_on_interval_multiples_everywhere(engine):
    interval = 40
    config = small_config(scheduler__reprogram_interval=interval,
                          scheduler__reprogram_min_requests=5,
                          fleet__num_clients=30, fleet__think_time=30.0)
    state = build_system(config)
    original = state.schedule
    ENGINES[engine](config, state=state).run()
    reprogrammer = state.reprogrammer
    assert reprogrammer.reprograms >= 1
    assert all(slot > 0 and slot % interval == 0
               for slot, _demand in reprogrammer.trace)
    live = state.server.schedule
    assert live is not original
    assert state.mc_threshold.schedule is live
    assert state.vc.threshold.schedule is live
    # The clients' fast-path tables are views of the live program's
    # cached distance table, not of the dead one's.
    table = live.distance_table(config.server.db_size)
    assert np.shares_memory(np.asarray(state.vc._dist_flat), table)
    assert np.shares_memory(state.fleet._dist_flat, table)
    assert state.vc._cycle == state.fleet._cycle == len(live)
