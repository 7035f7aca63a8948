"""Unit tests for the adaptive PullBW/threshold controller."""

import math

import pytest

from repro.core.adaptive import AdaptiveController, AdaptivePolicy
from repro.core.fast import FastEngine
from tests.conftest import small_config


class TestAdaptivePolicy:
    @pytest.mark.parametrize("kwargs", [
        {"interval": 0},
        {"low_drop": 0.5, "high_drop": 0.2},
        {"min_pull_bw": 0.8, "max_pull_bw": 0.2},
        {"min_thresh": 0.9, "max_thresh": 0.1},
        {"high_drop": 1.5},
        {"thresh_step": -0.05},
        {"pull_bw_step": 1.5},
        {"max_thresh": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptivePolicy(**kwargs)


class TestAdaptiveController:
    def policy(self):
        return AdaptivePolicy(interval=100, high_drop=0.10, low_drop=0.01,
                              thresh_step=0.05, pull_bw_step=0.05,
                              min_pull_bw=0.1, max_pull_bw=0.9,
                              min_thresh=0.0, max_thresh=0.5)

    def test_saturation_raises_threshold_and_lowers_pull_bw(self):
        controller = AdaptiveController(self.policy(), 0.5, 0.0)
        pull_bw, thresh = controller.decide(100.0, total_offers=100,
                                            total_dropped=50)
        assert thresh == pytest.approx(0.05)
        assert pull_bw == pytest.approx(0.45)

    def test_idle_relaxes_both(self):
        controller = AdaptiveController(self.policy(), 0.5, 0.2)
        pull_bw, thresh = controller.decide(100.0, total_offers=100,
                                            total_dropped=0)
        assert thresh == pytest.approx(0.15)
        assert pull_bw == pytest.approx(0.55)

    def test_moderate_drop_holds_steady(self):
        controller = AdaptiveController(self.policy(), 0.5, 0.2)
        pull_bw, thresh = controller.decide(100.0, total_offers=100,
                                            total_dropped=5)
        assert (pull_bw, thresh) == (0.5, 0.2)

    def test_bounds_respected(self):
        controller = AdaptiveController(self.policy(), 0.1, 0.5)
        for step in range(20):
            pull_bw, thresh = controller.decide(
                float(step), total_offers=100 * (step + 1),
                total_dropped=90 * (step + 1))
        assert pull_bw == pytest.approx(0.1)
        assert thresh == pytest.approx(0.5)

    def test_counter_reset_resyncs(self):
        controller = AdaptiveController(self.policy(), 0.5, 0.0)
        controller.decide(1.0, total_offers=1000, total_dropped=500)
        # Engine reset its counters; smaller totals must not underflow.
        pull_bw, thresh = controller.decide(2.0, total_offers=10,
                                            total_dropped=0)
        assert 0.0 <= thresh <= 0.5
        assert 0.1 <= pull_bw <= 0.9

    def test_no_offers_holds_parameters(self):
        """Regression: a window with zero offers carries no load signal
        and must not be mistaken for an idle (relax) verdict."""
        controller = AdaptiveController(self.policy(), 0.5, 0.2)
        pull_bw, thresh = controller.decide(1.0, 0, 0)
        assert (pull_bw, thresh) == (0.5, 0.2)
        assert controller.trace[-1][4] == "no-signal"
        assert math.isnan(controller.trace[-1][3])

    def test_repeated_empty_windows_never_move_parameters(self):
        """Regression: the old behaviour relaxed one step per empty
        window, walking an unused backchannel to the pull-heavy corner."""
        controller = AdaptiveController(self.policy(), 0.5, 0.2)
        for step in range(1, 20):
            pull_bw, thresh = controller.decide(float(step), 0, 0)
        assert (pull_bw, thresh) == (0.5, 0.2)
        assert all(reason == "no-signal"
                   for *_, reason in controller.trace)

    def test_trace_recorded(self):
        controller = AdaptiveController(self.policy(), 0.5, 0.0)
        controller.decide(1.0, 10, 0)
        controller.decide(2.0, 20, 10)
        assert len(controller.trace) == 2
        assert controller.trace[1][3] == pytest.approx(1.0)

    def test_initial_values_clamped(self):
        controller = AdaptiveController(self.policy(), 0.99, 0.99)
        assert controller.pull_bw == 0.9
        assert controller.thresh_perc == 0.5


class TestControllerConvergence:
    """Behaviour at the extremes: zero drops, saturation, clamping."""

    def policy(self):
        return AdaptivePolicy(interval=100, high_drop=0.10, low_drop=0.01,
                              thresh_step=0.05, pull_bw_step=0.05,
                              min_pull_bw=0.1, max_pull_bw=0.9,
                              min_thresh=0.0, max_thresh=0.5)

    def test_zero_drop_rate_converges_to_relaxed_bounds(self):
        """A permanently clear queue walks the knobs all the way to the
        pull-heavy corner: max PullBW, zero threshold."""
        controller = AdaptiveController(self.policy(), 0.5, 0.5)
        for step in range(1, 30):
            pull_bw, thresh = controller.decide(
                float(step * 100), total_offers=50 * step, total_dropped=0)
        assert pull_bw == pytest.approx(0.9)
        assert thresh == pytest.approx(0.0)

    def test_saturation_converges_to_conservative_bounds(self):
        """A saturated queue walks to min PullBW / max threshold and the
        trajectory is monotone (no oscillation on a constant signal)."""
        controller = AdaptiveController(self.policy(), 0.9, 0.0)
        pull_trajectory, thresh_trajectory = [], []
        for step in range(1, 30):
            pull_bw, thresh = controller.decide(
                float(step * 100), total_offers=100 * step,
                total_dropped=60 * step)
            pull_trajectory.append(pull_bw)
            thresh_trajectory.append(thresh)
        assert pull_trajectory[-1] == pytest.approx(0.1)
        assert thresh_trajectory[-1] == pytest.approx(0.5)
        assert pull_trajectory == sorted(pull_trajectory, reverse=True)
        assert thresh_trajectory == sorted(thresh_trajectory)

    def test_initial_values_clamped_from_below(self):
        policy = AdaptivePolicy(min_pull_bw=0.2, max_pull_bw=0.8,
                                min_thresh=0.1, max_thresh=0.6)
        controller = AdaptiveController(policy, 0.01, 0.0)
        assert controller.pull_bw == pytest.approx(0.2)
        assert controller.thresh_perc == pytest.approx(0.1)

    def test_decisions_always_within_bounds(self):
        """Whatever the drop-rate sequence, every decision stays inside
        [min, max] for both knobs."""
        policy = self.policy()
        controller = AdaptiveController(policy, 0.5, 0.25)
        offers = dropped = 0
        for step, window_drop in enumerate(
                (0.0, 1.0, 0.0, 0.5, 0.02, 1.0, 1.0, 0.0, 0.0, 0.0,
                 0.9, 0.9, 0.9, 0.9, 0.9, 0.0)):
            offers += 100
            dropped += int(100 * window_drop)
            pull_bw, thresh = controller.decide(float(step), offers, dropped)
            assert policy.min_pull_bw <= pull_bw <= policy.max_pull_bw
            assert policy.min_thresh <= thresh <= policy.max_thresh


class TestAdaptiveEngineIntegration:
    def test_controller_engages_under_saturation(self):
        """Under heavy load the controller should have ratcheted the
        threshold up / pull bandwidth down by the end of the run."""
        config = small_config(client__think_time_ratio=100,
                              run__measure_accesses=300)
        policy = AdaptivePolicy(interval=500, high_drop=0.05)
        controller = AdaptiveController(policy, config.server.pull_bw, 0.0)
        FastEngine(config, controller=controller).run()
        assert controller.trace  # decisions happened
        assert (controller.thresh_perc > 0.0
                or controller.pull_bw < config.server.pull_bw)

    def test_controller_stays_relaxed_when_idle(self):
        config = small_config(client__think_time_ratio=2,
                              run__measure_accesses=200)
        policy = AdaptivePolicy(interval=500)
        controller = AdaptiveController(policy, 0.5, 0.3)
        FastEngine(config, controller=controller).run()
        assert controller.thresh_perc <= 0.3
