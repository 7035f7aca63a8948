"""Edge-case tests for the DES kernel beyond the basic suites."""

from repro.sim import Environment
from repro.sim.core import URGENT


class TestPriorities:
    def test_urgent_timeout_beats_normal_scheduled_earlier(self):
        env = Environment()
        order = []
        env.timeout(1.0).add_callback(lambda e: order.append("normal"))
        env.timeout(1.0, priority=URGENT).add_callback(
            lambda e: order.append("urgent"))
        env.run()
        assert order == ["urgent", "normal"]

    def test_priority_only_breaks_same_time_ties(self):
        env = Environment()
        order = []
        env.timeout(0.5).add_callback(lambda e: order.append("early"))
        env.timeout(1.0, priority=URGENT).add_callback(
            lambda e: order.append("late-urgent"))
        env.run()
        assert order == ["early", "late-urgent"]


class TestProcessComposition:
    def test_process_chain_passes_values(self):
        env = Environment()

        def leaf(env):
            yield env.timeout(1.0)
            return 10

        def middle(env):
            value = yield env.process(leaf(env))
            yield env.timeout(1.0)
            return value * 2

        def root(env, out):
            value = yield env.process(middle(env))
            out.append((env.now, value))

        out = []
        env.process(root(env, out))
        env.run()
        assert out == [(2.0, 20)]


class TestRunControl:
    def test_run_until_is_resumable(self):
        env = Environment()
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=3.0)
        assert ticks == [1.0, 2.0, 3.0]
        env.run(until=5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_zero_length_run(self):
        env = Environment()
        env.timeout(1.0)
        env.run(until=0.0)
        assert env.now == 0.0

    def test_events_exactly_at_until_fire(self):
        env = Environment()
        fired = []
        env.timeout(3.0).add_callback(lambda e: fired.append(3.0))
        env.run(until=3.0)
        assert fired == [3.0]
