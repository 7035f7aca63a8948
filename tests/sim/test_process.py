"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Environment, SimulationError


class TestBasics:
    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_simple_timeout_sequence(self):
        env = Environment()
        trace = []

        def proc(env):
            trace.append(env.now)
            yield env.timeout(2.0)
            trace.append(env.now)
            yield env.timeout(3.0)
            trace.append(env.now)

        env.process(proc(env))
        env.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_yield_value_is_event_value(self):
        env = Environment()
        seen = []

        def proc(env):
            value = yield env.timeout(1.0, value="hello")
            seen.append(value)

        env.process(proc(env))
        env.run()
        assert seen == ["hello"]

    def test_process_is_event_with_return_value(self):
        env = Environment()

        def worker(env):
            yield env.timeout(1.0)
            return 42

        def waiter(env, target, out):
            result = yield target
            out.append((env.now, result))

        out = []
        target = env.process(worker(env))
        env.process(waiter(env, target, out))
        env.run()
        assert out == [(1.0, 42)]

    def test_is_alive_tracks_lifetime(self):
        env = Environment()

        def proc(env):
            yield env.timeout(5.0)

        process = env.process(proc(env))
        env.run(until=1.0)
        assert process.is_alive
        env.run(until=6.0)
        assert not process.is_alive

    def test_waiting_on_already_processed_event(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run(until=1.0)
        seen = []

        def proc(env):
            value = yield done
            seen.append((env.now, value))

        env.process(proc(env))
        env.run(until=2.0)
        assert seen == [(1.0, "early")]

    def test_yielding_non_event_raises_inside_process(self):
        env = Environment()
        errors = []

        def proc(env):
            try:
                yield "not an event"
            except SimulationError as exc:
                errors.append(str(exc))

        env.process(proc(env))
        env.run()
        assert errors and "non-event" in errors[0]

    def test_failed_event_raises_inside_process(self):
        env = Environment()
        caught = []

        def proc(env):
            bad = env.event()
            bad.fail(ValueError("kaput"))
            try:
                yield bad
            except ValueError as exc:
                caught.append(str(exc))

        env.process(proc(env))
        env.run()
        assert caught == ["kaput"]

    def test_unhandled_crash_propagates_when_nobody_waits(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            raise RuntimeError("crash")

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="crash"):
            env.run()

    def test_crash_delivered_to_waiting_process(self):
        env = Environment()
        outcome = []

        def bad(env):
            yield env.timeout(1.0)
            raise RuntimeError("inner")

        def waiter(env, target):
            try:
                yield target
            except RuntimeError as exc:
                outcome.append(str(exc))

        target = env.process(bad(env))
        target.add_callback(lambda e: None)  # someone is watching
        env.process(waiter(env, target))
        env.run()
        assert outcome == ["inner"]

