"""Span arithmetic on synthetic traces, and shim hygiene on a real state.

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine/tests``.
"""

from __future__ import annotations

import pytest

from benchmarks.spine.spans import (
    ENGINE_SHIMS,
    SLOT_SPAN,
    SpanRecorder,
    install_shims,
    uninstall_shims,
)
from benchmarks.spine.workloads import WORKLOADS
from repro.core.build import build_system
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf():
        clock.spend(7)

    leaf_shim = recorder.wrap("leaf", leaf)

    def middle():
        clock.spend(10)
        leaf_shim()
        clock.spend(5)
        leaf_shim()

    middle_shim = recorder.wrap("middle", middle)
    with recorder.root("root"):
        clock.spend(100)
        middle_shim()
        clock.spend(1)
        leaf_shim()

    assert recorder.totals("leaf") == (3, 21, 21)
    assert recorder.totals("middle") == (1, 29, 15)
    assert recorder.totals("root") == (1, 137, 101)
    # Parents are told apart; self times partition the root's interval.
    assert recorder.aggregates[("leaf", "middle")] == [2, 14, 14]
    assert recorder.aggregates[("leaf", "root")] == [1, 7, 7]
    assert recorder.self_ns() == recorder.totals("root")[1]


def test_recorder_bookkeeping_is_set_aside_not_charged_to_the_parent():
    ticks = iter(range(0, 10_000, 10))  # every clock read costs 10 ns
    recorder = SpanRecorder(clock=lambda: next(ticks))
    leaf = recorder.wrap("leaf", lambda: None)
    middle = recorder.wrap("middle", leaf)
    with recorder.root("root"):
        middle()
        leaf()
    # Each non-root close reads the clock once more for its bookkeeping.
    assert recorder.overhead_ns == 3 * 10
    _, total, root_self = recorder.totals("root")
    assert recorder.self_ns() + recorder.overhead_ns == total
    assert recorder.totals("middle")[2] == (
        recorder.totals("middle")[1]
        - recorder.aggregates[("leaf", "middle")][1] - 10)
    assert root_self == total - recorder.totals("middle")[1] - (
        recorder.aggregates[("leaf", "root")][1]) - 2 * 10


def test_generator_span_excludes_the_consumer():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def produce(count):
        for index in range(count):
            clock.spend(3)
            yield index
        clock.spend(2)

    shim = recorder.wrap_generator("gen", produce)
    consume = recorder.wrap("consume", lambda: clock.spend(50))
    with recorder.root("root"):
        items = []
        for item in shim(2):
            items.append(item)
            consume()
    assert items == [0, 1]
    # Three resumptions (two yields and the exhausting one): 3 + 3 + 2.
    assert recorder.totals("gen") == (3, 8, 8)
    # The consumer's spans are siblings under the root, not children.
    assert recorder.aggregates[("consume", "root")] == [2, 100, 100]
    assert recorder.totals("root") == (1, 108, 0)


def test_exception_closes_the_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def boom():
        clock.spend(4)
        raise ValueError("x")

    shim = recorder.wrap("boom", boom)
    with recorder.root("root"), pytest.raises(ValueError):
        shim()
    assert recorder.totals("boom") == (1, 4, 4)
    assert recorder.totals("root")[0] == 1


def test_raw_spans_stop_after_raw_slots():
    clock = FakeClock()
    recorder = SpanRecorder(raw_slots=2, clock=clock)
    tick = recorder.wrap(SLOT_SPAN, lambda: clock.spend(1))
    with recorder.root("root"):
        for _ in range(5):
            tick()
    assert recorder.slots == 5
    assert [span[0] for span in recorder.raw] == [SLOT_SPAN, SLOT_SPAN]
    assert recorder.totals(SLOT_SPAN)[0] == 5
    trace = recorder.to_dict()
    assert trace["slots"] == 5 and len(trace["raw_spans"]) == 2
    assert trace["raw_spans"][1]["start_ns"] == 1


def _shadowed(state, env=None) -> list[str]:
    """Instance attributes that shadow a shim point."""
    found = []
    for _name, path, attr, _gen in ENGINE_SHIMS:
        target = state
        for part in path.split("."):
            target = getattr(target, part, None)
        if target is not None and attr in vars(target):
            found.append(f"{path}.{attr}")
    if env is not None and "step" in vars(env):
        found.append("env.step")
    return found


@pytest.mark.parametrize("name", ["ipp_light", "fleet_100k",
                                  "reference_ipp"])
def test_install_uninstall_leaves_state_clean(name):
    workload = WORKLOADS[name]
    config = workload.config(1, smoke=True)
    if name == "fleet_100k":
        config = config.with_(fleet__num_clients=500)
    state = build_system(config)
    before = {key: dict(vars(value)) for key, value in vars(state).items()
              if hasattr(value, "__dict__")}
    engine = (ReferenceEngine if workload.kind == "reference"
              else FastEngine)(config, state=state)
    env = getattr(engine, "env", None)
    recorder = SpanRecorder()
    installed = install_shims(recorder, state, env=env)
    expected = len(ENGINE_SHIMS) - (2 if state.fleet is None else 0) + (
        env is not None)
    assert len(installed) == len(_shadowed(state, env)) == expected
    with pytest.raises(RuntimeError, match="already shadowed"):
        install_shims(recorder, state)
    # The failed second install rolled back nothing of the first.
    assert len(_shadowed(state, env)) == expected
    uninstall_shims(installed)
    assert _shadowed(state, env) == []
    assert installed == []
    after = {key: dict(vars(value)) for key, value in vars(state).items()
             if hasattr(value, "__dict__")}
    assert after.keys() == before.keys()
    for key in before:
        assert after[key].keys() == before[key].keys()


def test_shims_do_not_change_the_run():
    from benchmarks.spine.checks import run_digest

    config = WORKLOADS["ipp_light"].config(3, smoke=True)
    plain = FastEngine(config).run()
    state = build_system(config)
    recorder = SpanRecorder()
    installed = install_shims(recorder, state)
    try:
        with recorder.root("core.loop"):
            traced = FastEngine(config, state=state).run()
    finally:
        uninstall_shims(installed)
    assert run_digest(traced) == run_digest(plain)
    assert recorder.slots > 0
    assert recorder.totals("client.vc_requests")[0] > 0
    # Every shimmed call happened under the root or another shim.
    assert all(parent is not None for (name, parent) in recorder.aggregates
               if name != "core.loop")
