"""The attachment helper, and the observers built on it.

Two contracts: an :class:`~repro.obs.attach.Attachment` leaves every
component exactly as it found it, and looking at a run — with the slot
tracer, the request tracer or a counter on every boundary an observer
can shadow, on either engine — does not change it.
"""

import math
from collections import Counter as Tally

import pytest

from repro.core import ENGINES
from repro.core.build import build_system
from repro.core.runtime import RunProtocol, SimulationStall
from repro.core.simulation import ReferenceEngine
from repro.obs import Attachment, ColumnarSink, RequestTracer, SlotTracer
from repro.obs.columnar import decode_row
from tests.conftest import small_config


class Counter:
    """A component with one method to shadow."""

    def __init__(self):
        self.calls = 0

    def bump(self, by=1):
        self.calls += by
        return self.calls


def tagging(tag, log):
    """A stand-in that logs ``tag`` after each inner call."""
    def stand_in(inner, *args):
        result = inner(*args)
        log.append(tag)
        return result
    return stand_in


class TestAttachment:
    def test_shadow_observes_and_detach_restores_the_class_method(self):
        target, log = Counter(), []
        attachment = Attachment([(target, "bump", tagging("a", log))])
        assert target.bump(2) == 2
        assert log == ["a"]
        attachment.detach()
        assert vars(target) == {"calls": 2}
        assert target.bump() == 3
        assert log == ["a"]

    def test_stacked_shadows_run_inside_out_and_undo_lifo(self):
        target, log = Counter(), []
        first = Attachment([(target, "bump", tagging("first", log))])
        under = vars(target)["bump"]
        second = Attachment([(target, "bump", tagging("second", log))])
        target.bump()
        assert log == ["first", "second"]
        second.detach()
        # Exactly what the second attachment found is back.
        assert vars(target)["bump"] is under
        target.bump()
        assert log == ["first", "second", "first"]
        first.detach()
        assert "bump" not in vars(target)

    def test_one_attachment_may_shadow_a_name_twice(self):
        target, log = Counter(), []
        attachment = Attachment([(target, "bump", tagging("a", log)),
                                 (target, "bump", tagging("b", log))])
        target.bump()
        assert log == ["a", "b"]
        attachment.detach()
        assert "bump" not in vars(target)

    def test_a_foreign_shadow_is_put_back_not_popped(self):
        target, log = Counter(), []
        inner = target.bump

        def foreign(*args):  # e.g. a benchmark's timing shim
            log.append("foreign")
            return inner(*args)

        target.bump = foreign
        attachment = Attachment([(target, "bump", tagging("ours", log))])
        target.bump()
        assert log == ["foreign", "ours"]
        attachment.detach()
        assert vars(target)["bump"] is foreign

    def test_hoisted_reference_goes_inert_on_detach(self):
        target, log = Counter(), []
        attachment = Attachment([(target, "bump", tagging("seen", log))])
        hoisted = target.bump  # what a loop binds before it starts
        hoisted()
        attachment.detach()
        assert hoisted() == 2  # still the component's method...
        assert log == ["seen"]  # ...and nobody is watching

    def test_hoisted_generator_function_goes_inert_too(self):
        class Source:
            def items(self, count):
                yield from range(count)

        source, seen = Source(), []

        def each(inner, count):
            for item in inner(count):
                seen.append(item)
                yield item

        attachment = Attachment([(source, "items", each)])
        hoisted = source.items
        assert list(hoisted(2)) == [0, 1]
        attachment.detach()
        assert list(hoisted(3)) == [0, 1, 2]
        assert seen == [0, 1]

    def test_failed_placement_removes_what_was_placed(self):
        target, log = Counter(), []
        with pytest.raises(AttributeError):
            Attachment([(target, "bump", tagging("a", log)),
                        (target, "no_such_method", tagging("b", log))])
        assert "bump" not in vars(target)
        assert target.bump() == 1 and log == []

    def test_on_detach_runs_once_after_the_shadows_are_gone(self):
        target, seen = Counter(), []
        attachment = Attachment(
            [(target, "bump", tagging("a", []))],
            on_detach=lambda: seen.append("bump" in vars(target)))
        attachment.detach()
        attachment.detach()
        assert seen == [False]

    def test_context_manager_detaches_on_error(self):
        target = Counter()
        with pytest.raises(ZeroDivisionError):
            with Attachment([(target, "bump", tagging("a", []))]):
                assert "bump" in vars(target)
                1 / 0
        assert "bump" not in vars(target)


# -- the observers ---------------------------------------------------------
def observed_config(**overrides):
    """IPP with a fleet and a reprogrammer: every component call an
    observer shadows is exercised, the control plane's poll included."""
    return small_config(scheduler__reprogram_interval=40,
                        scheduler__reprogram_min_requests=5,
                        fleet__num_clients=30, fleet__think_time=30.0,
                        **overrides)


def shadowed(state):
    """Names of the callables left in the components' ``vars()``."""
    components = {"server": state.server, "queue": state.server.queue,
                  "mc": state.mc, "vc": state.vc, "fleet": state.fleet}
    return sorted(f"{label}.{name}"
                  for label, component in components.items()
                  for name, value in vars(component).items()
                  if callable(value))


class CallCounter:
    """Counts every call on every boundary an observer can shadow, keyed
    ``"component.method"``; ``vc.requests_for_slot`` stays a generator
    and counts the pages it yields."""

    def __init__(self):
        self.calls = Tally()

    def attach(self, state):
        def counted(key):
            def call(inner, *args):
                self.calls[key] += 1
                return inner(*args)
            return call

        def pages(inner, *args):
            for page in inner(*args):
                self.calls["vc.requests_for_slot"] += 1
                yield page

        shadows = [(state.server, "tick", counted("server.tick")),
                   (state.server.queue, "offer", counted("queue.offer")),
                   (state.vc, "requests_for_slot", pages)]
        shadows += [(state.mc, name, counted(f"mc.{name}"))
                    for name in ("draw_page", "lookup", "receive")]
        shadows.append((state.vc, "arrivals_for_slots",
                        counted("vc.arrivals_for_slots")))
        if state.fleet is not None:
            shadows += [(state.fleet, name, counted(f"fleet.{name}"))
                        for name in ("deliver", "generate")]
        if state.control is not None:
            shadows.append((state.control, "poll", counted("control.poll")))
        return Attachment(shadows)


def run_observed(engine, observer, config, state=None):
    """Run ``config`` with ``observer`` looking on; returns the state too.

    The counter has no engine keyword of its own.  The reference engine
    runs with it attached by hand, as any runtime would; the fast engine
    takes it as ``tracer=``, whose only use is to be attached in the
    run's scope — where the control plane is reachable.
    """
    state = state if state is not None else build_system(config)
    if observer is None:
        return ENGINES[engine](config, state=state).run(), state
    if isinstance(observer, CallCounter) and engine == "reference":
        with observer.attach(state):
            return ReferenceEngine(config, state=state).run(), state
    keyword = {SlotTracer: "tracer", RequestTracer: "request_tracer",
               CallCounter: "tracer"}[type(observer)]
    return ENGINES[engine](config, state=state,
                           **{keyword: observer}).run(), state


OBSERVERS = {
    "slot-tracer": lambda: SlotTracer(ColumnarSink(table="slot")),
    "request-tracer": lambda: RequestTracer(ColumnarSink(table="request")),
    "call-counter": CallCounter,
}


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestLookingDoesNotChangeTheRun:
    def test_result_is_equal_and_components_are_left_clean(self, engine,
                                                           observer):
        config = observed_config()
        plain, _ = run_observed(engine, None, config)
        watcher = OBSERVERS[observer]()
        watched, state = run_observed(engine, watcher, config)
        plain, watched = plain.to_dict(), watched.to_dict()
        plain.pop("manifest")
        watched.pop("manifest")
        assert watched == plain
        assert shadowed(state) == []
        assert state.control is None
        # The observer did look.
        if isinstance(watcher, CallCounter):
            calls = watcher.calls
            assert calls["server.tick"] > 0 and calls["fleet.deliver"] > 0
            assert calls["fleet.generate"] > 0
            if engine == "fast":  # its RunProtocol scope holds the plane
                assert calls["control.poll"] > 0
        else:
            assert watcher.records_emitted > 0

    def test_a_stalled_run_leaves_the_components_clean(self, engine,
                                                       observer):
        config = observed_config(run__max_slots=100)
        state = build_system(config)
        with pytest.raises(SimulationStall):
            run_observed(engine, OBSERVERS[observer](), config, state)
        assert shadowed(state) == []
        assert state.control is None


class TestRunProtocolScope:
    def test_attach_is_all_or_nothing(self):
        config = observed_config()
        state = build_system(config)

        class Refuses:
            def attach(self, state):
                raise RuntimeError("no")

        observers = (SlotTracer(ColumnarSink(table="slot")), None,
                     RequestTracer(ColumnarSink(table="request")), Refuses())
        run = RunProtocol(config, state, "fast", False, observers)
        with pytest.raises(RuntimeError, match="no"):
            with run:
                pytest.fail("the scope must not open")
        assert shadowed(state) == []

    def test_a_shim_that_was_there_first_is_put_back(self):
        config = observed_config()
        state = build_system(config)
        ticks = []
        inner = state.server.tick

        def shim():  # what benchmarks/spine's install_shims places
            ticks.append(state.server.ticks)
            return inner()

        state.server.tick = shim
        tracer = SlotTracer(ColumnarSink(table="slot"))
        result = ENGINES["fast"](config, state=state, tracer=tracer).run()
        assert vars(state.server)["tick"] is shim
        # The shim saw every tick, the exit slack's included; the tracer
        # — detached at the ending access — only the run's.
        assert len(ticks) == state.server.ticks
        assert tracer.records_emitted == int(result.total_slots)
        assert tracer.records_emitted == len(ticks) - 1

    def test_slot_records_number_the_servers_ticks(self):
        config = observed_config()
        sink = ColumnarSink(table="slot")
        ENGINES["reference"](config, tracer=SlotTracer(sink)).run()
        assert sink.array()["slot"].tolist() == list(range(sink.emitted))


class TestMidSlotMissOnAir:
    """A miss that lands while its page is being transmitted.

    Only the event-driven engine can see one as such: the page went on
    air at the last slot boundary, before the access was issued, and is
    caught in flight.  (The fast engine runs a slot's accesses before it
    ticks, so there the same access precedes the tick that airs it.)
    """

    def test_reference_engine_stamps_the_slot_start(self):
        # A fractional think time puts MC accesses strictly inside slots.
        config = small_config(client__think_time=2.5)
        sink = ColumnarSink(table="request")
        ReferenceEngine(config, request_tracer=RequestTracer(sink)).run()
        rows = [decode_row(row, "request") for row in sink.array()]
        caught = [r for r in rows
                  if not r["hit"] and r["on_air_at"] < r["issued_at"]]
        assert caught
        for record in caught:
            assert record["issued_at"] != math.floor(record["issued_at"])
            # The slot that was on the air.
            assert record["on_air_at"] == math.floor(record["issued_at"])
            assert record["served_at"] == record["on_air_at"] + 1
            assert record["queue_wait"] == 0.0
            assert record["service"] == record["wait"]
        assert [r for r in rows
                if not r["hit"] and r["on_air_at"] >= r["issued_at"]]
