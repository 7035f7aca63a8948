"""Unit tests for slot-level tracing: records, sinks, tracer, engines."""

import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    MemorySink,
    NullSink,
    SlotRecord,
    SlotTracer,
)
from repro.server.broadcast_server import SlotKind
from repro.server.queue import BoundedRequestQueue
from tests.conftest import small_config


def record(slot=0, **overrides):
    base = dict(slot=slot, kind="push", page=7, queue_depth=2, enqueued=5,
                duplicates=1, dropped=0, served=3, mc_waiting=None,
                mc_arrivals=0, vc_arrivals=4)
    base.update(overrides)
    return SlotRecord(**base)


class TestSlotRecord:
    def test_dict_roundtrip(self):
        original = record(slot=17, mc_waiting=3)
        assert SlotRecord(**original.to_dict()) == original

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            record().slot = 5


class TestSinks:
    def test_null_sink_counts_and_discards(self):
        sink = NullSink()
        for i in range(5):
            sink.emit(record(slot=i))
        assert sink.emitted == 5

    def test_memory_sink_keeps_everything_by_default(self):
        sink = MemorySink()
        for i in range(10):
            sink.emit(record(slot=i))
        assert [r.slot for r in sink.records] == list(range(10))

    def test_memory_sink_ring_buffer(self):
        sink = MemorySink(capacity=3)
        for i in range(10):
            sink.emit(record(slot=i))
        assert [r.slot for r in sink.records] == [7, 8, 9]
        assert sink.emitted == 10

    def test_memory_sink_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemorySink(capacity=0)

class TestSlotTracer:
    def test_arrival_attribution_resets_per_slot(self):
        sink = MemorySink()
        tracer = SlotTracer(sink)
        queue = BoundedRequestQueue(4)
        tracer.on_mc_request(3)
        tracer.on_vc_request(5)
        tracer.on_vc_request(6)
        tracer.on_slot(0, SlotKind.PUSH, 9, queue, mc_waiting=3)
        tracer.on_slot(1, SlotKind.PADDING, None, queue, mc_waiting=None)
        first, second = sink.records
        assert (first.mc_arrivals, first.vc_arrivals) == (1, 2)
        assert (second.mc_arrivals, second.vc_arrivals) == (0, 0)
        assert first.kind == "push" and second.kind == "padding"
        assert second.page is None

    def test_metrics_integration(self):
        registry = MetricsRegistry()
        tracer = SlotTracer(MemorySink(), metrics=registry)
        queue = BoundedRequestQueue(1)
        queue.offer(1)
        queue.offer(2)  # dropped (capacity 1)
        tracer.on_slot(0, SlotKind.PULL, 1, queue, None)
        snap = registry.snapshot()
        assert snap["trace_slots_pull_total"]["value"] == 1
        assert snap["trace_requests_dropped_total"]["value"] == 1
        assert snap["trace_queue_depth"]["count"] == 1


class TestEngineTracing:
    @staticmethod
    def _metrics(result):
        """to_dict minus the manifest (whose timestamps always differ)."""
        data = result.to_dict()
        data.pop("manifest")
        return data

    def test_fast_engine_traced_run_matches_untraced(self, ipp_config):
        plain = FastEngine(ipp_config).run()
        sink = MemorySink()
        traced = FastEngine(ipp_config, tracer=SlotTracer(sink)).run()
        assert self._metrics(traced) == self._metrics(plain)
        assert sink.emitted > 0

    def test_reference_engine_traced_run_matches_untraced(self, ipp_config):
        plain = ReferenceEngine(ipp_config).run()
        sink = MemorySink()
        traced = ReferenceEngine(ipp_config, tracer=SlotTracer(sink)).run()
        assert self._metrics(traced) == self._metrics(plain)
        assert sink.emitted > 0

    def test_trace_covers_every_slot_in_order(self, ipp_config):
        sink = MemorySink()
        FastEngine(ipp_config, tracer=SlotTracer(sink)).run()
        slots = [r.slot for r in sink.records]
        assert slots == list(range(len(slots)))

    def test_trace_slot_kinds_are_consistent(self, ipp_config):
        sink = MemorySink()
        FastEngine(ipp_config, tracer=SlotTracer(sink)).run()
        kinds = {r.kind for r in sink.records}
        assert kinds <= {"push", "pull", "padding", "idle"}
        # Push pages are on the air; padding/idle slots carry nothing.
        for r in sink.records:
            if r.kind in ("padding", "idle"):
                assert r.page is None
            else:
                assert r.page is not None

    def test_queue_depth_respects_capacity(self, pull_config):
        sink = MemorySink()
        FastEngine(pull_config, tracer=SlotTracer(sink)).run()
        capacity = pull_config.server.queue_size
        assert all(0 <= r.queue_depth <= capacity for r in sink.records)

    def test_tracing_forces_general_path_for_pure_push(self, push_config):
        sink = MemorySink()
        FastEngine(push_config, tracer=SlotTracer(sink)).run()
        # The analytic shortcut ticks no slots; a non-empty per-slot trace
        # proves the general loop ran.
        assert sink.emitted > 0
        assert {r.kind for r in sink.records} <= {"push", "padding"}

    def test_pure_push_response_unchanged_by_tracing(self, push_config):
        analytic = FastEngine(push_config).run()
        traced = FastEngine(push_config,
                            tracer=SlotTracer(MemorySink())).run()
        assert traced.response_miss.mean == pytest.approx(
            analytic.response_miss.mean)
        assert traced.mc_misses == analytic.mc_misses

    def test_ring_buffer_keeps_the_tail(self):
        config = small_config(Algorithm.IPP, run__measure_accesses=100)
        sink = MemorySink(capacity=16)
        FastEngine(config, tracer=SlotTracer(sink)).run()
        assert len(sink.records) == 16
        assert sink.emitted > 16
        last = sink.records[-1].slot
        assert [r.slot for r in sink.records] == list(
            range(last - 15, last + 1))
