"""Unit tests for slot-level tracing: rows, tracer, engines."""

import numpy as np
import pytest

from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs.columnar import SLOT_DTYPE, ColumnarSink, decode_row
from repro.obs.events import SLOT_KINDS
from repro.obs.trace import SlotTracer
from repro.server.broadcast_server import SlotKind
from repro.server.queue import BoundedRequestQueue
from tests.conftest import slot_row


def traced(engine_cls, config):
    """Run ``config`` with a slot tracer; the trace and the result."""
    sink = ColumnarSink(table="slot")
    result = engine_cls(config, tracer=SlotTracer(sink)).run()
    return sink.array(), result


class TestSinks:
    def test_memory_sink_keeps_everything_by_default(self):
        sink = ColumnarSink(table="slot")
        for i in range(10):
            sink.emit(slot_row(i))
        assert sink.array()["slot"].tolist() == list(range(10))
        assert sink.emitted == 10


class TestSlotTracer:
    def test_arrival_attribution_resets_per_slot(self):
        sink = ColumnarSink(table="slot")
        tracer = SlotTracer(sink)
        queue = BoundedRequestQueue(4)
        tracer.on_mc_request(3)
        tracer.on_vc_request(5)
        tracer.on_vc_request(6)
        tracer.on_slot(0, SlotKind.PUSH, 9, queue, mc_waiting=3)
        tracer.on_slot(1, SlotKind.PADDING, None, queue, mc_waiting=None)
        first, second = (decode_row(row, "slot") for row in sink.array())
        assert (first["mc_arrivals"], first["vc_arrivals"]) == (1, 2)
        assert (second["mc_arrivals"], second["vc_arrivals"]) == (0, 0)
        assert first["kind"] == "push" and second["kind"] == "padding"
        assert second["page"] is None

    def test_row_is_the_encoded_snapshot(self):
        sink = ColumnarSink(table="slot")
        tracer = SlotTracer(sink)
        queue = BoundedRequestQueue(1)
        queue.offer(1)
        queue.offer(2)  # dropped (capacity 1)
        tracer.on_vc_request(1)
        tracer.on_slot(4, SlotKind.PULL, 1, queue, mc_waiting=None)
        tracer.on_slot(5, SlotKind.IDLE, None, queue, mc_waiting=8)
        expected = np.array(
            [slot_row(4, kind="pull", page=1, queue_depth=1, enqueued=1,
                      duplicates=0, dropped=1, served=0, mc_waiting=None,
                      mc_arrivals=0, vc_arrivals=1),
             slot_row(5, kind="idle", page=None, queue_depth=1, enqueued=1,
                      duplicates=0, dropped=1, served=0, mc_waiting=8,
                      mc_arrivals=0, vc_arrivals=0)], dtype=SLOT_DTYPE)
        assert np.array_equal(sink.array(), expected)
        assert tracer.records_emitted == 2


class TestEngineTracing:
    @staticmethod
    def _metrics(result):
        """to_dict minus the manifest (whose timestamps always differ)."""
        data = result.to_dict()
        data.pop("manifest")
        return data

    def test_fast_engine_traced_run_matches_untraced(self, ipp_config):
        plain = FastEngine(ipp_config).run()
        trace, result = traced(FastEngine, ipp_config)
        assert self._metrics(result) == self._metrics(plain)
        assert len(trace) > 0

    def test_reference_engine_traced_run_matches_untraced(self, ipp_config):
        plain = ReferenceEngine(ipp_config).run()
        trace, result = traced(ReferenceEngine, ipp_config)
        assert self._metrics(result) == self._metrics(plain)
        assert len(trace) > 0

    def test_trace_covers_every_slot_in_order(self, ipp_config):
        trace, _ = traced(FastEngine, ipp_config)
        assert trace["slot"].tolist() == list(range(len(trace)))

    def test_trace_slot_kinds_are_consistent(self, ipp_config):
        trace, _ = traced(FastEngine, ipp_config)
        kinds = {SLOT_KINDS[code] for code in trace["kind"]}
        assert kinds <= {"push", "pull", "padding", "idle"}
        # Push pages are on the air; padding/idle slots carry nothing.
        empty = np.isin(trace["kind"], [SLOT_KINDS.index("padding"),
                                        SLOT_KINDS.index("idle")])
        page_null = (trace["null_mask"] & 1).astype(bool)
        assert np.array_equal(page_null, empty)
        assert (trace["page"][empty] == -1).all()
        assert (trace["page"][~empty] >= 0).all()

    def test_queue_depth_respects_capacity(self, pull_config):
        trace, _ = traced(FastEngine, pull_config)
        capacity = pull_config.server.queue_size
        depth = trace["queue_depth"]
        assert ((0 <= depth) & (depth <= capacity)).all()

    def test_tracing_forces_general_path_for_pure_push(self, push_config):
        trace, _ = traced(FastEngine, push_config)
        # The analytic shortcut ticks no slots; a non-empty per-slot trace
        # proves the general loop ran.
        assert len(trace) > 0
        assert {SLOT_KINDS[code] for code in trace["kind"]} <= {
            "push", "padding"}

    def test_pure_push_response_unchanged_by_tracing(self, push_config):
        analytic = FastEngine(push_config).run()
        _, result = traced(FastEngine, push_config)
        assert result.response_miss.mean == pytest.approx(
            analytic.response_miss.mean)
        assert result.mc_misses == analytic.mc_misses
