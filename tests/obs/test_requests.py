"""Request-lifecycle tracing: records, breakdown, and engine wiring."""

import json
from dataclasses import asdict
import math

import pytest

from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs import (
    Attachment,
    ColumnarSink,
    RequestRecord,
    RequestTracer,
    breakdown_of_array,
)
from repro.obs.columnar import decode_row
from repro.server.broadcast_server import SlotKind
from repro.server.queue import BoundedRequestQueue, Offer

from tests.conftest import observe_offers, request_array, small_config


def _record(**overrides) -> RequestRecord:
    base = dict(index=0, page=3, issued_at=10.0, measured=True, hit=False,
                pull_sent=True, pull_outcome="enqueued",
                predicted_push_wait=12.0, page_offers=1, on_air_at=14.0,
                served_at=15.0, served_kind="pull", wait=5.0,
                queue_wait=4.0, service=1.0)
    base.update(overrides)
    return RequestRecord(**base)


def tracer(**kwargs) -> RequestTracer:
    """A request tracer into an in-memory sink."""
    return RequestTracer(ColumnarSink(table="request"), **kwargs)


def rows(tracer: RequestTracer) -> list[dict]:
    """The tracer's rows so far, decoded."""
    return [decode_row(row, "request") for row in tracer.sink.array()]


class TestRequestRecord:
    def test_round_trips_through_dict(self):
        record = _record()
        assert RequestRecord(**asdict(record)) == record

    def test_to_dict_is_strict_json(self):
        text = json.dumps(asdict(_record()), allow_nan=False)
        assert json.loads(text)["page"] == 3


class TestTracerStateMachine:
    def test_cache_hit_record(self):
        traced = tracer()
        traced.on_access(7, 3.0, True)
        traced.on_hit(7, 3.0)
        [record] = rows(traced)
        assert record["hit"] and record["wait"] == 0.0
        assert record["served_kind"] == "cache"
        assert record["queue_wait"] is None and record["service"] is None

    def test_full_miss_lifecycle(self):
        traced = tracer()
        traced.on_access(3, 10.5, True)
        traced.on_miss(3, 10.5)
        traced.on_miss_predict(40.0)
        traced.on_pull(3, 10.5, Offer.ENQUEUED)
        traced.on_queue_offer(3, Offer.DUPLICATE)   # someone else's request
        traced.on_queue_offer(9, Offer.ENQUEUED)    # unrelated page
        traced.on_air(14.0, SlotKind.PULL)
        traced.on_served(3, 15.0)
        [record] = rows(traced)
        assert not record["hit"]
        assert record["pull_outcome"] == "enqueued"
        assert record["predicted_push_wait"] == 40.0
        assert record["page_offers"] == 1
        assert record["served_kind"] == "pull"
        assert record["wait"] == 4.5
        assert record["queue_wait"] == 3.5
        assert record["service"] == 1.0
        assert record["queue_wait"] + record["service"] == record["wait"]

    def test_mid_slot_issue_clamps_queue_wait(self):
        # Access issued at 10.5 while the serving slot started at 10.0.
        traced = tracer()
        traced.on_access(3, 10.5, True)
        traced.on_miss(3, 10.5)
        traced.on_air(10.0, SlotKind.PUSH)
        traced.on_served(3, 11.0)
        [record] = rows(traced)
        assert record["queue_wait"] == 0.0
        assert record["service"] == pytest.approx(0.5)
        assert record["wait"] == pytest.approx(0.5)

    def test_infinite_predicted_wait_stored_as_none(self):
        traced = tracer()
        traced.on_access(3, 0.0, True)
        traced.on_miss(3, 0.0)
        traced.on_miss_predict(math.inf)
        traced.on_air(2.0, SlotKind.PULL)
        traced.on_served(3, 3.0)
        [record] = rows(traced)
        assert record["predicted_push_wait"] is None
        json.dumps(record, allow_nan=False)  # stays strict JSON

    def test_unmeasured_records_skip_the_breakdown(self):
        traced = tracer()
        traced.on_access(1, 0.0, False)
        traced.on_hit(1, 0.0)
        traced.on_access(2, 1.0, True)
        traced.on_hit(2, 1.0)
        assert traced.records_emitted == 2
        assert traced.breakdown().accesses == 1


class TestWaitBreakdown:
    def test_decomposition_sums_to_total(self):
        breakdown = breakdown_of_array(request_array([
            _record(served_kind="pull", queue_wait=4.0, service=1.0,
                    wait=5.0),
            _record(index=1, served_kind="push", pull_sent=False,
                    pull_outcome=None, queue_wait=2.0, service=1.0,
                    wait=3.0)]))
        assert breakdown.pull_wait == 4.0
        assert breakdown.push_wait == 2.0
        assert breakdown.service == 2.0
        assert breakdown.total_wait == 8.0
        assert breakdown.mean_wait == 4.0

    def test_render_shows_stages_and_counts(self):
        breakdown = breakdown_of_array(request_array([_record()]),
                                       think_time=40.0)
        text = breakdown.render()
        for stage in ("think", "push wait", "pull queue wait",
                      "service (on air)"):
            assert stage in text
        assert "pulls sent 1" in text

    def test_breakdown_of_filters_and_fills_think(self):
        records = [_record(), _record(index=1, measured=False)]
        breakdown = breakdown_of_array(request_array(records),
                                       think_time=4.0)
        assert breakdown.accesses == 1
        assert breakdown.think == 4.0


class TestQueueObserver:
    def test_attach_wraps_and_detach_restores(self):
        queue = BoundedRequestQueue(2)
        seen = []
        attachment = observe_offers(
            queue, lambda page, outcome: seen.append((page, outcome)))
        assert queue.offer(1) is Offer.ENQUEUED
        assert queue.offer(1) is Offer.DUPLICATE
        assert seen == [(1, Offer.ENQUEUED), (1, Offer.DUPLICATE)]
        attachment.detach()
        queue.offer(2)
        assert len(seen) == 2  # the plain bound method is back

    def test_double_attach_stacks(self):
        queue = BoundedRequestQueue(2)
        counts = [0, 0]

        def bump(index):
            def callback(page, outcome):
                counts[index] += 1
            return callback

        observe_offers(queue, bump(0))
        observe_offers(queue, bump(1))
        queue.offer(1)
        assert counts == [1, 1]

    def test_detach_without_attach_is_noop(self):
        Attachment([]).detach()


class TestEngineWiring:
    """Both engines drive the same hooks and keep results bit-identical."""

    @staticmethod
    def _metrics(result):
        data = result.to_dict()
        data.pop("manifest")
        return data

    @pytest.mark.parametrize("algorithm", ["ipp", "pure-pull", "pure-push"])
    def test_fast_engine_traced_matches_untraced(self, algorithm):
        from repro.core.algorithms import Algorithm

        config = small_config(Algorithm(algorithm))
        # Tracing forces the general slot loop, so compare against the
        # general loop too (for Pure-Push the analytic shortcut
        # synthesizes rather than ticks its slot counts).
        plain = FastEngine(config, force_general=True).run()
        traced = tracer()
        result = FastEngine(config, request_tracer=traced).run()
        assert self._metrics(result) == self._metrics(plain)
        assert traced.records_emitted > 0

    def test_reference_engine_traced_matches_untraced(self, ipp_config):
        plain = ReferenceEngine(ipp_config).run()
        traced = tracer()
        result = ReferenceEngine(ipp_config, request_tracer=traced).run()
        assert self._metrics(result) == self._metrics(plain)
        assert traced.records_emitted > 0

    @pytest.mark.parametrize("engine_cls", [FastEngine, ReferenceEngine],
                             ids=["fast", "reference"])
    def test_breakdown_reconstructs_run_result(self, ipp_config, engine_cls):
        traced = tracer()
        result = engine_cls(ipp_config, request_tracer=traced).run()
        breakdown = traced.breakdown()
        assert breakdown.accesses == result.mc_hits + result.mc_misses
        assert breakdown.hits == result.mc_hits
        assert breakdown.misses == result.mc_misses
        assert breakdown.pulls_sent == result.mc_pulls_sent
        assert breakdown.mean_wait == pytest.approx(
            result.response_miss.mean)
        assert breakdown.think == ipp_config.client.think_time * \
            breakdown.accesses

    @pytest.mark.parametrize("engine_cls", [FastEngine, ReferenceEngine],
                             ids=["fast", "reference"])
    def test_every_miss_record_decomposes_exactly(self, ipp_config,
                                                  engine_cls):
        traced = tracer()
        engine_cls(ipp_config, request_tracer=traced).run()
        misses = [r for r in rows(traced) if not r["hit"]]
        assert misses
        for record in misses:
            assert record["on_air_at"] is not None
            assert record["queue_wait"] + record["service"] \
                == pytest.approx(record["wait"])
            assert record["served_kind"] in ("push", "pull")

    def test_tracer_detached_after_run(self, ipp_config):
        engine = FastEngine(ipp_config, request_tracer=tracer())
        engine.run()
        assert "lookup" not in vars(engine.state.mc)
        assert "offer" not in vars(engine.state.server.queue)

    def test_pure_push_analytic_path_disabled_when_tracing(self, push_config):
        traced = tracer()
        engine = FastEngine(push_config, request_tracer=traced)
        result = engine.run()
        # The general loop ran: every record decomposes and the slot
        # accounting was ticked, not synthesized.
        assert traced.records_emitted > 0
        plain = FastEngine(push_config).run()
        assert result.response_miss.mean == pytest.approx(
            plain.response_miss.mean)
