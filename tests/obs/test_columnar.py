"""Columnar trace format: dtypes, sink, load checks, export, analytics."""

import json

import numpy as np
import pytest

from repro.core.fast import FastEngine
from repro.obs import (
    ColumnarSink,
    MemorySink,
    RequestRecord,
    RequestTracer,
    SlotRecord,
    SlotTracer,
    array_to_records,
    breakdown_of,
    breakdown_of_array,
    columnar_to_jsonl,
    exact_quantiles,
    load_columnar,
    measured_miss_waits,
    records_to_array,
    slot_summary,
    table_of,
)
from repro.obs.columnar import REQUEST_DTYPE, SLOT_DTYPE
from tests.conftest import small_config


def slot_record(slot=0, **overrides):
    base = dict(slot=slot, kind="push", page=7, queue_depth=2, enqueued=5,
                duplicates=1, dropped=0, served=3, mc_waiting=None,
                mc_arrivals=0, vc_arrivals=4)
    base.update(overrides)
    return SlotRecord(**base)


def request_record(index=0, **overrides):
    base = dict(index=index, page=3, issued_at=10.0, measured=True, hit=False,
                pull_sent=True, pull_outcome="enqueued",
                predicted_push_wait=12.0, page_offers=1, on_air_at=14.0,
                served_at=15.0, served_kind="pull", wait=5.0,
                queue_wait=4.0, service=1.0)
    base.update(overrides)
    return RequestRecord(**base)


def hit_record(index=0, **overrides):
    """A cache hit: every nullable request field is None at once."""
    return request_record(
        index=index, hit=True, pull_sent=False, pull_outcome=None,
        predicted_push_wait=None, page_offers=0, on_air_at=None,
        served_at=10.0, served_kind="cache", wait=0.0, queue_wait=None,
        service=None, **overrides)


def traced_run(config=None):
    """One small engine run captured in memory (ground truth records)."""
    config = config or small_config()
    slots, requests = MemorySink(), MemorySink()
    FastEngine(config, tracer=SlotTracer(slots),
               request_tracer=RequestTracer(requests)).run()
    return slots.records, requests.records


class TestRecordEncoding:
    def test_slot_fields_survive(self):
        records = [slot_record(0, mc_waiting=3),
                   slot_record(1, kind="idle", page=None),
                   slot_record(2, kind="pull", page=0, queue_depth=0)]
        assert array_to_records(records_to_array(records)) == records

    def test_request_fields_survive(self):
        records = [request_record(0),
                   hit_record(1),
                   request_record(2, pull_sent=False, pull_outcome=None,
                                  served_kind="push", queue_wait=2.5,
                                  service=1.0, wait=3.5)]
        assert array_to_records(records_to_array(records)) == records

    def test_infinite_prediction_stored_as_none(self):
        # The tracer stores an inf predicted push wait as None (page never
        # pushed); the columnar NaN sentinel + mask must bring None back,
        # not 0.0 or inf.
        record = request_record(predicted_push_wait=None)
        [decoded] = array_to_records(records_to_array([record]))
        assert decoded.predicted_push_wait is None
        assert decoded == record

    def test_every_nullable_field_none_at_once(self):
        [decoded] = array_to_records(records_to_array([hit_record()]))
        assert decoded.pull_outcome is None
        assert decoded.predicted_push_wait is None
        assert decoded.on_air_at is None
        assert decoded.queue_wait is None
        assert decoded.service is None

    def test_enum_codes_follow_registries(self):
        array = records_to_array([slot_record(kind="padding", page=None)])
        assert table_of(array) == "slot"
        assert array.dtype == SLOT_DTYPE
        assert array_to_records(array)[0].kind == "padding"

    def test_empty_records_need_a_table(self):
        with pytest.raises(ValueError):
            records_to_array([])
        array = records_to_array([], table="request")
        assert array.shape == (0,) and array.dtype == REQUEST_DTYPE


class TestColumnarSink:
    def test_chunking_preserves_order(self):
        sink = ColumnarSink(chunk=4)
        records = [slot_record(i, page=i) for i in range(11)]
        for record in records:
            sink.emit(record)
        assert sink.emitted == 11
        assert array_to_records(sink.array()) == records

    def test_persists_memory_mappable_npy(self, tmp_path):
        path = tmp_path / "trace.npy"
        records = [request_record(i) for i in range(10)]
        with ColumnarSink(path, chunk=3) as sink:
            for record in records:
                sink.emit(record)
        array = load_columnar(path)
        assert isinstance(array, np.memmap)
        assert array_to_records(array) == records

    def test_empty_pinned_table_persists(self, tmp_path):
        path = tmp_path / "empty.npy"
        ColumnarSink(path, table="slot").close()
        array = load_columnar(path, mmap=False)
        assert array.shape == (0,) and array.dtype == SLOT_DTYPE

    def test_empty_unpinned_sink_cannot_persist(self, tmp_path):
        sink = ColumnarSink(tmp_path / "x.npy")
        with pytest.raises(ValueError):
            sink.array()
        with pytest.raises(ValueError):
            sink.close()

    def test_emit_after_close_rejected(self):
        sink = ColumnarSink(table="slot")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit(slot_record())

    def test_foreign_record_type_rejected(self):
        with pytest.raises(TypeError):
            ColumnarSink().emit(object())

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            ColumnarSink(table="nope")
        with pytest.raises(ValueError):
            ColumnarSink(chunk=0)


class TestConverters:
    def _export(self, tmp_path, records):
        npy = tmp_path / "trace.npy"
        with ColumnarSink(npy) as sink:
            for record in records:
                sink.emit(record)
        out = tmp_path / "trace.jsonl"
        assert columnar_to_jsonl(npy, out) == len(records)
        return out.read_text()

    def test_request_export_is_one_compact_object_per_record(self, tmp_path):
        records = [
            request_record(0), hit_record(1),
            request_record(2, pull_outcome="dropped", served_kind="push",
                           predicted_push_wait=None)]
        text = self._export(tmp_path, records)
        assert text == "".join(
            json.dumps(r.to_dict(), separators=(",", ":")) + "\n"
            for r in records)
        assert '"pull_outcome":null' in text.splitlines()[1]

    def test_slot_export_is_one_compact_object_per_record(self, tmp_path):
        records = [slot_record(0), slot_record(1, kind="idle", page=None),
                   slot_record(2, mc_waiting=5)]
        text = self._export(tmp_path, records)
        assert text == "".join(
            json.dumps(r.to_dict(), separators=(",", ":")) + "\n"
            for r in records)
        assert text.splitlines()[1].startswith(
            '{"slot":1,"kind":"idle","page":null,')

    def test_foreign_npy_rejected(self, tmp_path):
        path = tmp_path / "foreign.npy"
        np.save(path, np.zeros(4))
        with pytest.raises(ValueError, match="foreign.npy"):
            load_columnar(path)


class TestLoadChecks:
    @pytest.mark.parametrize("records, column, code", [
        ([slot_record(0), slot_record(1)], "kind", 99),
        ([slot_record(0), slot_record(1)], "kind", -1),
        ([request_record(0), hit_record(1)], "served_kind", 3),
        ([request_record(0), hit_record(1)], "served_kind", -1),
        ([request_record(0), hit_record(1)], "pull_outcome", 3),
        ([request_record(0), hit_record(1)], "pull_outcome", -2),
    ])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_enum_code_outside_its_registry_rejected(
            self, tmp_path, records, column, code, mmap):
        array = records_to_array(records)
        array[column][1] = code
        path = tmp_path / "bad.npy"
        np.save(path, array)
        with pytest.raises(ValueError,
                           match=rf"bad\.npy: column '{column}' holds "
                                 rf"code {code} "):
            load_columnar(path, mmap=mmap)

    def test_every_registry_code_loads(self, tmp_path):
        # The bounds are inclusive of each registry's last code and of
        # pull_outcome's -1 ("no pull sent").
        path = tmp_path / "ok.npy"
        with ColumnarSink(path) as sink:
            for i, outcome in enumerate((None, "enqueued", "duplicate",
                                         "dropped")):
                sink.emit(request_record(i, pull_outcome=outcome,
                                         served_kind="pull"))
        assert load_columnar(path)["pull_outcome"].tolist() == [-1, 0, 1, 2]


class TestVectorizedAnalytics:
    def test_breakdown_matches_python_loop(self):
        _, requests = traced_run()
        array = records_to_array(requests)
        expected = breakdown_of(requests, think_time=4.0)
        assert breakdown_of_array(array, think_time=4.0) == expected

    def test_breakdown_unmeasured_included_on_request(self):
        _, requests = traced_run()
        array = records_to_array(requests)
        assert (breakdown_of_array(array, measured_only=False).accesses
                == len(requests))

    def test_breakdown_requires_request_table(self):
        slots, _ = traced_run()
        with pytest.raises(ValueError):
            breakdown_of_array(records_to_array(slots))

    def test_miss_waits_match_python_filter(self):
        _, requests = traced_run()
        expected = [r.wait for r in requests if r.measured and not r.hit]
        waits = measured_miss_waits(records_to_array(requests))
        assert waits.tolist() == expected

    def test_quantiles_match_sorted_rank_convention(self):
        _, requests = traced_run()
        waits = measured_miss_waits(records_to_array(requests))
        marks = exact_quantiles(waits)
        ordered = sorted(waits.tolist())
        n = len(ordered)
        for q, key in ((0.50, "p50"), (0.90, "p90"), (0.99, "p99")):
            assert marks[key] == ordered[min(n - 1, int(q * n))]
        assert marks["p50"] <= marks["p90"] <= marks["p99"] <= ordered[-1]

    def test_quantiles_edge_cases(self):
        assert exact_quantiles(np.array([])) is None
        assert exact_quantiles(np.array([7.0])) == {
            "p50": 7.0, "p90": 7.0, "p99": 7.0}

    def test_slot_summary_matches_counter(self):
        slots, _ = traced_run()
        array = records_to_array(slots)
        summary = slot_summary(array)
        from collections import Counter
        assert summary["slots"] == len(slots)
        assert summary["kinds"] == dict(Counter(r.kind for r in slots))
        assert summary["mean_queue_depth"] == pytest.approx(
            sum(r.queue_depth for r in slots) / len(slots))
        assert summary["dropped"] == slots[-1].dropped

    def test_memory_mapped_analytics_agree_with_ground_truth(self, tmp_path):
        # The acceptance check: sink to disk, map back, and the columnar
        # analytics must agree with the MemorySink record-loop truth.
        config = small_config()
        mem = MemorySink()
        path = tmp_path / "req.npy"
        with ColumnarSink(path, chunk=64) as columnar:
            class Tee:
                emitted = 0

                def emit(self, record):
                    mem.emit(record)
                    columnar.emit(record)
                    self.emitted += 1
            FastEngine(config, request_tracer=RequestTracer(Tee())).run()
        array = load_columnar(path)
        assert array_to_records(array) == mem.records
        assert breakdown_of_array(array) == breakdown_of(mem.records)
