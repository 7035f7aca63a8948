"""Columnar trace format: dtypes, sink, load checks, export, analytics."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.fast import FastEngine
from repro.obs import (
    ColumnarSink,
    RequestRecord,
    RequestTracer,
    SlotTracer,
    WaitBreakdown,
    breakdown_of_array,
    columnar_to_jsonl,
    exact_quantiles,
    load_columnar,
    measured_miss_waits,
    slot_summary,
    table_of,
)
from repro.obs.columnar import REQUEST_DTYPE, SLOT_DTYPE, decode_row
from repro.obs.events import SLOT_KINDS
from tests.conftest import request_array, slot_array, slot_row, small_config


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
    """One small engine run traced in memory: the slot and request
    arrays and the request tracer."""
    config = config or small_config()
    slots = ColumnarSink(table="slot")
    requests = RequestTracer(ColumnarSink(table="request"))
    FastEngine(config, tracer=SlotTracer(slots),
               request_tracer=requests).run()
    return slots.array(), requests.sink.array(), requests


def decoded(array):
    return [decode_row(row, table_of(array)) for row in array]


class TestRecordEncoding:
    def test_slot_fields_survive(self):
        fields = [dict(slot=0, kind="push", page=7, queue_depth=2,
                       enqueued=5, duplicates=1, dropped=0, served=3,
                       mc_waiting=3, mc_arrivals=0, vc_arrivals=4),
                  dict(slot=1, kind="idle", page=None, queue_depth=2,
                       enqueued=5, duplicates=1, dropped=0, served=3,
                       mc_waiting=None, mc_arrivals=0, vc_arrivals=4)]
        assert decoded(slot_array(slot_row(**f) for f in fields)) == fields

    def test_request_fields_survive(self):
        records = [request_record(0),
                   hit_record(1),
                   request_record(2, pull_sent=False, pull_outcome=None,
                                  served_kind="push", queue_wait=2.5,
                                  service=1.0, wait=3.5)]
        assert decoded(request_array(records)) == [
            asdict(r) for r in records]

    def test_infinite_prediction_stored_as_none(self):
        # The tracer stores an inf predicted push wait as None (page never
        # pushed); the columnar NaN sentinel + mask must bring None back,
        # not 0.0 or inf.
        record = request_record(predicted_push_wait=None)
        array = request_array([record])
        assert np.isnan(array["predicted_push_wait"][0])
        [row] = decoded(array)
        assert row["predicted_push_wait"] is None
        assert row == asdict(record)

    def test_every_nullable_field_none_at_once(self):
        array = request_array([hit_record()])
        assert array["null_mask"][0] == 0b11111
        [row] = decoded(array)
        assert row["pull_outcome"] is None
        assert row["predicted_push_wait"] is None
        assert row["on_air_at"] is None
        assert row["queue_wait"] is None
        assert row["service"] is None

    def test_enum_codes_follow_registries(self):
        array = slot_array([slot_row(kind="padding", page=None)])
        assert table_of(array) == "slot"
        assert array["kind"][0] == SLOT_KINDS.index("padding")
        assert decoded(array)[0]["kind"] == "padding"

    def test_empty_records_need_a_table(self):
        with pytest.raises(TypeError):
            ColumnarSink()
        array = ColumnarSink(table="request").array()
        assert array.shape == (0,) and array.dtype == REQUEST_DTYPE


class TestColumnarSink:
    def test_chunking_preserves_order(self):
        sink = ColumnarSink(table="slot", chunk=4)
        rows = [slot_row(i, page=i) for i in range(11)]
        for row in rows:
            sink.emit(row)
        assert sink.emitted == 11
        assert np.array_equal(sink.array(), slot_array(rows))

    def test_persists_memory_mappable_npy(self, tmp_path):
        path = tmp_path / "trace.npy"
        records = [request_record(i) for i in range(10)]
        with ColumnarSink(path, table="request", chunk=3) as sink:
            for record in records:
                sink.emit(record.row())
        array = load_columnar(path)
        assert isinstance(array, np.memmap)
        assert decoded(array) == [asdict(r) for r in records]

    def test_empty_pinned_table_persists(self, tmp_path):
        path = tmp_path / "empty.npy"
        ColumnarSink(path, table="slot").close()
        array = load_columnar(path, mmap=False)
        assert array.shape == (0,) and array.dtype == SLOT_DTYPE

    def test_empty_unpinned_sink_cannot_persist(self, tmp_path):
        # The table is required: there is no sink that could not persist.
        with pytest.raises(TypeError):
            ColumnarSink(tmp_path / "x.npy")
        assert not (tmp_path / "x.npy").exists()

    def test_emit_after_close_rejected(self):
        sink = ColumnarSink(table="slot")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit(slot_row())

    def test_foreign_record_type_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            ColumnarSink(table="slot").emit(object())
        with pytest.raises((TypeError, ValueError)):
            ColumnarSink(table="request").emit(slot_row())

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            ColumnarSink(table="nope")
        with pytest.raises(ValueError):
            ColumnarSink(table="slot", chunk=0)


class TestConverters:
    def _export(self, tmp_path, array):
        npy = tmp_path / "trace.npy"
        np.save(npy, array)
        out = tmp_path / "trace.jsonl"
        assert columnar_to_jsonl(npy, out) == len(array)
        return out.read_text()

    def test_request_export_is_one_compact_object_per_record(self, tmp_path):
        records = [
            request_record(0), hit_record(1),
            request_record(2, pull_outcome="dropped", served_kind="push",
                           predicted_push_wait=None)]
        text = self._export(tmp_path, request_array(records))
        assert text == "".join(
            json.dumps(asdict(r), separators=(",", ":")) + "\n"
            for r in records)
        assert '"pull_outcome":null' in text.splitlines()[1]

    def test_slot_export_is_one_compact_object_per_record(self, tmp_path):
        rows = [slot_row(0), slot_row(1, kind="idle", page=None),
                slot_row(2, mc_waiting=5)]
        text = self._export(tmp_path, slot_array(rows))
        assert text.splitlines() == [
            '{"slot":0,"kind":"push","page":7,"queue_depth":2,'
            '"enqueued":5,"duplicates":1,"dropped":0,"served":3,'
            '"mc_waiting":null,"mc_arrivals":0,"vc_arrivals":4}',
            '{"slot":1,"kind":"idle","page":null,"queue_depth":2,'
            '"enqueued":5,"duplicates":1,"dropped":0,"served":3,'
            '"mc_waiting":null,"mc_arrivals":0,"vc_arrivals":4}',
            '{"slot":2,"kind":"push","page":7,"queue_depth":2,'
            '"enqueued":5,"duplicates":1,"dropped":0,"served":3,'
            '"mc_waiting":5,"mc_arrivals":0,"vc_arrivals":4}']

    def test_foreign_npy_rejected(self, tmp_path):
        path = tmp_path / "foreign.npy"
        np.save(path, np.zeros(4))
        with pytest.raises(ValueError, match="foreign.npy"):
            load_columnar(path)


class TestLoadChecks:
    @pytest.mark.parametrize("records, column, code", [
        (slot_array([slot_row(0), slot_row(1)]), "kind", 99),
        (slot_array([slot_row(0), slot_row(1)]), "kind", -1),
        (request_array([request_record(0), hit_record(1)]), "served_kind", 3),
        (request_array([request_record(0), hit_record(1)]), "served_kind", -1),
        (request_array([request_record(0), hit_record(1)]), "pull_outcome",
         3),
        (request_array([request_record(0), hit_record(1)]), "pull_outcome",
         -2),
    ])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_enum_code_outside_its_registry_rejected(
            self, tmp_path, records, column, code, mmap):
        array = records.copy()
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
        with ColumnarSink(path, table="request") as sink:
            for i, outcome in enumerate((None, "enqueued", "duplicate",
                                         "dropped")):
                sink.emit(request_record(i, pull_outcome=outcome,
                                         served_kind="pull").row())
        assert load_columnar(path)["pull_outcome"].tolist() == [-1, 0, 1, 2]


class TestVectorizedAnalytics:
    def test_breakdown_matches_python_loop(self):
        # The oracle folds the decoded rows in one at a time.
        _, requests, _ = traced_run()
        expected = WaitBreakdown()
        for row in decoded(requests):
            if not row["measured"]:
                continue
            expected.accesses += 1
            if row["hit"]:
                expected.hits += 1
                continue
            expected.misses += 1
            expected.pulls_sent += row["pull_sent"]
            if row["pull_outcome"] is not None:
                name = f"pulls_{row['pull_outcome']}"
                setattr(expected, name, getattr(expected, name) + 1)
            if row["served_kind"] == "pull":
                expected.served_pull += 1
                expected.pull_wait += row["queue_wait"]
            else:
                expected.served_push += 1
                expected.push_wait += row["queue_wait"]
            expected.service += row["service"]
        expected.think = 4.0 * expected.accesses
        actual = breakdown_of_array(requests, think_time=4.0)
        assert actual.to_dict() == pytest.approx(expected.to_dict())
        assert isinstance(actual.misses, int)

    def test_breakdown_unmeasured_included_on_request(self):
        _, requests, _ = traced_run()
        assert (breakdown_of_array(requests, measured_only=False).accesses
                == len(requests))

    def test_breakdown_requires_request_table(self):
        slots, _, _ = traced_run()
        with pytest.raises(ValueError):
            breakdown_of_array(slots)

    def test_miss_waits_match_python_filter(self):
        _, requests, _ = traced_run()
        expected = [row["wait"] for row in decoded(requests)
                    if row["measured"] and not row["hit"]]
        assert measured_miss_waits(requests).tolist() == expected

    def test_quantiles_match_sorted_rank_convention(self):
        _, requests, _ = traced_run()
        waits = measured_miss_waits(requests)
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
        slots, _, _ = traced_run()
        rows = decoded(slots)
        summary = slot_summary(slots)
        from collections import Counter
        assert summary["slots"] == len(rows)
        assert summary["kinds"] == dict(Counter(r["kind"] for r in rows))
        assert summary["mean_queue_depth"] == pytest.approx(
            sum(r["queue_depth"] for r in rows) / len(rows))
        assert summary["dropped"] == rows[-1]["dropped"]

    def test_memory_mapped_analytics_agree_with_ground_truth(self, tmp_path):
        # The acceptance check: sink to disk, map back, and the columnar
        # analytics must agree with the tracer's breakdown of its rows.
        config = small_config()
        path = tmp_path / "req.npy"
        tracer = RequestTracer(ColumnarSink(path, table="request", chunk=64))
        FastEngine(config, request_tracer=tracer).run()
        tracer.close()
        array = load_columnar(path)
        assert len(array) == tracer.records_emitted > 64
        assert breakdown_of_array(array,
                                  think_time=tracer.think_time) \
            == tracer.breakdown()
