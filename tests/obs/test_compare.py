"""Trace-diff tests, including the cross-engine acceptance criteria:

- a seeded Pure-Push configuration produces an *empty* diff between the
  reference and fast engines (they are bit-exact, DESIGN.md §6);
- an injected one-slot perturbation is pinpointed to the exact slot and
  field.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithms import Algorithm
from repro.obs.columnar import SLOT_DTYPE, decode_row
from repro.obs.compare import capture_trace, compare_engines, diff_traces
from repro.obs.events import SLOT_KINDS
from tests.conftest import slot_array, slot_row, small_config


def make_trace(length=10):
    return slot_array(
        slot_row(i, page=i % 5, queue_depth=0, enqueued=0, duplicates=0,
                 served=0, vc_arrivals=1)
        for i in range(length))


def oracle(left, right, context):
    """Row-by-row reference: (first divergent slot, differing fields,
    context slots, lengths), decoding each row to Python values."""
    fields = [name for name in SLOT_DTYPE.names if name != "null_mask"]
    rows_l = [decode_row(row, "slot") for row in left]
    rows_r = [decode_row(row, "slot") for row in right]
    for index, (row_l, row_r) in enumerate(zip(rows_l, rows_r)):
        if row_l != row_r:
            differing = tuple(name for name in fields
                              if row_l[name] != row_r[name])
            window = [row["slot"] for row in rows_l[max(0, index - context):
                                                    index]]
            return row_l["slot"], differing, window, len(left), len(right)
    return None, (), [], len(left), len(right)


_SLOT_VALUES = {
    "kind": st.sampled_from(SLOT_KINDS),
    "page": st.none() | st.integers(0, 3),
    "queue_depth": st.integers(0, 2),
    "dropped": st.integers(0, 2),
    "mc_waiting": st.none() | st.integers(0, 3),
    "vc_arrivals": st.integers(0, 2),
}


@st.composite
def trace_pair(draw):
    """Two slot traces that share a prefix and then may differ in any
    few fields of any rows, with lengths that may differ too."""
    length = draw(st.integers(0, 12))
    base = [{name: draw(values) for name, values in _SLOT_VALUES.items()}
            for _ in range(length)]
    other = [dict(row) for row in base]
    for _ in range(draw(st.integers(0, 3))):
        if not other:
            break
        index = draw(st.integers(0, len(other) - 1))
        name = draw(st.sampled_from(sorted(_SLOT_VALUES)))
        other[index][name] = draw(_SLOT_VALUES[name])
    cut = draw(st.integers(0, 2))
    other = other[:max(0, len(other) - cut)] if draw(st.booleans()) \
        else other
    return (slot_array(slot_row(i, **row) for i, row in enumerate(base)),
            slot_array(slot_row(i, **row) for i, row in enumerate(other)))


class TestDiffTraces:
    def test_identical_traces(self):
        diff = diff_traces(make_trace(), make_trace())
        assert diff.empty and diff.identical
        assert diff.divergent_slot is None
        assert "no divergence" in diff.format()

    def test_perturbation_pinpointed_to_slot_and_field(self):
        left, right = make_trace(), make_trace()
        right["page"][6] = 99
        right["queue_depth"][6] = 3
        diff = diff_traces(left, right, context=2)
        assert not diff.empty
        assert diff.divergent_slot == 6
        assert diff.fields == ("page", "queue_depth")
        assert diff.left == left[6] and diff.right == right[6]
        assert diff.context["slot"].tolist() == [4, 5]
        report = diff.format()
        assert "slot 6" in report
        assert "page: 1 != 99" in report  # slot 6 carries page 6 % 5 == 1

    def test_context_clipped_at_trace_start(self):
        left, right = make_trace(), make_trace()
        right["kind"][1] = SLOT_KINDS.index("pull")
        diff = diff_traces(left, right, context=5)
        assert diff.divergent_slot == 1
        assert diff.context["slot"].tolist() == [0]

    def test_length_mismatch_alone_is_empty_but_not_identical(self):
        diff = diff_traces(make_trace(10), make_trace(8))
        assert diff.empty
        assert not diff.identical
        assert (diff.length_left, diff.length_right) == (10, 8)
        assert "lengths differ" in diff.format()

    def test_negative_context_rejected(self):
        with pytest.raises(ValueError):
            diff_traces(make_trace(), make_trace(), context=-1)

    def test_report_reads_decoded_values(self):
        left, right = make_trace(4), make_trace(4)
        right[2] = slot_row(2, kind="idle", page=None, queue_depth=0,
                            enqueued=0, duplicates=0, served=0,
                            vc_arrivals=1)
        report = diff_traces(left, right, context=1).format()
        assert report.splitlines() == [
            "first divergence at slot 2 (fields: kind, page)",
            "  = slot      1 push    page=1     qdepth=0   enq=0 dup=0 "
            "drop=0 served=0 mc_wait=- arr=mc:0/vc:1",
            "  < slot      2 push    page=2     qdepth=0   enq=0 dup=0 "
            "drop=0 served=0 mc_wait=- arr=mc:0/vc:1",
            "  > slot      2 idle    page=-     qdepth=0   enq=0 dup=0 "
            "drop=0 served=0 mc_wait=- arr=mc:0/vc:1",
            "    kind: 'push' != 'idle'",
            "    page: 2 != None",
        ]

    @settings(max_examples=200, deadline=None)
    @given(pair=trace_pair(), context=st.integers(0, 4))
    def test_agrees_with_a_row_by_row_oracle(self, pair, context):
        left, right = pair
        diff = diff_traces(left, right, context=context)
        slot, fields, window, length_l, length_r = oracle(
            left, right, context)
        assert diff.divergent_slot == slot
        assert diff.fields == fields
        assert diff.context["slot"].tolist() == window
        assert (diff.length_left, diff.length_right) == (length_l, length_r)


class TestCompareEngines:
    def test_pure_push_engines_are_bit_exact(self):
        """Acceptance: seeded Pure-Push → empty diff, equal lengths."""
        config = small_config(Algorithm.PURE_PUSH)
        diff = compare_engines(config)
        assert diff.identical, diff.format()
        assert diff.length_left == diff.length_right > 0

    def test_injected_perturbation_is_pinpointed(self):
        """Acceptance: corrupt one slot of the fast trace; the diff names
        exactly that slot and exactly the corrupted field."""
        config = small_config(Algorithm.PURE_PUSH)
        reference = capture_trace(config, engine="reference")
        fast = capture_trace(config, engine="fast")
        victim = len(fast) // 2
        fast["page"][victim] = max(fast["page"][victim], 0) + 1
        fast["null_mask"][victim] &= 0b10
        diff = diff_traces(reference, fast)
        assert diff.divergent_slot == reference["slot"][victim]
        assert diff.fields == ("page",)

    def test_capture_trace_rejects_unknown_engine(self, ipp_config):
        with pytest.raises(ValueError):
            capture_trace(ipp_config, engine="warp")

    def test_capture_trace_reference_and_fast_same_length(self):
        config = small_config(Algorithm.PURE_PUSH)
        reference = capture_trace(config, engine="reference")
        fast = capture_trace(config, engine="fast")
        assert reference.dtype == fast.dtype == SLOT_DTYPE
        assert len(reference) == len(fast) > 0
