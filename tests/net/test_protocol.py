"""Wire-format round trips and malformed-frame handling."""

from __future__ import annotations

import re
import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameError,
    Hello,
    Page,
    Request,
    Stats,
    StatsRequest,
    decode_payload,
    encode_frame,
)
from repro.obs.events import SLOT_KINDS

FRAMES = [
    Hello(0),
    Hello(123456789),
    Page(0, 0, "push"),
    Page(999, 2**40, "pull"),
    Request(42),
    StatsRequest(),
    Stats({}),
    Stats({"slot": 7, "metrics": {"a": [1, 2.5, None]}, "s": "text"}),
]


#: One frame of each type and its exact bytes on the wire, so a codec
#: rewrite cannot drift the format.
GOLDEN = [
    (Hello(123456789), "00000009" "01" "00000000075bcd15"),
    (Page(999, 2**40, "pull"),
     "00000012" "02" "00000000000003e7" "0000010000000000" "01"),
    (Page(7, 3, "push"),
     "00000012" "02" "0000000000000007" "0000000000000003" "00"),
    (Request(42), "00000009" "03" "000000000000002a"),
    (StatsRequest(), "00000001" "04"),
    (Stats({"slot": 7, "kind": "x"}),
     "00000016" "05" + b'{"slot":7,"kind":"x"}'.hex()),
]

#: Every frame type; STATS with small JSON-exact dicts, PAGE with the
#: two page-carrying kinds and slots up to 2**62.
_INT64 = st.integers(-2**63, 2**63 - 1)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**53, 2**53),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
ANY_FRAME = st.one_of(
    st.builds(Hello, _INT64),
    st.builds(Page, st.integers(0, 2**31), st.integers(0, 2**62),
              st.sampled_from(("push", "pull"))),
    st.builds(Request, _INT64),
    st.just(StatsRequest()),
    st.builds(Stats, st.dictionaries(st.text(max_size=8), _JSON_VALUES,
                                     max_size=4)),
)

#: Good frames a malformed one follows in the same chunk.
_GOOD = [Page(1, 10, "push"), Hello(3), Page(2, 11, "pull"), Request(4)]


class TestGoldenBytes:
    @pytest.mark.parametrize("frame,wire", GOLDEN,
                             ids=lambda v: repr(v)[:30])
    def test_encode_is_byte_exact(self, frame, wire):
        assert encode_frame(frame).hex() == wire

    @pytest.mark.parametrize("frame,wire", GOLDEN,
                             ids=lambda v: repr(v)[:30])
    def test_decoder_reads_golden_bytes(self, frame, wire):
        decoder = FrameDecoder()
        assert decoder.feed(bytes.fromhex(wire)) == [frame]
        assert decoder.pending_bytes == 0

    def test_page_is_an_immutable_value(self):
        (decoded,) = FrameDecoder().feed(encode_frame(Page(5, 6, "pull")))
        assert isinstance(decoded, Page)
        assert decoded == Page(5, 6, "pull") != Page(5, 6, "push")
        assert hash(decoded) == hash(Page(5, 6, "pull"))
        assert repr(decoded) == "Page(page=5, slot=6, kind='pull')"
        with pytest.raises(AttributeError):
            decoded.slot = 7


class TestRoundTrip:
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: repr(f)[:40])
    def test_encode_decode(self, frame):
        blob = encode_frame(frame)
        assert decode_payload(blob[4:]) == frame

    def test_length_prefix_counts_body(self):
        blob = encode_frame(Request(1))
        (length,) = struct.unpack("!I", blob[:4])
        assert length == len(blob) - 4

    def test_page_kind_is_slot_kind_vocabulary(self):
        for kind in ("push", "pull"):
            assert kind in SLOT_KINDS
            frame = Page(5, 9, kind)
            assert decode_payload(encode_frame(frame)[4:]).kind == kind

    def test_unknown_kind_rejected_at_encode(self):
        with pytest.raises(FrameError, match="unknown slot kind"):
            encode_frame(Page(1, 2, "warp"))


class TestMalformed:
    def test_empty_body(self):
        with pytest.raises(FrameError, match="empty"):
            decode_payload(b"")

    def test_unknown_type(self):
        with pytest.raises(FrameError, match="unknown frame type"):
            decode_payload(bytes([250]))

    def test_truncated_payload(self):
        blob = encode_frame(Request(7))
        with pytest.raises(FrameError, match="truncated"):
            decode_payload(blob[4:-2])

    def test_stats_request_with_payload(self):
        with pytest.raises(FrameError, match="no payload"):
            decode_payload(bytes([4]) + b"x")

    def test_stats_bad_json(self):
        with pytest.raises(FrameError, match="bad STATS payload"):
            decode_payload(bytes([5]) + b"{nope")

    def test_stats_non_object(self):
        with pytest.raises(FrameError, match="JSON object"):
            decode_payload(bytes([5]) + b"[1,2]")

    def test_page_unknown_kind_code(self):
        body = bytes([2]) + struct.pack("!qqB", 1, 2, 200)
        with pytest.raises(FrameError, match="slot-kind code"):
            decode_payload(body)

    def test_decoder_rejects_zero_length(self):
        with pytest.raises(FrameError, match="bad frame length"):
            FrameDecoder().feed(struct.pack("!I", 0) + b"x")

    def test_decoder_rejects_oversized_length(self):
        with pytest.raises(FrameError, match="bad frame length"):
            FrameDecoder().feed(struct.pack("!I", MAX_FRAME_BYTES + 1))


def _after_good_frames(bad: bytes, message: str) -> FrameDecoder:
    """Feed ``bad`` behind good frames in one chunk; it must raise
    ``FrameError(message)``.  Returns the decoder for its leftovers."""
    decoder = FrameDecoder()
    chunk = b"".join(encode_frame(f) for f in _GOOD) + bad
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        decoder.feed(chunk)
    return decoder


class TestMalformedAfterGoodFrames:
    """The decoder's messages, and what it keeps, when a malformed frame
    follows good ones in the same chunk."""

    @pytest.mark.parametrize("frame_type,message", [
        (1, "truncated frame payload: unpack requires a buffer of 8 bytes"),
        (3, "truncated frame payload: unpack requires a buffer of 8 bytes"),
        (4, "STATS_REQUEST carries no payload"),
        (9, "unknown frame type 9"),
    ])
    def test_length_18_frame_of_another_type(self, frame_type, message):
        bad = struct.pack("!IB", 18, frame_type) + bytes(17)
        # A bad payload is consumed with its frame.
        assert _after_good_frames(bad, message).pending_bytes == 0

    @pytest.mark.parametrize("length", [17, 19])
    def test_page_type_byte_with_another_length(self, length):
        bad = struct.pack("!IB", length, 2) + bytes(length - 1 + 8)
        decoder = _after_good_frames(
            bad, "truncated frame payload: "
                 "unpack requires a buffer of 17 bytes")
        assert decoder.pending_bytes == 8

    @pytest.mark.parametrize("code", [len(SLOT_KINDS), 200, 255])
    def test_unknown_slot_kind_code(self, code):
        bad = struct.pack("!IBqqB", 18, 2, 1, 2, code) + encode_frame(
            Request(5))
        decoder = _after_good_frames(bad, f"unknown slot-kind code {code}")
        assert decoder.pending_bytes == len(encode_frame(Request(5)))

    @pytest.mark.parametrize("length", [0, MAX_FRAME_BYTES + 1])
    def test_bad_length(self, length):
        bad = struct.pack("!I", length) + bytes(30)
        decoder = _after_good_frames(bad, f"bad frame length {length}")
        # A bad length prefix is not consumed: it is where decoding stopped.
        assert decoder.pending_bytes == len(bad)


class TestDecoder:
    def test_whole_stream_at_once(self):
        blob = b"".join(encode_frame(f) for f in FRAMES)
        assert FrameDecoder().feed(blob) == FRAMES

    def test_empty_feed(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"") == []
        assert decoder.pending_bytes == 0

    @given(st.integers(min_value=1, max_value=7))
    def test_arbitrary_chunking(self, chunk):
        blob = b"".join(encode_frame(f) for f in FRAMES)
        decoder = FrameDecoder()
        out = []
        for index in range(0, len(blob), chunk):
            out.extend(decoder.feed(blob[index:index + chunk]))
        assert out == FRAMES
        assert decoder.pending_bytes == 0

    @given(st.lists(ANY_FRAME, max_size=12), st.data())
    def test_random_frames_split_at_random_cuts(self, frames, data):
        blob = b"".join(encode_frame(f) for f in frames)
        cuts = sorted(data.draw(st.sets(st.integers(1, max(len(blob) - 1,
                                                            1)))))
        bounds = [0] + [c for c in cuts if c < len(blob)] + [len(blob)]
        decoder = FrameDecoder()
        out = []
        for start, end in zip(bounds, bounds[1:]):
            out.extend(decoder.feed(blob[start:end]))
        assert out == frames
        assert decoder.pending_bytes == 0

    def test_pending_bytes_mid_frame(self):
        blob = encode_frame(Hello(5))
        decoder = FrameDecoder()
        assert decoder.feed(blob[:6]) == []
        assert decoder.pending_bytes == 6
        assert decoder.feed(blob[6:]) == [Hello(5)]
