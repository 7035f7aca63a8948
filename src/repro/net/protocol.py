"""The wire protocol: small length-prefixed frames.

Every frame is ``u32 length (big-endian) | u8 type | payload`` where
``length`` counts the type byte plus the payload.  Five frame types
cover the serving layer:

- :class:`Hello` (client -> server) — announces a client id after
  connecting, before any requests,
- :class:`Page` (server -> client) — one frontchannel broadcast slot
  that carried a page: the page id, the slot index it went on air, and
  the slot kind (``push`` or ``pull``).  Padding and idle slots put
  nothing on air and therefore produce no frame,
- :class:`Request` (client -> server) — a backchannel pull request for
  one page; the server presents it to the bounded request queue and,
  exactly like the paper's server, sends no acknowledgement,
- :class:`StatsRequest` (client -> server) — asks for a telemetry
  snapshot,
- :class:`Stats` (server -> client) — a JSON document with the server's
  metrics-registry snapshot.

The codec is usable without asyncio (:func:`encode_frame` and the
incremental :class:`FrameDecoder`) so the format is testable in
isolation; :func:`read_frame` / :func:`write_frame` adapt it onto
``asyncio`` streams.  Slot kinds travel as their index into
:data:`repro.obs.events.SLOT_KINDS`, the shared event vocabulary.

PAGE frames are the per-slot, per-client cost of the serving layer, so
each costs one precompiled whole-frame struct call each way:
:func:`encode_page` packs one (the slot clock calls it straight from
the tick) and :class:`FrameDecoder` unpacks one with a single
``unpack_from``.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Union

from repro.obs.events import SLOT_KINDS

__all__ = [
    "FrameError",
    "Hello",
    "Page",
    "Request",
    "StatsRequest",
    "Stats",
    "Frame",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "encode_page",
    "decode_payload",
    "FrameDecoder",
    "read_frame",
    "write_frame",
]

#: Hard ceiling on one frame's length field.  PAGE/REQUEST frames are a
#: few bytes; only STATS snapshots grow, and a megabyte of JSON is
#: already a bug, not telemetry.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")
_TYPE_HELLO = 1
_TYPE_PAGE = 2
_TYPE_REQUEST = 3
_TYPE_STATS_REQUEST = 4
_TYPE_STATS = 5

_HELLO_BODY = struct.Struct("!q")
_PAGE_BODY = struct.Struct("!qqB")
_REQUEST_BODY = struct.Struct("!q")
#: Whole frames, header included, for the two fixed-size hot types.
_PAGE_FRAME = struct.Struct("!IBqqB")
_REQUEST_FRAME = struct.Struct("!IBq")
#: A PAGE frame's length field (type byte + body).
_PAGE_LENGTH = _PAGE_FRAME.size - _HEADER.size
_REQUEST_LENGTH = _REQUEST_FRAME.size - _HEADER.size
_KIND_CODES = {kind: code for code, kind in enumerate(SLOT_KINDS)}
_N_KINDS = len(SLOT_KINDS)
_HEADER_SIZE = _HEADER.size
_PAGE_FRAME_SIZE = _PAGE_FRAME.size
_unpack_header = _HEADER.unpack_from
_unpack_page = _PAGE_FRAME.unpack_from
_new_object = object.__new__


class FrameError(ValueError):
    """Malformed frame: bad type, bad length, or truncated payload."""


@dataclass(frozen=True)
class Hello:
    """Client greeting; ``client_id`` labels the connection in telemetry."""

    client_id: int


@dataclass(frozen=True, slots=True)
class Page:
    """One broadcast slot that carried a page (push or pull)."""

    page: int
    #: Slot index at which the page went on air (the server's slot clock).
    slot: int
    #: ``"push"`` or ``"pull"`` (a :data:`~repro.obs.events.SLOT_KINDS`
    #: member whose slot kind carries a page).
    kind: str


@dataclass(frozen=True)
class Request:
    """A backchannel pull request for ``page``."""

    page: int


@dataclass(frozen=True)
class StatsRequest:
    """Ask the server for a telemetry snapshot."""


@dataclass(frozen=True)
class Stats:
    """A telemetry snapshot as a JSON-ready dict."""

    payload: dict[str, Any] = field(default_factory=dict)


Frame = Union[Hello, Page, Request, StatsRequest, Stats]

#: The setters of ``Page``'s ``__slots__`` fields: the decoder fills a
#: bare ``Page`` with them, for about a third of ``Page.__init__``'s
#: cost (a frozen dataclass sets each field by ``object.__setattr__``).
_PAGE_SETTERS = (Page.page.__set__, Page.slot.__set__, Page.kind.__set__)


#: ``encode_page(page, slot, code)``: one whole PAGE frame, header
#: included, where ``code`` indexes :data:`~repro.obs.events.SLOT_KINDS`.
#: A C-level partial of one struct pack, so the caller builds no
#: :class:`Page`.
encode_page = functools.partial(_PAGE_FRAME.pack, _PAGE_LENGTH, _TYPE_PAGE)


def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame, header included."""
    if isinstance(frame, Page):
        try:
            code = _KIND_CODES[frame.kind]
        except (KeyError, TypeError):
            raise FrameError(f"unknown slot kind {frame.kind!r}") from None
        return encode_page(frame.page, frame.slot, code)
    if isinstance(frame, Request):
        return _REQUEST_FRAME.pack(_REQUEST_LENGTH, _TYPE_REQUEST, frame.page)
    if isinstance(frame, Hello):
        body = bytes([_TYPE_HELLO]) + _HELLO_BODY.pack(frame.client_id)
    elif isinstance(frame, StatsRequest):
        body = bytes([_TYPE_STATS_REQUEST])
    elif isinstance(frame, Stats):
        encoded = json.dumps(frame.payload, separators=(",", ":")).encode()
        body = bytes([_TYPE_STATS]) + encoded
    else:
        raise FrameError(f"not a frame: {frame!r}")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds "
                         f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Frame:
    """Decode one frame body (the bytes after the length header)."""
    if not body:
        raise FrameError("empty frame body")
    frame_type, payload = body[0], body[1:]
    try:
        if frame_type == _TYPE_HELLO:
            (client_id,) = _HELLO_BODY.unpack(payload)
            return Hello(client_id)
        if frame_type == _TYPE_PAGE:
            page, slot, code = _PAGE_BODY.unpack(payload)
            if code >= len(SLOT_KINDS):
                raise FrameError(f"unknown slot-kind code {code}")
            return Page(page, slot, SLOT_KINDS[code])
        if frame_type == _TYPE_REQUEST:
            (page,) = _REQUEST_BODY.unpack(payload)
            return Request(page)
        if frame_type == _TYPE_STATS_REQUEST:
            if payload:
                raise FrameError("STATS_REQUEST carries no payload")
            return StatsRequest()
        if frame_type == _TYPE_STATS:
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FrameError(f"bad STATS payload: {exc}") from None
            if not isinstance(decoded, dict):
                raise FrameError("STATS payload must be a JSON object")
            return Stats(decoded)
    except struct.error as exc:
        raise FrameError(f"truncated frame payload: {exc}") from None
    raise FrameError(f"unknown frame type {frame_type}")


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get whole frames.

    Keeps at most one partial frame of buffered state, so a stream can
    be decoded chunk-by-chunk regardless of how the transport split it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Absorb ``data`` and return every frame completed by it.

        A complete PAGE frame is one ``unpack_from`` at the read offset;
        every other type goes through :func:`decode_payload`.  The
        buffer is trimmed once, up to the last frame consumed (a frame
        whose payload fails to decode counts as consumed, one whose
        length prefix is bad does not).
        """
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        frames: list[Frame] = []
        append = frames.append
        kinds = SLOT_KINDS
        set_page, set_slot, set_kind = _PAGE_SETTERS
        offset = 0
        try:
            while True:
                end = offset + _PAGE_FRAME_SIZE
                if end <= size:
                    length, frame_type, page, slot, code = _unpack_page(
                        buffer, offset)
                    if length == _PAGE_LENGTH and frame_type == _TYPE_PAGE:
                        offset = end
                        if code >= _N_KINDS:
                            raise FrameError(
                                f"unknown slot-kind code {code}")
                        # Page(page, slot, kinds[code]), see _PAGE_SETTERS.
                        frame = _new_object(Page)
                        set_page(frame, page)
                        set_slot(frame, slot)
                        set_kind(frame, kinds[code])
                        append(frame)
                        continue
                elif offset + _HEADER_SIZE > size:
                    break
                (length,) = _unpack_header(buffer, offset)
                if length == 0 or length > MAX_FRAME_BYTES:
                    raise FrameError(f"bad frame length {length}")
                start = offset + _HEADER_SIZE
                end = start + length
                if end > size:
                    break
                offset = end
                append(decode_payload(bytes(buffer[start:end])))
        finally:
            del buffer[:offset]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)


async def read_frame(reader) -> Frame:
    """Read exactly one frame from an ``asyncio.StreamReader``.

    Raises :class:`asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`FrameError` on a malformed header or payload.
    """
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame length {length}")
    body = await reader.readexactly(length)
    return decode_payload(body)


def write_frame(writer, frame: Frame) -> None:
    """Serialize ``frame`` onto an ``asyncio.StreamWriter`` (no drain).

    The caller decides when to await ``writer.drain()`` — the server's
    fan-out path batches many small frames per drain.
    """
    writer.write(encode_frame(frame))
