"""Compact binary (de)serialization of event streams.

The textual format in :mod:`repro.events.serialize` is the paper's
notation — ideal for tests and worked examples, far too slow as an IPC
wire format: every event costs a regex match and every string a
character-level unescape.  This module is the machine format the
:mod:`repro.parallel` sharding layer ships over pipes.

Wire layout, little-endian throughout:

* **Event**: one header byte — the :class:`~repro.events.model.Kind`
  value in the low five bits, an OID-presence flag at ``0x20`` — followed
  by the fields the kind implies, ``struct``-packed:

  - ``id`` (``<i``) for every kind;
  - ``sub`` (``<i``) for the eight update-bracket kinds;
  - ``tag`` for sE/eE as ``<H`` byte length + UTF-8 bytes;
  - ``text`` for cD as ``<I`` byte length + UTF-8 bytes;
  - ``oid`` (``<i``) when the header flag is set.

  UTF-8 carries any character verbatim, so the textual format's escaping
  (and its bugs-by-construction) has no binary counterpart.

* **Batch**: ``<I`` event count, then the packed events.

* **Frame**: a ``<I`` length word with its high bit set
  (:data:`CHECKED_FLAG`) and the payload byte length below it, a ``<I``
  frame sequence number, the payload, and a ``<I`` CRC32 trailer
  covering the sequence number and the payload.  The reader verifies
  the CRC and surfaces the sequence number, turning silent corruption
  into a structured :class:`CodecError` (``reason="crc-mismatch"``) the
  shard supervisor converts into a worker restart + replay, and giving
  receivers the gap/duplicate discipline replay depends on.  An empty
  payload is a valid frame: the sharding layer's end-of-stream marker.
  :func:`read_frame_ex` distinguishes a clean end of the stream
  (``None``) from truncation mid-frame (``reason="truncated"``), and
  refuses a length word without the flag (``reason="unchecked"``):
  every frame is a checked frame.

Every :class:`CodecError` carries machine-readable fields — ``reason``,
``offset`` (byte position in the stream), ``expected`` and ``got`` —
so supervisors and tests can branch on the failure class instead of
parsing messages.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Iterable, Iterator, List, Optional, Tuple

from .model import (CD, EE, SE, UPDATE_ENDS, UPDATE_STARTS, Event, Kind)


class CodecError(ValueError):
    """Raised on malformed or truncated binary event data.

    Attributes:
        reason: machine-readable failure class (``"truncated"``,
            ``"crc-mismatch"``, ``"unchecked"``, ``"trailing-garbage"``,
            ``"bad-kind"``, ``"oversized"``, ``"unencodable"``).
        offset: byte offset in the stream/buffer where the failure was
            detected (``None`` when unknown).
        expected: the byte count or value the reader wanted.
        got: what it actually found.
    """

    def __init__(self, message: str, reason: Optional[str] = None,
                 offset: Optional[int] = None,
                 expected: Optional[object] = None,
                 got: Optional[object] = None) -> None:
        self.reason = reason
        self.offset = offset
        self.expected = expected
        self.got = got
        details = []
        if reason is not None:
            details.append("reason={}".format(reason))
        if offset is not None:
            details.append("offset={}".format(offset))
        if expected is not None:
            details.append("expected={!r}".format(expected))
        if got is not None:
            details.append("got={!r}".format(got))
        if details:
            message = "{} [{}]".format(message, ", ".join(details))
        super().__init__(message)


_OID_FLAG = 0x20
_KIND_MASK = 0x1F

_HDR_ID = struct.Struct("<Bi")        # header byte + id
_HDR_ID_SUB = struct.Struct("<Bii")   # header byte + id + sub
_TAG_LEN = struct.Struct("<H")
_TEXT_LEN = struct.Struct("<I")
_OID = struct.Struct("<i")
_U32 = struct.Struct("<I")

#: Kinds that carry a ``sub`` field on the wire.
_SUB_KINDS = frozenset(int(k) for k in (UPDATE_STARTS | UPDATE_ENDS))
_SE, _EE, _CD = int(SE), int(EE), int(CD)
_VALID_KINDS = frozenset(int(k) for k in Kind)


def encode_event(e: Event) -> bytes:
    """Pack one event into its binary form."""
    kind = int(e.kind)
    hdr = kind | (_OID_FLAG if e.oid is not None else 0)
    try:
        if kind in _SUB_KINDS:
            head = _HDR_ID_SUB.pack(hdr, e.id, e.sub)
        elif kind == _SE or kind == _EE:
            tag = e.tag.encode("utf-8")
            head = _HDR_ID.pack(hdr, e.id) + _TAG_LEN.pack(len(tag)) + tag
        elif kind == _CD:
            text = e.text.encode("utf-8")
            head = (_HDR_ID.pack(hdr, e.id)
                    + _TEXT_LEN.pack(len(text)) + text)
        else:
            head = _HDR_ID.pack(hdr, e.id)
    except (struct.error, AttributeError) as exc:
        raise CodecError("cannot encode {!r}: {}".format(e, exc),
                         reason="unencodable")
    if e.oid is not None:
        try:
            return head + _OID.pack(e.oid)
        except struct.error as exc:
            raise CodecError("cannot encode oid of {!r}: {}".format(e, exc),
                             reason="unencodable")
    return head


def decode_event(buf: bytes, pos: int = 0) -> Tuple[Event, int]:
    """Unpack one event at ``pos``; returns ``(event, next_pos)``."""
    try:
        hdr = buf[pos]
    except IndexError:
        raise CodecError("truncated event", reason="truncated",
                         offset=pos, expected=1, got=0)
    kind_val = hdr & _KIND_MASK
    if kind_val not in _VALID_KINDS:
        raise CodecError("unknown event kind", reason="bad-kind",
                         offset=pos, got=kind_val)
    kind = Kind(kind_val)
    sub = tag = text = oid = None
    try:
        if kind_val in _SUB_KINDS:
            _, id_, sub = _HDR_ID_SUB.unpack_from(buf, pos)
            pos += _HDR_ID_SUB.size
        else:
            _, id_ = _HDR_ID.unpack_from(buf, pos)
            pos += _HDR_ID.size
            if kind_val == _SE or kind_val == _EE:
                (n,) = _TAG_LEN.unpack_from(buf, pos)
                pos += _TAG_LEN.size
                end = pos + n
                if end > len(buf):
                    raise struct.error("tag bytes")
                tag = buf[pos:end].decode("utf-8")
                pos = end
            elif kind_val == _CD:
                (n,) = _TEXT_LEN.unpack_from(buf, pos)
                pos += _TEXT_LEN.size
                end = pos + n
                if end > len(buf):
                    raise struct.error("text bytes")
                text = buf[pos:end].decode("utf-8")
                pos = end
        if hdr & _OID_FLAG:
            (oid,) = _OID.unpack_from(buf, pos)
            pos += _OID.size
    except struct.error:
        raise CodecError("truncated event", reason="truncated", offset=pos)
    except UnicodeDecodeError as exc:
        raise CodecError("invalid UTF-8 in event: {}".format(exc),
                         reason="truncated", offset=pos)
    return Event(kind, id_, sub=sub, tag=tag, text=text, oid=oid), pos


def encode_batch(events: Iterable[Event]) -> bytes:
    """Pack a sequence of events as a count-prefixed payload."""
    parts = [encode_event(e) for e in events]
    return _U32.pack(len(parts)) + b"".join(parts)


def decode_batch(payload: bytes) -> List[Event]:
    """Unpack a payload produced by :func:`encode_batch`."""
    if len(payload) < _U32.size:
        raise CodecError("truncated batch header", reason="truncated",
                         offset=0, expected=_U32.size, got=len(payload))
    (count,) = _U32.unpack_from(payload, 0)
    pos = _U32.size
    out: List[Event] = []
    for _ in range(count):
        e, pos = decode_event(payload, pos)
        out.append(e)
    if pos != len(payload):
        raise CodecError(
            "trailing garbage after the declared {} events".format(count),
            reason="trailing-garbage", offset=pos,
            expected=pos, got=len(payload))
    return out


# -- framed pipe transport ---------------------------------------------------

#: High bit of the frame length word: marks a checked (seq + CRC32)
#: frame, the only kind there is.
CHECKED_FLAG = 0x80000000
_LEN_MASK = CHECKED_FLAG - 1


def encode_checked_frame(events: Iterable[Event], seq: int) -> bytes:
    """A checked frame: flagged length, sequence number, payload, CRC32."""
    return frame_checked(encode_batch(events), seq)


def frame_checked(payload: bytes, seq: int) -> bytes:
    """Wrap an already-encoded batch payload as a checked frame."""
    if len(payload) > _LEN_MASK:
        raise CodecError("frame payload too large",
                         reason="oversized", expected=_LEN_MASK,
                         got=len(payload))
    seq_bytes = _U32.pack(seq)
    crc = zlib.crc32(payload, zlib.crc32(seq_bytes))
    return (_U32.pack(len(payload) | CHECKED_FLAG) + seq_bytes
            + payload + _U32.pack(crc))


def read_frame_ex(stream: BinaryIO, offset: int = 0
                  ) -> Optional[Tuple[int, bytes, int]]:
    """Read one checked frame, tracking byte offsets.

    Returns ``(seq, payload, next_offset)``, or ``None`` on clean EOF at
    a frame boundary.  ``offset`` is the caller's running byte
    position, echoed into error fields and advanced in the return
    value.  Raises :class:`CodecError` when the stream ends mid-frame,
    a CRC fails, or the length word lacks :data:`CHECKED_FLAG`.
    """
    header = _read_exact(stream, _U32.size, allow_eof=True, offset=offset)
    if header is None:
        return None
    (word,) = _U32.unpack(header)
    pos = offset + _U32.size
    if not word & CHECKED_FLAG:
        raise CodecError("unchecked frame (no sequence number or CRC)",
                         reason="unchecked", offset=offset,
                         expected=CHECKED_FLAG, got=word)
    length = word & _LEN_MASK
    body = _read_exact(stream, _U32.size + length + _U32.size,
                       allow_eof=False, offset=pos)
    (seq,) = _U32.unpack_from(body, 0)
    payload = body[_U32.size:_U32.size + length]
    (crc_stored,) = _U32.unpack_from(body, _U32.size + length)
    crc_actual = zlib.crc32(payload, zlib.crc32(body[:_U32.size]))
    if crc_actual != crc_stored:
        raise CodecError(
            "frame {} failed its CRC32 check".format(seq),
            reason="crc-mismatch", offset=offset,
            expected=crc_stored, got=crc_actual)
    return seq, payload, pos + len(body)


def iter_frames_ex(stream: BinaryIO) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(seq, payload)`` pairs until EOF or a sentinel frame.

    Maintains a running byte offset so truncation and CRC errors report
    exactly where in the stream they happened.
    """
    offset = 0
    while True:
        result = read_frame_ex(stream, offset=offset)
        if result is None:
            return
        seq, payload, offset = result
        if not payload:
            return
        yield seq, payload


def _read_exact(stream: BinaryIO, n: int, allow_eof: bool,
                offset: int = 0) -> Optional[bytes]:
    chunks: List[bytes] = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise CodecError("stream truncated mid-frame",
                             reason="truncated", offset=offset + got,
                             expected=n, got=got)
        chunks.append(chunk)
        got += len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)
