"""Tests for the binary event codec (repro.events.codec).

The codec is the IPC wire format of the sharding layer; correctness is
established differentially against the textual format: any stream the
paper's notation can express must survive a binary round trip unchanged,
including every update kind and arbitrarily hostile text.
"""

import io
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import Event, Kind, dumps, loads
from repro.events.codec import (CodecError, decode_batch, decode_event,
                                encode_batch, encode_checked_frame,
                                encode_event, frame_checked, iter_frames_ex,
                                read_frame_ex)
from repro.events.model import (cdata, end_element, end_insert_after,
                                end_insert_before, end_mutable, end_replace,
                                end_stream, end_tuple, freeze, hide, show,
                                start_element, start_insert_after,
                                start_insert_before, start_mutable,
                                start_replace, start_stream, start_tuple)

ALL_KINDS_SAMPLE = [
    start_stream(0), end_stream(0), start_tuple(3), end_tuple(3),
    start_element(0, "item"), end_element(0, "item"),
    cdata(0, "Albania"),
    start_mutable(0, 1), end_mutable(0, 1),
    start_replace(1, 2), end_replace(1, 2),
    start_insert_before(1, 3), end_insert_before(1, 3),
    start_insert_after(2, 4), end_insert_after(2, 4),
    freeze(1), hide(2), show(2),
]


def roundtrip(events):
    return decode_batch(encode_batch(events))


class TestRoundTrip:
    def test_every_kind(self):
        got = roundtrip(ALL_KINDS_SAMPLE)
        assert got == ALL_KINDS_SAMPLE
        assert [e.kind for e in got] == [e.kind for e in ALL_KINDS_SAMPLE]

    def test_single_event_api(self):
        for e in ALL_KINDS_SAMPLE:
            buf = encode_event(e)
            back, pos = decode_event(buf)
            assert pos == len(buf)
            assert back == e

    def test_oids_survive(self):
        evs = [start_element(0, "a", oid=7), cdata(0, "x", oid=8),
               end_element(0, "a", oid=7), start_element(0, "b")]
        got = roundtrip(evs)
        assert [e.oid for e in got] == [7, 8, 7, None]

    def test_hostile_text(self):
        texts = ['quote " backslash \\ newline \n end', "", "\t\r\n",
                 "α βγ — π≈3.14159 💡", '""""\\\\\\', "\x00nul",
                 "a" * 70000]
        evs = [cdata(0, t) for t in texts]
        got = roundtrip(evs)
        assert [e.text for e in got] == texts

    def test_hostile_tags(self):
        evs = [start_element(0, t) for t in ("a", "ns:tag", "x-ü")]
        assert roundtrip(evs) == evs

    def test_agrees_with_textual_format(self):
        # Any stream the textual notation expresses must survive binary.
        text = ('sS(0) sE(0,"a") sM(0,1) cD(1,"x \\" y") eM(0,1) '
                'sR(1,2) cD(2,"z") eR(1,2) freeze(2) hide(1) show(1) '
                'eE(0,"a") eS(0)')
        evs = loads(text)
        assert roundtrip(evs) == evs
        assert loads(dumps(roundtrip(evs))) == evs

    def test_negative_ids(self):
        evs = [Event(Kind.CDATA, -5, text="x"), Event(Kind.FREEZE, -1)]
        assert roundtrip(evs) == evs

    def test_empty_batch(self):
        assert roundtrip([]) == []


# One strategy per field shape; events are built by kind so the generated
# field combinations are exactly the legal ones.
_ids = st.integers(min_value=-2**31, max_value=2**31 - 1)
_texts = st.text(max_size=40)
_tags = st.text(min_size=1, max_size=20)
_oids = st.one_of(st.none(), _ids)


def _event_strategy():
    plain = st.sampled_from([Kind.START_STREAM, Kind.END_STREAM,
                             Kind.START_TUPLE, Kind.END_TUPLE])
    control = st.sampled_from([Kind.FREEZE, Kind.HIDE, Kind.SHOW])
    brackets = st.sampled_from([Kind.START_MUTABLE, Kind.END_MUTABLE,
                                Kind.START_REPLACE, Kind.END_REPLACE,
                                Kind.START_INSERT_BEFORE,
                                Kind.END_INSERT_BEFORE,
                                Kind.START_INSERT_AFTER,
                                Kind.END_INSERT_AFTER])
    return st.one_of(
        st.builds(lambda k, i: Event(k, i), plain, _ids),
        st.builds(lambda k, i: Event(k, i), control, _ids),
        st.builds(lambda k, i, s: Event(k, i, sub=s), brackets, _ids, _ids),
        st.builds(lambda i, t, o: Event(Kind.START_ELEMENT, i, tag=t,
                                        oid=o), _ids, _tags, _oids),
        st.builds(lambda i, t, o: Event(Kind.END_ELEMENT, i, tag=t,
                                        oid=o), _ids, _tags, _oids),
        st.builds(lambda i, t, o: Event(Kind.CDATA, i, text=t, oid=o),
                  _ids, _texts, _oids),
    )


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_event_strategy(), max_size=30))
    def test_roundtrip_random_streams(self, evs):
        got = roundtrip(evs)
        assert got == evs
        assert [e.oid for e in got] == [e.oid for e in evs]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_event_strategy(), max_size=20))
    def test_binary_equals_textual_roundtrip(self, evs):
        # The two formats must agree on everything the textual one
        # preserves (the textual format drops oids).
        assert loads(dumps(evs)) == roundtrip(evs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_event_strategy(), max_size=12), st.data())
    def test_truncation_always_detected(self, evs, data):
        payload = encode_batch(evs)
        if len(payload) <= 4:
            return
        cut = data.draw(st.integers(min_value=4, max_value=len(payload) - 1))
        with pytest.raises(CodecError):
            decode_batch(payload[:cut])


class TestErrors:
    def test_truncated_batch_header(self):
        with pytest.raises(CodecError):
            decode_batch(b"\x01")

    def test_trailing_garbage(self):
        with pytest.raises(CodecError):
            decode_batch(encode_batch([freeze(1)]) + b"\x00")

    def test_unknown_kind_byte(self):
        with pytest.raises(CodecError):
            decode_event(bytes([0x1E, 0, 0, 0, 0]))

    def test_invalid_utf8(self):
        bad = encode_event(cdata(0, "ab"))
        bad = bad[:-2] + b"\xff\xfe"
        with pytest.raises(CodecError):
            decode_event(bad)

    def test_unencodable_event(self):
        with pytest.raises(CodecError):
            encode_event(Event(Kind.START_ELEMENT, 0, tag=None))
        with pytest.raises(CodecError):
            encode_event(Event(Kind.CDATA, 2**40, text="x"))


class TestFrames:
    def test_frame_roundtrip(self):
        buf = io.BytesIO(encode_checked_frame(ALL_KINDS_SAMPLE, 1)
                         + encode_checked_frame([freeze(1)], 2))
        frames = []
        offset = 0
        while True:
            result = read_frame_ex(buf, offset)
            if result is None:
                break
            seq, payload, offset = result
            frames.append((seq, decode_batch(payload)))
        assert frames == [(1, ALL_KINDS_SAMPLE), (2, [freeze(1)])]
        assert offset == len(buf.getvalue())

    def test_empty_frame_is_sentinel(self):
        buf = io.BytesIO(encode_checked_frame([freeze(1)], 1)
                         + frame_checked(b"", 2)
                         + encode_checked_frame([hide(2)], 3))
        # iter_frames_ex stops at the checked empty frame, not at EOF.
        assert [(seq, decode_batch(p)) for seq, p in iter_frames_ex(buf)] \
            == [(1, [freeze(1)])]

    def test_clean_eof_returns_none(self):
        assert read_frame_ex(io.BytesIO(b"")) is None

    def test_truncated_frame_header(self):
        with pytest.raises(CodecError) as info:
            read_frame_ex(io.BytesIO(b"\x10\x00"))
        assert info.value.reason == "truncated"

    def test_truncated_frame_payload(self):
        whole = encode_checked_frame(ALL_KINDS_SAMPLE, 7)
        for cut in (5, len(whole) // 2, len(whole) - 1):
            with pytest.raises(CodecError) as info:
                read_frame_ex(io.BytesIO(whole[:cut]))
            assert info.value.reason == "truncated"

    def test_unchecked_length_word_is_refused(self):
        # A length word without CHECKED_FLAG would leave the frame
        # without sequence number and CRC: every reader refuses it.
        payload = encode_batch([freeze(1)])
        old = struct.pack("<I", len(payload)) + payload
        with pytest.raises(CodecError) as info:
            read_frame_ex(io.BytesIO(old), offset=12)
        assert info.value.reason == "unchecked"
        assert info.value.offset == 12
        with pytest.raises(CodecError) as info:
            list(iter_frames_ex(io.BytesIO(struct.pack("<I", 0))))
        assert info.value.reason == "unchecked"
