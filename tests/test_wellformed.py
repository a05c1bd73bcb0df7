"""Tests for the WF_i rules and the one stream-protocol checker."""

import pytest

from repro.events import (ProtocolViolation, cdata, check_stream,
                          end_element, end_mutable, end_replace, end_stream,
                          end_tuple, is_well_formed, loads, start_element,
                          start_mutable, start_stream, start_tuple)
from repro.xquery.engine import MultiQueryRun

#: A bracket that closes with an element of its content still open: its
#: eager application renders ``<r><a>x</r>``.
DANGLING = ('sS(0) sE(0,"r") sM(0,1) sE(1,"a") cD(1,"x") eM(0,1) '
            'eE(0,"r") eS(0)')
#: Two brackets that close out of LIFO order: legal, regions interleave.
INTERLEAVED = ('sS(0) sE(0,"r") sM(0,1) sM(0,2) eM(0,1) eM(0,2) '
               'eE(0,"r") eS(0)')


def _rule(events):
    with pytest.raises(ProtocolViolation) as info:
        check_stream(events)
    return info.value.rule


class TestWFRules:
    def test_empty_sequence_is_well_formed(self):
        assert is_well_formed([], 0)

    def test_lone_cdata_is_well_formed(self):
        assert is_well_formed([cdata(0, "x")], 0)

    def test_foreign_events_are_irrelevant(self):
        # Rule: e.id != i  =>  [e] in WF_i  — even unbalanced ones.
        assert is_well_formed([start_element(1, "a")], 0)
        assert is_well_formed([end_stream(2)], 0)

    def test_nesting_rule(self):
        v = [start_element(0, "a"), cdata(0, "x"), end_element(0, "a")]
        assert is_well_formed(v, 0)

    def test_concatenation_rule(self):
        v = ([start_element(0, "a"), end_element(0, "a")]
             + [cdata(0, "y")]
             + [start_element(0, "b"), end_element(0, "b")])
        assert is_well_formed(v, 0)

    def test_unbalanced_open_fails(self):
        assert not is_well_formed([start_element(0, "a")], 0)

    def test_unbalanced_close_fails(self):
        assert not is_well_formed([end_element(0, "a")], 0)

    def test_mismatched_tags_fail(self):
        v = [start_element(0, "a"), end_element(0, "b")]
        assert not is_well_formed(v, 0)

    def test_interleaved_streams_each_well_formed(self):
        v = [start_element(0, "a"), start_element(1, "x"),
             end_element(1, "x"), end_element(0, "a")]
        assert is_well_formed(v, 0)
        assert is_well_formed(v, 1)

    def test_stream_markers_on_own_stream_fail(self):
        # sS/sT on stream i are not generated by the WF_i rules.
        assert not is_well_formed([start_stream(0)], 0)
        assert not is_well_formed([start_tuple(0)], 0)

    def test_check_raises(self):
        # The checker holds every substream of a stream to WF_i.
        assert _rule([start_stream(0), start_element(0, "a"),
                      end_stream(0)]) == "element-nesting"


class TestElementBalance:
    """Elements balance per substream, whatever the other ones do."""

    def test_balanced(self):
        check_stream([start_stream(0), start_element(0, "a"),
                      end_element(0, "a"), end_stream(0)])

    def test_open(self):
        assert _rule([start_stream(0), start_element(0, "a"),
                      start_element(0, "b"), end_element(0, "b"),
                      end_stream(0)]) == "element-nesting"

    def test_other_streams_ignored(self):
        # Stream 1's open element does not keep stream 0 from closing.
        check_stream([start_stream(0), start_stream(1),
                      start_element(1, "a"), end_stream(0)], finish=False)


class TestStrictValidator:
    def _doc(self):
        return [start_stream(0), start_element(0, "a"), cdata(0, "x"),
                end_element(0, "a"), end_stream(0)]

    def test_valid_document_passes(self):
        check_stream(self._doc())

    def test_missing_end_stream(self):
        assert _rule(self._doc()[:-1]) == "stream-discipline"

    def test_double_start_stream(self):
        assert _rule([start_stream(0), start_stream(0)]) \
            == "stream-discipline"

    def test_content_before_stream_start(self):
        assert _rule([cdata(0, "x")]) == "stream-discipline"

    def test_unmatched_tuple(self):
        assert _rule([start_stream(0), end_tuple(0), end_stream(0)]) \
            == "tuple-nesting"

    def test_update_brackets_must_nest(self):
        v = [start_stream(0),
             start_mutable(0, 1), cdata(1, "x"), end_mutable(0, 1),
             end_stream(0)]
        check_stream(v)

    def test_mismatched_update_end(self):
        v = [start_stream(0), start_mutable(0, 1), end_replace(0, 1),
             end_stream(0)]
        assert _rule(v) == "bracket-discipline"

    def test_dangling_update_bracket(self):
        v = [start_stream(0), start_mutable(0, 1), end_stream(0)]
        assert _rule(v) == "bracket-discipline"

    def test_update_content_is_allowed_within_bracket(self):
        v = loads('sS(0) sM(0,1) sE(1,"a") cD(1,"t") eE(1,"a") eM(0,1) '
                  'eS(0)')
        check_stream(v)


def _ingest(events):
    """Feed ``events`` to a ``validate=True`` executor and finish it."""
    mq = MultiQueryRun(["count(X//a)"], validate=True)
    mq.feed_all(events)
    return mq.finish()


class TestBothEntryPointsAgree:
    """A bracket closes only over closed content, in any bracket order:
    a standalone check and a validating executor hold a stream to it
    alike."""

    def test_bracket_closing_over_an_open_element_is_refused(self):
        events = loads(DANGLING)
        assert _rule(events) == "element-nesting"
        with pytest.raises(ProtocolViolation) as info:
            _ingest(events)
        assert info.value.rule == "element-nesting"
        assert info.value.index == 5  # the eM(0,1)

    def test_interleaved_bracket_close_is_accepted(self):
        events = loads(INTERLEAVED)
        check_stream(events)
        assert _ingest(events).texts() == ["0"]
