"""Property-based sanitizer tests (hypothesis).

The sanitizer must (a) accept every stream our generators can produce —
plain tokenized documents and update-bearing ticker streams — and (b)
reject single-event mutations of a valid update stream: a dropped
end-element, a toggle inserted after a freeze, a bracket reusing a
frozen region number, a bumped node identity.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro import tokenize
from repro.data.stock import StockTicker
from repro.events import check_stream
from repro.events.errors import ProtocolViolation
from repro.events.model import (EE, FREEZE, Event, hide, start_mutable)

TAGS = ("a", "b", "c", "item")
WORDS = ("x", "yy", "hit", "", "z 1")


@st.composite
def xml_trees(draw, depth=3):
    """Random XML document text over a small tag/text alphabet."""
    def element(d):
        tag = draw(st.sampled_from(TAGS))
        if d == 0:
            return "<{0}>{1}</{0}>".format(
                tag, draw(st.sampled_from(WORDS)))
        n = draw(st.integers(min_value=0, max_value=3))
        inner = "".join(element(d - 1) for _ in range(n))
        text = draw(st.sampled_from(WORDS))
        return "<{0}>{1}{2}</{0}>".format(tag, text, inner)
    return "<root>{}</root>".format(element(depth))


class TestAcceptsValidStreams:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_tokenized_documents_pass(self, doc):
        check_stream(tokenize(doc))

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_tokenized_documents_with_oids_pass(self, doc):
        check_stream(tokenize(doc, emit_oids=True))

    @given(st.integers(min_value=0, max_value=500),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_ticker_update_streams_pass(self, seed, mutable_names):
        events = StockTicker(n_updates=25, mutable_names=mutable_names,
                             name_update_fraction=0.4,
                             seed=seed).events()
        check_stream(events)


def _ticker(seed):
    return list(StockTicker(n_updates=25, mutable_names=True,
                            name_update_fraction=0.4,
                            seed=seed).events())


class TestRejectsMutations:
    @given(st.integers(min_value=0, max_value=100), st.data())
    @settings(max_examples=40, deadline=None)
    def test_dropped_end_element_rejected(self, seed, data):
        events = _ticker(seed)
        ee_positions = [i for i, e in enumerate(events)
                        if e.kind == EE]
        pos = data.draw(st.sampled_from(ee_positions))
        with pytest.raises(ProtocolViolation):
            check_stream(events[:pos] + events[pos + 1:])

    @given(st.integers(min_value=0, max_value=100), st.data())
    @settings(max_examples=40, deadline=None)
    def test_toggle_after_freeze_rejected(self, seed, data):
        events = _ticker(seed)
        freeze_positions = [i for i, e in enumerate(events)
                            if e.kind == FREEZE]
        if not freeze_positions:
            return
        pos = data.draw(st.sampled_from(freeze_positions))
        mutated = (events[:pos + 1] + [hide(events[pos].id)]
                   + events[pos + 1:])
        with pytest.raises(ProtocolViolation):
            check_stream(mutated)

    @given(st.integers(min_value=0, max_value=100), st.data())
    @settings(max_examples=40, deadline=None)
    def test_frozen_region_reuse_rejected(self, seed, data):
        events = _ticker(seed)
        freeze_positions = [i for i, e in enumerate(events)
                            if e.kind == FREEZE]
        if not freeze_positions:
            return
        pos = data.draw(st.sampled_from(freeze_positions))
        frozen = events[pos].id
        mutated = (events[:pos + 1]
                   + [start_mutable(events[pos].id, frozen)]
                   + events[pos + 1:])
        with pytest.raises(ProtocolViolation):
            check_stream(mutated)

    @given(xml_trees(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bumped_oid_rejected(self, doc, data):
        events = list(tokenize(doc, emit_oids=True))
        ee_positions = [i for i, e in enumerate(events)
                        if e.kind == EE and e.oid is not None]
        pos = data.draw(st.sampled_from(ee_positions))
        e = events[pos]
        events[pos] = Event(EE, e.id, tag=e.tag, oid=e.oid + 1)
        with pytest.raises(ProtocolViolation) as info:
            check_stream(events)
        assert info.value.rule == "oid-discipline"
