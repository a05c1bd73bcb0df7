"""Chunk-boundary behaviour of the incremental tokenizer.

The regex-scanning tokenizer must produce the same events no matter where
``feed`` chunk boundaries fall — including boundaries inside tags,
comments, CDATA sections, entity references and attribute values.  These
tests parametrize over *every* split point of a small document covering
all those constructs, and additionally check the production scanner
differentially against the character-level reference scanner
(:mod:`repro.xmlio.reference_tokenizer`), which is kept verbatim as the
executable specification.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.projection import (CHILD, ProjectionMatcher,
                                       QueryProjection)
from repro.xmlio import (ResourceLimitError, XMLSyntaxError, XMLTokenizer,
                         iter_tokenize, tokenize)
from repro.xmlio.reference_tokenizer import (ReferenceTokenizer,
                                             iter_reference_tokenize,
                                             reference_tokenize)

# One document exercising every construct whose scanning spans multiple
# characters: declarations, DOCTYPE, attributes (both quote styles, with
# an entity), comments (with embedded markup), CDATA (with metacharacters),
# predefined/numeric entities, self-closing tags, and nesting.
DOC = ('<?xml version="1.0"?><!DOCTYPE root>'
       '<root a="1" b = \'two &amp; three\'>'
       'pre<!-- comment -- ><x/> --><child>text &lt;&#65;&#x42;&gt;</child>'
       '<![CDATA[raw <&> stuff]]>mid<empty/>'
       '<deep><d2>x &quot;q&apos;</d2></deep>tail</root>')

SPLITS = list(range(len(DOC) + 1))


@pytest.fixture(scope="module")
def oneshot():
    return tokenize(DOC)


class TestEverySplitPoint:
    @pytest.mark.parametrize("i", SPLITS)
    def test_two_chunks_equal_oneshot(self, i, oneshot):
        assert list(iter_tokenize([DOC[:i], DOC[i:]])) == oneshot

    @pytest.mark.parametrize("i", SPLITS)
    def test_two_chunks_match_reference(self, i):
        fast = list(iter_tokenize([DOC[:i], DOC[i:]]))
        ref = list(iter_reference_tokenize([DOC[:i], DOC[i:]]))
        assert fast == ref

    def test_byte_at_a_time(self, oneshot):
        assert list(iter_tokenize(list(DOC))) == oneshot

    def test_three_chunks_sliding(self, oneshot):
        third = len(DOC) // 3
        for i in range(0, len(DOC) - third, 7):
            chunks = [DOC[:i], DOC[i:i + third], DOC[i + third:]]
            assert list(iter_tokenize(chunks)) == oneshot


class TestReferenceAgreement:
    def test_oneshot_matches_reference(self):
        assert tokenize(DOC) == reference_tokenize(DOC)

    def test_oids_match_reference(self):
        # Event equality ignores oids: compare them explicitly.
        assert _with_oids(tokenize(DOC, emit_oids=True)) == \
            _with_oids(reference_tokenize(DOC, emit_oids=True))

    def test_keep_whitespace_matches_reference(self):
        doc = "<a> <b/> \n <c>x</c> </a>"
        assert tokenize(doc, keep_whitespace=True) == \
            reference_tokenize(doc, keep_whitespace=True)

    def test_attributes_match_reference(self):
        seen_fast, seen_ref = [], []
        list(XMLTokenizer(
            attribute_handler=lambda t, n, v:
            seen_fast.append((t, n, v))).tokenize(DOC))
        list(ReferenceTokenizer(
            attribute_handler=lambda t, n, v:
            seen_ref.append((t, n, v))).tokenize(DOC))
        assert seen_fast == seen_ref
        assert ("root", "b", "two & three") in seen_fast

    @pytest.mark.parametrize("bad", [
        "<a></b>", "<a><b></b>", "</a>", "oops<a/>", "<a>text",
        "<a x=1/>", "<a x></a>", "<a x='1></a>", "<a>&nope;</a>",
        "<a>&unterminated</a>", "<>x</>",
    ])
    def test_errors_match_reference(self, bad):
        with pytest.raises(XMLSyntaxError) as fast:
            tokenize(bad)
        with pytest.raises(XMLSyntaxError) as ref:
            reference_tokenize(bad)
        assert str(fast.value) == str(ref.value)


def _with_oids(events):
    return [(e.key(), e.oid) for e in events]


# --------------------------------------------------------------------------
# Randomized differential against the reference scanner: documents drawn
# from every construct, fed under random chunkings with every option
# combination the reference supports, then mutated into malformed ones
# whose diagnostics must agree too.

_NAMES = st.sampled_from(["a", "b", "item", "x-1", "\u00e9t"])
#: Character-data pieces; entity-encoded whitespace decodes to a
#: whitespace-only run, which is dropped like literal whitespace.
_TEXT = st.lists(st.sampled_from([
    "x", "two words", " ", "\n", "\t", "]]", ">", "&amp;", "&lt;", "&gt;",
    "&quot;", "&apos;", "&#65;", "&#x42;", "&#32;", "&#x9;", "&#10;",
]), min_size=1, max_size=4).map("".join)
_PAD = st.sampled_from(["", " ", "\n"])
_ATTR = st.builds(
    lambda name, pad, quote, value: " {0}{1}={1}{2}{3}{2}".format(
        name, pad, quote, value),
    _NAMES, _PAD, st.sampled_from(['"', "'"]),
    st.lists(st.sampled_from(["v", "1 2", "&amp;", "&#65;", "&#32;"]),
             max_size=3).map("".join))
_MISC = st.sampled_from([
    "<!-- note -->", "<!-- <a>x</a> - -->", "<?pi data <b>?>", "<?pi?>"])
#: What may stand outside the root element.
_PROLOG = st.lists(st.one_of(_MISC, st.sampled_from(
    [" ", "\n", "&#32;", "&#x9;&#10;", "<!DOCTYPE r>"])), max_size=3)


@st.composite
def _element(draw, depth):
    tag = draw(_NAMES)
    head = tag + "".join(draw(st.lists(_ATTR, max_size=2))) + draw(_PAD)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return "<{}/>".format(head)
    body = draw(st.lists(st.one_of(
        _TEXT, _MISC, _element(depth - 1),
        _TEXT.map("<![CDATA[{}]]>".format)), max_size=4))
    return "<{}>{}</{}{}>".format(head, "".join(body), tag, draw(_PAD))


@st.composite
def _document(draw):
    root = draw(_element(4))
    nest = draw(st.integers(0, 40)) if draw(st.booleans()) else 0
    root = "<d>" * nest + root + "</d>" * nest
    return "".join(draw(_PROLOG)) + root + "".join(draw(_PROLOG))


def _outcome(scan, chunks, **options):
    """The events of one scan (oids included), or its error."""
    try:
        return _with_oids(scan(chunks, **options))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _mutate(doc, edits):
    for kind, at, char in edits:
        at %= len(doc) + 1
        if kind == 0:
            doc = doc[:at] + doc[at + 1:]
        elif kind == 1:
            doc = doc[:at] + char + doc[at:]
        else:
            doc = doc[:at]
    return doc


_OPTIONS = st.fixed_dictionaries({"emit_oids": st.booleans(),
                                  "keep_whitespace": st.booleans()})
_CUTS = st.lists(st.integers(0, 10 ** 6), max_size=6)


class TestRandomizedDifferential:
    @given(doc=_document(), cuts=_CUTS, options=_OPTIONS)
    @settings(max_examples=300, deadline=None)
    def test_documents_match_reference(self, doc, cuts, options):
        chunks = _chunks_of(doc, cuts)
        fast = _outcome(iter_tokenize, chunks, **options)
        assert fast == _outcome(iter_reference_tokenize, chunks, **options)
        assert isinstance(fast, list)  # the generator draws well-formed

    @given(doc=_document(), cuts=_CUTS, options=_OPTIONS,
           edits=st.lists(st.tuples(
               st.integers(0, 2), st.integers(0, 10 ** 6),
               st.sampled_from(list("<>/&;=\"'!?-[] x"))),
               min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_malformed_documents_match_reference(self, doc, cuts, options,
                                                 edits):
        doc = _mutate(doc, edits)
        chunks = _chunks_of(doc, cuts)
        assert _outcome(iter_tokenize, chunks, **options) == \
            _outcome(iter_reference_tokenize, chunks, **options)

    @pytest.mark.parametrize("doc", [
        "<a>&#32;</a>", "<a>&#x9;&#10;<b/>&#32;</a>", "&#32;<a/>&#10;"])
    def test_encoded_whitespace_is_whitespace(self, doc):
        assert tokenize(doc) == reference_tokenize(doc)
        assert not [e for e in tokenize(doc) if e.text is not None]


class TestConstructsSplitMidway:
    """Targeted splits inside each multi-character construct."""

    def _mid(self, needle):
        start = DOC.index(needle)
        return start + len(needle) // 2

    @pytest.mark.parametrize("needle", [
        "<!-- comment", "<![CDATA[", "]]>", "&amp;", "&#65;", "&#x42;",
        "<child>", "</child>", "<empty/>", 'b = \'two',
        "<?xml", "<!DOCTYPE", "-->",
    ])
    def test_split_inside_construct(self, needle, oneshot):
        i = self._mid(needle)
        assert list(iter_tokenize([DOC[:i], DOC[i:]])) == oneshot

    def test_entity_split_across_three_chunks(self):
        doc = "<a>x&amp;y</a>"
        amp = doc.index("&")
        chunks = [doc[:amp + 1], doc[amp + 1:amp + 3], doc[amp + 3:]]
        evs = list(iter_tokenize(chunks))
        assert [e.text for e in evs if e.text is not None] == ["x&y"]

    def test_cdata_split_across_three_chunks(self):
        doc = "<a><![CDATA[one & two]]></a>"
        i = doc.index("one") + 1
        j = doc.index("]]>") + 1
        evs = list(iter_tokenize([doc[:i], doc[i:j], doc[j:]]))
        assert [e.text for e in evs if e.text is not None] == ["one & two"]


# Document whose *skipped* subtrees contain every construct the raw skip
# scanner must cross without materializing events: comments with embedded
# markup and dashes, a PI with angle brackets, CDATA with a fake ``]]``,
# entities, attributes in both quote styles, self-closing tags, and deep
# nesting.  The projection keeps only the ``keep`` children of the
# root (path ``/keep`` — the root element itself consumes no step).
SKIP_DOC = ('<?xml version="1.0"?>'
            '<root>'
            '<keep>hello <b>bold</b> &amp; more</keep>'
            '<skip a="1" b=\'&lt;x&gt;\'>'
            'text <!-- <not><a>tag</a> -- > dashes --> more'
            '<?pi data with <brackets> and ]]> bytes?>'
            '<![CDATA[raw <&> ]] ]>stuff]]>'
            '<inner f="2">&#65;&#x42; <leaf/> tail</inner>'
            '</skip>'
            '<keep>two &quot;q&apos;</keep>'
            '<skip><deep><deeper>x</deeper></deep><solo/></skip>'
            '</root>')

SKIP_SPLITS = list(range(len(SKIP_DOC) + 1))

KEEP_PROJECTION = QueryProjection(paths=frozenset({
    ((CHILD, "keep"),),
}))


def _matcher():
    return ProjectionMatcher(KEEP_PROJECTION)


def _pruned_tokenize(chunks):
    tok = XMLTokenizer(projection=_matcher())
    out = []
    for chunk in chunks:
        out.extend(tok.feed(chunk))
    out.extend(tok.close())
    return out, tok.projection_stats


class TestSkipModeSplitPoints:
    """Chunk boundaries landing *inside* skipped subtrees."""

    @pytest.fixture(scope="class")
    def pruned_oneshot(self):
        return _pruned_tokenize([SKIP_DOC])

    @pytest.fixture(scope="class")
    def full(self):
        return tokenize(SKIP_DOC)

    def test_projection_rejects_oids(self):
        with pytest.raises(ValueError):
            XMLTokenizer(projection=_matcher(), emit_oids=True)

    def test_pruned_plus_emitted_accounts_for_every_event(
            self, pruned_oneshot, full):
        events, stats = pruned_oneshot
        assert stats.events_emitted == len(events)
        assert stats.events_pruned > 0
        assert stats.bytes_skipped > 0
        assert stats.subtrees_skipped == 2
        assert stats.events_emitted + stats.events_pruned == len(full)

    def test_pruned_events_are_a_subsequence(self, pruned_oneshot, full):
        events, _ = pruned_oneshot
        it = iter(full)
        assert all(any(e == f for f in it) for e in events)

    @pytest.mark.parametrize("i", SKIP_SPLITS)
    def test_two_chunks_equal_oneshot(self, i, pruned_oneshot):
        events, stats = _pruned_tokenize([SKIP_DOC[:i], SKIP_DOC[i:]])
        assert events == pruned_oneshot[0]
        assert stats.counter_dict() == pruned_oneshot[1].counter_dict()

    def test_byte_at_a_time(self, pruned_oneshot):
        events, stats = _pruned_tokenize(list(SKIP_DOC))
        assert events == pruned_oneshot[0]
        assert stats.counter_dict() == pruned_oneshot[1].counter_dict()

    @pytest.mark.parametrize("needle", [
        "<!-- <not>", "-- > dashes", "-->", "<?pi", "]]> bytes?>",
        "<![CDATA[", "]] ]>stuff", "stuff]]>", "&#65;", "<leaf/>",
        "<inner f=", "b=\'&lt;", "</skip>", "<deeper>", "<solo/>",
    ])
    def test_split_inside_skipped_construct(self, needle,
                                            pruned_oneshot):
        start = SKIP_DOC.index(needle)
        for i in (start, start + len(needle) // 2,
                  start + len(needle)):
            events, stats = _pruned_tokenize(
                [SKIP_DOC[:i], SKIP_DOC[i:]])
            assert events == pruned_oneshot[0]
            assert stats.counter_dict() == \
                pruned_oneshot[1].counter_dict()

    @given(cuts=st.lists(st.integers(0, len(SKIP_DOC)), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_any_chunking_equals_oneshot(self, cuts):
        bounds = sorted({0, len(SKIP_DOC), *cuts})
        chunks = [SKIP_DOC[a:b] for a, b in zip(bounds, bounds[1:])]
        expected, exp_stats = _pruned_tokenize([SKIP_DOC])
        events, stats = _pruned_tokenize(chunks)
        assert events == expected
        assert stats.counter_dict() == exp_stats.counter_dict()

    @pytest.mark.parametrize("bad", [
        # Well-formedness violations *inside* skipped subtrees must
        # still raise: skip mode verifies structure, it only elides
        # event materialization.
        '<root><keep/><skip><a></b></skip></root>',
        '<root><keep/><skip><a>unclosed</skip></root>',
        '<root><keep/><skip><></skip></root>',
    ])
    def test_skipped_subtrees_still_wellformed_checked(self, bad):
        with pytest.raises(XMLSyntaxError):
            _pruned_tokenize([bad])

    def test_matches_unprojected_filter(self, pruned_oneshot, full):
        # The kept events must be exactly the full stream minus the
        # skipped subtrees — reconstruct that set by depth tracking.
        from repro.events.model import EE, SE
        kept = []
        depth = 0        # element depth in the full stream
        skip_until = None  # depth at which the current skip started
        for e in full:
            kind = int(e.kind)
            if kind == int(SE):
                depth += 1
                if skip_until is None and depth == 2 \
                        and e.tag != "keep":
                    skip_until = depth
                if skip_until is None:
                    kept.append(e)
            elif kind == int(EE):
                if skip_until is None:
                    kept.append(e)
                elif depth == skip_until:
                    skip_until = None
                depth -= 1
            else:            # CD
                if skip_until is None:
                    kept.append(e)
        assert kept == pruned_oneshot[0]


# --------------------------------------------------------------------------
# Resource guards: hostile inputs must trip a *structured*
# ResourceLimitError — never a RecursionError, MemoryError, or silent
# unbounded buffering — at the same point regardless of where feed
# boundaries fall.

def _depth_bomb(depth):
    return ("<d>" * depth) + "x" + ("</d>" * depth)


def _giant_attr_doc(size):
    return '<r a="' + "v" * size + '"/>'


def _mega_text_doc(size):
    return "<r>" + "t" * size + "</r>"


def _many_attrs_doc(n):
    attrs = " ".join('a{}="v"'.format(i) for i in range(n))
    return "<r {}/>".format(attrs)


def _chunks_of(doc, cuts):
    bounds = sorted({0, len(doc), *(c % (len(doc) + 1) for c in cuts)})
    return [doc[a:b] for a, b in zip(bounds, bounds[1:])]


class TestResourceGuards:
    def test_depth_bomb_trips_max_depth(self):
        with pytest.raises(ResourceLimitError) as info:
            tokenize(_depth_bomb(200), max_depth=64)
        assert info.value.limit_name == "max_depth"
        assert info.value.limit == 64
        assert info.value.actual == 65

    def test_depth_bomb_is_fine_below_the_limit(self):
        events = tokenize(_depth_bomb(64), max_depth=64)
        assert events == tokenize(_depth_bomb(64))

    def test_giant_attribute_trips_max_token_bytes_oneshot(self):
        with pytest.raises(ResourceLimitError) as info:
            tokenize(_giant_attr_doc(10000), max_token_bytes=1024)
        assert info.value.limit_name == "max_token_bytes"
        assert info.value.actual > info.value.limit == 1024

    def test_mega_text_trips_max_token_bytes(self):
        with pytest.raises(ResourceLimitError) as info:
            list(iter_tokenize(
                ["<r>", "t" * 600, "t" * 600, "</r>"],
                max_token_bytes=1024))
        assert info.value.limit_name == "max_token_bytes"

    def test_attr_flood_trips_max_attrs(self):
        with pytest.raises(ResourceLimitError) as info:
            tokenize(_many_attrs_doc(40), max_attrs=16)
        assert info.value.limit_name == "max_attrs"
        assert info.value.limit == 16
        assert info.value.actual == 40

    def test_limits_off_by_default(self):
        # No limits configured: the same hostile documents tokenize
        # (slowly, but structurally fine).
        assert tokenize(_depth_bomb(300))
        assert tokenize(_giant_attr_doc(5000))
        assert tokenize(_many_attrs_doc(64))

    def test_limited_tokenizer_unchanged_on_benign_input(self, oneshot):
        assert tokenize(DOC, max_depth=64, max_token_bytes=1 << 16,
                        max_attrs=32) == oneshot

    def test_error_is_a_syntax_error_subclass(self):
        with pytest.raises(XMLSyntaxError):
            tokenize(_depth_bomb(100), max_depth=8)

    @given(cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_depth_bomb_trips_across_any_chunking(self, cuts):
        doc = _depth_bomb(120)
        with pytest.raises(ResourceLimitError) as info:
            list(iter_tokenize(_chunks_of(doc, cuts), max_depth=48))
        assert info.value.limit_name == "max_depth"
        assert info.value.limit == 48

    @given(cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_giant_attribute_trips_across_any_chunking(self, cuts):
        doc = _giant_attr_doc(4000)
        with pytest.raises(ResourceLimitError) as info:
            list(iter_tokenize(_chunks_of(doc, cuts),
                               max_token_bytes=512))
        assert info.value.limit_name == "max_token_bytes"

    @given(cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_mega_text_trips_across_any_chunking(self, cuts):
        doc = _mega_text_doc(4000)
        with pytest.raises(ResourceLimitError) as info:
            list(iter_tokenize(_chunks_of(doc, cuts),
                               max_token_bytes=512))
        assert info.value.limit_name == "max_token_bytes"

    @given(cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_benign_doc_with_limits_matches_oneshot(self, cuts):
        expected = tokenize(DOC)
        got = list(iter_tokenize(_chunks_of(DOC, cuts), max_depth=64,
                                 max_token_bytes=1 << 16, max_attrs=32))
        assert got == expected
