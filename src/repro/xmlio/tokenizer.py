"""A from-scratch streaming XML tokenizer.

This is the SAX substitute the engine is built on: it turns XML text into
the paper's event vocabulary (``sS``, ``sE``, ``cD``, ``eE``, ``eS``) without
ever materializing a tree.  It is deliberately self-contained (no
``xml.sax``): the paper's substrate is a SAX parser, and building it from
scratch keeps the reproduction dependency-free and lets the benchmark
harness count raw tokenization work the same way the paper's Table 1 does.

Supported XML subset (ample for the paper's workloads):

* elements with attributes (attributes are surfaced as hooks; by default
  they are ignored, matching the paper's event model which has no attribute
  events),
* character data with the five predefined entities plus numeric character
  references,
* comments, processing instructions and DOCTYPE (skipped),
* CDATA sections.

The tokenizer is incremental: feed it arbitrary chunks with :meth:`feed`;
it yields events as soon as they are complete, so it can sit behind a
socket or a file of unbounded size.

Scanning strategy: one anchored regex match (``_KERNEL_RE``) consumes a
text run and the plain tag after it, and the kernel emits their events
inline.  Whatever it does not match goes to the mode machine for one
construct: delimiters found with ``str.find``, a partial construct left
buffered for the next ``feed``.  The original character-level scanner is
preserved verbatim in :mod:`repro.xmlio.reference_tokenizer` as the
differential-testing oracle.
"""

from __future__ import annotations

import re
from time import perf_counter_ns
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator,
                    List, Optional, Tuple)

from ..events.model import (CD, EE, SE, Event, cdata, end_element,
                            end_stream, start_element, start_stream)

if TYPE_CHECKING:  # annotations only: no telemetry import at runtime
    from ..obs.histogram import LogHistogram


class XMLSyntaxError(ValueError):
    """Raised on malformed XML input."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__("{} (at byte offset {})".format(message, offset))
        self.offset = offset


class ResourceLimitError(XMLSyntaxError):
    """A configured ingest resource limit was exceeded.

    The poison-input guard: hostile documents — element depth bombs,
    multi-megabyte attributes, unbounded text runs — raise this
    structured error the moment the configured budget is crossed,
    instead of driving the process into unbounded memory growth or
    deep-recursion abuse downstream.  ``limit_name`` is the
    constructor keyword that tripped (``"max_depth"``,
    ``"max_token_bytes"``, ``"max_attrs"``), ``limit`` its configured
    value, ``actual`` the observed size.
    """

    def __init__(self, message: str, offset: int, limit_name: str,
                 limit: int, actual: int) -> None:
        super().__init__(
            "{} ({}={}, observed {})".format(message, limit_name,
                                             limit, actual), offset)
        self.limit_name = limit_name
        self.limit = limit
        self.actual = actual


_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

# The scan kernel: a text run and the plain (attribute-free) start,
# self-closing or end tag after it — nearly every XMark/DBLP token.  It
# is deliberately strict: attributes, comments, CDATA, PIs, DOCTYPE, a
# construct truncated at a chunk boundary and malformed input all go to
# the mode machine, whose general classifier stays authoritative for
# semantics and error messages.
_KERNEL_RE = re.compile(
    r"([^<]*)<(?:([^\s<>/!?=][^\s<>/=]*)\s*(/?)|/([^\s<>/=]+)\s*)>")
# Attribute scanning within a tag body: name up to the first '=' (the
# non-greedy quantifier reproduces the reference scanner's find('=')
# semantics), then a quoted value.
_TAG_NAME_RE = re.compile(r"\S+")
_ATTR_RE = re.compile(r"\s*([^=]+?)=\s*(?:\"([^\"]*)\"|'([^']*)')")

# Parser modes.
_TEXT = 0
_MARKUP = 1       # saw '<', gathering until the construct is classified
_COMMENT = 2
_CDATA_SECT = 3
_PI = 4
_DOCTYPE = 5


class XMLTokenizer:
    """Incremental XML-to-event tokenizer.

    Args:
        stream_id: the stream number stamped on emitted events.
        emit_oids: when True, sE/eE/cD events carry a document-order node
            identity (``oid``) as required by backward axes (Section VI-E).
        keep_whitespace: when False (default), character data that is pure
            whitespace between elements is dropped, like the paper's
            tokenizer which reports 12.7M events for 224MB of XMark.
        attribute_handler: optional callback ``(tag, name, value) -> None``
            invoked for each attribute (the event model has no attribute
            events; the XMark generator does not rely on attributes).
        max_depth: maximum open-element nesting depth.  A depth bomb
            raises a structured :class:`ResourceLimitError` at the limit
            instead of growing the element stack without bound.
            ``None`` (default): off.
        max_token_bytes: maximum bytes buffered for one incomplete
            markup construct (a giant tag or attribute spanning feed
            chunks) or one pending character-data run.  Checked after
            every :meth:`feed`, so cross-chunk accumulation stops at
            the limit with a structured error.  ``None``: off.
        max_attrs: maximum attributes on a single element.  ``None``:
            off.
    """

    def __init__(self, stream_id: int = 0, emit_oids: bool = False,
                 keep_whitespace: bool = False,
                 attribute_handler: Optional[
                     Callable[[str, str, str], None]] = None,
                 max_depth: Optional[int] = None,
                 max_token_bytes: Optional[int] = None,
                 max_attrs: Optional[int] = None) -> None:
        self.stream_id = stream_id
        self.emit_oids = emit_oids
        self.keep_whitespace = keep_whitespace
        self.attribute_handler = attribute_handler
        self.max_depth = max_depth
        self.max_token_bytes = max_token_bytes
        self.max_attrs = max_attrs
        #: Optional :class:`~repro.obs.histogram.LogHistogram` recording
        #: per-feed() scan latency.  Installed at the executor level so a
        #: shared tokenizer is timed once regardless of consumer count;
        #: None costs one ``is not None`` test per chunk.
        self.chunk_histogram: Optional[LogHistogram] = None
        self._buf = ""
        self._mode = _TEXT
        self._offset = 0
        self._text_size = 0             # bytes pending in _text_parts
        self._stack: List[Tuple[str, Optional[int]]] = []
        self._next_oid = 0
        self._started = False
        self._finished = False
        self._text_parts: List[Tuple[bool, str]] = []

    # -- public API --------------------------------------------------------

    def feed(self, chunk: str) -> List[Event]:
        """Consume a chunk of XML text; return the newly completed events."""
        if self._finished:
            raise XMLSyntaxError("feed() after close()", self._offset)
        hist = self.chunk_histogram
        t0 = perf_counter_ns() if hist is not None else 0
        self._buf += chunk
        out: List[Event] = []
        if not self._started:
            self._started = True
            out.append(start_stream(self.stream_id))
        self._scan(out)
        if self.max_token_bytes is not None:
            self._check_token_bytes()
        if hist is not None:
            hist.record(perf_counter_ns() - t0)
        return out

    def close(self) -> List[Event]:
        """Signal end of input; return the trailing events (incl. eS)."""
        if self._finished:
            return []
        self._finished = True
        out: List[Event] = []
        if not self._started:
            self._started = True
            out.append(start_stream(self.stream_id))
        if self._mode != _TEXT or self._buf:
            if self._buf.strip() or self._mode != _TEXT:
                raise XMLSyntaxError("unexpected end of input", self._offset)
        self._flush_text(out)
        if self._stack:
            raise XMLSyntaxError(
                "input ended with unclosed elements: {}".format(
                    [t for t, _ in self._stack]), self._offset)
        out.append(end_stream(self.stream_id))
        return out

    def tokenize(self, text: str) -> Iterator[Event]:
        """One-shot convenience: tokenize a complete document."""
        yield from self.feed(text)
        yield from self.close()

    # -- resource guards ---------------------------------------------------

    def _check_depth(self) -> None:
        """Guard one element push against ``max_depth``."""
        depth = len(self._stack)
        if depth >= self.max_depth:
            raise ResourceLimitError(
                "element nesting exceeds the configured depth limit",
                self._offset, "max_depth", self.max_depth, depth + 1)

    def _check_token_bytes(self) -> None:
        """Post-feed guard: no buffered construct outgrows the budget.

        Two accumulation vectors are bounded: the raw buffer holding one
        incomplete markup construct (a tag or attribute that never
        closes keeps growing across feeds), and the pending
        character-data run (text accumulates in ``_text_parts`` until
        the next markup flushes it).
        """
        limit = self.max_token_bytes
        if len(self._buf) > limit:
            raise ResourceLimitError(
                "buffered markup construct exceeds the token budget",
                self._offset, "max_token_bytes", limit, len(self._buf))
        if self._text_size > limit:
            raise ResourceLimitError(
                "buffered character data exceeds the token budget",
                self._offset, "max_token_bytes", limit, self._text_size)

    # -- scanning ----------------------------------------------------------

    def _scan(self, out: List[Event]) -> None:
        buf = self._buf
        pos = 0
        n = len(buf)
        while pos < n:
            if self._mode == _TEXT:
                pos = self._kernel(buf, pos, out)
                if self._mode != _TEXT or pos == n:
                    continue
                # The kernel stopped at a construct it does not match.
                lt = buf.find("<", pos)
                if lt < 0:
                    self._text_parts.append((False, buf[pos:]))
                    self._text_size += n - pos
                    pos = n
                    break
                if lt > pos:
                    self._text_parts.append((False, buf[pos:lt]))
                    self._text_size += lt - pos
                pos = lt
                self._mode = _MARKUP
            elif self._mode == _MARKUP:
                consumed = self._scan_markup(buf, pos, out)
                if consumed is None:
                    break
                pos = consumed
            elif self._mode == _COMMENT:
                end = buf.find("-->", pos)
                if end < 0:
                    pos = max(pos, n - 2)
                    break
                pos = end + 3
                self._mode = _TEXT
            elif self._mode == _CDATA_SECT:
                end = buf.find("]]>", pos)
                if end < 0:
                    if n - 2 > pos:
                        self._text_parts.append((True, buf[pos:n - 2]))
                        self._text_size += n - 2 - pos
                    pos = max(pos, n - 2)
                    break
                self._text_parts.append((True, buf[pos:end]))
                self._text_size += end - pos
                pos = end + 3
                self._mode = _TEXT
            elif self._mode == _PI:
                end = buf.find("?>", pos)
                if end < 0:
                    pos = max(pos, n - 1)
                    break
                pos = end + 2
                self._mode = _TEXT
            elif self._mode == _DOCTYPE:
                end = buf.find(">", pos)
                if end < 0:
                    pos = n
                    break
                pos = end + 1
                self._mode = _TEXT
        self._offset += pos
        self._buf = buf[pos:]

    def _kernel(self, buf: str, pos: int, out: List[Event]) -> int:
        """Emit text-plus-plain-tag tokens inline; return where it stops.

        That is where ``_KERNEL_RE`` fails.  Text follows
        :meth:`_flush_text`'s rules, and goes through it when it merges
        with pending parts or is over budget.
        """
        match = _KERNEL_RE.match
        append = out.append
        new = Event.__new__
        sid = self.stream_id
        stack = self._stack
        oids = self.emit_oids
        limit = self.max_token_bytes
        oid = None
        while True:
            m = match(buf, pos)
            if m is None:
                return pos
            pos = m.end()
            text, tag, closed, etag = m.groups()
            if self._text_parts or (limit is not None and len(text) > limit):
                if text:
                    self._text_parts.append((False, text))
                    self._text_size += len(text)
                self._flush_text(out)
            elif text:
                if "&" in text:
                    text = _decode_entities(text, self._offset)
                if not stack:
                    if not text.isspace():
                        raise XMLSyntaxError(
                            "character data outside the root element",
                            self._offset)
                elif not text.isspace() or self.keep_whitespace:
                    if oids:
                        oid = self._next_oid
                        self._next_oid += 1
                    ev = new(Event)
                    ev.kind, ev.id, ev.sub, ev.tag, ev.text, ev.oid = \
                        CD, sid, None, None, text, oid
                    append(ev)
            if etag is not None:
                if not stack or stack[-1][0] != etag:
                    self._end_tag(etag, out)
                    continue
                ev = new(Event)
                ev.kind, ev.id, ev.sub, ev.tag, ev.text, ev.oid = \
                    EE, sid, None, etag, None, stack.pop()[1]
                append(ev)
                continue
            if oids:
                oid = self._next_oid
                self._next_oid += 1
            ev = new(Event)
            ev.kind, ev.id, ev.sub, ev.tag, ev.text, ev.oid = \
                SE, sid, None, tag, None, oid
            append(ev)
            if closed:
                ev = new(Event)
                ev.kind, ev.id, ev.sub, ev.tag, ev.text, ev.oid = \
                    EE, sid, None, tag, None, oid
                append(ev)
            else:
                if self.max_depth is not None:
                    self._check_depth()
                stack.append((tag, oid))

    def _scan_markup(self, buf: str, pos: int,
                     out: List[Event]) -> Optional[int]:
        """Classify and consume one markup construct starting at '<'.

        Returns the new position, or None when more input is needed.
        """
        n = len(buf)
        if pos + 1 >= n:
            return None
        c = buf[pos + 1]
        if c == "!":
            if buf.startswith("<!--", pos):
                self._flush_text(out)
                self._mode = _COMMENT
                return pos + 4
            if buf.startswith("<![CDATA[", pos):
                self._mode = _CDATA_SECT
                return pos + 9
            if n - pos < 9:
                return None  # cannot classify "<!..." yet
            self._flush_text(out)
            self._mode = _DOCTYPE
            return pos + 2
        if c == "?":
            self._flush_text(out)
            self._mode = _PI
            return pos + 2
        gt = buf.find(">", pos)
        if gt < 0:
            return None
        raw = buf[pos + 1:gt]
        if self.max_token_bytes is not None and len(raw) > self.max_token_bytes:
            raise ResourceLimitError(
                "markup construct exceeds the token budget",
                self._offset, "max_token_bytes", self.max_token_bytes,
                len(raw))
        self._flush_text(out)
        if raw.startswith("/"):
            self._end_tag(raw[1:].strip(), out)
        elif raw.endswith("/"):
            self._start_tag(raw[:-1], out)
            self._pop_tag(out)
        else:
            self._start_tag(raw, out)
        self._mode = _TEXT
        return gt + 1

    # -- element handling ----------------------------------------------------

    def _start_tag(self, raw: str, out: List[Event]) -> None:
        """Handle a start tag body."""
        tag, attrs = _split_tag(raw, self._offset)
        if not tag:
            raise XMLSyntaxError("empty tag name", self._offset)
        if self.max_attrs is not None and len(attrs) > self.max_attrs:
            raise ResourceLimitError(
                "element <{}> exceeds the attribute limit".format(tag),
                self._offset, "max_attrs", self.max_attrs, len(attrs))
        if self.attribute_handler is not None:
            for name, value in attrs:
                self.attribute_handler(tag, name, value)
        oid = self._take_oid()
        if self.max_depth is not None:
            self._check_depth()
        self._stack.append((tag, oid))
        out.append(start_element(self.stream_id, tag, oid=oid))

    def _end_tag(self, tag: str, out: List[Event]) -> None:
        if not self._stack:
            raise XMLSyntaxError(
                "closing tag </{}> with no open element".format(tag),
                self._offset)
        open_tag, oid = self._stack[-1]
        if open_tag != tag:
            raise XMLSyntaxError(
                "closing tag </{}> does not match <{}>".format(
                    tag, open_tag), self._offset)
        self._stack.pop()
        out.append(end_element(self.stream_id, tag, oid=oid))

    def _pop_tag(self, out: List[Event]) -> None:
        tag, oid = self._stack.pop()
        out.append(end_element(self.stream_id, tag, oid=oid))

    def _flush_text(self, out: List[Event]) -> None:
        if not self._text_parts:
            return
        # Enforced here as well as post-feed so the budget is
        # chunking-independent: a text run larger than the budget trips
        # whether it arrived in one feed or accumulated across many.
        if self.max_token_bytes is not None \
                and self._text_size > self.max_token_bytes:
            raise ResourceLimitError(
                "character data run exceeds the token budget",
                self._offset, "max_token_bytes", self.max_token_bytes,
                self._text_size)
        parts = self._text_parts
        self._text_parts = []
        self._text_size = 0
        # CDATA-section segments are literal; only plain character data
        # gets entity decoding (runs are joined first so an entity split
        # across feed() chunks still decodes).
        text = "".join(
            seg if is_cdata else _decode_entities(seg, self._offset)
            for is_cdata, seg in _merge_runs(parts))
        if not self._stack:
            if text.strip():
                raise XMLSyntaxError(
                    "character data outside the root element", self._offset)
            return
        if not self.keep_whitespace and not text.strip():
            return
        out.append(cdata(self.stream_id, text, oid=self._take_oid()))

    def _take_oid(self) -> Optional[int]:
        if not self.emit_oids:
            return None
        oid = self._next_oid
        self._next_oid += 1
        return oid


def _merge_runs(parts: List[Tuple[bool, str]]) -> List[Tuple[bool, str]]:
    """Coalesce adjacent segments of the same kind (cdata vs plain)."""
    merged: List[Tuple[bool, str]] = []
    for is_cdata, seg in parts:
        if merged and merged[-1][0] == is_cdata:
            merged[-1] = (is_cdata, merged[-1][1] + seg)
        else:
            merged.append((is_cdata, seg))
    return merged


def _split_tag(raw: str, offset: int) -> Tuple[str, List[Tuple[str, str]]]:
    """Split '<tag a="1" b="2"' body into (tag, [(name, value), ...])."""
    raw = raw.strip()
    if not raw:
        return "", []
    m = _TAG_NAME_RE.match(raw)
    tag = m.group()
    i = m.end()
    n = len(raw)
    attrs: List[Tuple[str, str]] = []
    while i < n:
        am = _ATTR_RE.match(raw, i)
        if am is None:
            if raw[i:].isspace():
                break
            # Malformed: re-parse character by character for the exact
            # diagnostic the reference scanner produces.
            _split_attrs_slow(raw, i, tag, attrs, offset)
            break
        name, dq, sq = am.groups()
        attrs.append((name.strip(),
                      _decode_entities(dq if dq is not None else sq, offset)))
        i = am.end()
    return tag, attrs


def _split_attrs_slow(raw: str, i: int, tag: str,
                      attrs: List[Tuple[str, str]], offset: int) -> None:
    """Character-level attribute parse (error cases and oddities only)."""
    n = len(raw)
    while i < n:
        while i < n and raw[i].isspace():
            i += 1
        if i >= n:
            break
        eq = raw.find("=", i)
        if eq < 0:
            raise XMLSyntaxError(
                "malformed attribute in <{}>".format(tag), offset)
        name = raw[i:eq].strip()
        j = eq + 1
        while j < n and raw[j].isspace():
            j += 1
        if j >= n or raw[j] not in "\"'":
            raise XMLSyntaxError(
                "unquoted attribute value in <{}>".format(tag), offset)
        quote = raw[j]
        end = raw.find(quote, j + 1)
        if end < 0:
            raise XMLSyntaxError(
                "unterminated attribute value in <{}>".format(tag), offset)
        attrs.append((name, _decode_entities(raw[j + 1:end], offset)))
        i = end + 1


def _decode_entities(text: str, offset: int) -> str:
    if "&" not in text:
        return text
    out: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        amp = text.find("&", i)
        if amp < 0:
            out.append(text[i:])
            break
        out.append(text[i:amp])
        semi = text.find(";", amp + 1)
        if semi < 0 or semi - amp > 10:
            raise XMLSyntaxError("unterminated entity reference", offset)
        name = text[amp + 1:semi]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLSyntaxError(
                "unknown entity &{};".format(name), offset)
        i = semi + 1
    return "".join(out)


def tokenize(text: str, stream_id: int = 0, emit_oids: bool = False,
             keep_whitespace: bool = False,
             **limits: Any) -> List[Event]:
    """Tokenize a complete XML document into a list of events.

    ``limits`` (``max_depth`` / ``max_token_bytes`` / ``max_attrs``)
    pass through to :class:`XMLTokenizer`.
    """
    tok = XMLTokenizer(stream_id=stream_id, emit_oids=emit_oids,
                       keep_whitespace=keep_whitespace, **limits)
    return tok.feed(text) + tok.close()


def iter_tokenize(chunks: Iterable[str], stream_id: int = 0,
                  emit_oids: bool = False,
                  keep_whitespace: bool = False,
                  **limits: Any) -> Iterator[Event]:
    """Tokenize XML arriving in chunks, yielding events incrementally."""
    tok = XMLTokenizer(stream_id=stream_id, emit_oids=emit_oids,
                       keep_whitespace=keep_whitespace, **limits)
    for chunk in chunks:
        yield from tok.feed(chunk)
    yield from tok.close()
