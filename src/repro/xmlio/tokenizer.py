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

if TYPE_CHECKING:  # annotations only: no analysis import at runtime
    from ..analysis.projection import ProjectionMatcher
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
_SKIP = 6         # inside a projection-pruned subtree: raw scan, no events

# Sub-modes of the _SKIP scan (the same construct machine, event-free).
_SK_TEXT = 0
_SK_COMMENT = 1
_SK_CDATA = 2
_SK_PI = 3
_SK_BANG = 4      # DOCTYPE-ish "<!...": scan to '>'

# Projection matcher verdicts (mirrors repro.analysis.projection — kept
# as literals here so the tokenizer never imports the analysis package).
_PRUNE_SKIP = 0
_PRUNE_KEEP = 1
_PRUNE_ACCEPT = 2


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
            With a projection installed the handler only fires for kept
            elements.
        projection: optional :class:`~repro.analysis.projection.\
ProjectionMatcher`.  When a start tag opens a subtree no remaining
            path step can match, the tokenizer drops into a raw
            depth-tracking scan that still verifies tag nesting but never
            materializes events; ``projection_stats`` counts what was
            pruned.  Inside skipped subtrees only tag structure is
            checked — attribute syntax and entity references there go
            unvalidated (they can never influence any query).  Mutually
            exclusive with ``emit_oids`` (skipping would renumber the
            document-order identities backward axes rely on).
        max_depth: maximum open-element nesting depth (pruned subtrees
            included).  A depth bomb raises a structured
            :class:`ResourceLimitError` at the limit instead of growing
            the element stack without bound.  ``None`` (default): off.
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
                 projection: Optional[ProjectionMatcher] = None,
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
        if projection is not None:
            if emit_oids:
                raise ValueError(
                    "projection cannot be combined with emit_oids: "
                    "skipping subtrees would renumber document-order "
                    "oids")
            from ..analysis.projection import ProjectionStats
            self._cursor = projection.cursor()
            self.projection_stats = ProjectionStats()
        else:
            self._cursor = None
            self.projection_stats = None
        #: Optional :class:`~repro.obs.histogram.LogHistogram` recording
        #: per-feed() scan latency.  Installed at the executor level
        #: (like ``projection_stats``) so a shared tokenizer is timed
        #: once regardless of consumer count; None costs one ``is not
        #: None`` test per chunk.
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
        self._keep_depth = 0            # inside an accepted subtree
        self._skip_stack: List[str] = []  # open tags of the pruned subtree
        self._skip_sub = _SK_TEXT
        self._skip_pending = False      # pruned text accumulated
        self._skip_nonws = False        # ... containing non-whitespace

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
        if self.projection_stats is not None:
            self.projection_stats.events_emitted += len(out)
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
        if self.projection_stats is not None:
            self.projection_stats.events_emitted += len(out)
        return out

    def tokenize(self, text: str) -> Iterator[Event]:
        """One-shot convenience: tokenize a complete document."""
        yield from self.feed(text)
        yield from self.close()

    # -- resource guards ---------------------------------------------------

    def _check_depth(self) -> None:
        """Guard one element push against ``max_depth``."""
        depth = len(self._stack) + len(self._skip_stack)
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
            elif self._mode == _SKIP:
                new_pos = self._scan_skip(buf, pos)
                self.projection_stats.bytes_skipped += new_pos - pos
                pos = new_pos
                if self._mode == _SKIP and pos < n:
                    break  # incomplete construct: wait for more input
        self._offset += pos
        self._buf = buf[pos:]

    def _kernel(self, buf: str, pos: int, out: List[Event]) -> int:
        """Emit text-plus-plain-tag tokens inline; return where it stops.

        That is where ``_KERNEL_RE`` fails or a pruned start tag enters
        _SKIP mode.  Text follows :meth:`_flush_text`'s rules, and goes
        through it when it merges with pending parts or is over budget.
        """
        match = _KERNEL_RE.match
        append = out.append
        new = Event.__new__
        sid = self.stream_id
        stack = self._stack
        oids = self.emit_oids
        cursor = self._cursor
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
                if cursor is not None or not stack or stack[-1][0] != etag:
                    self._end_tag(etag, out)
                    continue
                ev = new(Event)
                ev.kind, ev.id, ev.sub, ev.tag, ev.text, ev.oid = \
                    EE, sid, None, etag, None, stack.pop()[1]
                append(ev)
                continue
            if cursor is not None and not self._project_open(
                    tag, closed == "/", pos - m.end(1)):
                if self._mode == _SKIP:
                    return pos
                continue  # a pruned self-closing element
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
            if self._start_tag(raw[:-1], out, nbytes=gt + 1 - pos,
                               selfclosing=True):
                self._pop_tag(out)
        else:
            self._start_tag(raw, out, nbytes=gt + 1 - pos)
        if self._mode != _SKIP:
            self._mode = _TEXT
        return gt + 1

    # -- element handling ----------------------------------------------------

    def _start_tag(self, raw: str, out: List[Event], nbytes: int = 0,
                   selfclosing: bool = False) -> bool:
        """Handle a start tag body; returns False when projected away."""
        tag, attrs = _split_tag(raw, self._offset)
        if not tag:
            raise XMLSyntaxError("empty tag name", self._offset)
        if self.max_attrs is not None and len(attrs) > self.max_attrs:
            raise ResourceLimitError(
                "element <{}> exceeds the attribute limit".format(tag),
                self._offset, "max_attrs", self.max_attrs, len(attrs))
        if self._cursor is not None and \
                not self._project_open(tag, selfclosing, nbytes):
            return False
        if self.attribute_handler is not None:
            for name, value in attrs:
                self.attribute_handler(tag, name, value)
        oid = self._take_oid()
        if self.max_depth is not None:
            self._check_depth()
        self._stack.append((tag, oid))
        out.append(start_element(self.stream_id, tag, oid=oid))
        return True

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
        if self._cursor is not None:
            if self._keep_depth:
                self._keep_depth -= 1
            else:
                self._cursor.leave()
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

    # -- projection (subtree skipping) ---------------------------------------

    def _project_open(self, tag: str, selfclosing: bool,
                      nbytes: int) -> bool:
        """Consult the projection matcher for an opening tag.

        Returns True when the element is kept (the caller emits it
        normally), False when it is pruned — in which case the tokenizer
        either consumed a self-closing element in place or switched to
        the raw _SKIP scan for the whole subtree.
        """
        if self._keep_depth:
            # Inside an accepted subtree: everything is kept verbatim and
            # the cursor is not consulted (only the depth is tracked).
            if not selfclosing:
                self._keep_depth += 1
            return True
        verdict = self._cursor.enter(tag)
        if verdict == _PRUNE_KEEP:
            if selfclosing:
                self._cursor.leave()
            return True
        if verdict == _PRUNE_ACCEPT:
            if not selfclosing:
                self._keep_depth = 1
            return True
        # SKIP: the subtree is provably irrelevant to every query.
        stats = self.projection_stats
        stats.bytes_skipped += nbytes
        if selfclosing:
            stats.events_pruned += 2  # the sE/eE pair
            stats.subtrees_skipped += 1
        else:
            stats.events_pruned += 1  # the sE; the eE counts on close
            if self.max_depth is not None:
                self._check_depth()
            self._skip_stack.append(tag)
            self._skip_sub = _SK_TEXT
            self._mode = _SKIP
        return False

    def _scan_skip(self, buf: str, pos: int) -> int:
        """Raw depth-tracking scan inside a pruned subtree.

        Verifies tag nesting and construct well-formedness but emits no
        events; counts what would have been emitted.  Returns the new
        position; leaves ``self._mode`` at _SKIP when more input is
        needed mid-construct, or back at _TEXT once the pruned subtree's
        matching end tag has been consumed.
        """
        n = len(buf)
        stats = self.projection_stats
        while pos < n:
            sub = self._skip_sub
            if sub == _SK_TEXT:
                lt = buf.find("<", pos)
                if lt < 0:
                    self._skip_note_text(buf[pos:])
                    return n
                if lt > pos:
                    self._skip_note_text(buf[pos:lt])
                pos = lt
                if pos + 1 >= n:
                    return pos  # lone '<' at the buffer end
                c = buf[pos + 1]
                if c == "/":
                    gt = buf.find(">", pos)
                    if gt < 0:
                        return pos
                    self._skip_close(buf[pos + 2:gt].strip())
                    pos = gt + 1
                    if self._mode != _SKIP:
                        return pos
                elif c == "!":
                    if buf.startswith("<!--", pos):
                        self._skip_flush_text()
                        self._skip_sub = _SK_COMMENT
                        pos += 4
                    elif buf.startswith("<![CDATA[", pos):
                        self._skip_sub = _SK_CDATA
                        pos += 9
                    elif n - pos < 9:
                        return pos  # cannot classify "<!..." yet
                    else:
                        self._skip_flush_text()
                        self._skip_sub = _SK_BANG
                        pos += 2
                elif c == "?":
                    self._skip_flush_text()
                    self._skip_sub = _SK_PI
                    pos += 2
                else:
                    gt = buf.find(">", pos)
                    if gt < 0:
                        return pos
                    raw = buf[pos + 1:gt].strip()
                    self._skip_flush_text()
                    selfclosing = raw.endswith("/")
                    if selfclosing:
                        raw = raw[:-1].strip()
                    tag = raw.split(None, 1)[0] if raw else ""
                    if not tag:
                        raise XMLSyntaxError("empty tag name", self._offset)
                    if selfclosing:
                        stats.events_pruned += 2
                    else:
                        stats.events_pruned += 1
                        if self.max_depth is not None:
                            self._check_depth()
                        self._skip_stack.append(tag)
                    pos = gt + 1
            elif sub == _SK_COMMENT:
                end = buf.find("-->", pos)
                if end < 0:
                    return max(pos, n - 2)
                pos = end + 3
                self._skip_sub = _SK_TEXT
            elif sub == _SK_CDATA:
                end = buf.find("]]>", pos)
                if end < 0:
                    if n - 2 > pos:
                        self._skip_note_text(buf[pos:n - 2], cdata=True)
                    return max(pos, n - 2)
                self._skip_note_text(buf[pos:end], cdata=True)
                pos = end + 3
                self._skip_sub = _SK_TEXT
            elif sub == _SK_PI:
                end = buf.find("?>", pos)
                if end < 0:
                    return max(pos, n - 1)
                pos = end + 2
                self._skip_sub = _SK_TEXT
            else:  # _SK_BANG
                end = buf.find(">", pos)
                if end < 0:
                    return n
                pos = end + 1
                self._skip_sub = _SK_TEXT
        return pos

    def _skip_note_text(self, seg: str, cdata: bool = False) -> None:
        """Track pruned character data (counter bookkeeping only)."""
        if seg or cdata:
            self._skip_pending = True
            if seg and not seg.isspace():
                self._skip_nonws = True

    def _skip_flush_text(self) -> None:
        """Count one pruned cD, mirroring the main scanner's flush rule."""
        if self._skip_pending and (self._skip_nonws or self.keep_whitespace):
            self.projection_stats.events_pruned += 1
        self._skip_pending = False
        self._skip_nonws = False

    def _skip_close(self, tag: str) -> None:
        """Consume a closing tag inside the pruned subtree."""
        self._skip_flush_text()
        open_tag = self._skip_stack[-1]
        if open_tag != tag:
            raise XMLSyntaxError(
                "closing tag </{}> does not match <{}>".format(
                    tag, open_tag), self._offset)
        self._skip_stack.pop()
        self.projection_stats.events_pruned += 1
        if not self._skip_stack:
            self.projection_stats.subtrees_skipped += 1
            self._mode = _TEXT


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
             projection: Optional[ProjectionMatcher] = None,
             **limits: Any) -> List[Event]:
    """Tokenize a complete XML document into a list of events.

    ``limits`` (``max_depth`` / ``max_token_bytes`` / ``max_attrs``)
    pass through to :class:`XMLTokenizer`.
    """
    tok = XMLTokenizer(stream_id=stream_id, emit_oids=emit_oids,
                       keep_whitespace=keep_whitespace,
                       projection=projection, **limits)
    return tok.feed(text) + tok.close()


def iter_tokenize(chunks: Iterable[str], stream_id: int = 0,
                  emit_oids: bool = False,
                  keep_whitespace: bool = False,
                  projection: Optional[ProjectionMatcher] = None,
                  **limits: Any) -> Iterator[Event]:
    """Tokenize XML arriving in chunks, yielding events incrementally."""
    tok = XMLTokenizer(stream_id=stream_id, emit_oids=emit_oids,
                       keep_whitespace=keep_whitespace,
                       projection=projection, **limits)
    for chunk in chunks:
        yield from tok.feed(chunk)
    yield from tok.close()
