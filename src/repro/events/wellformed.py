"""Well-formedness of event sequences (paper Sections II and III).

A sequence ``v`` is well-formed for stream ``i`` (``v in WF_i``) when the
sE/eE events carried on stream ``i`` are properly nested with matching tags;
events of other streams are irrelevant.  The inductive rules are:

* ``[e] in WF_i`` when ``e.id != i``
* ``[cD(i, t)] in WF_i``
* ``v in WF_i  =>  [sE(i, A)] ++ v ++ [eE(i, A)] in WF_i``
* ``v1, v2 in WF_i  =>  v1 ++ v2 in WF_i``

:func:`is_well_formed` is that membership test.  :class:`BoundaryChecker`
is the one implementation of the whole stream protocol — ``WF_i`` per
substream plus the update-bracket, freeze, hide and show rules of
Section III — and so the producer contract (DESIGN.md section 7).  It
is fed one event at a time and raises a structured
:class:`~repro.events.errors.ProtocolViolation` on the first breach:

* **stream discipline** — ``sS(i)`` at most once per stream number, data
  only on open streams or open update brackets, ``eS`` only with all
  elements and tuples of that substream closed;
* **well-nesting** — ``sE``/``eE`` close LIFO per substream with
  matching tags, ``sT``/``eT`` balance, and an ``eE`` carrying a node
  identity must close the ``sE`` with the same identity (oid
  discipline);
* **bracket discipline** — ``sM/sR/sB/sA`` introduce a fresh (or
  fully-closed) substream number, never one that is an open stream, an
  open bracket, or a frozen region; ``eU`` must match the open bracket's
  kind *and* target; brackets may close non-LIFO (regions interleave by
  design) but never with dangling elements;
* **freeze/hide/show ordering** — freeze and toggles only address known
  region numbers; no data and no toggle ever follows a region's freeze
  (``freeze`` is irrevocable, Section III).

It has two entry points: every stage boundary under the sanitizer
(:mod:`repro.analysis.sanitize`), and the shared input of a
``MultiQueryRun(validate=True)`` (:mod:`repro.core.multiplex`).
"""

from __future__ import annotations

from typing import (Dict, Iterable, List, NoReturn, Optional, Sequence,
                    Set, Tuple)

from .errors import ProtocolViolation
from .model import (CD, EE, ES, ET, FREEZE, HIDE, SE, SHOW, SM, SS, ST,
                    Event, matching_start)

_FIRST_UPDATE = int(SM)


def is_well_formed(v: Sequence[Event], i: int) -> bool:
    """Membership test ``v in WF_i`` exactly as defined in the paper.

    The paper's rules induce: the projection of ``v`` onto stream ``i`` is a
    balanced forest of elements whose leaves are cD events.  A lone sT/eT/sS
    event on stream ``i`` is *not* generated by the rules, so it fails;
    events on other stream numbers are always fine.
    """
    depth_stack: List[str] = []
    for e in v:
        if e.id != i or e.is_update:
            continue
        if e.kind == SE:
            depth_stack.append(e.tag or "")
        elif e.kind == EE:
            if not depth_stack or depth_stack[-1] != (e.tag or ""):
                return False
            depth_stack.pop()
        elif e.kind == CD:
            continue
        else:
            # sS/eS/sT/eT on stream i are not produced by the WF_i rules.
            return False
    return not depth_stack


class BoundaryChecker:
    """Validate one event stream against the protocol, event by event."""

    def __init__(self, label: str,
                 stage_index: Optional[int] = None) -> None:
        self.label = label
        #: Boundary index (0 = source -> stage 0, n = last stage ->
        #: sink); ``None`` for standalone checks.  Carried into every
        #: :class:`~repro.events.errors.ProtocolViolation`.
        self.stage_index = stage_index
        self.count = 0
        self.open_streams: Set[int] = set()
        self.closed_streams: Set[int] = set()
        #: substream id -> stack of (tag, oid) for its open elements.
        self.elems: Dict[int, List[Tuple[Optional[str], Optional[int]]]] \
            = {}
        self.tuples: Dict[int, int] = {}   # substream id -> open tuples
        #: open bracket sub -> the sM/sR/sB/sA event that opened it
        self.open_brackets: Dict[int, Event] = {}
        self.ever_subs: Set[int] = set()
        self.frozen: Set[int] = set()

    # -- error helper -----------------------------------------------------

    def _fail(self, message: str, rule: str, e: Optional[Event],
              stream: Optional[int] = None) -> NoReturn:
        raise ProtocolViolation(message, rule=rule, stage=self.label,
                                event=e, index=self.count, stream=stream,
                                stage_index=self.stage_index)

    def _known(self, i: int) -> bool:
        return i in self.open_streams or i in self.open_brackets

    def _region_known(self, i: int) -> bool:
        return (i in self.ever_subs or i in self.open_streams
                or i in self.closed_streams)

    # -- the checker -------------------------------------------------------

    def feed(self, e: Event) -> None:
        kind = e.kind
        if kind < _FIRST_UPDATE:
            self._data(e, kind)
        elif kind == FREEZE:
            self._freeze(e)
        elif kind in (HIDE, SHOW):
            self._toggle(e)
        elif kind & 1:  # sM/sR/sB/sA (odd kinds >= 7)
            self._bracket_start(e)
        else:
            self._bracket_end(e)
        self.count += 1

    def _data(self, e: Event, kind: int) -> None:
        i = e.id
        if kind == SS:
            if i in self.open_streams:
                self._fail("stream {} opened twice".format(i),
                           "stream-discipline", e, stream=i)
            if i in self.closed_streams:
                self._fail("stream {} reopened after its eS".format(i),
                           "stream-discipline", e, stream=i)
            self.open_streams.add(i)
            return
        if i in self.frozen:
            self._fail("data event on frozen region {}".format(i),
                       "frozen-region-data", e, stream=i)
        if not self._known(i):
            self._fail("event on substream {} which is neither an open "
                       "stream nor an open update bracket".format(i),
                       "stream-discipline", e, stream=i)
        if kind == ES:
            if self.elems.get(i):
                self._fail("eS({}) with {} unclosed element(s)".format(
                    i, len(self.elems[i])), "element-nesting", e,
                    stream=i)
            if self.tuples.get(i):
                self._fail("eS({}) with an open tuple".format(i),
                           "tuple-nesting", e, stream=i)
            self.open_streams.discard(i)
            self.closed_streams.add(i)
        elif kind == ST:
            self.tuples[i] = self.tuples.get(i, 0) + 1
        elif kind == ET:
            if not self.tuples.get(i):
                self._fail("eT({}) without an open tuple".format(i),
                           "tuple-nesting", e, stream=i)
            self.tuples[i] -= 1
        elif kind == SE:
            self.elems.setdefault(i, []).append((e.tag, e.oid))
        elif kind == EE:
            stack = self.elems.get(i)
            if not stack:
                self._fail("eE({}) with no open element".format(i),
                           "element-nesting", e, stream=i)
            tag, oid = stack.pop()
            if tag is not None and e.tag is not None and tag != e.tag:
                self._fail("eE tag {!r} closes sE tag {!r} on substream "
                           "{}".format(e.tag, tag, i), "element-nesting",
                           e, stream=i)
            if oid is not None and e.oid is not None and oid != e.oid:
                self._fail("eE node identity {} closes sE identity {} "
                           "on substream {}".format(e.oid, oid, i),
                           "oid-discipline", e, stream=i)
        # CD: substream membership was the only constraint.

    def _bracket_start(self, e: Event) -> None:
        sub, target = e.sub, e.id
        if sub is None:
            self._fail("update start without a substream number",
                       "bracket-discipline", e)
        if sub in self.open_brackets:
            self._fail("bracket substream {} opened twice".format(sub),
                       "bracket-discipline", e, stream=sub)
        if sub in self.frozen:
            self._fail("bracket reuses frozen region {}".format(sub),
                       "region-reuse-after-freeze", e, stream=sub)
        if sub in self.open_streams:
            self._fail("bracket substream {} clashes with an open "
                       "stream".format(sub), "bracket-discipline", e,
                       stream=sub)
        if self.elems.get(sub):
            self._fail("bracket substream {} reopened with dangling "
                       "elements".format(sub), "element-nesting", e,
                       stream=sub)
        if not self._region_known(target) and target not in self.frozen:
            self._fail("update targets unknown region {}".format(target),
                       "unknown-target", e, stream=target)
        # Updates targeting frozen regions are void but legal
        # (Section V: the consumer ignores them downstream).
        self.open_brackets[sub] = e
        self.ever_subs.add(sub)

    def _bracket_end(self, e: Event) -> None:
        sub = e.sub
        start = self.open_brackets.get(sub) if sub is not None else None
        if start is None:
            self._fail("bracket end for substream {} which has no open "
                       "bracket".format(sub), "bracket-discipline", e,
                       stream=sub)
        if matching_start(e.kind) != start.kind:
            self._fail("{} closes a {} bracket on substream {}".format(
                e.abbrev, start.abbrev, sub), "bracket-discipline", e,
                stream=sub)
        if start.id != e.id:
            self._fail("bracket on substream {} closes with target {} "
                       "but opened with target {}".format(sub, e.id,
                                                          start.id),
                       "bracket-discipline", e, stream=sub)
        if self.elems.get(sub):
            self._fail("bracket {} closes with {} unclosed element(s)"
                       .format(sub, len(self.elems[sub])),
                       "element-nesting", e, stream=sub)
        if self.tuples.get(sub):
            self._fail("bracket {} closes with an open tuple".format(sub),
                       "tuple-nesting", e, stream=sub)
        del self.open_brackets[sub]

    def _freeze(self, e: Event) -> None:
        i = e.id
        if i in self.frozen:
            return  # freeze is idempotent
        if not self._region_known(i):
            self._fail("freeze of unknown region {}".format(i),
                       "unknown-target", e, stream=i)
        if i in self.open_brackets:
            self._fail("freeze of region {} while its bracket is still "
                       "open".format(i), "freeze-ordering", e, stream=i)
        self.frozen.add(i)

    def _toggle(self, e: Event) -> None:
        i = e.id
        if i in self.frozen:
            self._fail("{} of region {} after its freeze".format(
                e.abbrev, i), "toggle-after-freeze", e, stream=i)
        if not self._region_known(i):
            self._fail("{} of unknown region {}".format(e.abbrev, i),
                       "unknown-target", e, stream=i)

    def finish(self) -> None:
        """End-of-stream checks: everything opened must have closed."""
        if self.open_brackets:
            self._fail("update bracket(s) left open at end of stream: "
                       "{}".format(sorted(self.open_brackets)),
                       "bracket-discipline", None,
                       stream=min(self.open_brackets))
        if self.open_streams:
            self._fail("stream(s) never closed: {}".format(
                sorted(self.open_streams)), "stream-discipline", None,
                stream=min(self.open_streams))
        dangling = {i: len(s) for i, s in self.elems.items() if s}
        if dangling:
            self._fail("unclosed elements at end of stream: {}".format(
                dangling), "element-nesting", None,
                stream=min(dangling))


def check_stream(events: Iterable[Event], label: str = "stream",
                 finish: bool = True) -> BoundaryChecker:
    """Run one checker over a complete event sequence."""
    checker = BoundaryChecker(label)
    for e in events:
        checker.feed(e)
    if finish:
        checker.finish()
    return checker
