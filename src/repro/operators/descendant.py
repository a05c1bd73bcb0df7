"""Descendant steps ``//*`` and ``//tag`` (paper Section VI-C).

``//*`` over recursive data is unbounded when implemented by buffering:
each inner element must be emitted *before* its enclosing element completes
(the paper generates subelements in postorder).  The update-stream trick
makes it bufferless: every event at nesting level ``d`` is emitted once per
enclosing selected element at the moment it is received, and each nested
match is bracketed by an insert-before update that retroactively moves its
copy ahead of the enclosing copy.

Outermost (level-1) matches are emitted *plain*, preceded by an empty
mutable **anchor region**: should a nested match occur, its insert-before
targets the anchor, landing just before the outer copy.  For non-recursive
``//tag`` no nested match ever occurs, so apart from the (tiny, immediately
frozen) anchors the step degenerates to a plain filter — the paper's
"as efficient as /tag" — and composes transparently with FLWOR machinery.

State (:class:`DescendantState`): the depth counter and one substream id
per open nesting level; no event is ever buffered.  Generated regions are frozen as soon as they
close (Section V), so downstream stages and the display drop their state
immediately; the pooled region ids are re-declared by later siblings.

What a level's copy holds below its root is cut to what the rest of the
plan reads of it (``reads``, assigned by
:func:`repro.analysis.projection.apply_reads`; DESIGN.md section 15).
A level always gets its own root ``sE``/``eE``; below that an event is
copied only inside a child of the root whose tag is read, and ``cD``
only when text is read, so what a copy loses is whole child subtrees and
every depth counter downstream still balances.  Brackets are never cut.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event,
                            end_insert_before, end_mutable, freeze,
                            start_insert_before, start_mutable)
from ..core.transformer import Context, Shape, State, StateTransformer

_STRUCTURAL = (SS, ES, ST, ET)
_new = object.__new__


class DescendantState(State):
    """What a ``//`` step keeps: the paper's depth and open levels.

    ``levels`` holds the copy id of every open selected level, outermost
    first: ``output_id`` for the outermost (its copy is plain), the id of
    its own insert-before region for a nested one.  Ids are freshly
    allocated per match (the paper's "new id"): pooled ids would collide
    when several update regions are processed concurrently.  ``anchor``
    is the empty region in front of the outermost level, which the first
    nested insert-before targets (while a level is open).  ``targets``
    are the levels the next child event is copied to, a subsequence of
    ``levels``: all of them (the same tuple) when whole levels are read,
    else those with a read child of their root open.  ``roots`` is the
    depth at each level's root — the level whose root is the innermost
    open element picks its children — and None for a step that copies
    whole levels.

    ``scoped`` pairs each nested level opened while the step emitted on
    a translated region with that region's id: such a level is a
    container of that region's, every other level is content of
    whichever region is being replayed (not part of the paper's state).
    """

    __slots__ = ("depth", "levels", "anchor", "roots", "targets", "scoped")

    def __init__(self, whole: bool) -> None:
        self.depth = 0
        self.levels: Tuple[int, ...] = ()
        self.anchor: Optional[int] = None
        self.roots: Optional[Tuple[int, ...]] = None if whole else ()
        self.targets: Tuple[int, ...] = ()
        self.scoped: Tuple[Tuple[int, int], ...] = ()

    def copy(self) -> "DescendantState":
        new = _new(DescendantState)
        new.depth = self.depth
        new.levels = self.levels
        new.anchor = self.anchor
        new.roots = self.roots
        new.targets = self.targets
        new.scoped = self.scoped
        return new

    def values(self) -> tuple:
        if self.roots is None:
            return (self.depth, self.levels, self.anchor)
        # Between matches a step that picks holds the paper's state too:
        # a depth and no level.
        if not self.levels:
            return (self.depth, ())
        return (self.depth, self.levels, self.anchor, self.roots,
                self.targets)


class DescendantStep(StateTransformer):
    """``//*`` (``tag=None``) or ``//tag``: proper descendants, postorder.

    The input is a forest stream; for each top-level element the step
    selects every proper descendant (or every descendant with the given
    tag; a match nested in another match counts from its own level).
    Matching the paper, nested results come out in postorder.
    """

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: Optional[str], freeze_regions: bool = True) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag
        self.freeze_regions = freeze_regions
        self.state = DescendantState(whole=True)
        self.reads = None

    @property
    def reads(self):
        """What the plan reads of each output item (None: everything).

        Anything with ``tags`` (child tags read, None for any), ``depth``
        (levels read counting the item root as 1, None for unbounded)
        and ``text``.  A finite depth of 3 or more is applied as
        unbounded and text at depth 2 as text at any depth: both copy
        more than is read, which is always sound.
        """
        return self._reads

    @reads.setter
    def reads(self, reads) -> None:
        self._reads = reads
        tags, depth, text = ((None, None, True) if reads is None else
                             (reads.tags, reads.depth, reads.text))
        self._text = text
        self._tags = tags
        #: A level is a target while a read child of its root is open
        #: (else only for that child's own sE and eE).
        self._deep = depth is None or depth > 2 or text
        #: Any child is read: a level is a target from its root's sE to
        #: its eE, and ``targets`` is ``levels``.
        self._whole = tags is None and self._deep
        #: The children of a level's root are looked at one by one.
        self._pick = not self._whole and depth != 1
        # Set before any event: no level is open.
        self.state.roots = None if self._whole else ()

    def shape(self) -> Shape:
        return Shape("step", axis="descendant", tag=self.tag)

    def static_facts(self) -> dict:
        freeze_mode = "always" if self.freeze_regions else "never"
        return dict(
            super().static_facts(),
            state_class="constant",
            generates_updates=(("sM", "sB", "freeze")
                               if self.freeze_regions else ("sM", "sB")),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": freeze_mode, "per": "match"},
                {"kind": "sB", "target": "dynamic", "sub": "dynamic",
                 "freeze": freeze_mode, "per": "nested", "parent": 0},
            ),
            notes="O(nesting depth) open-level stack; anchors frozen at "
                  "subtree close" if self.freeze_regions else
                  "O(nesting depth) open-level stack",
        )

    def _picked(self, s: DescendantState, tag: Optional[str]) -> bool:
        """Is the element a read child of the innermost level's root?"""
        roots = s.roots
        return (bool(roots) and roots[-1] == s.depth
                and (self._tags is None or tag in self._tags))

    @staticmethod
    def _region(s: DescendantState, levels: Tuple[int, ...]) -> int:
        """The region an insert-before of the innermost level targets."""
        return levels[-1] if len(levels) > 1 else s.anchor

    @staticmethod
    def _on(s: DescendantState, cids, out: int) -> List[int]:
        """Where copies for levels ``cids`` go while the step emits on a
        translated region ``out``: a level opened while emitting on
        ``out`` keeps its id, any other is the region's content."""
        mine = [cid for cid, home in s.scoped if home == out]
        if not mine:
            return [out] * len(cids)
        return [cid if cid in mine else out for cid in cids]

    def process(self, e: Event, out: int) -> List[Event]:
        # Kind tests ordered by frequency (sE/eE/cD dominate); per-level
        # copies go through Event.relabel, the slot-copying fast path.
        kind = e.kind
        s = self.state
        live = out == self.output_id
        if kind == SE:
            targets = s.targets
            if not targets:
                emitted: List[Event] = []
            elif live:
                emitted = [e.relabel(cid) for cid in targets]
            elif s.scoped:
                emitted = [e.relabel(cid) for cid in self._on(s, targets,
                                                               out)]
            else:  # the region's content, once per open level
                emitted = [e.relabel(out) for _ in targets]
            if self._pick and self._picked(s, e.tag):
                cid = s.levels[-1]
                emitted.append(e.relabel(
                    cid if live else self._on(s, (cid,), out)[0]))
                if self._deep:
                    s.targets = targets + (cid,)
            s.depth = depth = s.depth + 1
            if depth >= 2 and (self.tag is None or e.tag == self.tag):
                levels = s.levels
                if not levels:
                    s.anchor = anchor = self.ctx.fresh_id()
                    emitted.extend((start_mutable(out, anchor),
                                    end_mutable(out, anchor),
                                    e.relabel(out)))
                    nid = self.output_id
                else:
                    nid = self.ctx.fresh_id()
                    emitted.extend((start_insert_before(
                        self._region(s, levels), nid), e.relabel(nid)))
                    if not live:
                        s.scoped += ((nid, out),)
                s.levels = levels = levels + (nid,)
                if self._whole:
                    s.targets = levels
                else:
                    s.roots += (depth,)
            return emitted
        if kind == EE:
            s.depth -= 1
            levels = s.levels
            if not levels:
                return []
            emitted = []
            targets = s.targets
            if self._closes_top(s, e):
                copy_id = levels[-1]
                s.levels = levels = levels[:-1]
                if self._whole:
                    s.targets = targets = levels
                else:
                    s.roots = s.roots[:-1]
                if live or copy_id == self.output_id:
                    emitted.append(e.relabel(copy_id if live else out))
                else:
                    emitted.append(e.relabel(self._on(s, (copy_id,),
                                                      out)[0]))
                    if s.scoped and s.scoped[-1][0] == copy_id:
                        s.scoped = s.scoped[:-1]
                if levels:
                    emitted.append(end_insert_before(
                        self._region(s, levels), copy_id))
                    if self.freeze_regions:
                        emitted.append(freeze(copy_id))
                else:
                    if self.freeze_regions:
                        emitted.append(freeze(s.anchor))  # seal the anchor
                    s.anchor = None
            if self._pick and self._picked(s, e.tag):
                if self._deep:
                    s.targets = targets[:-1]
                else:
                    cid = levels[-1]
                    emitted.append(e.relabel(
                        cid if live else self._on(s, (cid,), out)[0]))
            if targets:
                if live:
                    emitted.extend(e.relabel(cid)
                                   for cid in reversed(targets))
                elif s.scoped:
                    emitted.extend(e.relabel(cid) for cid in reversed(
                        self._on(s, targets, out)))
                else:
                    emitted.extend(e.relabel(out) for _ in targets)
            return emitted
        if kind == CD:
            targets = s.targets
            if not targets or not self._text:
                return []
            if live:
                return [e.relabel(cid) for cid in targets]
            if s.scoped:
                return [e.relabel(cid) for cid in self._on(s, targets, out)]
            return [e.relabel(out) for _ in targets]
        return [e.relabel(out)]  # sS/eS/sT/eT

    def _closes_top(self, s: DescendantState, e: Event) -> bool:
        """Does this eE close the innermost open selected level?

        Elements nest LIFO; a closing tag that passes the tag test at depth
        >= 1 necessarily closes the element that opened the top level (any
        deeper matches have already closed), mirroring the sE test.  For
        ``//*`` the level count equals the depth, which double-checks it.
        """
        if s.depth < 1:
            return False
        if self.tag is not None:
            return e.tag == self.tag
        return len(s.levels) == s.depth

    def __repr__(self) -> str:
        return "DescendantStep(//{}: {} -> {})".format(
            self.tag if self.tag is not None else "*",
            self.input_ids[0], self.output_id)
