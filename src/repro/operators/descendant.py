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

State: the depth counter and one substream id per open nesting level; no
event is ever buffered.  Generated regions are frozen as soon as they
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
        self.depth = 0
        #: The copy id of every open selected level, outermost first:
        #: ``output_id`` for the outermost (its copy is plain), the id of
        #: its own insert-before region for a nested one.  Ids are
        #: freshly allocated per match (the paper's "new id"): pooled ids
        #: would collide when several update regions are processed
        #: concurrently.
        self.levels: Tuple[int, ...] = ()
        #: The empty region in front of the outermost level, which the
        #: first nested insert-before targets (while a level is open).
        self.anchor: Optional[int] = None
        #: The levels the next child event is copied to, a subsequence of
        #: ``levels``: all of them (the same tuple) when whole levels
        #: are read, else those with a read child of their root open.
        self.targets: Tuple[int, ...] = ()
        #: ``depth`` at each level's root: the level whose root is the
        #: innermost open element is the one that picks its children.
        #: Kept only by a step that picks.
        self.roots: Tuple[int, ...] = ()
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

    def get_state(self) -> State:
        if self._whole:
            return (self.depth, self.levels, self.anchor)
        # Between matches a step that picks holds the paper's state too:
        # a depth and no level.
        if not self.levels:
            return (self.depth, ())
        return (self.depth, self.levels, self.anchor, self.roots,
                self.targets)

    def set_state(self, state: State) -> None:
        if self._whole:
            self.depth, self.levels, self.anchor = state
            self.targets = self.levels
        elif len(state) == 2:
            self.depth, self.levels = state
            self.targets = self.roots = ()
        else:
            (self.depth, self.levels, self.anchor, self.roots,
             self.targets) = state

    def _picked(self, tag: Optional[str]) -> bool:
        """Is the element a read child of the innermost level's root?"""
        roots = self.roots
        return (bool(roots) and roots[-1] == self.depth
                and (self._tags is None or tag in self._tags))

    def _region(self, levels: Tuple[int, ...]) -> int:
        """The region an insert-before of the innermost level targets."""
        return levels[-1] if len(levels) > 1 else self.anchor

    def process(self, e: Event) -> List[Event]:
        # Kind tests ordered by frequency (sE/eE/cD dominate); per-level
        # copies go through Event.relabel, the slot-copying fast path.
        kind = e.kind
        if kind == SE:
            targets = self.targets
            out: List[Event] = \
                [e.relabel(cid) for cid in targets] if targets else []
            if self._pick and self._picked(e.tag):
                cid = self.levels[-1]
                out.append(e.relabel(cid))
                if self._deep:
                    self.targets = targets + (cid,)
            self.depth = depth = self.depth + 1
            if depth >= 2 and (self.tag is None or e.tag == self.tag):
                levels = self.levels
                if not levels:
                    nid = self.output_id
                    self.anchor = anchor = self.ctx.fresh_id()
                    out.extend((start_mutable(nid, anchor),
                                end_mutable(nid, anchor),
                                e.relabel(nid)))
                else:
                    nid = self.ctx.fresh_id()
                    out.extend((start_insert_before(self._region(levels),
                                                    nid),
                                e.relabel(nid)))
                self.levels = levels = levels + (nid,)
                if self._whole:
                    self.targets = levels
                else:
                    self.roots += (depth,)
            return out
        if kind == EE:
            self.depth -= 1
            levels = self.levels
            if not levels:
                return []
            out = []
            targets = self.targets
            if self._closes_top(e):
                copy_id = levels[-1]
                self.levels = levels = levels[:-1]
                if self._whole:
                    self.targets = targets = levels
                else:
                    self.roots = self.roots[:-1]
                out.append(e.relabel(copy_id))
                if levels:
                    out.append(end_insert_before(self._region(levels),
                                                 copy_id))
                    if self.freeze_regions:
                        out.append(freeze(copy_id))
                else:
                    if self.freeze_regions:
                        out.append(freeze(self.anchor))  # seal the anchor
                    self.anchor = None
            if self._pick and self._picked(e.tag):
                if self._deep:
                    self.targets = targets[:-1]
                else:
                    out.append(e.relabel(levels[-1]))
            if targets:
                out.extend(e.relabel(cid) for cid in reversed(targets))
            return out
        if kind == CD:
            targets = self.targets
            return ([e.relabel(cid) for cid in targets]
                    if targets and self._text else [])
        return [e.relabel(self.output_id)]  # sS/eS/sT/eT

    def _closes_top(self, e: Event) -> bool:
        """Does this eE close the innermost open selected level?

        Elements nest LIFO; a closing tag that passes the tag test at depth
        >= 1 necessarily closes the element that opened the top level (any
        deeper matches have already closed), mirroring the sE test.  For
        ``//*`` the level count equals the depth, which double-checks it.
        """
        if self.depth < 1:
            return False
        if self.tag is not None:
            return e.tag == self.tag
        return len(self.levels) == self.depth

    def __repr__(self) -> str:
        return "DescendantStep(//{}: {} -> {})".format(
            self.tag if self.tag is not None else "*",
            self.input_ids[0], self.output_id)
