"""Unblocked sorting via insert-after updates (paper Section VI-D).

Naive sorting is blocking and unbounded.  The paper unblocks it: every
incoming item is *inserted at its final position immediately* using an
insert-after update anchored at the region holding the greatest key below
its own.  The result display therefore always shows a sorted list of the
items seen so far, growing as items arrive — the introduction's "each
qualified book is inserted in the right place in the sorted list".

An item's position is only known once its key is seen, which may be
anywhere inside the item, so the operator suspends the item's events in a
queue and releases them the moment the key arrives (the paper's F1/F2
pair).  Sorting stays non-blocking but — as the paper itself notes — keeps
unbounded state: the key-to-region map grows with the number of items.

Items are FLWOR tuples; keys arrive on a separate substream, one cD per
tuple (the compiler extracts them with a tee *before* any where-filter so
every tuple has a key).  The item stream uses the RAW update policy: all
update brackets travel through the queue together with their content, so
upstream revocable predicates compose — a filtered-out item occupies its
sorted slot invisibly (hidden region) and can be shown retroactively.
Re-keying (moving an already-placed item when its key value is updated) is
out of scope, as in the paper.  Tuple markers are preserved inside the
placed regions so per-tuple stages (return construction) compose after
sorting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..events.model import (CD, ES, ET, FREEZE, HIDE, SHOW, SS, ST,
                            UPDATE_ENDS, UPDATE_STARTS, Event,
                            end_insert_after, end_mutable, hide as
                            hide_event, show as show_event,
                            start_insert_after, start_mutable)
from ..core.transformer import Context, Shape, State, StateTransformer
from ..core.wrapper import UpdatePolicy


def sort_key(text: str) -> Tuple:
    """Total order on key strings: numerics first (numerically), then text."""
    try:
        return (0, float(text), "")
    except ValueError:
        return (1, 0.0, text)


class SortState(State):
    """The display-ordered placements ``keys`` (``((key, seq),
    region_id)`` tuples), the placement counter, and the open tuple:
    whether its key was seen, its region ``nid``, the region it goes
    after, and its suspended events."""

    __slots__ = ("keys", "seq", "in_tuple", "found_key", "nid",
                 "cur_anchor", "queue")

    def __init__(self) -> None:
        self.keys: tuple = ()
        self.seq = 0
        self.in_tuple = False
        self.found_key = False
        self.nid: Optional[int] = None
        self.cur_anchor: Optional[int] = None
        self.queue: tuple = ()


class SortTuples(StateTransformer):
    """Order the tuples of ``input_id`` by the key cDs of ``key_id``."""

    inert = False

    def __init__(self, ctx: Context, input_id: int, key_id: int,
                 output_id: int, descending: bool = False) -> None:
        super().__init__(ctx, (input_id, key_id), output_id)
        self.item_id = input_id
        self.key_id = key_id
        self.descending = descending
        #: The empty region emitted at stream start; every insert-after
        #: chain is ultimately anchored here ("position before all items").
        self.anchor_id = ctx.fresh_id()
        self.state = SortState()
        # Brackets that span several tuples (e.g. a predicate region
        # around a whole sequence) cannot survive reordering: the sort
        # dissolves them and mirrors their later hide/show onto every
        # item placed while they were open.
        self._spanning: set = set()
        self._open_spanning: list = []
        self._placed_under: dict = {}  # spanning id -> [placed nids]
        self._tuple_brackets: set = set()  # brackets of the open tuple
        self._seen_brackets: set = set()   # all within-tuple brackets

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.RAW

    def shape(self) -> Shape:
        return Shape("sort", item_input=self.item_id)

    def static_facts(self) -> dict:
        return dict(
            super().static_facts(),
            paper_blocking=True,
            state_class="unbounded",
            generates_updates=("sM", "sA", "hide", "show"),
            brackets=(
                {"kind": "sM", "target": self.output_id,
                 "sub": self.anchor_id, "freeze": "never", "per": "stream"},
                {"kind": "sA", "target": "dynamic", "sub": "dynamic",
                 "freeze": "never", "per": "tuple", "parent": 0},
            ),
            notes="key -> placement map grows with the stream (the "
                  "paper's noted unbounded case); placements stay "
                  "mutable so late items can be inserted between them",
        )

    # -- placement ----------------------------------------------------------

    def _stays_before(self, placed: Tuple, entry: Tuple) -> bool:
        """Does an already-placed (key, seq) sort before the new entry?"""
        if self.descending:
            (pk, ps), (ek, es) = placed, entry
            return pk > ek or (pk == ek and ps < es)
        return placed < entry

    def _place(self, key_text: str) -> List[Event]:
        """Open the item's insert-after region at its sorted position."""
        s = self.state
        s.seq += 1
        entry = (sort_key(key_text), s.seq)
        s.nid = self.ctx.fresh_id()
        anchor = self.anchor_id
        index = 0
        for k, rid in s.keys:
            if self._stays_before(k, entry):
                anchor = rid
                index += 1
            else:
                break
        s.keys = s.keys[:index] + ((entry, s.nid),) + s.keys[index:]
        s.cur_anchor = anchor
        s.found_key = True
        for span in self._open_spanning:
            self._placed_under.setdefault(span, []).append(s.nid)
        out = [start_insert_after(anchor, s.nid)]
        out.extend(self._reissue(ev, relabel) for ev, relabel in s.queue)
        s.queue = ()
        return out

    def _reissue(self, e: Event, relabel: bool) -> Event:
        """Relabel a suspended event into the item's placed region."""
        if e.is_update:
            if e.id == self.item_id or e.id in self._spanning:
                return Event(e.kind, self.state.nid, sub=e.sub)
            return e
        if relabel:
            return e.relabel(self.state.nid)
        return e

    def _enqueue(self, e: Event) -> List[Event]:
        relabel = (not e.is_update
                   and (e.id == self.item_id or e.id in self._spanning))
        s = self.state
        if s.found_key:
            return [self._reissue(e, relabel)]
        s.queue = s.queue + ((e, relabel),)
        return []

    # -- the state modifiers F1 (items) and F2 (keys) --------------------------

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        s = self.state
        # Route by the *logical* stream: region content arrives with its
        # region number, so the wrapper-provided root decides whether an
        # event belongs to the item or the key stream.
        root = self.current_input_root
        if root is None:
            root = e.id
        if e.is_update and root == self.item_id:
            return self._item_update(e)
        if root == self.key_id:
            if (not e.is_update and kind == CD and s.in_tuple
                    and not s.found_key):
                return self._place(e.text or "")
            return []  # key-stream structure and updates: pacing only
        if not e.is_update and root == self.item_id:
            if kind == SS:
                return [Event(SS, out),
                        start_mutable(out, self.anchor_id),
                        end_mutable(out, self.anchor_id)]
            if kind == ES:
                return [Event(ES, out)]
            if kind == ST:
                s.in_tuple = True
                s.found_key = False
                s.queue = ((e, True),)
                self._tuple_brackets = set()
                return []
            if kind == ET:
                s.in_tuple = False
                emitted = [] if s.found_key else self._place("")
                emitted.append(self._reissue(e, True))
                emitted.append(end_insert_after(s.cur_anchor, s.nid))
                s.nid = None
                s.cur_anchor = None
                s.found_key = False
                return emitted
        # Item content: suspend until the key is known, then stream.
        return self._enqueue(e)

    def _item_update(self, e: Event) -> List[Event]:
        """Update events on the item stream (delivered raw).

        Brackets opening *inside* a tuple travel with the tuple through
        the queue; brackets spanning tuples are dissolved and their
        visibility toggles fan out to the items placed under them; late
        updates and toggles addressing the regions of already-placed
        tuples pass straight through (their targets are live downstream).
        """
        kind = e.kind
        in_tuple = self.state.in_tuple
        if kind in UPDATE_STARTS:
            if in_tuple:
                self._seen_brackets.add(e.sub)
                self._tuple_brackets.add(e.sub)
                return self._enqueue(e)
            if e.id in self._seen_brackets:
                # A late update targeting a region that travelled inside
                # an earlier tuple (e.g. a value replacement).
                self._seen_brackets.add(e.sub)
                return [e]
            self._spanning.add(e.sub)
            self._open_spanning.append(e.sub)
            return []
        if kind in UPDATE_ENDS:
            if e.sub in self._spanning:
                if e.sub in self._open_spanning:
                    self._open_spanning.remove(e.sub)
                return []
            if in_tuple and e.sub in self._tuple_brackets:
                return self._enqueue(e)
            return [e]
        # hide / show / freeze
        if e.id in self._spanning:
            placed = self._placed_under.get(e.id, ())
            if kind == HIDE:
                return [hide_event(n) for n in placed]
            if kind == SHOW:
                return [show_event(n) for n in placed]
            # freeze: the bracket is sealed; drop the fan-out bookkeeping.
            self._placed_under.pop(e.id, None)
            self._spanning.discard(e.id)
            return []
        if in_tuple and e.id in self._tuple_brackets:
            return self._enqueue(e)
        if kind == FREEZE:
            self._seen_brackets.discard(e.id)
        # A toggle for a region of an already-placed tuple: pass through
        # (its bracket went downstream with the placed item).
        return [e]

    def __repr__(self) -> str:
        return "SortTuples(items={}, keys={} -> {})".format(
            self.item_id, self.key_id, self.output_id)
