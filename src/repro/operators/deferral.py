"""Deciding before emitting: the item gate of predicates and ancestor joins.

The paper's predicate emits every candidate item at once inside a
mutable region and retracts it later (``hide``/``freeze``); so does the
backward-axis join.  That region is needed only when an event some
consumer reads arrives while the decision can still go either way.
A stage told what its consumers read of each item (``reads``, from
:func:`repro.analysis.projection.apply_reads`; DESIGN.md section 17):

* holds the item's root ``sE`` in its state and drops every event no
  consumer reads;
* opens the item's region only when a read event arrives, or a bracket
  opens inside the item (the wrapper's :meth:`open_held` hook), while
  the decision is still open;
* emits an item that is sealed true before either happens plainly,
  with no ``sM``/``eM``/``freeze``, and one sealed false never.

With ``reads`` None the root itself counts as read, so the region opens
at the root ``sE``: the paper's eager stream, with no second path.
"""

from __future__ import annotations

from typing import List

from ..events.model import EE, SE, Event, start_mutable


class ItemGate:
    """What an item-scope predicate and an ancestor join share: the
    reads filter, the held root's way out, and the item counters.

    The operator's state carries ``depth`` (open elements of the item,
    its root being 1), ``nid`` (the item's region, once open), ``home``
    (the id the item began on), ``held`` (the root while it is held)
    and ``inread`` (inside a read child whose subtree is read whole).
    """

    #: Whether the stage gates items (a where-clause does not).
    gated = True
    #: The three outcomes of an item, counted per run.
    items_plain = 0
    items_dropped = 0
    items_region = 0

    @property
    def reads(self):
        """What the consumers read of each output item (None: all).

        Anything with ``tags``, ``depth`` and ``text``, as for a ``//``
        step (:class:`~repro.operators.descendant.DescendantStep`); a
        finite depth of 3 or more is applied as unbounded and text at
        depth 2 as text at any depth, which keeps more than is read.
        """
        return self._reads

    @reads.setter
    def reads(self, reads) -> None:
        self._reads = reads
        #: Every event is read: the region opens at the root.
        self._all = reads is None or reads.is_all
        self.defers = not self._all
        if not self._all:
            self._tags = reads.tags
            self._text = reads.text
            self._deep = reads.depth is None or reads.depth > 2 or reads.text

    def _emit(self, e: Event, kind, s, out: int,
              sealed: bool) -> List[Event]:
        """What goes out for ``e``, an event below the item's root
        (``s.depth`` already moved); ``sealed``: the item was just
        decided true for good."""
        if self._all:
            read = True
        else:   # section 15's cut, applied to the item
            d = s.depth
            if kind == SE:
                if d == 2:   # a child of the root
                    read = self._tags is None or e.tag in self._tags
                    s.inread = read and self._deep
                else:
                    read = s.inread
            elif kind == EE:
                if d == 1:
                    s.inread = False
                    read = self._tags is None or e.tag in self._tags
                else:
                    read = s.inread
            elif d == 1:   # text directly in the root
                read = self._tags is None and self._text
            else:
                read = s.inread and self._text
        if s.held is None:
            if not read:
                return []
            nid = s.nid
            if nid is None:   # sealed true: the item goes out plain
                return [e.relabel(out)]
            # An item opened while emitting elsewhere is this region's
            # content as a whole: its events go on ``out``.
            return [e.relabel(
                nid if out == s.home or out == self.output_id else out)]
        if sealed:
            emitted = self._plain(s, out)
            if read:
                emitted.append(e.relabel(out))
            return emitted
        if not read:
            return []
        emitted = self._open(s, out)
        emitted.append(e.relabel(
            s.nid if out == s.home or out == self.output_id else out))
        return emitted

    def _open(self, s, out: int) -> List[Event]:
        """Open the item's region: its ``sM`` and the held root."""
        s.nid = nid = self.ctx.fresh_id()
        root = s.held
        s.held = None
        self.items_region += 1
        return [start_mutable(out, nid), root.relabel(nid)]

    def _plain(self, s, out: int) -> List[Event]:
        """The held item is sealed true: its root goes out plain."""
        root = s.held
        s.held = None
        self.items_plain += 1
        return [root.relabel(out)]

    def holds(self, state) -> bool:
        """Does ``state`` hold an item's root (nothing of it emitted)?"""
        return state.held is not None

    def open_held(self, out: int) -> List[Event]:
        """A bracket opens inside the held item: open its region now and
        return the ``sM`` and the root, to go before the bracket."""
        return self._open(self.state, out)

    def bracket_anchor(self, uid: int) -> int:
        nid = self.state.nid
        return nid if nid is not None else self.output_id

    def item_counts(self) -> dict:
        """How many items went out plain, never, or in a region."""
        return {"plain": self.items_plain, "dropped": self.items_dropped,
                "region": self.items_region}
