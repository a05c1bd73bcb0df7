"""Element construction: ``<tag>{ e }</tag>``.

Two flavours, matching where a constructor sits in a query:

* :class:`StreamConstruct` wraps the *entire* result sequence of an
  expression in one element — the outer ``<books>{ ... }</books>`` of the
  paper's introduction;
* :class:`TupleConstruct` wraps *each FLWOR tuple's* content in its own
  element — the ``<book>{ $b/title, $b/price }</book>`` inside a return
  clause.

Both are streaming (no buffering): the closing tag is emitted when the
wrapped scope ends.  Tuple markers inside a constructed element are erased
(the construction concatenates the tuple contents).

A constructed per-tuple element is itself emitted inside a mutable region
slaved to the tuple's visibility: when an upstream where-clause hides the
tuple's content region, the constructed wrapper element must disappear
with it (and reappear on a retroactive ``show``).  The same applies to
:class:`~repro.operators.functions.LiteralText` items; both share
:class:`TupleRegionMixin`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..events.model import (EE, ES, ET, SE, SS, ST, Event, end_mutable,
                            freeze as freeze_event, hide as hide_event,
                            show as show_event, start_mutable)
from ..core.transformer import Context, Shape, State, StateTransformer


class TupleRegionState(State):
    """The open tuple's output region ``wid`` (None between tuples), the
    element depth inside it, and ``home``: the id the operator emitted on
    when it opened ``wid`` (not part of the paper's state)."""

    __slots__ = ("wid", "depth", "home")

    def __init__(self) -> None:
        self.wid: Optional[int] = None
        self.depth = 0
        self.home: Optional[int] = None

    def values(self) -> tuple:
        return (self.wid, self.depth)


class TupleRegionMixin:
    """Per-tuple output region slaved to the input tuple's visibility.

    The operator emits its per-tuple output inside ``sM(out, wid)``; any
    input-side region whose content appears at tuple top level (i.e. a
    where-clause's whole-tuple region), or that opens on the input at
    tuple top level with no content at all, is remembered, and its later
    hide/show is mirrored onto ``wid``.
    """

    def _init_tuple_region(self, seal: bool) -> None:
        self.state = TupleRegionState()
        self._seal = seal  # retained for introspection; sealing follows
        #                    the source regions' own freezes
        self._region_to_wid: Dict[int, int] = {}
        self._wid_sources: Dict[int, set] = {}
        self._freeze_on_close = False

    def bracket_anchor(self, uid: int) -> int:
        """Link a region opening on the input at tuple top level to
        ``wid`` even if no content of the tuple ever arrives in it (a
        fixed region is no bracket at all, so ``uid`` can still seal)."""
        s = self.state
        wid = s.wid
        if wid is None:
            return self.output_id
        if s.depth == 0:
            self._region_to_wid[uid] = wid
            self._wid_sources.setdefault(wid, set()).add(uid)
        return wid

    def _open_tuple_region(self, out: int) -> List[Event]:
        s = self.state
        s.wid = self.ctx.fresh_id()
        s.depth = 0
        s.home = out
        return [start_mutable(out, s.wid)]

    def _close_tuple_region(self, out: int) -> List[Event]:
        s = self.state
        wid = s.wid
        s.wid = None
        emitted = [end_mutable(out, wid)]
        if self._freeze_on_close:
            self._freeze_on_close = False
            emitted.append(freeze_event(wid))
        return emitted

    def _register_content(self, e: Event) -> None:
        """Track element depth; link enclosing input regions to wid.

        The wrapper's chain holds the regions that are not yet frozen
        only, so every source registered here can still seal (and is
        dropped from both maps when it does): the maps stay bounded by
        the live regions, and a tuple region is never held open by a
        source that can no longer change.
        """
        s = self.state
        if (self.current_region is not None and s.depth == 0
                and s.wid is not None):
            sources = self._wid_sources.setdefault(s.wid, set())
            for region in self.current_region_chain or \
                    (self.current_region,):
                self._region_to_wid[region] = s.wid
                sources.add(region)
        if e.kind == SE:
            s.depth += 1
        elif e.kind == EE:
            s.depth -= 1

    def on_region_hidden(self, uid: int) -> List[Event]:
        wid = self._region_to_wid.get(uid)
        return [hide_event(wid)] if wid is not None else []

    def on_region_shown(self, uid: int) -> List[Event]:
        wid = self._region_to_wid.get(uid)
        return [show_event(wid)] if wid is not None else []

    def _tuple_region_facts(self, base: dict, notes: str) -> dict:
        return dict(
            base,
            state_class="per-region",
            generates_updates=("sM", "hide", "show", "freeze"),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": "derived", "per": "tuple"},
            ),
            notes=notes,
        )

    def on_region_frozen(self, uid: int) -> List[Event]:
        # The constructed wrapper seals only once *every* source region
        # it is slaved to has sealed (any live source could still hide
        # the tuple).  A freeze arriving while the tuple region is still
        # open is deferred to the region's close.
        wid = self._region_to_wid.pop(uid, None)
        if wid is None:
            return []
        sources = self._wid_sources.get(wid)
        if sources is not None:
            sources.discard(uid)
            if sources:
                return []
            del self._wid_sources[wid]
        if wid == self.state.wid:
            self._freeze_on_close = True
            return []
        return [freeze_event(wid)]


class StreamConstruct(StateTransformer):
    """Wrap the whole input stream in one constructed element."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: str) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag

    def shape(self) -> Shape:
        return Shape("construct", tag=self.tag, per_stream=True)

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        if kind == SS:
            return [Event(SS, out), Event(SE, out, tag=self.tag)]
        if kind == ES:
            return [Event(EE, out, tag=self.tag), Event(ES, out)]
        if kind in (ST, ET):
            return []
        return [e.relabel(out)]


class TupleConstruct(TupleRegionMixin, StateTransformer):
    """Wrap each tuple's content in a constructed element.

    The tuple markers are preserved on the output (the constructed
    elements remain one-per-tuple for downstream sorting/concatenation);
    the element itself lives inside a per-tuple mutable region so upstream
    where-decisions can retract it.
    """

    inert = False  # visibility hooks; adjust stays the identity

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: str, seal: bool = True) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag
        self._init_tuple_region(seal)

    def shape(self) -> Shape:
        return Shape("construct", tag=self.tag)

    def static_facts(self) -> dict:
        return self._tuple_region_facts(
            super().static_facts(),
            "per-tuple wrapper element in a region slaved to the tuple's "
            "source regions (sealed when they all freeze)")

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        if kind in (SS, ES):
            return [e.relabel(out)]
        if kind == ST:
            opened = self._open_tuple_region(out)
            return ([e.relabel(out)] + opened
                    + [Event(SE, self.state.wid, tag=self.tag)])
        if kind == ET:
            closing = [Event(EE, self.state.wid, tag=self.tag)]
            closing.extend(self._close_tuple_region(out))
            closing.append(e.relabel(out))
            return closing
        self._register_content(e)
        s = self.state
        wid = s.wid
        # A tuple opened while emitting elsewhere is this region's
        # content as a whole: its events go on ``out``.
        if wid is None or (out != s.home and out != self.output_id):
            return [e.relabel(out)]
        return [e.relabel(wid)]
