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
from ..core.transformer import Context, State, StateTransformer


class TupleRegionMixin:
    """Per-tuple output region slaved to the input tuple's visibility.

    The operator emits its per-tuple output inside ``sM(out, wid)``; any
    input-side region whose content appears at tuple top level (i.e. a
    where-clause's whole-tuple region) is remembered, and its later
    hide/show is mirrored onto ``wid``.
    """

    def _init_tuple_region(self, seal: bool) -> None:
        self.wid: Optional[int] = None
        self.depth = 0
        self._seal = seal  # retained for introspection; sealing follows
        #                    the source regions' own freezes
        self._region_to_wid: Dict[int, int] = {}
        self._wid_sources: Dict[int, set] = {}
        self._freeze_on_close = False

    def _tuple_region_state(self) -> State:
        return (self.wid, self.depth)

    def _set_tuple_region_state(self, state: State) -> None:
        self.wid, self.depth = state

    def bracket_anchor(self) -> int:
        return self.wid if self.wid is not None else self.output_id

    def _open_tuple_region(self) -> List[Event]:
        self.wid = self.ctx.fresh_id()
        self.depth = 0
        return [start_mutable(self.output_id, self.wid)]

    def _close_tuple_region(self) -> List[Event]:
        wid = self.wid
        self.wid = None
        out = [end_mutable(self.output_id, wid)]
        if self._freeze_on_close:
            self._freeze_on_close = False
            out.append(freeze_event(wid))
        return out

    def _register_content(self, e: Event) -> None:
        """Track element depth; link enclosing input regions to wid.

        The wrapper's chain holds the regions that are not yet frozen
        only, so every source registered here can still seal (and is
        dropped from both maps when it does): the maps stay bounded by
        the live regions, and a tuple region is never held open by a
        source that can no longer change.
        """
        if (self.current_region is not None and self.depth == 0
                and self.wid is not None):
            sources = self._wid_sources.setdefault(self.wid, set())
            for region in self.current_region_chain or \
                    (self.current_region,):
                self._region_to_wid[region] = self.wid
                sources.add(region)
        if e.kind == SE:
            self.depth += 1
        elif e.kind == EE:
            self.depth -= 1

    def on_region_hidden(self, uid: int) -> List[Event]:
        wid = self._region_to_wid.get(uid)
        return [hide_event(wid)] if wid is not None else []

    def on_region_shown(self, uid: int) -> List[Event]:
        wid = self._region_to_wid.get(uid)
        return [show_event(wid)] if wid is not None else []

    def _tuple_region_facts(self, base: dict, notes: str) -> dict:
        base.update(
            state_class="per-region",
            generates_updates=("sM", "hide", "show", "freeze"),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": "derived", "per": "tuple"},
            ),
            notes=notes,
        )
        return base

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
        if wid == self.wid:
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

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts["reads"] = {"kind": "wrap"}
        return facts

    def type_facts(self) -> dict:
        # Emits its wrapper element at stream start regardless of input:
        # the output is never empty.
        return {"kind": "construct", "tag": self.tag, "always": True}

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        out = self.output_id
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

    def static_facts(self) -> dict:
        facts = self._tuple_region_facts(
            super().static_facts(),
            "per-tuple wrapper element in a region slaved to the tuple's "
            "source regions (sealed when they all freeze)")
        facts["projection"] = {"kind": "plumbing"}
        facts["reads"] = {"kind": "wrap"}
        return facts

    def type_facts(self) -> dict:
        # One wrapper element per tuple: no tuples, no output.
        return {"kind": "construct", "tag": self.tag, "always": False}

    def get_state(self) -> State:
        return self._tuple_region_state()

    def set_state(self, state: State) -> None:
        self._set_tuple_region_state(state)

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        out = self.output_id
        if kind in (SS, ES):
            return [e.relabel(out)]
        if kind == ST:
            opened = self._open_tuple_region()
            return ([e.relabel(out)] + opened
                    + [Event(SE, self.wid, tag=self.tag)])
        if kind == ET:
            closing = [Event(EE, self.wid, tag=self.tag)]
            closing.extend(self._close_tuple_region())
            closing.append(e.relabel(out))
            return closing
        self._register_content(e)
        if self.wid is None:
            return [e.relabel(out)]
        return [e.relabel(self.wid)]
