"""FLWOR machinery: the ``for`` clause's tuple generator.

A FLWOR loop binds its variable to each item of the input sequence; in the
stream representation each binding becomes a *tuple* bracketed by sT/eT
events (paper Section II).  Downstream per-tuple operators (where clauses,
return construction, concatenation, sorting) align on these markers.

:class:`ForTuples` is also the pipeline's **update-structure normalizer**.
Upstream operators (predicates, descendant steps) emit update regions that
may span *several* items — but per-tuple operators reorder, construct and
concatenate tuples individually, so a spanning bracket cannot survive the
tuple boundary.  ForTuples therefore consumes the raw bracket structure
and re-expresses it per tuple:

* every item is wrapped in its own fresh mutable region (``wid``);
* a bracket spanning items is *dissolved*; its later ``hide``/``show``
  fan out to the wids of the items produced under it, and its ``freeze``
  releases them (each wid is sealed once all of its source brackets are);
* a replacement of a spanning region erases the wids produced under the
  old content irrevocably and itemizes the new content in its place;
* brackets opening *inside* an item (field-level mutable regions) are
  retargeted into the item's wid and forwarded, so later value updates
  keep flowing through the generic wrapper machinery downstream.

After this stage the stream contains only per-tuple regions — the
invariant the rest of the FLWOR pipeline relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..events.model import (CD, EE, ES, ET, FREEZE, HIDE, SE, SHOW, SS, ST,
                            UPDATE_ENDS, UPDATE_STARTS, Event, end_tuple,
                            freeze as freeze_event, hide as hide_event,
                            show as show_event, start_mutable, end_mutable,
                            start_tuple)
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy


class _Spanning:
    """Bookkeeping for one dissolved multi-item bracket."""

    __slots__ = ("wids", "open", "hidden")

    def __init__(self) -> None:
        self.wids: List[int] = []
        self.open = True
        self.hidden = False


class ForTuples(StateTransformer):
    """Wrap each top-level item of the input forest in sT/eT markers.

    Existing tuple markers on the input are dropped (re-tupling: a nested
    FLWOR iterating over a tuple stream re-groups by its own items).
    """

    inert = False  # live bracket bookkeeping; adjust stays the identity

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.depth = 0
        self.wid: Optional[int] = None
        #: Dissolved multi-item brackets, by region number (latest wins).
        self._spanning: Dict[int, _Spanning] = {}
        self._open_spanning: List[int] = []
        #: Within-item brackets forwarded downstream (targets stay valid).
        self._forwarded: Set[int] = set()
        #: wid -> spanning sources that must freeze before it seals.
        self._pending_seal: Dict[int, Set[int]] = {}
        self._closed_tuples: Set[int] = set()

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.RAW

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(
            state_class="per-region",
            generates_updates=("sM", "hide", "show", "freeze"),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": "derived", "per": "item"},
            ),
            notes="normalizes update structure per tuple: spanning "
                  "brackets are dissolved (their wids seal when every "
                  "source freezes), within-item brackets are retargeted "
                  "and forwarded",
        )
        # Tuple brackets are driven by item boundaries, which survive any
        # sound projection (spine elements are never pruned).
        facts["projection"] = {"kind": "plumbing"}
        facts["reads"] = {"kind": "items"}
        return facts

    def type_facts(self) -> dict:
        # Re-tuples the forest: item labels pass through unchanged.
        return {"kind": "copy"}

    def get_state(self) -> State:
        return (self.depth, self.wid)

    def set_state(self, state: State) -> None:
        self.depth, self.wid = state

    # -- item lifecycle -------------------------------------------------------

    def _begin_item(self) -> List[Event]:
        self.wid = self.ctx.fresh_id()
        pending = set(self._open_spanning)
        self._pending_seal[self.wid] = pending
        hidden = False
        for x in self._open_spanning:
            span = self._spanning[x]
            span.wids.append(self.wid)
            hidden = hidden or span.hidden
        out = [start_tuple(self.output_id),
               start_mutable(self.output_id, self.wid)]
        if hidden:
            out.append(hide_event(self.wid))
        return out

    def _end_item(self) -> List[Event]:
        wid = self.wid
        self.wid = None
        out = [end_mutable(self.output_id, wid)]
        if not self._pending_seal.get(wid):
            self._pending_seal.pop(wid, None)
            out.append(freeze_event(wid))
        else:
            self._closed_tuples.add(wid)
        out.append(end_tuple(self.output_id))
        return out

    # -- events ------------------------------------------------------------------

    def process(self, e: Event) -> List[Event]:
        if e.is_update:
            return self._update(e)
        if (self.current_region is not None
                and self.current_region in self._forwarded):
            # Content of a forwarded (within-item) bracket keeps its own
            # region number: the bracket was retargeted into the item's
            # region and routes it.  This also covers late replacement
            # content, which must never be itemized as new tuples.
            return [e]
        kind = e.kind
        if kind in (SS, ES):
            return [e.relabel(self.output_id)]
        if kind in (ST, ET):
            return []
        if kind == SE:
            self.depth += 1
            if self.depth == 1:
                return self._begin_item() + [e.relabel(self.wid)]
            return [e.relabel(self.wid)]
        if kind == EE:
            self.depth -= 1
            out = [e.relabel(self.wid)]
            if self.depth == 0:
                out.extend(self._end_item())
            return out
        # cD
        if self.depth == 0:
            return (self._begin_item() + [e.relabel(self.wid)]
                    + self._end_item())
        return [e.relabel(self.wid)]

    # -- update handling -------------------------------------------------------------

    def _update(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind in UPDATE_STARTS:
            return self._update_start(e)
        if kind in UPDATE_ENDS:
            return self._update_end(e)
        # hide / show / freeze
        if e.id in self._spanning:
            return self._toggle_spanning(e)
        if kind == FREEZE:
            # A frozen region is never targeted or fed again (the wrapper
            # stops routing it here), so its membership can go.
            self._forwarded.discard(e.id)
        return [e]  # forwarded (within-item) regions keep their updates

    def _update_start(self, e: Event) -> List[Event]:
        i, j = e.id, e.sub
        if self.depth > 0:
            # A bracket opening inside an item: retarget top-level ones
            # into the item's region and forward.
            self._forwarded.add(j)
            if i in self._forwarded:
                return [e]
            return [Event(e.kind, self.wid, sub=j)]
        if i in self._forwarded:
            # Late update to a forwarded within-item region (e.g. a stock
            # price replacement): flows through untouched.
            self._forwarded.add(j)
            return [e]
        if i in self._spanning:
            # Replacing (or inserting relative to) a spanning region: the
            # new content is itemized under a new spanning record; a
            # replacement erases the items of the old content for good.
            span = _Spanning()
            out: List[Event] = []
            if e.kind.name == "START_REPLACE":
                old = self._spanning[i]
                for wid in old.wids:
                    out.append(hide_event(wid))
                    out.append(freeze_event(wid))
                    self._release_wid(wid)
                old.wids = []
            self._spanning[j] = span
            self._open_spanning.append(j)
            return out
        # A fresh bracket outside any item: it will span items; dissolve.
        self._spanning[j] = _Spanning()
        self._open_spanning.append(j)
        return []

    def _update_end(self, e: Event) -> List[Event]:
        j = e.sub
        if j in self._spanning:
            self._spanning[j].open = False
            if j in self._open_spanning:
                self._open_spanning.remove(j)
            return []
        if j in self._forwarded:
            if self.depth > 0 and e.id not in self._forwarded:
                return [Event(e.kind, self.wid, sub=j)]
            return [e]
        return [e]

    def _toggle_spanning(self, e: Event) -> List[Event]:
        span = self._spanning[e.id]
        out: List[Event] = []
        # Only toggle wids that are still unsealed: a replacement of a
        # sibling spanning bracket may have frozen and released a wid that
        # this span's list still holds, and hide/show after freeze breaks
        # the stream protocol (frozen regions are closed to everything).
        if e.kind == HIDE:
            span.hidden = True
            out.extend(hide_event(w) for w in span.wids
                       if w in self._pending_seal)
        elif e.kind == SHOW:
            span.hidden = False
            out.extend(show_event(w) for w in span.wids
                       if w in self._pending_seal)
        else:  # FREEZE: release the wids this source was holding open
            for wid in span.wids:
                pending = self._pending_seal.get(wid)
                if pending is None:
                    continue
                pending.discard(e.id)
                if not pending and wid in self._closed_tuples:
                    out.append(freeze_event(wid))
                    self._release_wid(wid)
            del self._spanning[e.id]
            if e.id in self._open_spanning:
                self._open_spanning.remove(e.id)
        return out

    def _release_wid(self, wid: int) -> None:
        self._pending_seal.pop(wid, None)
        self._closed_tuples.discard(wid)


class TupleStrip(StateTransformer):
    """Remove tuple markers, turning a tuple stream back into a forest."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)

    def type_facts(self) -> dict:
        return {"kind": "copy"}

    def process(self, e: Event) -> List[Event]:
        if e.kind in (ST, ET):
            return []
        return [e.relabel(self.output_id)]
