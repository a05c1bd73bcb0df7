"""Backward axes: ``parent`` and ``ancestor`` steps (paper Section VI-E).

Backward navigation cannot look backwards in a stream, so the source is
cloned before the pipeline (each event duplicated under a second substream
number with shared node identities — :class:`~repro.operators.clone.Tee`
with OIDs).  The cloned branch is expanded by the ``//*``/``//tag`` step,
so every potential ancestor arrives as a complete candidate subtree; the
backward step itself is a special join between the incoming stream and
those candidates:

* ``left_end`` — the latest eE seen in the cloned branch (any depth);
* ``right_end`` — the latest *top-level* eE of the incoming stream;

when the two are the same source node (OID equality), the incoming result
element just closed inside the candidate — the candidate is an ancestor —
and the candidate's ``outcome`` is incremented.  Candidates are emitted
optimistically inside mutable regions and hidden at their end when the
outcome is zero, exactly like a predicate; the same ``adjust``/
``on_transition`` machinery revises decisions under updates.

``left_end``/``right_end`` are source-position registers shared across all
open candidates (the pipeline interleaves the incoming event just before
its clone copies), so they deliberately live *outside* the wrapper-managed
state — see DESIGN.md.  "Top-level" is counted per region of the incoming
stream: when matches nest (``//a`` over recursive data) the inner match's
copy arrives in its own insert-before region in the middle of the outer
one's, and both are items.  (A region *inside* an item — a mutable source
replacing part of a match — is taken for an item too; the join sees no
brackets on this input, so it cannot tell the two apart.)

``parent`` (``/..``) is the same join restricted to matches at candidate
depth 1 (the result element must be a *direct* child of the candidate).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..events.model import (CD, EE, ES, ET, SE, SM, SS, ST, Event,
                            end_mutable, freeze as freeze_event,
                            hide as hide_event, show as show_event)
from ..core.transformer import Context, Shape, State, StateTransformer
from ..core.wrapper import UpdatePolicy
from .deferral import ItemGate

_FIRST_UPDATE = int(SM)


class JoinState(State):
    """The candidate's ``(depth, nid, outcome)``.  Not part of the
    paper's state: ``home``, the id the join emitted on when the
    candidate began; ``held``, its root while nothing of it is emitted;
    ``inread``, inside a child whose subtree is read."""

    __slots__ = ("depth", "nid", "outcome", "home", "held", "inread")

    def __init__(self) -> None:
        self.depth = 0
        self.nid: Optional[int] = None
        self.outcome = 0
        self.home: Optional[int] = None
        self.held: Optional[Event] = None
        self.inread = False

    def values(self) -> tuple:
        return (self.depth, self.nid, self.outcome)


class AncestorJoin(ItemGate, StateTransformer):
    """Join candidate ancestors (cloned+expanded) with incoming results.

    Given ``reads``, a candidate is decided before it is emitted
    (:mod:`repro.operators.deferral`): with ``freeze_decisions`` its
    first match seals it true, and its end without one seals it false.
    """

    inert = False

    def __init__(self, ctx: Context, clone_id: int, incoming_id: int,
                 output_id: int, direct_only: bool = False,
                 freeze_decisions: bool = True) -> None:
        super().__init__(ctx, (clone_id, incoming_id), output_id)
        self.clone_id = clone_id
        self.incoming_id = incoming_id
        self.direct_only = direct_only
        self.freeze_decisions = freeze_decisions
        # Wrapper-managed per-candidate state:
        self.state = JoinState()
        # Source-position registers, shared across candidates (not cloned):
        self.right_end_oid: Optional[int] = None
        self.right_end_region: Optional[int] = None
        #: Open-element depth of the incoming stream, per region: the
        #: copies of nested incoming matches arrive interleaved (the
        #: outer one live, each inner one in its insert-before region),
        #: and each is a top-level item of its own.
        self.incoming_depth: Dict[Optional[int], int] = {}
        self.reads = None

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        if stream_id == self.incoming_id:
            # The incoming stream feeds only the shared source-position
            # registers; per-region state copies would clobber interleaved
            # candidate progress when the bracket commits.
            return UpdatePolicy.SHARED
        return UpdatePolicy.TRANSLATE

    def shape(self) -> Shape:
        # Candidates (input 0) are kept; oid registers tie them to
        # distant parts of the document, which no path argument covers.
        return Shape("join", keep=0, candidates=self.clone_id,
                     direct_only=self.direct_only)

    def static_facts(self) -> dict:
        return dict(
            super().static_facts(),
            state_class="constant" if self.freeze_decisions
            else "per-region",
            generates_updates=(("sM", "hide", "freeze")
                               if self.freeze_decisions
                               else ("sM", "hide", "show")),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": ("always" if self.freeze_decisions
                            else "conditional"),
                 "per": "match"},
            ),
            notes="per-candidate optimistic region; shared source-position "
                  "registers live outside wrapper state",
        )

    # -- event handling ---------------------------------------------------------

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        root = self.current_input_root
        if root is None:
            root = e.id
        if root == self.incoming_id and kind < _FIRST_UPDATE:
            # Incoming branch: feed the shared source-position registers.
            depths = self.incoming_depth
            region = self.current_region
            if kind == SE:
                depths[region] = depths.get(region, 0) + 1
            elif kind == EE:
                depth = depths.get(region, 0) - 1
                if depth:
                    depths[region] = depth
                else:
                    del depths[region]
                    self.right_end_oid = e.oid
                    self.right_end_region = region
            return []
        # Candidate branch.  Kind tests ordered by frequency: candidate
        # subtrees are almost entirely sE/eE/cD; the structural kinds
        # close out the rare case.
        s = self.state
        if kind == SE:
            if s.depth == 0:
                s.home = out
                s.outcome = 0
                s.held = e
                s.inread = False
                s.depth = 1
                return self._open(s, out) if self._all else []
            s.depth += 1
            return self._emit(e, kind, s, out, False)
        if kind == EE:
            if s.depth == 0:
                return []  # stray close outside any candidate
            s.depth -= 1
            sealed = False
            if (e.oid is not None and e.oid == self.right_end_oid
                    and s.depth >= 1
                    and (not self.direct_only or s.depth == 1)):
                # depth >= 1: the result element closed strictly inside
                # the candidate (ancestor excludes self, per XPath).
                s.outcome += 1
                sealed = self.freeze_decisions and s.outcome == 1
            if s.depth:
                return self._emit(e, kind, s, out, sealed)
            return self._end(e, s, out)
        if kind == CD:
            if s.depth == 0:
                return []  # stray top-level text is never an ancestor
            return self._emit(e, kind, s, out, False)
        return [e.relabel(out)]  # sS/eS/sT/eT

    def _end(self, e: Event, s: JoinState, out: int) -> List[Event]:
        """The candidate's root closes: emit what its outcome decides."""
        if s.held is not None:
            if self.freeze_decisions:
                # (A match would have sealed it already.)
                s.held = None
                self.items_dropped += 1
                return []
            emitted = self._open(s, out)
        elif s.nid is None:
            return [e.relabel(out)]
        else:
            emitted = []
        nid = s.nid
        s.nid = None
        emitted.append(e.relabel(
            nid if out == s.home or out == self.output_id else out))
        emitted.append(end_mutable(out, nid))
        if s.outcome == 0:
            emitted.append(hide_event(nid))
        if self.freeze_decisions:
            # Matches can only occur inside the candidate's span; with
            # no incoming updates the outcome is final here (set
            # freeze_decisions=False for mutable sources).
            emitted.append(freeze_event(nid))
        return emitted

    def on_region_hidden(self, uid: int) -> List[Event]:
        # A hidden incoming item must not match candidates that arrive
        # right after it in the cascade (the optimistic eE already set the
        # register).  Retroactive re-matching after show() is out of scope.
        if uid == self.right_end_region:
            self.right_end_oid = None
            self.right_end_region = None
        return []

    # -- adjustment ---------------------------------------------------------------

    @staticmethod
    def _visible(state: JoinState) -> bool:
        return state.outcome > 0

    def adjust(self, state: JoinState, s1: JoinState,
               s2: JoinState) -> JoinState:
        if state.nid != s1.nid or state.nid is None:
            return state
        new = state.copy()
        new.outcome = state.outcome + (s2.outcome - s1.outcome)
        return new

    def on_transition(self, uid: int, s1: JoinState,
                      s2: JoinState) -> List[Event]:
        nid = s2.nid
        if nid is None or s1.nid != nid:
            return []
        was, now = self._visible(s1), self._visible(s2)
        if was == now:
            return []
        return [show_event(nid)] if now else [hide_event(nid)]
