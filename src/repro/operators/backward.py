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
                            hide as hide_event, show as show_event,
                            start_mutable)
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy

_FIRST_UPDATE = int(SM)


class AncestorJoin(StateTransformer):
    """Join candidate ancestors (cloned+expanded) with incoming results."""

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
        self.depth = 0
        self.nid: Optional[int] = None
        self.outcome = 0
        # Source-position registers, shared across candidates (not cloned):
        self.right_end_oid: Optional[int] = None
        self.right_end_region: Optional[int] = None
        #: Open-element depth of the incoming stream, per region: the
        #: copies of nested incoming matches arrive interleaved (the
        #: outer one live, each inner one in its insert-before region),
        #: and each is a top-level item of its own.
        self.incoming_depth: Dict[Optional[int], int] = {}

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        if stream_id == self.incoming_id:
            # The incoming stream feeds only the shared source-position
            # registers; per-region state copies would clobber interleaved
            # candidate progress when the bracket commits.
            return UpdatePolicy.SHARED
        return UpdatePolicy.TRANSLATE

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(
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
        # Backward axes correlate distant parts of the document through
        # oid registers — no forward path argument covers them.
        facts["projection"] = {"kind": "opaque", "note": "backward axis"}
        facts["reads"] = {"kind": "join", "candidates": self.clone_id,
                          "direct_only": self.direct_only}
        return facts

    def type_facts(self) -> dict:
        # Output elements come from the candidate (clone) side; nothing
        # can match when the incoming result side is provably empty.
        return {"kind": "join", "keep": 0, "requires": 1}

    def get_state(self) -> State:
        return (self.depth, self.nid, self.outcome)

    def set_state(self, state: State) -> None:
        self.depth, self.nid, self.outcome = state

    def bracket_anchor(self) -> int:
        return self.nid if self.nid is not None else self.output_id

    # -- event handling ---------------------------------------------------------

    def process(self, e: Event) -> List[Event]:
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
        out: List[Event] = []
        if kind == SE:
            if self.depth == 0:
                self.nid = self.ctx.fresh_id()
                self.outcome = 0
                out.append(start_mutable(self.output_id, self.nid))
            self.depth += 1
            out.append(e.relabel(self.nid))
            return out
        if kind == EE:
            if self.nid is None:
                return []  # stray close outside any candidate
            self.depth -= 1
            out.append(e.relabel(self.nid))
            if (e.oid is not None and e.oid == self.right_end_oid
                    and self.depth >= 1
                    and (not self.direct_only or self.depth == 1)):
                # depth >= 1: the result element closed strictly inside
                # the candidate (ancestor excludes self, per XPath).
                self.outcome += 1
            if self.depth == 0:
                nid = self.nid
                self.nid = None
                out.append(end_mutable(self.output_id, nid))
                if self.outcome == 0:
                    out.append(hide_event(nid))
                if self.freeze_decisions:
                    # Matches can only occur inside the candidate's span;
                    # with no incoming updates the outcome is final here
                    # (set freeze_decisions=False for mutable sources).
                    out.append(freeze_event(nid))
            return out
        if kind == CD:
            if self.nid is None:
                return []  # stray top-level text is never an ancestor
            return [e.relabel(self.nid)]
        return [e.relabel(self.output_id)]  # sS/eS/sT/eT

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
    def _visible(state: State) -> bool:
        return state[2] > 0

    def adjust(self, state: State, s1: State, s2: State) -> State:
        if state[1] != s1[1] or state[1] is None:
            return state
        depth, nid, outcome = state
        return (depth, nid, outcome + (s2[2] - s1[2]))

    def on_transition(self, uid: int, s1: State, s2: State) -> List[Event]:
        nid = s2[1]
        if nid is None or s1[1] != nid:
            return []
        was, now = self._visible(s1), self._visible(s2)
        if was == now:
            return []
        return [show_event(nid)] if now else [hide_event(nid)]
