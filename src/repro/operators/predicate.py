"""General XPath predicates ``e1[e2]`` and FLWOR where-clauses (§VI-B).

A naive predicate buffers each candidate item until the condition is
known — blocking and unbounded, and hopeless under updates (any item might
become true later).  The paper's operator instead emits every item
*immediately*, wrapped in a mutable region, and controls its visibility
retroactively:

* the item passes optimistically; at its end the operator emits
  ``hide(nid)`` when the condition is (currently) false;
* when the condition's truth is *certain* (derived from fixed content —
  here: content outside any mutable region), the decision is sealed with
  ``freeze(nid)``, which lets every downstream stage and the display drop
  all state for the item — the Section V mutability analysis;
* otherwise an ``outcome`` counter records how many revocable condition
  hits exist, and later updates flip visibility through retroactive
  ``show``/``hide`` events emitted by the adjustment machinery.

The condition pipeline runs *inline*: its (inert) stages are part of the
predicate's own state, so the generic wrapper's per-region state copies
automatically carry the condition evaluation into replacements — an update
to a value the condition reads adjusts ``outcome`` and re-decides
visibility, with no operator-specific update code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event,
                            end_mutable, freeze as freeze_event,
                            hide as hide_event, show as show_event,
                            start_mutable)
from ..core.transformer import Context, Shape, State, StateTransformer
from .axes import ChildStep, StringValue
from .deferral import ItemGate
from .functions import (CompareLiteral, ContainsLiteral, ExistsFlag,
                        compare_values)

_STRUCTURAL = (SS, ES, ST, ET)
_new = object.__new__

#: Predicate scopes: per top-level element (XPath predicate) or per FLWOR
#: tuple (where clause).
SCOPE_ITEM = "item"
SCOPE_TUPLE = "tuple"


class InlineState(State):
    """The states of an :class:`InlinePipeline`'s stages, in order."""

    __slots__ = ("stages",)

    def __init__(self, stages: Tuple[State, ...]) -> None:
        self.stages = stages

    def copy(self) -> "InlineState":
        return InlineState(tuple([s.copy() for s in self.stages]))

    def values(self) -> tuple:
        return tuple([s.values() for s in self.stages])


class InlinePipeline:
    """A chain of inert transformers evaluated inside another operator.

    The owner feeds it plain events of ``input_id`` together with the
    chain's state (an :class:`InlineState`, part of the owner's own);
    events the chain emits on ``output_id`` are returned.  Because the
    state lives in the owner's, the update wrapper's per-region copies
    extend into the condition evaluation.
    """

    def __init__(self, stages: Sequence[StateTransformer], input_id: int,
                 output_id: int) -> None:
        for stage in stages:
            if not stage.inert:
                raise ValueError(
                    "inline condition pipelines must be inert; got {!r}"
                    .format(stage))
            if not stage.passes_foreign:
                raise ValueError(
                    "inline condition stages must pass foreign events "
                    "through unchanged; got {!r}".format(stage))
        self.stages = list(stages)
        self._tail = self.stages[1:]
        self.input_id = input_id
        self.output_id = output_id
        self.initial = InlineState(
            tuple([stage.state.copy() for stage in self.stages]))

    def new_state(self) -> InlineState:
        """The chain's state at the start of an item."""
        return self.initial.copy()

    def feed_input(self, e: Event, st: InlineState) -> List[Event]:
        """Feed one event known to be the chain's input, against ``st``.

        The first stage processes ``e`` as it is (none of the navigation
        operators read ``e.id``), and later stages pass foreign events
        through unchanged (the ``passes_foreign`` contract checked at
        construction).
        """
        first = self.stages[0]
        states = st.stages
        first.state = states[0]
        batch = first.process(e, first.output_id)
        if not batch:
            return []
        for stage, state in zip(self._tail, states[1:]):
            stage.state = state
            ids = stage.input_ids
            nxt: List[Event] = []
            for ev in batch:
                if ev.id in ids:
                    nxt.extend(stage.process(ev, stage.output_id))
                else:
                    nxt.append(ev)
            if not nxt:
                return []
            batch = nxt
        out = self.output_id
        return [ev for ev in batch if ev.id == out]


class ConditionState(State):
    """A :class:`FusedCondition`'s ``(depth, collecting, parts)``."""

    __slots__ = ("depth", "collecting", "parts")

    def __init__(self) -> None:
        self.depth = 0
        self.collecting = False
        self.parts: tuple = ()

    def copy(self) -> "ConditionState":
        new = _new(ConditionState)
        new.depth = self.depth
        new.collecting = self.collecting
        new.parts = self.parts
        return new

    def __eq__(self, other: object) -> bool:
        if type(other) is not ConditionState:
            return NotImplemented
        return (self.depth == other.depth
                and self.collecting == other.collecting
                and self.parts == other.parts)

    __hash__ = None  # type: ignore[assignment]


class FusedCondition:
    """The common condition shapes collapsed into one flat state machine.

    ``[ChildStep(tag) -> StringValue -> CompareLiteral/ContainsLiteral]``
    and ``[ChildStep(tag) -> ExistsFlag]`` cover every benchmark condition
    (``[location="Albania"]``, ``contains(author, "Smith")``, ...).  Run
    as three chained transformers they copy three nested states per
    region and cross two call layers per item event; fused, the state is
    one flat :class:`ConditionState` and an item event is a single call.

    Event-for-event equivalent to the unfused chain: the flag cD is
    emitted while processing the matching child's end tag (where
    StringValue completes the string value) — or its start tag for the
    existence test (where ExistsFlag fires) — so the predicate reads the
    same ``region_mutable`` fixedness context in both forms.  Structural
    events (sS/eS/sT/eT) are dropped rather than relabeled through: the
    predicate's F2 only reads cD flags.
    """

    __slots__ = ("stages", "input_id", "output_id", "tag", "test",
                 "exists")

    def __init__(self, stages: Sequence[StateTransformer], input_id: int,
                 output_id: int, tag: Optional[str], test, exists: bool
                 ) -> None:
        self.stages = list(stages)  # the fused chain, kept for inspection
        self.input_id = input_id
        self.output_id = output_id
        self.tag = tag
        self.test = test            # str -> bool (None for exists)
        self.exists = exists

    @staticmethod
    def new_state() -> ConditionState:
        return ConditionState()

    def feed_input(self, e: Event, st: ConditionState) -> List[Event]:
        kind = e.kind
        if kind == SE:
            d = st.depth
            st.depth = d + 1
            if d == 1 and not st.collecting and (
                    self.tag is None or e.tag == self.tag):
                st.collecting = True
                st.parts = ()
                if self.exists:
                    return [Event(CD, self.output_id, text="1")]
            return []
        if kind == EE:
            d = st.depth - 1
            st.depth = d
            if st.collecting and d == 1:
                st.collecting = False
                if self.exists:
                    return []
                flag = "1" if self.test("".join(st.parts)) else ""
                return [Event(CD, self.output_id, text=flag)]
            return []
        if kind == CD:
            if st.collecting and not self.exists:
                st.parts = st.parts + (e.text or "",)
            return []
        return []

    def __repr__(self) -> str:
        return "FusedCondition(/{}{}, {} -> {})".format(
            self.tag if self.tag is not None else "*",
            " exists" if self.exists else " test",
            self.input_id, self.output_id)


class _CompareTest:
    """Picklable ``str -> bool`` for :class:`FusedCondition`.

    A plain closure would tie the condition (and with it every live
    pipeline that embeds one) to the enclosing frame, making the whole
    run graph unpicklable — which the checkpoint layer
    (:mod:`repro.fault.checkpoint`) depends on.
    """

    __slots__ = ("op", "literal")

    def __init__(self, op: str, literal) -> None:
        self.op = op
        self.literal = literal

    def __call__(self, s: str) -> bool:
        return compare_values(self.op, s, self.literal)


class _ContainsTest:
    """Picklable ``str -> bool`` substring test (see :class:`_CompareTest`)."""

    __slots__ = ("literal",)

    def __init__(self, literal: str) -> None:
        self.literal = literal

    def __call__(self, s: str) -> bool:
        return self.literal in s


def make_condition(stages: Sequence[StateTransformer], input_id: int,
                   output_id: int):
    """Build a condition evaluator, fusing the common shapes.

    Falls back to the generic :class:`InlinePipeline` whenever the stage
    list is not one of the recognized patterns, so arbitrary condition
    paths keep working unchanged.
    """
    stages = list(stages)
    if (stages and type(stages[0]) is ChildStep
            and stages[0].input_ids == (input_id,)):
        child = stages[0]
        if (len(stages) == 3 and type(stages[1]) is StringValue
                and stages[1].input_ids == (child.output_id,)
                and stages[2].input_ids == (stages[1].output_id,)
                and stages[2].output_id == output_id):
            tail = stages[2]
            if type(tail) is CompareLiteral:
                return FusedCondition(
                    stages, input_id, output_id, child.tag,
                    _CompareTest(tail.op, tail.literal), False)
            if type(tail) is ContainsLiteral:
                return FusedCondition(
                    stages, input_id, output_id, child.tag,
                    _ContainsTest(tail.literal), False)
        if (len(stages) == 2 and type(stages[1]) is ExistsFlag
                and stages[1].input_ids == (child.output_id,)
                and stages[1].output_id == output_id):
            return FusedCondition(stages, input_id, output_id, child.tag,
                                  None, True)
    return InlinePipeline(stages, input_id, output_id)


class PredicateState(State):
    """``(depth, nid, flags, conds)``: the element depth, the current
    item's output region, one ``(outcome, fixed_true, fixed_false)``
    triple per conjunct, and each conjunct's condition state.  Not part
    of the paper's state: ``home``, the id the predicate emitted on when
    the item began; ``held``, the item's root while nothing of the item
    is emitted; ``inread``, inside a child whose subtree is read."""

    __slots__ = ("depth", "nid", "flags", "conds", "home", "held", "inread")

    def __init__(self, flags: Tuple, conds: Tuple) -> None:
        self.depth = 0
        self.nid: Optional[int] = None
        self.flags = flags
        self.conds = conds
        self.home: Optional[int] = None
        self.held: Optional[Event] = None
        self.inread = False

    def copy(self) -> "PredicateState":
        new = self.with_flags(self.flags)
        conds = self.conds
        new.conds = ((conds[0].copy(),) if len(conds) == 1
                     else tuple([c.copy() for c in conds]))
        return new

    def values(self) -> tuple:
        return (self.depth, self.nid, self.flags,
                tuple([c.values() for c in self.conds]))

    def __eq__(self, other: object) -> bool:
        # ``values()`` equality, field by field (the wrapper compares
        # states on every commit).
        if type(other) is not PredicateState:
            return NotImplemented
        return (self.nid == other.nid and self.flags == other.flags
                and self.depth == other.depth and self.conds == other.conds)

    __hash__ = None  # type: ignore[assignment]

    def with_flags(self, flags: Tuple) -> "PredicateState":
        """This state with other ``flags``, sharing the condition states
        (what :meth:`Predicate.adjust` returns; the wrapper copies it
        before it is mutated)."""
        new = _new(PredicateState)
        new.depth = self.depth
        new.nid = self.nid
        new.flags = flags
        new.conds = self.conds
        new.home = self.home
        new.held = self.held
        new.inread = self.inread
        return new


class Predicate(ItemGate, StateTransformer):
    """``e1[e2]`` / where-clause over the ``input_id`` forest stream.

    ``condition`` may be a single :class:`InlinePipeline` or a sequence of
    them combined with ``combine`` ("and"/"or") — the engine's boolean
    conditions.  Each conjunct keeps its own (outcome, fixed_true,
    fixed_false) triple; visibility and sealing combine per the operator.
    An item-scope predicate given ``reads`` decides before it emits
    (:mod:`repro.operators.deferral`); a where-clause opens a region
    per tuple, as the paper's.
    """

    inert = False

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 condition, scope: str = SCOPE_ITEM,
                 assume_fixed: bool = False,
                 combine: str = "and") -> None:
        if scope not in (SCOPE_ITEM, SCOPE_TUPLE):
            raise ValueError("unknown predicate scope {!r}".format(scope))
        if combine not in ("and", "or"):
            raise ValueError("unknown combiner {!r}".format(combine))
        super().__init__(ctx, (input_id,), output_id)
        if isinstance(condition, InlinePipeline):
            condition = [condition]
        self.conditions: List[InlinePipeline] = list(condition)
        self.combine = combine
        self.scope = scope
        self.gated = scope == SCOPE_ITEM
        #: Treat every condition value as fixed even when it arrives inside
        #: a generated (already sealed) update region — set by the compiler
        #: when the source embeds no updates, enabling Section V pruning.
        self.assume_fixed = assume_fixed
        self._initial_flags = tuple((0, False, True)
                                    for _ in self.conditions)
        # Live state (one object per region in the wrapper):
        self.state = PredicateState(
            self._initial_flags,
            tuple([c.new_state() for c in self.conditions]))
        self.reads = None
        #: Authoritative end-of-item flags for revocable (unsealed) items:
        #: completed update transitions merge their deltas here, and the
        #: retroactive show/hide decision compares visibility before and
        #: after (an item's visibility may depend on conjuncts that
        #: resolved *after* the updated region closed).  Instance-level
        #: registers, like the backward join's: they evolve with update
        #: arrival order, not with the region whose state is loaded.
        self._item_flags: Dict[int, Tuple] = {}

    def shape(self) -> Shape:
        return Shape("filter", conditions=tuple(self.conditions),
                     combine=self.combine)

    def static_facts(self) -> dict:
        return dict(
            super().static_facts(),
            state_class="constant" if self.assume_fixed else "per-region",
            generates_updates=(("sM", "freeze") if self.assume_fixed
                               else ("sM", "hide", "show", "freeze")),
            brackets=(
                {"kind": "sM", "target": self.output_id, "sub": "dynamic",
                 "freeze": "always" if self.assume_fixed else "conditional",
                 "per": "item"},
            ),
            notes="decisions sealed at item end (fixed source)"
                  if self.assume_fixed else
                  "revocable decisions: per-item flags retained until "
                  "frozen",
        )

    # -- condition intake (the paper's F2, one per conjunct) --------------------

    def _feed_condition(self, e: Event, s: PredicateState) -> bool:
        """Feed ``e`` to every conjunct; True when a flag changed."""
        new_flags = None
        conditions = self.conditions
        conds = s.conds
        for idx in range(len(conditions)):
            outs = conditions[idx].feed_input(e, conds[idx])
            if not outs:
                # No condition output: this conjunct's triple is unchanged,
                # so the flags tuple need not be rebuilt for it.
                continue
            fixed = self.assume_fixed or not self.region_mutable
            if new_flags is None:
                new_flags = list(s.flags)
            outcome, ft, ff = new_flags[idx]
            for out in outs:
                if out.kind != CD:
                    continue
                text = out.text or ""
                ff = ff and text == "" and fixed
                if text != "":
                    if fixed:
                        ft = True
                    else:
                        outcome += 1
            new_flags[idx] = (outcome, ft, ff)
        if new_flags is None:
            return False
        s.flags = tuple(new_flags)
        return True

    # -- decision combination ------------------------------------------------------

    @staticmethod
    def _truth(flag) -> bool:
        outcome, ft, _ = flag
        return ft or outcome > 0

    def _visible_flags(self, flags) -> bool:
        if self.combine == "and":
            return all(self._truth(f) for f in flags)
        return any(self._truth(f) for f in flags)

    def _sealed_true(self, flags) -> bool:
        if self.combine == "and":
            return all(f[1] for f in flags)
        return any(f[1] for f in flags)

    def _sealed_false(self, flags) -> bool:
        if self.combine == "and":
            return any(f[2] for f in flags)
        return all(f[2] for f in flags)

    # -- item lifecycle (see :mod:`repro.operators.deferral`) ----------------------

    def _begin_item(self, e: Event, kind, s: PredicateState,
                    out: int) -> List[Event]:
        s.home = out
        s.flags = self._initial_flags
        s.conds = tuple([c.new_state() for c in self.conditions])
        s.inread = False
        if self._all:   # the root is read: its region opens with it
            s.nid = nid = self.ctx.fresh_id()
            s.held = None
            self.items_region += 1
            emitted = [start_mutable(out, nid), e.relabel(nid)]
        else:
            s.held = e
            emitted = []
        if kind == SE:
            s.depth = 1
        changed = self._feed_condition(e, s)
        if kind != SE:
            # A bare top-level text item is a one-event item of its own.
            return emitted + self._end_item(s, out, None)
        if changed and s.held is not None and self._sealed_true(s.flags):
            return self._plain(s, out)
        return emitted

    def _end_item(self, s: PredicateState, out: int,
                  last: Optional[Event]) -> List[Event]:
        """The decision after the item's last event ``last`` (the root's
        eE; None for a bare text item, which its root is all of, and at
        a tuple's end)."""
        if s.held is not None:
            flags = s.flags
            if self._sealed_true(flags):
                emitted = self._plain(s, out)
                if last is not None:
                    emitted.append(last.relabel(out))
                return emitted
            if not self._visible_flags(flags) and self._sealed_false(flags):
                s.held = None
                self.items_dropped += 1
                return []
            emitted = self._open(s, out)   # revocable: it needs a region
        elif s.nid is None:   # went out plain
            return [] if last is None else [last.relabel(out)]
        else:
            emitted = []
        nid = s.nid
        if last is not None:
            emitted.append(last.relabel(
                nid if out == s.home or out == self.output_id else out))
        s.nid = None
        flags = s.flags
        emitted.append(end_mutable(out, nid))
        if self._sealed_true(flags):
            emitted.append(freeze_event(nid))
        elif self._visible_flags(flags):
            self._item_flags[nid] = flags  # shown, but revocable
        elif self._sealed_false(flags):
            emitted.append(hide_event(nid))
            emitted.append(freeze_event(nid))
        else:
            emitted.append(hide_event(nid))
            self._item_flags[nid] = flags
        return emitted

    # -- the state modifier F1 -------------------------------------------------------

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        s = self.state
        if kind in _STRUCTURAL:
            if self.gated or kind == SS or kind == ES:
                return [e.relabel(out)]
            if kind == ET:
                return self._end_item(s, out, None) + [e.relabel(out)]
            # A where-clause: each tuple in its own region.
            s.home = out
            s.flags = self._initial_flags
            s.conds = tuple([c.new_state() for c in self.conditions])
            s.nid = self.ctx.fresh_id()
            return [e.relabel(out), start_mutable(out, s.nid)]
        if s.depth == 0 and kind != EE and self.gated:
            return self._begin_item(e, kind, s, out)
        if kind == SE:
            s.depth += 1
        elif kind == EE:
            s.depth -= 1
        changed = self._feed_condition(e, s)
        if s.depth == 0 and self.gated:
            return self._end_item(s, out, e)
        if self._all:
            # The region opened with the root (or the tuple): every
            # event is its content, as in the paper's predicate.
            return [e.relabel(
                s.nid if out == s.home or out == self.output_id else out)]
        return self._emit(e, kind, s, out,
                          changed and self._sealed_true(s.flags))

    # -- update adjustment --------------------------------------------------------------

    def _visible(self, state: PredicateState) -> bool:
        return self._visible_flags(state.flags)

    def adjust(self, state: PredicateState, s1: PredicateState,
               s2: PredicateState) -> PredicateState:
        if state.nid != s1.nid or state.nid is None:
            return state  # different item: the reset decouples outcomes
        # fixed_false merges downward-exactly, upward-conservatively (it
        # only gates sealing, never visibility).
        return state.with_flags(
            self._merge_delta(state.flags, s1.flags, s2.flags))

    @staticmethod
    def _merge_delta(flags, f1, f2):
        merged = []
        for f, a, b in zip(flags, f1, f2):
            outcome, ft, ff = f
            outcome += b[0] - a[0]
            ft = ft or (b[1] and not a[1])
            ff = ff and (b[2] or not a[2])
            merged.append((outcome, ft, ff))
        return tuple(merged)

    def on_transition(self, uid: int, s1: PredicateState,
                      s2: PredicateState) -> List[Event]:
        nid = s2.nid
        if nid is None or s1.nid != nid:
            return []
        item = self._item_flags.get(nid)
        if item is None:
            # Item still open (the end-of-item decision will see the new
            # state) or already sealed: nothing to retract here.
            return []
        merged = self._merge_delta(item, s1.flags, s2.flags)
        self._item_flags[nid] = merged
        was, now = self._visible_flags(item), self._visible_flags(merged)
        if was == now:
            return []
        return [show_event(nid)] if now else [hide_event(nid)]

    def __repr__(self) -> str:
        return "Predicate({} x{} {}, scope={}, {} -> {})".format(
            self.conditions[0].stages if self.conditions else [],
            len(self.conditions), self.combine, self.scope,
            self.input_ids[0], self.output_id)
