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
from .functions import (CompareLiteral, ContainsLiteral, ExistsFlag,
                        compare_values)

_STRUCTURAL = (SS, ES, ST, ET)

#: Predicate scopes: per top-level element (XPath predicate) or per FLWOR
#: tuple (where clause).
SCOPE_ITEM = "item"
SCOPE_TUPLE = "tuple"


class InlinePipeline:
    """A chain of inert transformers evaluated inside another operator.

    The owner feeds it plain events relabeled to ``input_id``; events the
    chain emits on ``output_id`` are returned.  The combined stage states
    are exposed for the owner's get_state/set_state, so region-state
    copying by the update wrapper extends into the condition evaluation.
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
        self.initial = self.get_state()

    def feed(self, e: Event) -> List[Event]:
        batch = [e]
        for stage in self.stages:
            nxt: List[Event] = []
            ids = stage.input_ids
            for ev in batch:
                if ev.id in ids:
                    nxt.extend(stage.process(ev))
                else:
                    nxt.extend(stage.on_other(ev))
            if not nxt:
                return []
            batch = nxt
        return [ev for ev in batch if ev.id == self.output_id]

    def feed_input(self, e: Event) -> List[Event]:
        """Feed one event already known to be the chain's input.

        Equivalent to ``feed(e.relabel(self.input_id))`` without allocating
        the relabeled copy: the first stage processes ``e`` directly (none
        of the navigation operators read ``e.id``), and later stages pass
        foreign events through unchanged (the ``passes_foreign`` contract
        checked at construction).
        """
        batch = self.stages[0].process(e)
        if not batch:
            return []
        for stage in self._tail:
            ids = stage.input_ids
            nxt: List[Event] = []
            for ev in batch:
                if ev.id in ids:
                    nxt.extend(stage.process(ev))
                else:
                    nxt.append(ev)
            if not nxt:
                return []
            batch = nxt
        out = self.output_id
        return [ev for ev in batch if ev.id == out]

    def get_state(self) -> Tuple:
        # tuple([listcomp]) beats tuple(genexpr) in CPython; this runs on
        # every wrapper state-residency switch.
        return tuple([stage.get_state() for stage in self.stages])

    def set_state(self, state: Tuple) -> None:
        for stage, s in zip(self.stages, state):
            stage.set_state(s)

    def reset(self) -> None:
        self.set_state(self.initial)


class FusedCondition:
    """The common condition shapes collapsed into one flat state machine.

    ``[ChildStep(tag) -> StringValue -> CompareLiteral/ContainsLiteral]``
    and ``[ChildStep(tag) -> ExistsFlag]`` cover every benchmark condition
    (``[location="Albania"]``, ``contains(author, "Smith")``, ...).  Run
    as three chained transformers they rebuild three nested state tuples
    on every wrapper residency switch and cross two call layers per item
    event; fused, the state is one flat ``(depth, collecting, parts)``
    triple and an item event is a single call.

    Event-for-event equivalent to the unfused chain: the flag cD is
    emitted while processing the matching child's end tag (where
    StringValue completes the string value) — or its start tag for the
    existence test (where ExistsFlag fires) — so the predicate reads the
    same ``region_mutable`` fixedness context in both forms.  Structural
    events (sS/eS/sT/eT) are dropped rather than relabeled through: the
    predicate's F2 only reads cD flags.
    """

    __slots__ = ("stages", "input_id", "output_id", "tag", "test",
                 "exists", "depth", "collecting", "parts", "initial")

    def __init__(self, stages: Sequence[StateTransformer], input_id: int,
                 output_id: int, tag: Optional[str], test, exists: bool
                 ) -> None:
        self.stages = list(stages)  # the fused chain, kept for inspection
        self.input_id = input_id
        self.output_id = output_id
        self.tag = tag
        self.test = test            # str -> bool (None for exists)
        self.exists = exists
        self.depth = 0
        self.collecting = False
        self.parts: Tuple = ()
        self.initial = (0, False, ())

    def feed_input(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == SE:
            d = self.depth
            self.depth = d + 1
            if d == 1 and not self.collecting and (
                    self.tag is None or e.tag == self.tag):
                self.collecting = True
                self.parts = ()
                if self.exists:
                    return [Event(CD, self.output_id, text="1")]
            return []
        if kind == EE:
            d = self.depth - 1
            self.depth = d
            if self.collecting and d == 1:
                self.collecting = False
                if self.exists:
                    return []
                flag = "1" if self.test("".join(self.parts)) else ""
                return [Event(CD, self.output_id, text=flag)]
            return []
        if kind == CD:
            if self.collecting and not self.exists:
                self.parts = self.parts + (e.text or "",)
            return []
        return []

    def feed(self, e: Event) -> List[Event]:
        if e.id == self.input_id:
            return self.feed_input(e)
        return [e]

    def get_state(self) -> Tuple:
        return (self.depth, self.collecting, self.parts)

    def set_state(self, state: Tuple) -> None:
        self.depth, self.collecting, self.parts = state

    def reset(self) -> None:
        self.depth, self.collecting, self.parts = self.initial

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


class Predicate(StateTransformer):
    """``e1[e2]`` / where-clause over the ``input_id`` forest stream.

    ``condition`` may be a single :class:`InlinePipeline` or a sequence of
    them combined with ``combine`` ("and"/"or") — the engine's boolean
    conditions.  Each conjunct keeps its own (outcome, fixed_true,
    fixed_false) triple; visibility and sealing combine per the operator.
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
        #: Treat every condition value as fixed even when it arrives inside
        #: a generated (already sealed) update region — set by the compiler
        #: when the source embeds no updates, enabling Section V pruning.
        self.assume_fixed = assume_fixed
        # Live state (cloned per region by the wrapper):
        self.depth = 0
        self.nid: Optional[int] = None   # current item's output region
        #: One (outcome, fixed_true, fixed_false) triple per conjunct.
        self.flags: Tuple = tuple((0, False, True)
                                  for _ in self.conditions)
        #: Authoritative end-of-item flags for revocable (unsealed) items:
        #: completed update transitions merge their deltas here, and the
        #: retroactive show/hide decision compares visibility before and
        #: after (an item's visibility may depend on conjuncts that
        #: resolved *after* the updated region closed).  Instance-level
        #: registers, like the backward join's: they evolve with update
        #: arrival order, not with state residency.
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

    # -- state plumbing --------------------------------------------------------

    def get_state(self) -> State:
        conds = self.conditions
        if len(conds) == 1:  # single-conjunct fast path (the common case)
            cs: tuple = (conds[0].get_state(),)
        else:
            cs = tuple([c.get_state() for c in conds])
        return (self.depth, self.nid, self.flags, cs)

    def set_state(self, state: State) -> None:
        self.depth, self.nid, self.flags, cond_states = state
        conds = self.conditions
        if len(conds) == 1:
            conds[0].set_state(cond_states[0])
            return
        for cond, cs in zip(conds, cond_states):
            cond.set_state(cs)

    def bracket_anchor(self) -> int:
        return self.nid if self.nid is not None else self.output_id

    # -- condition intake (the paper's F2, one per conjunct) --------------------

    def _feed_condition(self, e: Event) -> None:
        new_flags = None
        conditions = self.conditions
        for idx in range(len(conditions)):
            outs = conditions[idx].feed_input(e)
            if not outs:
                # No condition output: this conjunct's triple is unchanged,
                # so the flags tuple need not be rebuilt for it.
                continue
            fixed = self.assume_fixed or not self.region_mutable
            if new_flags is None:
                new_flags = list(self.flags)
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
        if new_flags is not None:
            self.flags = tuple(new_flags)

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

    # -- item lifecycle -----------------------------------------------------------

    def _begin_item(self) -> List[Event]:
        self.nid = self.ctx.fresh_id()
        self.flags = tuple((0, False, True) for _ in self.conditions)
        for cond in self.conditions:
            cond.reset()
        return [start_mutable(self.output_id, self.nid)]

    def _end_item(self) -> List[Event]:
        nid = self.nid
        self.nid = None
        out: List[Event] = [end_mutable(self.output_id, nid)]
        if self._sealed_true(self.flags):
            out.append(freeze_event(nid))
        elif self._visible_flags(self.flags):
            self._item_flags[nid] = self.flags  # shown, but revocable
        elif self._sealed_false(self.flags):
            out.append(hide_event(nid))
            out.append(freeze_event(nid))
        else:
            out.append(hide_event(nid))
            self._item_flags[nid] = self.flags
        return out

    # -- the state modifier F1 -------------------------------------------------------

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if self.scope == SCOPE_TUPLE:
            if kind == ST:
                return [e.relabel(self.output_id)] + self._begin_item()
            if kind == ET:
                return self._end_item() + [e.relabel(self.output_id)]
            if kind in (SS, ES):
                return [e.relabel(self.output_id)]
        else:
            if kind in _STRUCTURAL:
                return [e.relabel(self.output_id)]
        out: List[Event] = []
        if kind == SE:
            if self.depth == 0 and self.nid is None:
                out.extend(self._begin_item())
            self.depth += 1
            out.append(e.relabel(self.nid))
            self._feed_condition(e)
            return out
        if kind == EE:
            self.depth -= 1
            out.append(e.relabel(self.nid))
            self._feed_condition(e)
            if self.depth == 0 and self.scope == SCOPE_ITEM:
                out.extend(self._end_item())
            return out
        # cD
        if self.depth == 0 and self.nid is None:
            # A bare top-level text item is a one-event item of its own.
            out.extend(self._begin_item())
            out.append(e.relabel(self.nid))
            self._feed_condition(e)
            out.extend(self._end_item())
            return out
        out.append(e.relabel(self.nid))
        self._feed_condition(e)
        return out

    # -- update adjustment --------------------------------------------------------------

    def _visible(self, state: State) -> bool:
        return self._visible_flags(state[2])

    def adjust(self, state: State, s1: State, s2: State) -> State:
        if state[1] != s1[1] or state[1] is None:
            return state  # different item: the reset decouples outcomes
        depth, nid, flags, cond = state
        # fixed_false merges downward-exactly, upward-conservatively (it
        # only gates sealing, never visibility).
        return (depth, nid, self._merge_delta(flags, s1[2], s2[2]), cond)

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

    def on_transition(self, uid: int, s1: State, s2: State) -> List[Event]:
        nid = s2[1]
        if nid is None or s1[1] != nid:
            return []
        item = self._item_flags.get(nid)
        if item is None:
            # Item still open (the end-of-item decision will see the new
            # state) or already sealed: nothing to retract here.
            return []
        merged = self._merge_delta(item, s1[2], s2[2])
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
