"""The ``StateTransformer`` contract: state objects, and ``process`` told
where to emit.

* No operator round-trips its state through ``get_state``/``set_state``:
  each one that keeps state holds one :class:`State` object in
  ``self.state``, which the update wrapper swaps by reference; a
  stateless one shares ``NO_STATE``.
* ``process(e, out)`` emits on ``out``, so a hop of region content costs
  one ``Event.relabel`` at most and the wrapper makes none: pinned on
  the ticker.
"""

from __future__ import annotations

import sys

import pytest

from repro import QueryRun, XFlux, operators
from repro.core import Context, Drop, Identity, Relabel, transformer
from repro.core.transformer import (NO_STATE, State, StateTransformer,
                                    StructuralRelay)
from repro.events.model import Event
from repro.operators import (AncestorJoin, ChildStep, CompareLiteral, Concat,
                             ContainsLiteral, CountItems, DescendantStep,
                             ExistsFlag, ForTuples, LiteralText,
                             MinMaxAggregate, NumericAggregate, Predicate,
                             SelfStep, SortTuples, StreamConstruct,
                             StringValue, Tee, TextStep, TupleConstruct,
                             TupleStrip, make_condition)
from tests.helpers import ticker_stream


def _condition(ctx):
    return make_condition([ChildStep(ctx, 10, 11, "q"),
                           ExistsFlag(ctx, 11, 12)], 10, 12)


#: class -> (how to build one, the state class it keeps; None: stateless)
OPERATORS = {
    Identity: (lambda c: Identity(c, (1,), 2), None),
    Relabel: (lambda c: Relabel(c, (1,), 2), None),
    Drop: (lambda c: Drop(c, (1,), 2), None),
    StructuralRelay: (lambda c: StructuralRelay(c, (1,), 2), None),
    SelfStep: (lambda c: SelfStep(c, 1, 2), None),
    Tee: (lambda c: Tee(c, 1, 2), None),
    Concat: (lambda c: Concat(c, 1, 5, 2), None),
    StreamConstruct: (lambda c: StreamConstruct(c, 1, 2, "w"), None),
    TupleStrip: (lambda c: TupleStrip(c, 1, 2), None),
    ChildStep: (lambda c: ChildStep(c, 1, 2, "x"), "ChildState"),
    TextStep: (lambda c: TextStep(c, 1, 2), "DepthState"),
    StringValue: (lambda c: StringValue(c, 1, 2), "TextState"),
    CompareLiteral: (lambda c: CompareLiteral(c, 1, 2, "=", "1"),
                     "DepthState"),
    ContainsLiteral: (lambda c: ContainsLiteral(c, 1, 2, "1"),
                      "DepthState"),
    ExistsFlag: (lambda c: ExistsFlag(c, 1, 2), "DepthState"),
    DescendantStep: (lambda c: DescendantStep(c, 1, 2, "x"),
                     "DescendantState"),
    Predicate: (lambda c: Predicate(c, 1, 2, [_condition(c)]),
                "PredicateState"),
    LiteralText: (lambda c: LiteralText(c, 1, 2, ": "), "TupleRegionState"),
    TupleConstruct: (lambda c: TupleConstruct(c, 1, 2, "w"),
                     "TupleRegionState"),
    ForTuples: (lambda c: ForTuples(c, 1, 2), "ForState"),
    CountItems: (lambda c: CountItems(c, 1, 2), "CountState"),
    NumericAggregate: (lambda c: NumericAggregate(c, 1, 2), "NumericState"),
    MinMaxAggregate: (lambda c: MinMaxAggregate(c, 1, 2), "MinMaxState"),
    AncestorJoin: (lambda c: AncestorJoin(c, 1, 5, 2), "JoinState"),
    SortTuples: (lambda c: SortTuples(c, 1, 5, 2), "SortState"),
}


def _concrete_operators():
    seen, todo = [], [StateTransformer]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ == transformer.__name__ or \
                cls.__module__.startswith(operators.__name__ + "."):
            seen.append(cls)
    return {c for c in seen if c is not StateTransformer}


def test_the_table_lists_every_operator():
    assert _concrete_operators() == set(OPERATORS)


@pytest.mark.parametrize("cls", sorted(OPERATORS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_state_is_one_object(cls):
    for klass in cls.__mro__:
        assert "get_state" not in vars(klass)
        assert "set_state" not in vars(klass)
    make, state_class = OPERATORS[cls]
    t = make(Context())
    if state_class is None:
        assert t.state is NO_STATE
        return
    s = t.state
    assert isinstance(s, State) and type(s).__name__ == state_class
    copy = s.copy()
    assert copy == s and copy is not s
    assert copy.cells() == s.cells()


#: ``Event.relabel`` calls of one pass of ``stream()//quote/price`` over
#: the 400-update ticker: one per stage per passing event.
TICKER_RELABELS = 2340


def test_a_hop_relabels_once_and_the_wrapper_never():
    prefix, updates = ticker_stream(["IBM"] + ["S{:02d}".format(i)
                                               for i in range(1, 8)], 400)
    run = QueryRun(XFlux("stream()//quote/price",
                         mutable_source=True).compile(),
                   sanitize=False, metrics=False, flight=False)
    callers = []
    relabel = Event.relabel

    def counted(self, new_id):
        callers.append(sys._getframe(1).f_code.co_filename)
        return relabel(self, new_id)

    Event.relabel = counted
    try:
        run.feed_all(prefix + [e for update in updates for e in update])
        run.finish()
    finally:
        Event.relabel = relabel
    assert not [f for f in callers if f.endswith("wrapper.py")]
    assert len(callers) == TICKER_RELABELS
