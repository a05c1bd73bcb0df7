"""Value-level operators: comparisons, contains(), existence flags.

These feed predicate and where-clause conditions.  By convention a
condition stream delivers one top-level cD per evaluated item whose text
is non-empty iff the condition holds (the paper's F2 treats a non-empty
top-level cData as "true") — so a comparison emits ``"1"`` or ``""``.
All of them are inert.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..events.model import CD, EE, ES, ET, SE, SS, ST, Event
from ..core.transformer import Context, State, StateTransformer
from .construct import TupleRegionMixin

_STRUCTURAL = (SS, ES, ST, ET)

#: Comparison operators on (string-value, literal) pairs.  Comparisons are
#: numeric when both sides parse as numbers, else string-based, matching
#: XPath 1.0 general comparison pragmatics for the supported queries.
_OPS: dict = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: _num_cmp(a, b, lambda x, y: x < y),
    "<=": lambda a, b: _num_cmp(a, b, lambda x, y: x <= y),
    ">": lambda a, b: _num_cmp(a, b, lambda x, y: x > y),
    ">=": lambda a, b: _num_cmp(a, b, lambda x, y: x >= y),
}


def _num_cmp(a: str, b: str, op: Callable[[float, float], bool]) -> bool:
    try:
        return op(float(a), float(b))
    except ValueError:
        return op(a, b)  # type: ignore[arg-type]


def compare_values(op: str, left: str, right: str) -> bool:
    """Evaluate one comparison; shared with the naive baseline."""
    if op == "=" or op == "!=":
        try:
            result = float(left) == float(right)
        except ValueError:
            result = left == right
        return result if op == "=" else not result
    return _OPS[op](left, right)


class CompareLiteral(StateTransformer):
    """Emit "1"/"" per incoming top-level cD, comparing with a literal.

    Input: a stream of top-level cD items (e.g. from
    :class:`~repro.operators.axes.StringValue`).  Output: one flag cD per
    item.
    """

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 op: str, literal: str) -> None:
        if op not in _OPS:
            raise ValueError("unsupported comparison {!r}".format(op))
        super().__init__(ctx, (input_id,), output_id)
        self.op = op
        self.literal = literal
        self.depth = 0

    def type_facts(self) -> dict:
        return {"kind": "flag"}

    def get_state(self) -> State:
        return (self.depth,)

    def set_state(self, state: State) -> None:
        (self.depth,) = state

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(self.output_id)]
        if kind == SE:
            self.depth += 1
            return []
        if kind == EE:
            self.depth -= 1
            return []
        if self.depth > 0:
            return []
        flag = "1" if compare_values(self.op, e.text or "",
                                     self.literal) else ""
        return [Event(CD, self.output_id, text=flag)]


class ContainsLiteral(StateTransformer):
    """``contains(x, "lit")`` on top-level cD string values."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 literal: str) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.literal = literal
        self.depth = 0

    def type_facts(self) -> dict:
        return {"kind": "flag"}

    def get_state(self) -> State:
        return (self.depth,)

    def set_state(self, state: State) -> None:
        (self.depth,) = state

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(self.output_id)]
        if kind == SE:
            self.depth += 1
            return []
        if kind == EE:
            self.depth -= 1
            return []
        if self.depth > 0:
            return []
        flag = "1" if self.literal in (e.text or "") else ""
        return [Event(CD, self.output_id, text=flag)]


class ExistsFlag(StateTransformer):
    """Existence test: emit "1" for every top-level item of the input.

    Used for bare-path predicates like ``//item[payment]``: the predicate
    holds when the path produced at least one node.
    """

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.depth = 0

    def type_facts(self) -> dict:
        return {"kind": "flag"}

    def get_state(self) -> State:
        return (self.depth,)

    def set_state(self, state: State) -> None:
        (self.depth,) = state

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(self.output_id)]
        if kind == SE:
            self.depth += 1
            if self.depth == 1:
                return [Event(CD, self.output_id, text="1")]
            return []
        if kind == EE:
            self.depth -= 1
            return []
        if self.depth == 0:
            return [Event(CD, self.output_id, text="1")]
        return []


class LiteralText(TupleRegionMixin, StateTransformer):
    """Emit a constant cD once per tuple of the pacing stream.

    Implements string literals in FLWOR return clauses (e.g. the ``": "``
    of query Q9): for every tuple of the input stream, one literal cD is
    produced in the output substream inside a per-tuple mutable region, so
    that when an upstream where-clause hides the tuple the literal
    disappears with it (see
    :class:`~repro.operators.construct.TupleRegionMixin`).
    """

    inert = False  # visibility hooks; adjust stays the identity

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 text: str, seal: bool = True) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.text = text
        self._init_tuple_region(seal)

    def static_facts(self) -> dict:
        facts = self._tuple_region_facts(
            super().static_facts(),
            "per-tuple literal in a region slaved to the tuple's source "
            "regions (sealed when they all freeze)")
        # "content": pacing comes from the tuple stream itself, so its
        # items must survive projection even when nothing else reads them
        # (a constant-return FLWOR still emits one literal per tuple).
        facts["projection"] = {"kind": "content"}
        facts["reads"] = {"kind": "boundaries"}
        return facts

    def type_facts(self) -> dict:
        # One literal cD per tuple: no tuples, no output.
        return {"kind": "literal"}

    def get_state(self) -> State:
        return self._tuple_region_state()

    def set_state(self, state: State) -> None:
        self._set_tuple_region_state(state)

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == ST:
            opened = self._open_tuple_region()
            return ([e.relabel(self.output_id)] + opened
                    + [Event(CD, self.wid, text=self.text)])
        if kind == ET:
            closing = self._close_tuple_region()
            closing.append(e.relabel(self.output_id))
            return closing
        if kind in (SS, ES):
            return [e.relabel(self.output_id)]
        self._register_content(e)
        return []
