"""Unblocked aggregation via replace updates (paper Sections III and IV).

Counting is the paper's running example of a blocking operation with
bounded state: instead of waiting for the end of the stream, the operator
emits a mutable region holding ``0`` at stream start and replaces its
content with the new total every time it changes.  The state adjustment
(Section IV) is ``count <- count + (s2.count - s1.count)``; when an update
propagating through the pipeline changes the live total retroactively, the
operator re-emits a corrected replace update (``on_live_adjusted``).

The same machinery supports ``sum``/``avg`` with (total, n) deltas, and
``min``/``max`` with a value-multiset state (a value -> count register):
retracting a value must be able to dethrone the current extremum, which a
scalar state cannot express.  The register costs O(distinct values) —
an extension beyond the paper, which only demonstrates counting.
"""

from __future__ import annotations

from typing import List, Optional

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event, cdata,
                            end_mutable, end_replace, start_mutable,
                            start_replace)
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy

_STRUCTURAL = (ST, ET)


def _aggregate_facts(agg: StateTransformer, state_class: str,
                     notes: str) -> dict:
    """Shared static facts of the continuously-replaced aggregates.

    Every aggregate shows its answer as one mutable region opened at
    stream start and replaced in place on each change; neither the region
    nor its replace substream is ever frozen (the answer stays revocable
    for the whole run).
    """
    facts = StateTransformer.static_facts(agg)
    facts.update(
        paper_blocking=True,
        state_class=state_class,
        generates_updates=("sM", "sR"),
        brackets=(
            {"kind": "sM", "target": agg.output_id, "sub": agg.region_id,
             "freeze": "never", "per": "stream"},
            {"kind": "sR", "target": agg.region_id, "sub": agg.replace_id,
             "freeze": "never", "per": "item"},
        ),
        notes=notes,
    )
    # Aggregates read their input items (boundaries and, for numeric
    # aggregates, text) — keep the consumed subtrees whole.
    facts["projection"] = {"kind": "content"}
    return facts


class CountItems(StateTransformer):
    """``count(e)``: continuously displayed count of top-level items.

    Counts the top-level items of the input forest (elements and bare
    top-level cD events).  Non-inert; adjustable per Section IV.
    """

    inert = False
    suppress_region_output = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.count = 0
        self.depth = 0
        self.region_id = ctx.fresh_id()   # the paper's nid
        self.replace_id = ctx.fresh_id()  # the paper's rid
        self._started = False

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.CONSUME

    def static_facts(self) -> dict:
        facts = _aggregate_facts(self, "constant",
                                 "count register adjusted by deltas")
        facts["reads"] = {"kind": "boundaries"}
        return facts

    def type_facts(self) -> dict:
        # Emits "0" at stream start even for empty input: never empty.
        return {"kind": "aggregate"}

    def get_state(self) -> State:
        return (self.count, self.depth)

    def set_state(self, state: State) -> None:
        self.count, self.depth = state

    def _emit_value(self) -> List[Event]:
        return [start_replace(self.region_id, self.replace_id),
                cdata(self.replace_id, str(self.count)),
                end_replace(self.region_id, self.replace_id)]

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == SS:
            self._started = True
            return [Event(SS, self.output_id),
                    start_mutable(self.output_id, self.region_id),
                    cdata(self.region_id, "0"),
                    end_mutable(self.output_id, self.region_id)]
        if kind == ES:
            return [Event(ES, self.output_id)]
        if kind in _STRUCTURAL:
            return []
        if kind == SE:
            self.depth += 1
            return []
        if kind == EE:
            self.depth -= 1
            if self.depth == 0:
                self.count += 1
                return self._emit_value()
            return []
        if self.depth == 0:  # bare top-level cD counts as an item
            self.count += 1
            return self._emit_value()
        return []

    def adjust(self, state: State, s1: State, s2: State) -> State:
        count, depth = state
        return (count + (s2[0] - s1[0]), depth)

    def on_live_adjusted(self, old: State, new: State) -> List[Event]:
        if old[0] == new[0]:
            return []
        return self._emit_value()


class NumericAggregate(StateTransformer):
    """``sum()`` / ``avg()`` over the numeric string values of items.

    Each top-level item's string value is parsed as a number (items whose
    value is not numeric contribute 0, with a parallel valid-count so
    ``avg`` stays correct).  Like count, the result is shown as a mutable
    region whose content is continuously replaced, and adjustment applies
    the (sum, n) delta.
    """

    inert = False
    suppress_region_output = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 op: str = "sum") -> None:
        if op not in ("sum", "avg"):
            raise ValueError("unsupported aggregate {!r}".format(op))
        super().__init__(ctx, (input_id,), output_id)
        self.op = op
        self.total = 0.0
        self.n = 0
        self.depth = 0
        self.parts: tuple = ()
        self.region_id = ctx.fresh_id()
        self.replace_id = ctx.fresh_id()

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.CONSUME

    def static_facts(self) -> dict:
        return _aggregate_facts(self, "buffering",
                                "(total, n) register plus the current "
                                "item's text buffer")

    def type_facts(self) -> dict:
        return {"kind": "aggregate"}

    def get_state(self) -> State:
        return (self.total, self.n, self.depth, self.parts)

    def set_state(self, state: State) -> None:
        self.total, self.n, self.depth, self.parts = state

    def _value(self) -> str:
        if self.op == "sum":
            return _format_number(self.total)
        if self.n == 0:
            return ""
        return _format_number(self.total / self.n)

    def _emit_value(self) -> List[Event]:
        return [start_replace(self.region_id, self.replace_id),
                cdata(self.replace_id, self._value()),
                end_replace(self.region_id, self.replace_id)]

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == SS:
            return [Event(SS, self.output_id),
                    start_mutable(self.output_id, self.region_id),
                    cdata(self.region_id, self._value()),
                    end_mutable(self.output_id, self.region_id)]
        if kind == ES:
            return [Event(ES, self.output_id)]
        if kind in _STRUCTURAL:
            return []
        if kind == SE:
            self.depth += 1
            if self.depth == 1:
                self.parts = ()
            return []
        if kind == EE:
            self.depth -= 1
            if self.depth == 0:
                return self._accumulate("".join(self.parts))
            return []
        if self.depth == 0:
            return self._accumulate(e.text or "")
        self.parts = self.parts + (e.text or "",)
        return []

    def _accumulate(self, text: str) -> List[Event]:
        value = _parse_number(text)
        self.n += 1
        if value is not None:
            self.total += value
        return self._emit_value()

    def adjust(self, state: State, s1: State, s2: State) -> State:
        total, n, depth, parts = state
        return (total + (s2[0] - s1[0]), n + (s2[1] - s1[1]), depth, parts)

    def on_live_adjusted(self, old: State, new: State) -> List[Event]:
        if old[0] == new[0] and old[1] == new[1]:
            return []
        return self._emit_value()


def _parse_number(text: str) -> Optional[float]:
    try:
        return float(text.strip())
    except ValueError:
        return None


def _format_number(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


class MinMaxAggregate(StateTransformer):
    """``min()`` / ``max()`` over the numeric string values of items.

    The state is a value -> multiplicity register, so updates that remove
    the current extremum still adjust exactly (the scalar "running min"
    cannot).  Non-numeric items are ignored.
    """

    inert = False
    suppress_region_output = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 op: str = "min") -> None:
        if op not in ("min", "max"):
            raise ValueError("unsupported aggregate {!r}".format(op))
        super().__init__(ctx, (input_id,), output_id)
        self.op = op
        self.counts: tuple = ()  # sorted ((value, multiplicity), ...)
        self.depth = 0
        self.parts: tuple = ()
        self.region_id = ctx.fresh_id()
        self.replace_id = ctx.fresh_id()

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.CONSUME

    def static_facts(self) -> dict:
        return _aggregate_facts(self, "unbounded",
                                "value -> multiplicity register, "
                                "O(distinct values)")

    def type_facts(self) -> dict:
        return {"kind": "aggregate"}

    def get_state(self) -> State:
        return (self.counts, self.depth, self.parts)

    def set_state(self, state: State) -> None:
        self.counts, self.depth, self.parts = state

    def _value(self) -> str:
        if not self.counts:
            return ""
        pick = self.counts[0][0] if self.op == "min" else \
            self.counts[-1][0]
        return _format_number(pick)

    def _emit_value(self) -> List[Event]:
        return [start_replace(self.region_id, self.replace_id),
                cdata(self.replace_id, self._value()),
                end_replace(self.region_id, self.replace_id)]

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == SS:
            return [Event(SS, self.output_id),
                    start_mutable(self.output_id, self.region_id),
                    cdata(self.region_id, self._value()),
                    end_mutable(self.output_id, self.region_id)]
        if kind == ES:
            return [Event(ES, self.output_id)]
        if kind in _STRUCTURAL:
            return []
        if kind == SE:
            self.depth += 1
            if self.depth == 1:
                self.parts = ()
            return []
        if kind == EE:
            self.depth -= 1
            if self.depth == 0:
                return self._accumulate("".join(self.parts))
            return []
        if self.depth == 0:
            return self._accumulate(e.text or "")
        self.parts = self.parts + (e.text or "",)
        return []

    def _accumulate(self, text: str) -> List[Event]:
        value = _parse_number(text)
        if value is None:
            return []
        before = self._value()
        self.counts = _bump(self.counts, value, +1)
        if self._value() == before:
            return []  # the extremum did not move: nothing to replace
        return self._emit_value()

    def adjust(self, state: State, s1: State, s2: State) -> State:
        counts, depth, parts = state
        removed = dict(s1[0])
        for value, n in s2[0]:
            removed[value] = removed.get(value, 0) - n
        for value, delta in removed.items():
            if delta:
                counts = _bump(counts, value, -delta)
        return (counts, depth, parts)

    def on_live_adjusted(self, old: State, new: State) -> List[Event]:
        if old[0] == new[0]:
            return []
        return self._emit_value()


def _bump(counts: tuple, value: float, delta: int) -> tuple:
    """Adjust one value's multiplicity in a sorted count register."""
    reg = dict(counts)
    n = reg.get(value, 0) + delta
    if n > 0:
        reg[value] = n
    else:
        reg.pop(value, None)
    return tuple(sorted(reg.items()))
