"""Forward navigation steps: child (``/tag``, ``/*``) and ``text()``.

The input of a step is a *forest stream*: a sequence of top-level XML
elements (each at depth 0) interspersed with tuple markers.  ``/tag``
selects the depth-1 children with a matching tag and emits each selected
child as a new top-level element of the output stream — the paper's /tag
state modifier, with two small changes: output events are relabeled to the
operator's output stream number (pipelines here keep substreams distinct),
and the wildcard ``/*`` is the same operator with ``tag=None``.

These transformers are **inert**: for any well-formed input sequence the
(depth, passing) state returns to its initial value, so no adjustment code
is needed and update regions cost nothing beyond the generic wrapper.
"""

from __future__ import annotations

from typing import List, Optional

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event)
from ..core.transformer import Context, Shape, State, StateTransformer

_STRUCTURAL = (SS, ES, ST, ET)


class ChildStep(StateTransformer):
    """XPath child step ``/tag`` (or ``/*`` when ``tag`` is None)."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: Optional[str]) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag
        self.depth = 0
        self.passing = False

    def shape(self) -> Shape:
        return Shape("step", axis="child", tag=self.tag)

    def get_state(self) -> State:
        return (self.depth, self.passing)

    def set_state(self, state: State) -> None:
        self.depth, self.passing = state

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        out = self.output_id
        if kind in _STRUCTURAL:
            return [e.relabel(out)]
        if kind == SE:
            if (self.depth == 1 and not self.passing
                    and (self.tag is None or e.tag == self.tag)):
                self.passing = True
            self.depth += 1
            return [e.relabel(out)] if self.passing else []
        if kind == EE:
            self.depth -= 1
            if self.passing:
                if self.depth == 1:
                    self.passing = False
                return [e.relabel(out)]
            return []
        # cD
        return [e.relabel(out)] if self.passing else []

    def __repr__(self) -> str:
        return "ChildStep(/{}: {} -> {})".format(
            self.tag if self.tag is not None else "*",
            self.input_ids[0], self.output_id)


class TextStep(StateTransformer):
    """XPath ``text()`` step: text children of each top-level element."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.depth = 0

    def shape(self) -> Shape:
        return Shape("text")

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
        if self.depth == 1:  # cD directly inside a top-level element
            return [e.relabel(self.output_id)]
        return []


class SelfStep(StateTransformer):
    """Identity navigation: forward the forest, relabeled to the output."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)

    def shape(self) -> Shape:
        return Shape("step", axis="self")

    def process(self, e: Event) -> List[Event]:
        return [e.relabel(self.output_id)]


class StringValue(StateTransformer):
    """Collapse each top-level item to one cD holding its string value.

    Used to feed comparisons and sort keys: the XPath string-value of an
    element is the concatenation of its descendant text.  Emits exactly one
    cD per top-level item (elements *or* bare top-level cD events), which
    is what the predicate's condition handler and the sort-key stream
    expect.  Bounded state: the accumulating buffer of the current item.
    """

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.depth = 0
        self.parts: tuple = ()

    def shape(self) -> Shape:
        return Shape("text")

    def static_facts(self) -> dict:
        return dict(super().static_facts(),
                    state_class="buffering",
                    notes="accumulates the current item's text")

    def get_state(self) -> State:
        return (self.depth, self.parts)

    def set_state(self, state: State) -> None:
        self.depth, self.parts = state

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(self.output_id)]
        if kind == SE:
            self.depth += 1
            if self.depth == 1:
                self.parts = ()
            return []
        if kind == EE:
            self.depth -= 1
            if self.depth == 0:
                text = "".join(self.parts)
                self.parts = ()
                return [Event(CD, self.output_id, text=text, oid=e.oid)]
            return []
        # cD
        if self.depth == 0:
            return [e.relabel(self.output_id)]
        self.parts = self.parts + (e.text or "",)
        return []
