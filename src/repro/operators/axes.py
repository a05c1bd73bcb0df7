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
Each keeps its fields in one small :class:`~repro.core.transformer.State`
object, ``self.state``.
"""

from __future__ import annotations

from typing import List, Optional

from ..events.model import (CD, EE, ES, ET, SE, SS, ST, Event)
from ..core.transformer import Context, Shape, State, StateTransformer

_STRUCTURAL = (SS, ES, ST, ET)
_new = object.__new__


class ChildState(State):
    """``/tag``'s ``(depth, passing)``."""

    __slots__ = ("depth", "passing")

    def __init__(self) -> None:
        self.depth = 0
        self.passing = False

    def copy(self) -> "ChildState":
        new = _new(ChildState)
        new.depth = self.depth
        new.passing = self.passing
        return new

    def __eq__(self, other: object) -> bool:
        if type(other) is not ChildState:
            return NotImplemented
        return self.depth == other.depth and self.passing == other.passing

    __hash__ = None  # type: ignore[assignment]


class DepthState(State):
    """The element depth, all a text step or a flag keeps."""

    __slots__ = ("depth",)

    def __init__(self) -> None:
        self.depth = 0

    def copy(self) -> "DepthState":
        new = _new(DepthState)
        new.depth = self.depth
        return new


class TextState(State):
    """The depth and the text parts of the item being collected."""

    __slots__ = ("depth", "parts")

    def __init__(self) -> None:
        self.depth = 0
        self.parts: tuple = ()

    def copy(self) -> "TextState":
        new = _new(TextState)
        new.depth = self.depth
        new.parts = self.parts
        return new


class ChildStep(StateTransformer):
    """XPath child step ``/tag`` (or ``/*`` when ``tag`` is None)."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int,
                 tag: Optional[str]) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.tag = tag
        self.state = ChildState()

    def shape(self) -> Shape:
        return Shape("step", axis="child", tag=self.tag)

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(out)]
        s = self.state
        if kind == SE:
            if (s.depth == 1 and not s.passing
                    and (self.tag is None or e.tag == self.tag)):
                s.passing = True
            s.depth += 1
            return [e.relabel(out)] if s.passing else []
        if kind == EE:
            s.depth -= 1
            if s.passing:
                if s.depth == 1:
                    s.passing = False
                return [e.relabel(out)]
            return []
        # cD
        return [e.relabel(out)] if s.passing else []

    def __repr__(self) -> str:
        return "ChildStep(/{}: {} -> {})".format(
            self.tag if self.tag is not None else "*",
            self.input_ids[0], self.output_id)


class TextStep(StateTransformer):
    """XPath ``text()`` step: text children of each top-level element."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)
        self.state = DepthState()

    def shape(self) -> Shape:
        return Shape("text")

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(out)]
        s = self.state
        if kind == SE:
            s.depth += 1
            return []
        if kind == EE:
            s.depth -= 1
            return []
        if s.depth == 1:  # cD directly inside a top-level element
            return [e.relabel(out)]
        return []


class SelfStep(StateTransformer):
    """Identity navigation: forward the forest, relabeled to the output."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, output_id: int) -> None:
        super().__init__(ctx, (input_id,), output_id)

    def shape(self) -> Shape:
        return Shape("step", axis="self")

    def process(self, e: Event, out: int) -> List[Event]:
        return [e.relabel(out)]


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
        self.state = TextState()

    def shape(self) -> Shape:
        return Shape("text")

    def static_facts(self) -> dict:
        return dict(super().static_facts(),
                    state_class="buffering",
                    notes="accumulates the current item's text")

    def process(self, e: Event, out: int) -> List[Event]:
        kind = e.kind
        if kind in _STRUCTURAL:
            return [e.relabel(out)]
        s = self.state
        if kind == SE:
            s.depth += 1
            if s.depth == 1:
                s.parts = ()
            return []
        if kind == EE:
            s.depth -= 1
            if s.depth == 0:
                text = "".join(s.parts)
                s.parts = ()
                return [Event(CD, out, text=text, oid=e.oid)]
            return []
        # cD
        if s.depth == 0:
            return [e.relabel(out)]
        s.parts = s.parts + (e.text or "",)
        return []
