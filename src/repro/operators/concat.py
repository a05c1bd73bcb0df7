"""Sequence concatenation via insert-before updates (paper Section VI-A).

``(e1, e2)`` must emit all of ``e1``'s result before ``e2``'s, per tuple —
blocking and unbounded when buffered (the worst case is the entire left
sequence arriving after the right one).  The update-stream version is
stateless: each right tuple is wrapped in a mutable region, and an
insert-before update anchored at that region collects the left events,
retroactively moving them ahead no matter the arrival order.

Both inputs are TRANSPARENT: content keeps its original stream numbers
(they are routed into the regions by id), so concatenations chain — the
compiler builds ``(a, b, c)`` right-associatively as ``(a, (b, c))``,
which makes every bracket open before content that must land inside it.
"""

from __future__ import annotations

from typing import List

from ..events.model import (ES, ET, SS, ST, Event, end_insert_before,
                            end_mutable, end_tuple, start_insert_before,
                            start_mutable, start_tuple)
from ..core.transformer import Context, State, StateTransformer
from ..core.wrapper import UpdatePolicy


class Concat(StateTransformer):
    """Binary tuple-aligned concatenation of two substreams."""

    inert = True

    def __init__(self, ctx: Context, left_id: int, right_id: int,
                 output_id: int) -> None:
        super().__init__(ctx, (left_id, right_id), output_id)
        self.left_id = left_id
        self.right_id = right_id

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.TRANSPARENT

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(
            paper_blocking=True,
            generates_updates=("sM", "sB"),
            brackets=(
                {"kind": "sM", "target": self.output_id,
                 "sub": self.right_id, "freeze": "never", "per": "tuple"},
                {"kind": "sB", "target": self.right_id,
                 "sub": self.left_id, "freeze": "never", "per": "tuple"},
            ),
            notes="stateless; reuses the input stream numbers as region "
                  "numbers, one region pair per tuple, never frozen",
        )
        facts["projection"] = {"kind": "plumbing"}
        facts["reads"] = {"kind": "items"}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "union"}

    def process(self, e: Event) -> List[Event]:
        kind = e.kind
        if kind == ST:
            if e.id == self.left_id:
                return []  # F1: drop left tuple markers
            if e.id == self.right_id:
                # F2: wrap the right tuple in a mutable region and open an
                # insert-before update that will hold the left content.
                return [start_tuple(self.output_id),
                        start_mutable(self.output_id, self.right_id),
                        start_insert_before(self.right_id, self.left_id)]
            return [e]  # a marker inside region content: plain content
        if kind == ET:
            if e.id == self.left_id:
                return []
            if e.id == self.right_id:
                return [end_insert_before(self.right_id, self.left_id),
                        end_mutable(self.output_id, self.right_id),
                        end_tuple(self.output_id)]
            return [e]
        if kind == SS:
            if e.id == self.left_id:
                return []
            if e.id == self.right_id:
                return [Event(SS, self.output_id)]
            return [e]
        if kind == ES:
            if e.id == self.left_id:
                return []
            if e.id == self.right_id:
                return [Event(ES, self.output_id)]
            return [e]
        # Content keeps its stream number; the display routes it into the
        # open region with that id.
        return [e]
