"""Stream duplication (tee / clone).

Backward axes require the stream source to be cloned "immediately after it
is generated" (paper Section VI-E): each event is repeated under a second
substream number, preserving node identities (OIDs), so a later join can
recognize the same node in both branches.  The same operator implements
the duplication a compiler needs whenever one sequence feeds two sub-
expressions (a predicate's condition input, FLWOR key extraction, ...).

Cloning buffers nothing: the copy is emitted immediately after the
original.  Update brackets are forwarded on the original stream *and*
re-emitted (with fresh region numbers) on the copy — the TEE policy of the
generic wrapper.
"""

from __future__ import annotations

from typing import List

from ..events.model import Event
from ..core.transformer import Context, StateTransformer
from ..core.wrapper import UpdatePolicy


class Tee(StateTransformer):
    """Duplicate ``input_id``: pass it through and emit a copy stream."""

    inert = True

    def __init__(self, ctx: Context, input_id: int, copy_id: int) -> None:
        # output_id is the copy; the original keeps its own number.
        super().__init__(ctx, (input_id,), copy_id)
        self.copy_id = copy_id

    def update_policy(self, stream_id: int) -> UpdatePolicy:
        return UpdatePolicy.TEE

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(notes="brackets re-emitted with fresh region numbers "
                           "on the copy (TEE policy)")
        facts["projection"] = {"kind": "plumbing"}
        facts["reads"] = {"kind": "items"}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "copy"}

    def process(self, e: Event) -> List[Event]:
        return [e, e.relabel(self.copy_id)]
