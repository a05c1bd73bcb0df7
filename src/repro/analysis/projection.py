"""The reads pass: what the consumers of each stream read of its items.

:func:`apply_reads` runs a backward pass over a compiled plan's stages
and computes, for every forest stream, what its consumers read of each
item (:class:`Reads`: which child tags, how deep, text or not), one
reads rule per stage shape (DESIGN.md section 16).  It hands every
``//`` step the ``reads`` of its output stream so that the per-level
copies it makes (paper Section VI-C) hold no more than that (DESIGN.md
section 15), and every item-scope predicate and ancestor join its own,
so that it opens a region only for an item a consumer reads while
undecided (DESIGN.md section 17).

Over a mutable update source every stream is read whole:
``sM``/``sR``/``sB``/``sA`` brackets can re-parent stream regions, so no
item has a static shape.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.transformer import Shape, StateTransformer
from ..operators.deferral import ItemGate
from ..operators.predicate import FusedCondition
from .dataflow import backward

#: Step axes a reads rule distinguishes.
CHILD = "child"
DESCENDANT = "descendant"


# -- what the plan reads of each item -----------------------------------------


class Reads:
    """What the consumers of a forest stream read of each item.

    ``tags``: the tags of the item root's children whose subtrees are
    read (``None``: any child, direct text included); ``depth``: how
    many levels are read, the item root being 1 (``None``: unbounded);
    ``text``: whether ``cD`` is read.  The root's own ``sE``/``eE`` are
    always read.  ``by`` names the consumer that forced ``ALL`` and
    does not take part in comparisons.
    """

    __slots__ = ("tags", "depth", "text", "by")

    def __init__(self, tags: Optional[Iterable[str]], depth: Optional[int],
                 text: bool, by: Optional[str] = None) -> None:
        if tags is not None:
            tags = frozenset(tags)
        if depth == 1 or (tags is not None and not tags):
            tags, depth, text = frozenset(), 1, False
        self.tags = tags
        self.depth = depth
        self.text = text
        self.by = by

    @classmethod
    def everything(cls, by: str) -> "Reads":
        return cls(None, None, True, by)

    @property
    def is_all(self) -> bool:
        return self.tags is None and self.depth is None and self.text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reads) and (
            (self.tags, self.depth, self.text)
            == (other.tags, other.depth, other.text))

    __hash__ = None  # ``by`` is assigned late; nothing keys on a Reads

    def __or__(self, other: "Reads") -> "Reads":
        if self.is_all or other == ROOT_ONLY:
            return self
        if other.is_all or self == ROOT_ONLY:
            return other
        return Reads(
            None if self.tags is None or other.tags is None
            else self.tags | other.tags,
            None if self.depth is None or other.depth is None
            else max(self.depth, other.depth),
            self.text or other.text)

    def blame(self, by: str) -> "Reads":
        """Name ``by`` as the consumer whose reads made a union ``ALL``."""
        if self.is_all and self.by is None:
            self.by = by
        return self

    def to_dict(self) -> dict:
        out = {"all": self.is_all,
               "tags": None if self.tags is None else sorted(self.tags),
               "depth": self.depth, "text": self.text}
        if self.is_all:
            out["forced_by"] = self.by
        return out

    def __str__(self) -> str:
        if self.is_all:
            return "ALL"
        return "({}, depth {}, {})".format(
            "any child" if self.tags is None
            else "{" + ", ".join(sorted(self.tags)) + "}",
            "unbounded" if self.depth is None else self.depth,
            "text" if self.text else "no text")

    def __repr__(self) -> str:
        return "Reads{}".format(self)


#: Only the boundaries of each item (what ``count`` reads).
ROOT_ONLY = Reads((), 1, False)


def _condition_reads(cond: object, by: str) -> Reads:
    """What one inline condition reads of the item: a fused condition's
    one child tag, anything for a generic inline pipeline."""
    if not isinstance(cond, FusedCondition):
        return Reads.everything("a generic inline condition of " + by)
    tags = None if cond.tag is None else (cond.tag,)
    if cond.exists:
        return Reads(tags, 2, False)
    return Reads(tags, None, True)


def _filter_reads(shape: Shape, input_id: int, out: Reads, by: str
                  ) -> Reads:
    reads = out
    for cond in shape.conditions:
        reads = reads | _condition_reads(cond, by)
    return reads.blame(by)


def _step_reads(shape: Shape, input_id: int, out: Reads, by: str
                ) -> Optional[Reads]:
    if shape.axis == CHILD:
        return Reads((shape.tag,) if shape.tag is not None else None,
                     None if out.depth is None else out.depth + 1,
                     out.text)
    if shape.axis == DESCENDANT:   # every level of the item can be a match
        return Reads(None, None, out.text, out.by or by)
    return None


def _join_reads(shape: Shape, input_id: int, out: Reads, by: str
                ) -> Reads:
    if input_id != shape.candidates:   # matches: told by where an eE falls
        return ROOT_ONLY
    return (out | Reads(None, 2 if shape.direct_only else None,
                        False)).blame(by)


#: Reads transfer rule per shape kind: what the stage reads of each item
#: of one input, given what is read of its output.  A rule answers None
#: for an input it does not cover.
_READS_RULES: Dict[str, Callable[[Shape, int, Reads, str],
                                 Optional[Reads]]] = {
    "step": _step_reads,
    "copy": lambda shape, i, out, by: out,
    "concat": lambda shape, i, out, by: out,
    "sort": lambda shape, i, out, by: (
        out if i == shape.item_input else None),
    "literal": lambda shape, i, out, by: ROOT_ONLY,   # paces by item
    "aggregate": lambda shape, i, out, by: (
        None if shape.reads_items else ROOT_ONLY),
    "construct": lambda shape, i, out, by: Reads(   # items become children
        None, None if out.depth is None else max(out.depth - 1, 1),
        out.text, out.by or by),
    "filter": _filter_reads,
    "join": _join_reads,
}


def stage_reads(stage: StateTransformer, input_id: int,
                out: Reads) -> Reads:
    """What ``stage`` reads of each item of its input ``input_id``, given
    what is read of its output: the rule of its shape's kind, and
    everything where there is none."""
    by = repr(stage)
    shape = stage.shape()
    rule = _READS_RULES.get(shape.kind)
    reads = rule(shape, input_id, out, by) if rule is not None else None
    return Reads.everything(by) if reads is None else reads


def _copies_levels(stage: StateTransformer) -> bool:
    """Is ``stage`` a ``//`` step, whose per-level copies ``reads`` cuts?"""
    shape = stage.shape()
    return shape.kind == "step" and shape.axis == DESCENDANT


def _gates(stage: StateTransformer) -> bool:
    """Is ``stage`` an item-scope predicate or an ancestor join, which
    ``reads`` lets decide before it emits?"""
    return isinstance(stage, ItemGate) and stage.gated


def apply_reads(plan, sink: Optional[Dict[int, Reads]] = None
                ) -> Dict[int, Reads]:
    """Hand every ``//`` step, item-scope predicate and ancestor join of
    ``plan`` what is read of its output.

    One backward pass: ``need[i]`` is what the stages after the current
    one read of stream ``i``.  ``sink`` says what is read of the streams
    that leave the plan (everything of the result stream when omitted);
    a stream nobody consumes is read by nobody, and an input a stage
    passes on (a tee) keeps what later stages read of it.  Returns
    ``need`` as it stands in front of the first stage: what the plan
    reads of the streams it is fed, which is what a shared prefix's
    sink reads on this plan's behalf.

    Over a mutable update source every step reads ``ALL`` (and so does
    the plan, of anything), and predicates and joins get None, so they
    emit as the paper's do: a bracket can re-parent a region, so no
    item has a static shape.
    """
    mutable = (Reads.everything("the mutable update source")
               if plan.mutable_source else None)

    def transfer(stage: Any, i: int, out: Reads, later: Reads) -> Reads:
        if _copies_levels(stage):   # a DescendantStep
            stage.reads = mutable or out
        elif _gates(stage):
            stage.reads = None if mutable else out
        return mutable or (later | stage_reads(stage, i, out)
                           ).blame(repr(stage))

    return backward(plan.stages, sink if sink is not None else {
        plan.result_id: Reads.everything("the sink")}, transfer, ROOT_ONLY)


def step_reads(plan) -> List[Tuple[int, Reads]]:
    """``(stage index, reads)`` of each ``//`` step of ``plan``: what
    ``repro analyze`` prints and ``QueryRun.stats()`` carries."""
    return _told(plan, _copies_levels, "nothing: the plan is as compiled "
                                       "(optimize=False)")


def gate_reads(plan: Any) -> List[Tuple[int, Reads]]:
    """``(stage index, reads)`` of each item-scope predicate and
    ancestor join of ``plan``: ``ALL`` where it opens a region for every
    item, as the paper's operators do."""
    return _told(plan, _gates, "the mutable update source"
                 if plan.mutable_source else
                 "nothing: the plan is as compiled (optimize=False)")


def _told(plan: Any, pick: Callable[[StateTransformer], bool], why: str
          ) -> List[Tuple[int, Reads]]:
    return [(k, stage.reads if stage.reads is not None else
             Reads.everything(why))
            for k, stage in enumerate(plan.stages) if pick(stage)]
