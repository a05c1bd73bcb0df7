"""Plan-driven stream projection: which element paths can a query touch?

The paper's engine tokenizes every byte of the input even though a
compiled query can only ever *observe* a small family of element paths
(Koch et al., "Schema-based Scheduling of Event Processors and Buffer
Minimization for Queries on Structured Data Streams", see PAPERS.md).
This module closes that gap statically:

* :func:`derive_projection` runs a forward dataflow over a compiled
  plan, one path rule per stage shape, to compute a conservative set of
  *paths* — sequences of ``(axis, tag)`` steps with axis ``child`` or
  ``descendant`` — such that keeping (a) every element on a prefix of
  some path ("spine" elements) and (b) the **whole subtree** of every
  path endpoint is guaranteed to preserve the query's result
  byte-for-byte.
* :class:`ProjectionMatcher` compiles those paths into a tiny per-depth
  NFA the tokenizer consults once per start tag: when no state survives
  an element, no remaining step of any path can match at or below it, so
  the whole subtree is invisible to the query and may be skipped.
* :class:`ProjectionMask` applies the same matcher per query inside the
  multi-query fan-out: the shared tokenizer prunes with the *union*
  projection, the mask then cuts each pipeline's dispatch down to the
  events its own query can reach.
* :class:`ElementSchema` is the optional DTD/schema refinement hook: a
  ``tag -> children`` map whose descendant-reachability closure lets the
  matcher retire ``descendant::t`` states under elements that provably
  cannot contain a ``t``, which is what makes ``//``-led queries
  prunable at all.

* :func:`apply_reads` asks the same question of the streams *inside*
  the plan: a backward pass over the stages computes, for every forest
  stream, what its consumers read of each item (:class:`Reads`: which
  child tags, how deep, text or not), one reads rule per stage shape,
  and hands every ``//`` step the ``reads`` of its output stream so
  that the per-level copies it makes (paper Section VI-C) hold no more
  than that (DESIGN.md section 15), and every item-scope predicate and
  ancestor join its own, so that it opens a region only for an item a
  consumer reads while undecided (DESIGN.md section 17).

Soundness fallbacks (DESIGN.md section 10): the *universal* projection
(no pruning) is used whenever the plan reads a **mutable update source**
(``sM``/``sR``/``sB``/``sA`` brackets can re-parent stream regions, so no
static path argument survives), whenever the plan needs document-order
oids (skipping would renumber them), and whenever a stage's shape has no
path rule (DESIGN.md section 16).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, \
    Sequence, Tuple

from ..core.transformer import Shape, StateTransformer
from ..events.model import CD, EE, SE, UPDATE_KINDS, Event
from ..operators.deferral import ItemGate
from ..operators.predicate import FusedCondition
from .dataflow import backward, forward
from .schema import ElementSchema, known_schema

#: Path-step axes.
CHILD = "child"
DESCENDANT = "descendant"

#: A path step: (axis, tag); ``tag is None`` means any element.
Step = Tuple[str, Optional[str]]
#: A path: steps from (but excluding) the document root.
Path = Tuple[Step, ...]

#: Matcher verdicts for a start tag.
SKIP = 0      # no path step can match at or below this element
KEEP = 1      # on the spine of some path: emit, keep matching children
ACCEPT = 2    # a path endpoint: keep the whole subtree verbatim


def format_path(path: Path) -> str:
    """Render a path XPath-style (``/site//item``)."""
    if not path:
        return "/"
    return "".join(("/" if axis == CHILD else "//") + (tag or "*")
                   for axis, tag in path)


class QueryProjection:
    """The conservative path set one compiled plan can touch.

    ``universal`` means "keep everything" — either because analysis was
    defeated (``reason`` says why) or because the paths degenerate to the
    whole document.  ``paths`` is empty iff ``universal``.
    """

    __slots__ = ("paths", "universal", "reason")

    def __init__(self, paths: FrozenSet[Path] = frozenset(),
                 universal: bool = False,
                 reason: Optional[str] = None) -> None:
        self.paths = frozenset() if universal else frozenset(paths)
        self.universal = universal
        self.reason = reason

    @classmethod
    def make_universal(cls, reason: str) -> "QueryProjection":
        return cls(universal=True, reason=reason)

    def describe(self) -> List[str]:
        return sorted(format_path(p) for p in self.paths)

    def to_dict(self) -> dict:
        out = {"universal": self.universal, "paths": self.describe()}
        if self.reason:
            out["reason"] = self.reason
        return out

    def __repr__(self) -> str:
        if self.universal:
            return "QueryProjection(universal: {})".format(self.reason)
        return "QueryProjection({})".format(", ".join(self.describe()))


#: Path transfer rule per shape kind: the stage's output paths from the
#: union of its input paths, and whether the stage reads its items'
#: content, making those paths anchors (their subtrees are kept whole).
_PATH_RULES: Dict[str, Callable[[Shape, FrozenSet[Path]],
                                Tuple[FrozenSet[Path], bool]]] = {
    "step": lambda shape, paths: (
        paths if shape.axis == "self"
        else frozenset(p + ((shape.axis, shape.tag),) for p in paths), False),
    "construct": lambda shape, paths: (paths, shape.per_stream),
    **dict.fromkeys(("copy", "concat", "sort", "empty"),
                    lambda shape, paths: (paths, False)),
    **dict.fromkeys(("filter", "text", "flag", "literal", "aggregate"),
                    lambda shape, paths: (paths, True)),
}


def derive_projection(plan) -> QueryProjection:
    """Derive the projection of a compiled :class:`~repro.xquery.compiler.Plan`.

    A forward dataflow maps every stream to the set of paths its
    element content can originate from, seeded with the empty path on
    the source stream, by the ``_PATH_RULES`` entry of each stage's
    shape kind (DESIGN.md section 16).  A kind with no rule there (the
    backward-axis join, ``opaque``) makes the projection universal.

    The result-stream paths are always anchored (the display prints
    them).  The returned projection's ``paths`` are the anchors.
    """
    if plan.mutable_source:
        return QueryProjection.make_universal(
            "mutable update source: sM/sR/sB/sA brackets can re-parent "
            "regions, so no static path argument is sound")
    if plan.needs_oids:
        return QueryProjection.make_universal(
            "plan needs document-order oids (backward axis); skipping "
            "subtrees would renumber them")
    anchors: set = set()
    uncovered: list = []

    def transfer(stage: StateTransformer,
                 ins: List[FrozenSet[Path]]) -> FrozenSet[Path]:
        paths = frozenset().union(*ins)
        shape = stage.shape()
        rule = _PATH_RULES.get(shape.kind)
        if rule is None:
            if paths:
                uncovered.append("stage {} has a {} shape, which no path "
                                 "rule covers".format(type(stage).__name__,
                                                      shape.kind))
            return paths
        paths, anchored = rule(shape, paths)
        if anchored:
            anchors.update(paths)
        return paths

    paths = forward(plan.stages, {plan.source_id: frozenset({()})},
                    transfer, frozenset())
    if uncovered:
        return QueryProjection.make_universal(uncovered[0])
    anchors |= paths.get(plan.result_id, frozenset())
    if not anchors:
        # Nothing source-derived reaches a reader or the result: the
        # query is constant w.r.t. the document, keep nothing but the
        # root spine.  Conservatively keep everything instead — this
        # only arises for degenerate plans.
        return QueryProjection.make_universal(
            "no source-derived stream is consumed")
    if any(p == () for p in anchors):
        return QueryProjection.make_universal(
            "the query touches the whole document")
    return QueryProjection(paths=frozenset(anchors))


def union_projection(
        projections: Iterable[QueryProjection]) -> QueryProjection:
    """The least projection covering every query (for the shared scan)."""
    merged: set = set()
    for proj in projections:
        if proj.universal:
            return QueryProjection.make_universal(proj.reason or
                                                  "member is universal")
        merged |= proj.paths
    if not merged:
        return QueryProjection.make_universal("no projections to union")
    return QueryProjection(paths=frozenset(merged))


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


class ProjectionMatcher:
    """The per-depth NFA over a projection's paths.

    One matcher is immutable/shareable; per-stream scanning state lives
    in the :class:`MatcherCursor` from :meth:`cursor`.  Transition
    results are cached per (state-set, tag), so steady-state matching is
    one dict lookup per start tag.

    ``prunable`` is the static go/no-go: a ``descendant`` step with no
    schema to retire it survives every element, so the state set can
    never empty and nothing would ever be skipped — callers should then
    not install the matcher at all (zero overhead instead of a no-op
    scan).
    """

    def __init__(self, projection: QueryProjection,
                 schema: Optional[ElementSchema] = None) -> None:
        self.projection = projection
        self.schema = known_schema(schema)
        # Sort key tolerates wildcard steps (tag None sorts first).
        self.paths: Tuple[Path, ...] = tuple(sorted(
            projection.paths,
            key=lambda p: [(axis, tag or "") for axis, tag in p]))
        self.initial: FrozenSet[Tuple[int, int]] = frozenset(
            (pi, 0) for pi in range(len(self.paths)))
        self._cache: Dict[Tuple[FrozenSet, str],
                          Tuple[FrozenSet, bool]] = {}
        self.prunable = self._prunable()

    def _prunable(self) -> bool:
        if self.projection.universal or not self.paths:
            return False
        for path in self.paths:
            if all(tag is None for _, tag in path):
                return False  # accepts every element of some depth
        if self.schema is None:
            return all(path[0][0] == CHILD for path in self.paths)
        return True

    def cursor(self) -> "MatcherCursor":
        return MatcherCursor(self)

    # -- transitions ---------------------------------------------------------

    def transition(self, states: FrozenSet[Tuple[int, int]],
                   tag: str) -> Tuple[FrozenSet[Tuple[int, int]], bool]:
        """States surviving into ``tag``'s child context + acceptance."""
        key = (states, tag)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        nxt: set = set()
        accepted = False
        paths = self.paths
        for pi, si in states:
            axis, step_tag = paths[pi][si]
            if axis == DESCENDANT and self._viable(pi, si, tag):
                nxt.add((pi, si))          # descendant steps self-loop
            if step_tag is None or step_tag == tag:
                si2 = si + 1
                if si2 == len(paths[pi]):
                    accepted = True        # endpoint: keep the subtree
                elif self._viable(pi, si2, tag):
                    nxt.add((pi, si2))
        result = (frozenset(nxt), accepted)
        self._cache[key] = result
        return result

    def _viable(self, pi: int, si: int, tag: str) -> bool:
        """Can step ``si`` of path ``pi`` match strictly below ``tag``?"""
        schema = self.schema
        if schema is None:
            return True
        axis, step_tag = self.paths[pi][si]
        allowed = (schema.children(tag) if axis == CHILD
                   else schema.descendants(tag))
        if allowed is None:
            return True  # unknown tag: stay conservative
        return bool(allowed) if step_tag is None else step_tag in allowed


class MatcherCursor:
    """Mutable per-stream scanning state over a :class:`ProjectionMatcher`.

    Protocol: call :meth:`enter` on every start tag *outside* skipped
    and accepted subtrees; call :meth:`leave` on the matching end tag of
    every element :meth:`enter` returned ``KEEP`` for.  ``SKIP`` and
    ``ACCEPT`` verdicts push nothing (the caller handles those subtrees
    with plain depth counting).
    """

    __slots__ = ("_matcher", "_stack")

    def __init__(self, matcher: ProjectionMatcher) -> None:
        self._matcher = matcher
        self._stack: List[FrozenSet[Tuple[int, int]]] = []

    def enter(self, tag: str) -> int:
        # Paths are rooted at the root *element*, which consumes no step:
        # the engine's first ChildStep matches children of the root, and
        # descendant steps never match the root either.  So the root is
        # kept unconditionally (it is on every path's spine) and its
        # children transition from the initial state set.
        if not self._stack:
            self._stack.append(self._matcher.initial)
            return KEEP
        states, accepted = self._matcher.transition(self._stack[-1], tag)
        if accepted:
            return ACCEPT
        if not states:
            return SKIP
        self._stack.append(states)
        return KEEP

    def leave(self) -> None:
        self._stack.pop()


class ProjectionStats:
    """Pruning counters (one per tokenizer; shipped into metrics)."""

    __slots__ = ("events_pruned", "bytes_skipped", "subtrees_skipped",
                 "events_emitted")

    def __init__(self) -> None:
        self.events_pruned = 0
        self.bytes_skipped = 0
        self.subtrees_skipped = 0
        self.events_emitted = 0

    def pruned_ratio(self) -> float:
        total = self.events_pruned + self.events_emitted
        return (self.events_pruned / total) if total else 0.0

    def counter_dict(self) -> Dict[str, int]:
        """The raw integer counters (mergeable; no derived ratios)."""
        return {
            "events_pruned": self.events_pruned,
            "bytes_skipped": self.bytes_skipped,
            "subtrees_skipped": self.subtrees_skipped,
            "events_emitted": self.events_emitted,
        }

    def to_dict(self) -> dict:
        return {
            "events_pruned": self.events_pruned,
            "bytes_skipped": self.bytes_skipped,
            "subtrees_skipped": self.subtrees_skipped,
            "events_emitted": self.events_emitted,
            "pruned_ratio": round(self.pruned_ratio(), 6),
        }


class ProjectionMask:
    """Per-query event filter for the multi-query fan-out.

    The shared tokenizer prunes with the union projection; each mask
    then drops, per pipeline, the subtrees *its* query cannot reach
    before the events enter that pipeline's dispatch loop.  Only plain
    data events (``sE``/``eE``/``cD``) on the source stream are ever
    filtered; the moment any update-control event shows up the mask
    disables itself permanently and passes everything through — pruning
    a mutable stream is never sound (DESIGN.md section 10).
    """

    def __init__(self, matcher: ProjectionMatcher, source_id: int) -> None:
        self._cursor = matcher.cursor()
        self.source_id = source_id
        self._skip_depth = 0
        self._keep_depth = 0
        self._disabled = False
        #: Live counters; the owning run's MetricsRecorder references
        #: this dict directly, so mutation here is visible in to_dict().
        self.counters = {"mask_events_dropped": 0,
                         "mask_events_passed": 0}

    def filter(self, batch: Sequence[Event]) -> List[Event]:
        if self._disabled:
            return list(batch)
        out: List[Event] = []
        append = out.append
        dropped = 0
        cursor = self._cursor
        source_id = self.source_id
        for e in batch:
            kind = e.kind
            if kind in UPDATE_KINDS:
                self._disabled = True
                rest = list(batch[len(out) + dropped:])
                self.counters["mask_events_dropped"] += dropped
                self.counters["mask_events_passed"] += len(out) + len(rest)
                return out + rest
            if e.id != source_id or kind not in (SE, EE, CD):
                append(e)
            elif kind == SE:
                if self._skip_depth:
                    self._skip_depth += 1
                    dropped += 1
                    continue
                if self._keep_depth:
                    self._keep_depth += 1
                    append(e)
                    continue
                verdict = cursor.enter(e.tag)
                if verdict == SKIP:
                    self._skip_depth = 1
                    dropped += 1
                    continue
                if verdict == ACCEPT:
                    self._keep_depth = 1
                append(e)
            elif kind == EE:
                if self._skip_depth:
                    self._skip_depth -= 1
                    dropped += 1
                    continue
                if self._keep_depth:
                    self._keep_depth -= 1
                else:
                    cursor.leave()
                append(e)
            else:  # CD
                if self._skip_depth:
                    dropped += 1
                    continue
                append(e)
        self.counters["mask_events_dropped"] += dropped
        self.counters["mask_events_passed"] += len(out)
        return out
