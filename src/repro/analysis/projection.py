"""Plan-driven stream projection: which element paths can a query touch?

The paper's engine tokenizes every byte of the input even though a
compiled query can only ever *observe* a small family of element paths
(Koch et al., "Schema-based Scheduling of Event Processors and Buffer
Minimization for Queries on Structured Data Streams", see PAPERS.md).
This module closes that gap statically:

* :func:`derive_projection` walks a compiled plan's dataflow and reads
  each stage's ``static_facts()["projection"]`` declaration to compute a
  conservative set of *paths* — sequences of ``(axis, tag)`` steps with
  axis ``child`` or ``descendant`` — such that keeping (a) every element
  on a prefix of some path ("spine" elements) and (b) the **whole
  subtree** of every path endpoint is guaranteed to preserve the query's
  result byte-for-byte.
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
  child tags, how deep, text or not) from each stage's
  ``static_facts()["reads"]`` declaration, and hands every ``//`` step
  the ``reads`` of its output stream so that the per-level copies it
  makes (paper Section VI-C) hold no more than that (DESIGN.md
  section 15).

Soundness fallbacks (DESIGN.md section 10): the *universal* projection
(no pruning) is used whenever the plan reads a **mutable update source**
(``sM``/``sR``/``sB``/``sA`` brackets can re-parent stream regions, so no
static path argument survives), whenever the plan needs document-order
oids (skipping would renumber them), and whenever any stage declares an
``opaque`` projection fact or none the analyzer recognizes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, \
    Tuple

from ..events.model import CD, EE, SE, UPDATE_KINDS, Event

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


def derive_projection(plan) -> QueryProjection:
    """Derive the projection of a compiled :class:`~repro.xquery.compiler.Plan`.

    Runs a forward dataflow over ``plan.stages``: every stream id is
    mapped to the set of paths its element content can originate from,
    seeded with the empty path on the source stream.  Each stage's
    ``static_facts()["projection"]`` declaration is one of:

    * ``{"kind": "step", "axis": ..., "tag": ...}`` — navigation; output
      paths are the input paths extended by one step.
    * ``{"kind": "plumbing"}`` — copies/reorders/wraps its input without
      reading element content (tees, concatenation, tuple machinery);
      output paths equal input paths and the input needs no anchoring.
    * ``{"kind": "content"}`` — reads its input's content (predicates
      with their inline condition pipelines, string values, aggregates);
      the input paths become *anchors* whose endpoint subtrees must be
      kept whole.  This is the conservative default for stages with no
      declaration.
    * ``{"kind": "opaque"}`` — defeats path analysis (backward axes);
      the whole derivation falls back to universal.

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
    paths: Dict[int, set] = {plan.source_id: {()}}
    anchors: set = set()
    # Stages are appended producer-before-consumer, but iterate to a
    # fixpoint so the derivation never depends on that invariant.
    for _ in range(len(plan.stages) + 1):
        changed = False
        for stage in plan.stages:
            spec = stage.static_facts().get("projection") \
                or {"kind": "content"}
            kind = spec.get("kind", "content")
            ins = [paths[i] for i in stage.input_ids if i in paths]
            if not ins:
                continue
            merged = set().union(*ins)
            if kind == "opaque":
                return QueryProjection.make_universal(
                    "stage {} declares an opaque projection{}".format(
                        type(stage).__name__,
                        ": " + spec["note"] if spec.get("note") else ""))
            if kind == "step":
                axis = spec.get("axis")
                if axis not in (CHILD, DESCENDANT):
                    return QueryProjection.make_universal(
                        "stage {} declares unknown step axis {!r}".format(
                            type(stage).__name__, axis))
                step = (axis, spec.get("tag"))
                out_paths = {p + (step,) for p in merged}
            elif kind == "plumbing":
                out_paths = merged
            elif kind == "content":
                anchors |= merged
                out_paths = merged
            else:
                return QueryProjection.make_universal(
                    "stage {} declares unknown projection kind {!r}"
                    .format(type(stage).__name__, kind))
            cur = paths.setdefault(stage.output_id, set())
            if not out_paths <= cur:
                cur |= out_paths
                changed = True
        if not changed:
            break
    anchors |= paths.get(plan.result_id, set())
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


def _condition_reads(cond: Optional[dict], by: str) -> Reads:
    if cond is None:
        return Reads.everything("a generic inline condition of " + by)
    tags = None if cond["tag"] is None else (cond["tag"],)
    if cond["exists"]:
        return Reads(tags, 2, False)
    return Reads(tags, None, True)


def stage_reads(stage, input_id: int, out: Reads) -> Reads:
    """What ``stage`` reads of each item of its input ``input_id``, given
    what is read of its output: one transfer rule per declared kind.

    ``static_facts()["reads"]`` is ``{"kind": ...}``; an ``"input"``
    entry limits the declaration to that one input (the sort reads
    its key stream whole).  A stage that declares nothing, or an input
    outside the declaration, reads everything.
    """
    by = repr(stage)
    spec = stage.static_facts().get("reads")
    if spec is None or spec.get("input", input_id) != input_id:
        return Reads.everything(by)
    kind = spec["kind"]
    if kind == "items":        # the items pass through as they are
        return out
    if kind == "boundaries":   # counts or paces by item, reads nothing
        return ROOT_ONLY
    if kind == "wrap":         # each item becomes a child of a new root
        return Reads(None, None if out.depth is None
                     else max(out.depth - 1, 1), out.text, out.by or by)
    if kind == "child":
        return Reads((spec["tag"],) if spec["tag"] is not None else None,
                     None if out.depth is None else out.depth + 1,
                     out.text)
    if kind == "descendant":   # every level of the item can be a match
        return Reads(None, None, out.text, out.by or by)
    if kind == "filter":
        reads = out
        for cond in spec["conditions"]:
            reads = reads | _condition_reads(cond, by)
        return reads.blame(by)
    if kind == "join":         # matches are told by where an eE falls
        if input_id != spec["candidates"]:
            return ROOT_ONLY
        return (out | Reads(None, 2 if spec["direct_only"] else None,
                            False)).blame(by)
    return Reads.everything(by + " (unknown reads kind {!r})".format(kind))


def apply_reads(plan, sink: Optional[Dict[int, Reads]] = None
                ) -> Dict[int, Reads]:
    """Hand every ``//`` step of ``plan`` what is read of its output.

    One backward pass: ``need[i]`` is what the stages after the current
    one read of stream ``i``.  ``sink`` says what is read of the streams
    that leave the plan (everything of the result stream when omitted);
    a stream nobody consumes is read by nobody, and an input a stage
    passes on (a tee) keeps what later stages read of it.  Returns
    ``need`` as it stands in front of the first stage: what the plan
    reads of the streams it is fed, which is what a shared prefix's
    sink reads on this plan's behalf.

    Over a mutable update source every step reads ``ALL`` (and so does
    the plan, of anything): a bracket can re-parent a region, so no
    item has a static shape.
    """
    need: Dict[int, Reads] = dict(sink) if sink is not None else {
        plan.result_id: Reads.everything("the sink")}
    mutable = (Reads.everything("the mutable update source")
               if plan.mutable_source else None)
    for stage in reversed(plan.stages):
        out = mutable or need.get(stage.output_id, ROOT_ONLY)
        if hasattr(stage, "reads"):     # a // step
            stage.reads = out
        for i in stage.input_ids:
            need[i] = mutable or (
                need.get(i, ROOT_ONLY) | stage_reads(stage, i, out)
            ).blame(repr(stage))
    return need


def step_reads(plan) -> List[Tuple[int, Reads]]:
    """``(stage index, reads)`` of each ``//`` step of ``plan``: what
    ``repro analyze`` prints and ``QueryRun.stats()`` carries."""
    return [(k, stage.reads if stage.reads is not None else
             Reads.everything("nothing: the plan is as compiled "
                              "(optimize=False)"))
            for k, stage in enumerate(plan.stages)
            if hasattr(stage, "reads")]


# ElementSchema was born here (PR 6) as a bare reachability map; the
# type checker grew it into a full content-model schema with a generic
# DTD parser, so it now lives in analysis/schema.py.  Re-exported for
# back-compat: existing callers import it from this module.
from .schema import ElementSchema, known_schema  # noqa: E402,F401


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
