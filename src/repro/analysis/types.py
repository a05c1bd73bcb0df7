"""Regular-expression type inference and effect checking over plans.

Cheney's *Regular Expression Subtyping for XML Query and Update
Languages* (PAPERS.md) types XQuery/XQuery-Update expressions against a
regular-expression schema; this module is the stream-algebra analogue
for compiled XFlux plans.  Every virtual stream of a plan carries a
forest of items; under a document schema (:class:`ElementSchema`) we can
bound, per stream, which element labels and text that forest may
contain.  The abstraction is deliberately coarse — a stream type is the
star-closure ``(l1 | l2 | ... | #text)*`` over a finite label set —
because that is exactly what the three consumers need:

* **emptiness**: a stream whose label set is empty provably carries no
  content, so a step whose tag is unreachable under the schema makes
  every downstream forest empty.  The compiler replaces such dead
  stages with :class:`~repro.core.transformer.StructuralRelay` (and a
  statically-empty *plan* with a single relay), the multi-query
  executor never feeds provably-empty members.
* **per-stage types**: ``repro analyze --types`` surfaces each stage's
  inferred input/output languages next to the kind of its
  :meth:`~repro.core.transformer.StateTransformer.shape`, whose type
  rule produced them (DESIGN.md section 16).
* **effect checks**: each stage's declared ``sM/sR/sB/sA`` bracket
  specs are validated structurally (malformed kinds, freeze modes,
  dangling parent references, unknown compile-time targets — the class
  of mistakes the runtime sanitizer can only reject mid-stream) and
  against the schema's *mutability regions*: an insert effect anchored
  at elements whose content-model position is fixed (no ``*``/``+``)
  is flagged, and an effect targeting a statically-empty stream can
  never fire.

Soundness (DESIGN.md section 12): types only ever over-approximate — a
non-empty inferred type promises nothing, but an *empty* inferred type
is a proof, provided the schema is authoritative for the tags it
declares (undeclared tags stay unknown and poison precision, never
soundness).  Inference is refused for mutable-source plans: an update
stream may insert elements at positions the static document type does
not predict.
"""

from __future__ import annotations

from functools import reduce
from typing import (TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Iterable,
                    List, Optional, Sequence, Tuple)

from ..core.transformer import Shape, StateTransformer, StructuralRelay
from ..events.model import CD, SE
from ..obs.recorder import stage_identities
from .dataflow import forward
from .schema import ElementSchema, known_schema

if TYPE_CHECKING:  # plan types only; imported lazily at run time
    from ..xquery.compiler import Plan

__all__ = [
    "StreamType", "StageTypeReport", "TypeReport", "TypeCheckError",
    "infer_types", "optimize_plan", "constant_empty_plan",
    "verify_types_against_runtime",
]


class TypeCheckError(ValueError):
    """Type inference cannot be applied to this plan."""


class StreamType:
    """The content language of one virtual stream: ``(l1|...|#text)*``.

    Attributes:
        labels: element tags the forest may contain at top level, with
            schema-governed content (they came from the document).
        ctors: element tags whose *content* is not schema-governed —
            query-constructed elements, or document elements reached
            through a part of the schema that is unknown.  Navigating
            into them loses precision, never soundness.
        text: whether top-level character data may occur.
        top: unknown language — anything may occur (the lattice top).
    """

    __slots__ = ("labels", "ctors", "text", "top")

    def __init__(self, labels: Iterable[str] = (),
                 ctors: Iterable[str] = (),
                 text: bool = False, top: bool = False) -> None:
        self.labels: FrozenSet[str] = frozenset(labels)
        self.ctors: FrozenSet[str] = frozenset(ctors)
        self.text = bool(text)
        self.top = bool(top)

    @property
    def is_empty(self) -> bool:
        return not (self.top or self.text or self.labels or self.ctors)

    def union(self, other: "StreamType") -> "StreamType":
        if self.top or other.top:
            return TOP
        return StreamType(self.labels | other.labels,
                          self.ctors | other.ctors,
                          self.text or other.text)

    def describe(self) -> str:
        if self.top:
            return "any*"
        if self.is_empty:
            return "()"
        atoms = sorted(self.labels)
        atoms += sorted("<{}>".format(t) for t in self.ctors)
        if self.text:
            atoms.append("#text")
        return "({})*".format(" | ".join(atoms))

    def size(self) -> int:
        """Number of atoms in the language (for the experiments table)."""
        return len(self.labels) + len(self.ctors) + (1 if self.text else 0)

    def to_dict(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "ctors": sorted(self.ctors),
            "text": self.text,
            "top": self.top,
            "empty": self.is_empty,
            "describe": self.describe(),
        }

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StreamType)
                and self.labels == other.labels
                and self.ctors == other.ctors
                and self.text == other.text and self.top == other.top)

    def __hash__(self) -> int:
        return hash((self.labels, self.ctors, self.text, self.top))

    def __repr__(self) -> str:
        return "StreamType({})".format(self.describe())


EMPTY_TYPE = StreamType()
TEXT_TYPE = StreamType(text=True)
TOP = StreamType(top=True)


def _navigate(base: StreamType, axis: str, tag: Optional[str],
              schema: Optional[ElementSchema]) -> StreamType:
    """Transfer function of a child/descendant step."""
    if base.is_empty:
        return EMPTY_TYPE
    labels: set = set()
    unknown = base.top or bool(base.ctors)
    if schema is None:
        unknown = unknown or bool(base.labels)
    else:
        for label in base.labels:
            reach = (schema.children(label) if axis == "child"
                     else schema.descendants(label))
            if reach is None:
                unknown = True
            else:
                labels |= reach
    if tag is not None:
        labels &= {tag}
    if unknown:
        if tag is None:
            return TOP
        return StreamType(labels, ctors=(tag,))
    return StreamType(labels)


class StageTypeReport:
    """Inferred types for one stage."""

    def __init__(self, index: int, label: str, kind: str,
                 inputs: "List[Tuple[int, StreamType]]",
                 output_id: int, output: StreamType,
                 dead: bool, proof: Optional[str]) -> None:
        self.index = index
        self.label = label
        self.kind = kind
        self.inputs = inputs
        self.output_id = output_id
        self.output = output
        #: Provably-empty output *and* replaceable by a StructuralRelay.
        self.dead = dead
        self.proof = proof

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "kind": self.kind,
            "inputs": [{"stream": sid, "type": t.to_dict()}
                       for sid, t in self.inputs],
            "output_stream": self.output_id,
            "output": self.output.to_dict(),
            "dead": self.dead,
            "proof": self.proof,
        }


class TypeReport:
    """The complete inference result for one plan."""

    def __init__(self, plan, schema: Optional[ElementSchema],
                 schema_label: Optional[str],
                 stream_types: Dict[int, StreamType],
                 stages: List[StageTypeReport],
                 proofs: List[str],
                 effect_lints: List[dict]) -> None:
        self.plan = plan
        self.schema = schema
        self.schema_label = schema_label
        self.stream_types = stream_types
        self.stages = stages
        self.proofs = proofs
        self.effect_lints = effect_lints
        self.source_type = stream_types.get(plan.source_id, TOP)
        self.result_type = stream_types.get(plan.result_id, TOP)
        #: The whole plan provably produces no visible content.
        self.statically_empty = self.result_type.is_empty

    @property
    def dead_stages(self) -> List[int]:
        return [s.index for s in self.stages if s.dead]

    def to_dict(self) -> dict:
        return {
            "schema": self.schema_label,
            "closed_schema": bool(self.schema is not None
                                  and self.schema.closed),
            "source_type": self.source_type.to_dict(),
            "result_type": self.result_type.to_dict(),
            "statically_empty": self.statically_empty,
            "dead_stages": self.dead_stages,
            "stages": [s.to_dict() for s in self.stages],
            "proofs": list(self.proofs),
            "effect_lints": list(self.effect_lints),
        }

    def render(self) -> str:
        lines = ["type report (schema: {})".format(
            self.schema_label or
            ("<inline>" if self.schema is not None else "none"))]
        lines.append("  source {}: {}".format(
            self.plan.source_id, self.source_type.describe()))
        for s in self.stages:
            ins = ", ".join("{}:{}".format(sid, t.describe())
                            for sid, t in s.inputs)
            marker = "  [dead]" if s.dead else ""
            lines.append("  [{:2d}] {:<28} {} -> {}:{}{}".format(
                s.index, s.label, ins or "-", s.output_id,
                s.output.describe(), marker))
        lines.append("  result {}: {}".format(
            self.plan.result_id, self.result_type.describe()))
        lines.append("  statically empty: {}".format(
            "YES" if self.statically_empty else "no"))
        if self.proofs:
            lines.append("  emptiness proofs:")
            for p in self.proofs:
                lines.append("    - {}".format(p))
        if self.effect_lints:
            lines.append("  effect lints:")
            for lint in self.effect_lints:
                lines.append("    - [{}] stage {} ({}): {}".format(
                    lint["severity"], lint["stage"], lint["label"],
                    lint["message"]))
        return "\n".join(lines)


# -- inference ---------------------------------------------------------------

#: Shape kinds whose event behaviour on a provably-empty output is exactly
#: a structural relay (forward sS/eS/sT/eT, nothing else), making them
#: replaceable by :class:`StructuralRelay`.  Predicates ("filter") emit
#: optimistic regions that are retracted by item end, so their *final*
#: output is empty but their event stream is not — they are proven
#: empty (and replaced) too, which suppresses only transient output.
_RELAY_SAFE_KINDS = frozenset(("step", "filter", "text", "flag", "empty"))

#: A type rule's answer: the output type, and why it is empty when the
#: rule proved it so.
Typed = Tuple[StreamType, Optional[str]]
Schema = Optional[ElementSchema]


def _condition_type(cond: Any, item_type: StreamType,
                    schema: Schema) -> StreamType:
    """Type the output of one predicate condition chain."""
    types = forward(cond.stages, {cond.input_id: item_type},
                    lambda stage, ins: _stage_type(stage, ins, schema)[0],
                    EMPTY_TYPE)
    return types.get(cond.output_id, TOP)


def _step_type(shape: Shape, ins: List[StreamType], joined: StreamType,
               schema: Schema) -> Typed:
    if shape.axis == "self":
        return joined, None
    out = _navigate(joined, shape.axis, shape.tag, schema)
    if out.is_empty and not joined.is_empty:
        return out, ("no {} named {!r} reachable from {} under the schema"
                     .format(shape.axis, shape.tag if shape.tag is not None
                             else "*", joined.describe()))
    return out, None


def _filter_type(shape: Shape, ins: List[StreamType], joined: StreamType,
                 schema: Schema) -> Typed:
    """A sub-language of the input; empty when the conditions can never
    hold together, because an inline chain's output is empty."""
    conditions = shape.conditions
    if joined.is_empty or not conditions:
        return joined, None
    dead = [i for i, cond in enumerate(conditions)
            if _condition_type(cond, joined, schema).is_empty]
    if not (dead if shape.combine == "and"
            else len(dead) == len(conditions)):
        return joined, None
    return EMPTY_TYPE, (
        "condition{} {} can never be true (condition path is empty under "
        "the schema)".format("s" if len(dead) > 1 else "", dead))


def _join_type(shape: Shape, ins: List[StreamType], joined: StreamType,
               schema: Schema) -> Typed:
    """A sub-language of input ``keep``; empty when the other input is."""
    other = 1 - shape.keep
    out = EMPTY_TYPE if ins[other].is_empty else ins[shape.keep]
    if out.is_empty and not joined.is_empty:
        return out, ("join input {} is empty — no ancestor can ever "
                     "match".format(other))
    return out, None


#: Type transfer rule per shape kind: the output type given the shape,
#: the input types, their union and the schema.
_TYPE_RULES: Dict[str, Callable[[Shape, List[StreamType], StreamType,
                                Schema], Typed]] = {
    "step": _step_type,
    "filter": _filter_type,
    "join": _join_type,
    # The sort's key text joins in too: over-approximated.
    **dict.fromkeys(("copy", "concat", "sort"),
                    lambda shape, ins, joined, schema: (joined, None)),
    # Character data per input item: no items, no text.
    **dict.fromkeys(("text", "flag", "literal"),
                    lambda shape, ins, joined, schema: (
                        EMPTY_TYPE if joined.is_empty else TEXT_TYPE, None)),
    # One element per tuple, or one per stream even for empty input.
    "construct": lambda shape, ins, joined, schema: (
        EMPTY_TYPE if joined.is_empty and not shape.per_stream
        else StreamType(ctors=(shape.tag,)), None),
    # A value even for empty input (count's "0"): never empty.
    "aggregate": lambda shape, ins, joined, schema: (TEXT_TYPE, None),
    "empty": lambda shape, ins, joined, schema: (EMPTY_TYPE, None),
}


def _stage_type(stage: StateTransformer, ins: List[StreamType],
                schema: Schema) -> Typed:
    """The rule of the stage's shape; ``any*`` where there is none."""
    shape = stage.shape()
    rule = _TYPE_RULES.get(shape.kind)
    if rule is None:
        return TOP, None
    return rule(shape, ins, reduce(StreamType.union, ins, EMPTY_TYPE),
                schema)


def infer_types(plan: "Plan", schema=None,
                schema_label: Optional[str] = None) -> TypeReport:
    """Run type inference over a compiled plan.

    Args:
        plan: a :class:`repro.xquery.compiler.Plan` for an immutable
            source (mutable update sources are refused: inserted
            content is not bounded by the document type).
        schema: anything :func:`repro.analysis.schema.known_schema`
            accepts (``None`` types everything as unknown).
        schema_label: display name recorded in the report.
    """
    if plan.mutable_source:
        raise TypeCheckError(
            "type inference is unsound for mutable update sources: "
            "embedded sM/sR/sB/sA updates may insert content the "
            "static document type does not bound (compile the plan "
            "without --updates to analyze it)")
    if schema_label is None and isinstance(schema, str):
        schema_label = schema
    schema = known_schema(schema)
    source = (StreamType(labels=(schema.root,))
              if schema is not None and schema.root is not None else TOP)
    #: Why each stage's output is empty, as of the last round.
    proofs: Dict[StateTransformer, Optional[str]] = {}

    def transfer(stage: StateTransformer,
                 ins: List[StreamType]) -> StreamType:
        out, proofs[stage] = _stage_type(stage, ins, schema)
        return out

    types = forward(plan.stages, {plan.source_id: source}, transfer,
                    EMPTY_TYPE)
    identities = stage_identities(plan.stages)
    stages, proof_texts = _stage_reports(plan, types, proofs, identities)
    return TypeReport(plan, schema, schema_label, types, stages,
                      proof_texts, _check_effects(plan, types, schema,
                                                  identities))


def _stage_reports(plan: "Plan", types: Dict[int, StreamType],
                   proofs: Dict[StateTransformer, Optional[str]],
                   identities) -> Tuple[List[StageTypeReport], List[str]]:
    """Per-stage reports and the emptiness proofs, in stage order."""
    reports: List[StageTypeReport] = []
    texts: List[str] = []
    for idx, stage in enumerate(plan.stages):
        label = identities[idx].label
        if proofs.get(stage):
            texts.append("stage [{}] {}: {}".format(idx, label,
                                                   proofs[stage]))
        kind = stage.shape().kind
        out = types.get(stage.output_id, TOP)
        reports.append(StageTypeReport(
            index=idx, label=label, kind=kind,
            inputs=[(sid, types.get(sid, EMPTY_TYPE))
                    for sid in stage.input_ids],
            output_id=stage.output_id, output=out,
            dead=(out.is_empty and kind in _RELAY_SAFE_KINDS
                  and len(stage.input_ids) == 1),
            proof=None))
    return reports, texts


# -- effect checking ---------------------------------------------------------

_VALID_BRACKET_KINDS = frozenset(("sM", "sR", "sB", "sA"))
_VALID_FREEZE = frozenset(("always", "never", "conditional", "derived"))
_VALID_PER = frozenset(("stream", "item", "tuple", "match", "nested"))


def _resolve_anchor(specs: Sequence[dict], spec: dict) -> Optional[int]:
    """The compile-time stream a spec's insert position anchors at.

    A concrete integer target answers directly; a ``"dynamic"`` target
    with a ``parent`` reference anchors inside the parent spec's region,
    so the parent's target stream is the anchor.
    """
    seen = 0
    while True:
        target = spec.get("target")
        if isinstance(target, int):
            return target
        parent = spec.get("parent")
        if not isinstance(parent, int) or not 0 <= parent < len(specs):
            return None
        spec = specs[parent]
        seen += 1
        if seen > len(specs):  # cyclic parent chain (malformed)
            return None


def _check_effects(plan: "Plan", types: Dict[int, StreamType],
                   schema: Optional[ElementSchema],
                   identities) -> List[dict]:
    """Validate declared bracket specs structurally and against the
    schema's mutability regions."""
    lints: List[dict] = []

    def add(severity: str, idx: int, spec_idx: int, message: str) -> None:
        lints.append({
            "severity": severity, "stage": idx,
            "label": identities[idx].label, "spec": spec_idx,
            "message": message,
        })

    for idx, stage in enumerate(plan.stages):
        specs = tuple(stage.static_facts().get("brackets", ()))
        for j, spec in enumerate(specs):
            kind = spec.get("kind")
            if kind not in _VALID_BRACKET_KINDS:
                add("error", idx, j,
                    "unknown bracket kind {!r} (expected one of {})"
                    .format(kind, sorted(_VALID_BRACKET_KINDS)))
                continue
            if spec.get("freeze") not in _VALID_FREEZE:
                add("error", idx, j, "invalid freeze mode {!r}".format(
                    spec.get("freeze")))
            if spec.get("per") not in _VALID_PER:
                add("error", idx, j, "invalid cardinality {!r}".format(
                    spec.get("per")))
            for field in ("target", "sub"):
                value = spec.get(field)
                if isinstance(value, int):
                    if not 0 <= value < plan.first_runtime_id:
                        add("error", idx, j,
                            "{} {} is not a compile-time id (watermark "
                            "{})".format(field, value,
                                         plan.first_runtime_id))
                elif value != "dynamic":
                    add("error", idx, j,
                        "{} must be a stream number or 'dynamic', got "
                        "{!r}".format(field, value))
            parent = spec.get("parent")
            if parent is not None and (
                    not isinstance(parent, int) or not 0 <= parent < j):
                add("error", idx, j,
                    "parent must reference an earlier spec of the same "
                    "stage, got {!r}".format(parent))
            # Cross with inferred types: a declared effect on a
            # statically-empty stream can never fire at run time.
            target = spec.get("target")
            if isinstance(target, int) and target in types \
                    and types[target].is_empty:
                add("note", idx, j,
                    "declared {} effect targets statically-empty stream "
                    "{}; it can never fire".format(kind, target))
                continue
            # Schema mutability regions: an insert effect anchored at
            # elements holding a fixed content-model position is not
            # schema-preserving if applied at their document position.
            if kind in ("sB", "sA") and schema is not None:
                anchor = _resolve_anchor(specs, spec)
                anchor_type = types.get(anchor) if anchor is not None \
                    else None
                if anchor_type is None:
                    continue
                rigid = {label: sorted(schema.rigid_parents(label))
                         for label in sorted(anchor_type.labels)
                         if schema.rigid_parents(label)}
                if rigid:
                    add("note", idx, j,
                        "{} insert anchored at {} — rigid content-model "
                        "position{} ({}); a document insert here would "
                        "violate the schema".format(
                            kind,
                            "/".join(sorted(rigid)),
                            "s" if len(rigid) > 1 else "",
                            "; ".join("{} fixed under {}".format(
                                label, ", ".join(parents))
                                for label, parents in rigid.items())))
    return lints


# -- plan optimization -------------------------------------------------------

def constant_empty_plan(plan: "Plan") -> "Plan":
    """A byte-equivalent replacement for a statically-empty plan.

    One :class:`StructuralRelay` forwards the source's structural
    events to the result stream; by the emptiness proof the original
    stage chain never contributed visible content beyond that.
    Document-order oids are no longer read by anyone, so the tokenizer
    may stop emitting them.
    """
    from ..xquery.compiler import Plan
    relay = StructuralRelay(plan.ctx, (plan.source_id,), plan.result_id)
    return Plan([relay], plan.source_id, plan.result_id, plan.ctx,
                needs_oids=False, mutable_source=False)


def optimize_plan(plan: "Plan", schema=None,
                  report: Optional[TypeReport] = None) -> "Plan":
    """Drop provably-dead stages; collapse statically-empty plans.

    Returns ``plan`` unchanged when nothing is provable (no schema, a
    mutable source, or no empty stream).  Otherwise returns a new plan
    sharing the context: dead stages are replaced by
    :class:`StructuralRelay` (adjacent relays merged), and a
    statically-empty plan becomes :func:`constant_empty_plan`.
    """
    if plan.mutable_source:
        return plan
    if report is None:
        try:
            report = infer_types(plan, schema)
        except TypeCheckError:
            return plan
    if report.statically_empty:
        return constant_empty_plan(plan)
    dead = set(report.dead_stages)
    if not dead:
        return plan
    from ..xquery.compiler import Plan
    stages: List[StateTransformer] = []
    for idx, stage in enumerate(plan.stages):
        if idx in dead:
            stages.append(StructuralRelay(plan.ctx, stage.input_ids,
                                          stage.output_id))
        else:
            stages.append(stage)
    stages = _merge_relays(stages, plan)
    return Plan(stages, plan.source_id, plan.result_id, plan.ctx,
                needs_oids=plan.needs_oids,
                mutable_source=plan.mutable_source)


def _merge_relays(stages: List[StateTransformer],
                  plan: "Plan") -> List[StateTransformer]:
    """Collapse relay chains: relay A feeding only relay B becomes one."""
    consumers: Dict[int, int] = {plan.result_id: 1}
    for stage in stages:
        for sid in stage.input_ids:
            consumers[sid] = consumers.get(sid, 0) + 1
    merged = True
    while merged:
        merged = False
        by_output = {stage.output_id: i for i, stage in enumerate(stages)
                     if isinstance(stage, StructuralRelay)}
        for i, stage in enumerate(stages):
            if not isinstance(stage, StructuralRelay):
                continue
            if len(stage.input_ids) != 1:
                continue
            src = stage.input_ids[0]
            j = by_output.get(src)
            if j is None or consumers.get(src, 0) != 1:
                continue
            upstream = stages[j]
            stages[j] = StructuralRelay(plan.ctx, upstream.input_ids,
                                        stage.output_id)
            del stages[i]
            merged = True
            break
    return stages


# -- runtime cross-check -----------------------------------------------------

def verify_types_against_runtime(report: TypeReport, recorder
                                 ) -> List[str]:
    """Check inferred emptiness against observed per-stage traffic.

    For every stage whose output type is provably empty and whose kind
    emits only what is visible (steps, text/flag extractors — not
    predicates, whose optimistic regions are retracted later), the
    recorded output stream must contain no element or character events.
    Emptiness that *flows through* a filter is transient too: a stage
    downstream of an empty-typed predicate still receives and forwards
    the predicate's optimistic regions, so only stages whose emptiness
    is established without crossing a filter are held to zero traffic.
    Returns human-readable contradictions (empty list = consistent).
    """
    problems: List[str] = []
    metrics = {sm.identity.index: sm for sm in recorder.stages}
    transient: set = set()
    for s in report.stages:
        if s.output.is_empty and (
                s.kind == "filter"
                or any(sid in transient for sid, _ in s.inputs)):
            transient.add(s.output_id)
    for s in report.stages:
        if not s.output.is_empty or s.kind not in ("step", "text",
                                                   "flag", "empty"):
            continue
        if s.output_id in transient:
            continue
        sm = metrics.get(s.index)
        if sm is None:
            continue
        elements = sm.out_counts[SE]
        cdata = sm.out_counts[CD]
        if elements or cdata:
            problems.append(
                "stage [{}] {} typed empty but emitted {} sE / {} cD "
                "events".format(s.index, s.label, elements, cdata))
    return problems
