"""State transformers: the unit of query evaluation (paper Section II).

A pipeline stage is a tuple ``(S, s, z, i : f)`` — a state type, a current
state, an initial state, and a state transformer ``f : E x S -> E* x S``
attached to stream number ``i`` (or to several streams for binary
operations).  As in the paper, we code ``f`` as a *state modifier*
``F : E -> E*`` that destructively updates the state; the generic update
wrapper (:mod:`repro.core.wrapper`) clones the state when update regions
require it, via :meth:`StateTransformer.get_state` /
:meth:`StateTransformer.set_state`.

A transformer is **inert** when ``f*`` restores the state across any
well-formed input sequence; inert transformers need no state adjustment
(``adjust`` is the identity), which the wrapper exploits.

Non-inert transformers additionally implement:

* :meth:`adjust` — the paper's ``adjust(s1, s2, s3)``: given that an earlier
  transition changed ``s2`` to ``s3``, fix up a later state ``s1``;
* :meth:`on_transition` — invoked once per completed update (eR/eA/eB,
  hide, show) with the update's old/new boundary states; may emit events
  (e.g. the predicate's retroactive show/hide);
* :meth:`on_live_adjusted` — invoked after the live state is adjusted; may
  emit events (e.g. count re-emits its replace update with the fixed value).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from ..events.model import ES, ET, SS, ST, Event, IdGenerator


class MutabilityRegistry:
    """The global ``fix : id -> bool`` map of Section V.

    Content that was never declared mutable is *fixed* (closed to updates),
    so the default for unknown ids is True.  ``sM`` regions start not fixed
    unless the consumer declared that it ignores updates on that stream;
    ``sR/sB/sA`` regions inherit their target's fixedness; ``freeze``
    irrevocably fixes an id.
    """

    def __init__(self) -> None:
        self._not_fixed: set = set()
        self.ignored_streams: set = set()

    def is_fixed(self, id: int) -> bool:
        return id not in self._not_fixed

    def declare_mutable(self, id: int) -> None:
        if id not in self.ignored_streams:
            self._not_fixed.add(id)

    def inherit(self, target: int, new: int) -> None:
        """fix[new] <- fix[target] at the start of any update."""
        if target in self._not_fixed:
            self._not_fixed.add(new)

    def freeze(self, id: int) -> None:
        self._not_fixed.discard(id)

    def live_count(self) -> int:
        return len(self._not_fixed)


class Context:
    """Shared pipeline context: id allocator and the fix map."""

    def __init__(self, ids: Optional[IdGenerator] = None,
                 fix: Optional[MutabilityRegistry] = None) -> None:
        self.ids = ids if ids is not None else IdGenerator()
        self.fix = fix if fix is not None else MutabilityRegistry()

    def fresh_id(self) -> int:
        return self.ids.fresh()


State = Tuple
PASS_THROUGH: List[Event] = []


class UpdatePolicy(enum.Enum):
    """How update brackets on an input stream travel through a stage."""

    TRANSLATE = "translate"
    TRANSPARENT = "transparent"
    CONSUME = "consume"
    TEE = "tee"
    #: Update events are handed to the transformer's process() like data
    #: (no wrapper bookkeeping): for operators that must reorder brackets
    #: together with their content (sorting and tuple normalization).
    RAW = "raw"
    #: Region content is processed against the shared live state and the
    #: brackets are consumed silently — for consumed inputs whose operator
    #: tracks them via its own registers (the backward-axis join), where
    #: per-region state copies would wrongly overwrite interleaved live
    #: progress at the bracket's end.
    SHARED = "shared"


class StateTransformer:
    """Base class for pipeline stage operators.

    Attributes:
        input_ids: the stream number(s) this operator consumes.  Events on
            these streams (and on update regions nested in them) are fed to
            :meth:`process`; everything else passes through unchanged.
        output_id: the stream number of the operator's result (for unary
            relabeling operators this may equal the input).
        inert: True when ``f*`` preserves state over well-formed sequences.
    """

    inert = True
    #: When True (the base-class contract), :meth:`on_other` forwards
    #: foreign-stream events unchanged and has no side effects, so the
    #: batched pipeline driver may route events past this stage without
    #: calling it.  A subclass that overrides :meth:`on_other` with
    #: different behaviour MUST set this to False to opt out of routing.
    passes_foreign = True
    #: When True, events emitted while processing update-region content are
    #: discarded; the operator's visible result is refreshed through
    #: on_live_adjusted instead (used by aggregates whose whole output is a
    #: continuously replaced value).
    suppress_region_output = False
    #: Set by the wrapper before each process() call: True when the event
    #: being processed is update-region content (hence revocable), False
    #: for plain (immutable) stream content.  Predicates use this as the
    #: paper's fixed[e.id] test.
    region_mutable = False
    #: Set by the wrapper before each process() call: the input stream the
    #: event belongs to (the event's own id for live content, the region's
    #: root input stream for region content).  Binary operators route by
    #: this rather than by e.id.
    current_input_root = None
    #: Set by the wrapper before each process() call: the update region the
    #: event is content of (None for live content).
    current_region = None
    #: Set by the wrapper before each process() call: current_region and
    #: its positionally enclosing regions that are not yet frozen,
    #: innermost first (empty for live content).  Operators that slave
    #: output regions to input visibility register against every one of
    #: them; a frozen region can never change visibility again.
    current_region_chain = ()

    def __init__(self, ctx: Context, input_ids: Sequence[int],
                 output_id: int) -> None:
        self.ctx = ctx
        self.input_ids = tuple(input_ids)
        self.output_id = output_id

    def update_policy(self, stream_id: int) -> "UpdatePolicy":
        """How update brackets on ``stream_id`` travel through this stage.

        The default TRANSLATE re-emits brackets in output space.
        Overridden by operators with consumed inputs (aggregates),
        transparent outputs (concatenation), or tee behaviour (stream
        cloning).  The wrapper caches the answer per input stream, so the
        policy must be static per (operator, stream).
        """
        return UpdatePolicy.TRANSLATE

    def bracket_anchor(self) -> int:
        """The output-space container that translated brackets nest into.

        By default an update bracket arriving on the input stream is
        re-emitted targeting the operator's output stream.  Operators that
        are currently emitting *inside* an output-side region of their own
        making (e.g. the predicate's per-element mutable region) return
        that region's id so nested incoming brackets anchor correctly.
        """
        return self.output_id

    # -- static facts for the plan analyzer ----------------------------------

    def static_facts(self) -> dict:
        """Compile-time facts about this stage (see :mod:`repro.analysis`).

        Returns a dict with the keys:

        * ``streaming`` — True when the stage emits output incrementally
          (every stage in this engine does; operators that a conventional
          evaluator would block on instead set ``paper_blocking``).
        * ``paper_blocking`` — True for operators that are only unblocked
          *because* of the update-stream protocol (aggregates, sorting,
          concatenation): a plain-stream evaluator would have to buffer
          their whole input.
        * ``state_class`` — Koch-style memory class of the transformer
          state: ``"constant"``, ``"per-region"`` (grows with open/unsealed
          regions, reclaimed on freeze), ``"buffering"`` (bounded by one
          item/document feature), or ``"unbounded"`` (grows with the
          stream).
        * ``generates_updates`` — abbrevs of update-kind events this stage
          *originates* (not merely forwards), e.g. ``("sM", "freeze")``.
        * ``brackets`` — specs of the update brackets the stage emits,
          each a dict with ``kind`` (``"sM"``/``"sR"``/``"sB"``/``"sA"``),
          ``target`` and ``sub`` (a concrete stream number, or the string
          ``"dynamic"`` for ids allocated at run time; a spec may instead
          reference an earlier spec of the same stage via ``parent``, its
          index, meaning the target is that spec's dynamic sub),
          ``freeze`` (``"always"``, ``"never"``, ``"conditional"`` — only
          frozen when the source is immutable — or ``"derived"`` — frozen
          exactly when the covering input regions freeze), and ``per``
          (cardinality: ``"stream"``, ``"item"``, ``"tuple"``, ``"match"``
          or ``"nested"``).
        * ``notes`` — free-form remark surfaced in the lint report.
        * ``projection`` — how the stage transforms element *paths* for
          the stream-projection analyzer (:mod:`repro.analysis.projection`).
          One of ``{"kind": "step", "axis": "child"|"descendant",
          "tag": ...}`` (navigation: output paths extend input paths by
          one step), ``{"kind": "plumbing"}`` (copies/reorders/wraps
          without reading element content), ``{"kind": "content"}``
          (reads its input's content — the consumed subtrees must be
          kept whole; the safe default), or ``{"kind": "opaque"}``
          (defeats path analysis entirely — forces the universal
          projection).
        * ``reads`` — what the stage reads of each *item* of its input,
          as a function of what is read of its output
          (:func:`repro.analysis.projection.stage_reads` has one
          transfer rule per ``kind``: ``items``, ``wrap``, ``child``,
          ``descendant``, ``filter``, ``boundaries``, ``join``).  Absent
          by default: a stage that declares nothing reads everything.

        The base class describes an inert pass-through stage; every
        update-originating operator overrides this.
        """
        return {
            "streaming": True,
            "paper_blocking": False,
            "state_class": "constant",
            "generates_updates": (),
            "brackets": (),
            "notes": "",
            "projection": {"kind": "content"},
        }

    def type_facts(self) -> dict:
        """How this stage transforms element *types* (see
        :mod:`repro.analysis.types`).

        The type checker propagates, per stream, a regular-expression
        content type (which element tags / text an item sequence may
        contain under a document schema).  Each operator declares its
        transfer function as a small dict keyed on ``kind``:

        * ``{"kind": "step", "axis": "child"|"descendant", "tag": t}`` —
          navigation: output labels are the schema children/descendants
          of the input labels, filtered to ``t`` (``None`` = wildcard).
        * ``{"kind": "copy"}`` — output type is the union of the input
          types (tee, self step, tuple plumbing).
        * ``{"kind": "filter"}`` — output is a sub-language of the input
          (predicates; the checker reads ``self.conditions`` to prove a
          never-true condition empty).
        * ``{"kind": "text"}`` — emits character data per input item
          (text step, string value): empty input => empty output.
        * ``{"kind": "flag"}`` — emits boolean flag cDs per input value
          (comparisons, exists): empty input => empty output.
        * ``{"kind": "literal"}`` — emits literal text per tuple.
        * ``{"kind": "union"}`` — output is the union of both inputs
          (concatenation): empty only when *both* inputs are.
        * ``{"kind": "construct", "tag": t, "always": bool}`` — wraps
          content in a constructed element ``t``; ``always`` marks the
          per-stream constructor that emits its wrapper even on empty
          input (never empty).
        * ``{"kind": "aggregate"}`` — emits a text value even for empty
          input (count's ``"0"``): never empty.
        * ``{"kind": "join", "keep": i, "requires": j}`` — output is a
          sub-language of input ``i``, and provably empty when input
          ``j`` is empty (the backward-axis join).
        * ``{"kind": "empty"}`` — emits no content at all (Drop,
          StructuralRelay).
        * ``{"kind": "opaque"}`` — unknown transfer: output is TOP.
          The safe default for stages the checker has not been taught.
        """
        return {"kind": "opaque"}

    # -- the state modifier F ----------------------------------------------

    def process(self, e: Event) -> List[Event]:
        """Handle one event of the operator's own stream(s)."""
        raise NotImplementedError

    def on_other(self, e: Event) -> List[Event]:
        """Handle an event of a foreign stream (default: pass through)."""
        return [e]

    def on_end(self) -> List[Event]:
        """Called once when the global stream ends (flush hook)."""
        return []

    # -- state cloning for the wrapper ---------------------------------------

    def get_state(self) -> State:
        """Snapshot the mutable state as an immutable value."""
        return ()

    def set_state(self, state: State) -> None:
        """Restore a snapshot taken by :meth:`get_state`."""

    def state_cells(self, state: State) -> int:
        """Approximate retained size of one state copy (for accounting)."""
        return _count_cells(state)

    # -- update adjustment (non-inert transformers override) -----------------

    def adjust(self, state: State, s1: State, s2: State) -> State:
        """The paper's adjust: s2 changed to s3=s2'; fix up ``state``."""
        return state

    def on_transition(self, uid: int, s1: State, s2: State) -> List[Event]:
        """Events to embed when update ``uid`` changed s1 -> s2."""
        return []

    def on_live_adjusted(self, old: State, new: State) -> List[Event]:
        """Events to embed after the live state was adjusted."""
        return []

    def on_region_hidden(self, uid: int) -> List[Event]:
        """Hook: a tracked region was hidden (may emit events)."""
        return []

    def on_region_shown(self, uid: int) -> List[Event]:
        """Hook: a tracked region was shown again (may emit events)."""
        return []

    def on_region_frozen(self, uid: int) -> List[Event]:
        """Hook: a tracked region was sealed (may emit events)."""
        return []

    def __repr__(self) -> str:
        return "{}(in={}, out={})".format(type(self).__name__,
                                          self.input_ids, self.output_id)


def _count_cells(value: object) -> int:
    if isinstance(value, (tuple, list, frozenset, set)):
        return 1 + sum(_count_cells(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(_count_cells(k) + _count_cells(v)
                       for k, v in value.items())
    return 1


class Identity(StateTransformer):
    """Pass a stream through unchanged (useful in tests and as a spacer)."""

    def process(self, e: Event) -> List[Event]:
        return [e]

    def type_facts(self) -> dict:
        return {"kind": "copy"}


class Relabel(StateTransformer):
    """Relabel a stream to a new stream number."""

    def process(self, e: Event) -> List[Event]:
        return [e.relabel(self.output_id)]

    def type_facts(self) -> dict:
        return {"kind": "copy"}


class Drop(StateTransformer):
    """Consume a stream, emitting nothing (used to discard residue)."""

    def process(self, e: Event) -> List[Event]:
        return PASS_THROUGH

    def type_facts(self) -> dict:
        return {"kind": "empty"}


class StructuralRelay(StateTransformer):
    """Relay only structural events (sS/eS/sT/eT); drop all content.

    The residue of static dead-stage elimination
    (:func:`repro.analysis.types.optimize_plan`): a stage whose output
    type is provably empty forwards structural events unchanged and —
    by the emptiness proof — never any content, so this constant-state
    relay is byte-equivalent to it (and to any chain of such stages).
    """

    inert = True

    def process(self, e: Event) -> List[Event]:
        if e.kind in (SS, ES, ST, ET):
            return [e.relabel(self.output_id)]
        return PASS_THROUGH

    def static_facts(self) -> dict:
        facts = super().static_facts()
        facts.update(notes="statically-empty segment (dead stages "
                           "eliminated by the type checker)")
        facts["projection"] = {"kind": "plumbing"}
        return facts

    def type_facts(self) -> dict:
        return {"kind": "empty"}


def run_sequence(transformer: StateTransformer,
                 events: Sequence[Event]) -> List[Event]:
    """Apply the raw state modifier over a sequence (the paper's ``f*``).

    Bypasses the update wrapper: update events are treated as foreign.
    Used by unit tests that exercise a single operator in isolation.
    """
    out: List[Event] = []
    tracked = set(transformer.input_ids)
    for e in events:
        if not e.is_update and e.id in tracked:
            out.extend(transformer.process(e))
        else:
            out.extend(transformer.on_other(e))
    out.extend(transformer.on_end())
    return out
