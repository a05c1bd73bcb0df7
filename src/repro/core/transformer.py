"""State transformers: the unit of query evaluation (paper Section II).

A pipeline stage is a tuple ``(S, s, z, i : f)`` — a state type, a current
state, an initial state, and a state transformer ``f : E x S -> E* x S``
attached to stream number ``i`` (or to several streams for binary
operations).  As in the paper, we code ``f`` as a *state modifier*
``F : E -> E*`` that destructively updates the state: the operator's
fields live in one :class:`State` object, ``self.state``, which
``process`` mutates in place.  The generic update wrapper
(:mod:`repro.core.wrapper`) keeps one such object per update region in
the region's record and points ``self.state`` at the right one before
each ``process`` call, so a state swap is one reference assignment; a
region's copy is taken the first time its content runs against a state
it shares.  The wrapper also tells ``process`` which stream id to emit
on (``out``): the operator's output stream for live content, the
translated region id while it replays a region it translates, so no
emitted event has to be relabeled a second time.

A transformer is **inert** when ``f*`` restores the state across any
well-formed input sequence; inert transformers need no state adjustment
(``adjust`` is the identity), which the wrapper exploits.

Non-inert transformers additionally implement:

* :meth:`adjust` — the paper's ``adjust(s1, s2, s3)``: given that an earlier
  transition changed ``s2`` to ``s3``, fix up a later state ``s1``
  (a pure function over state snapshots);
* :meth:`on_transition` — invoked once per completed update (eR/eA/eB,
  hide, show) with the update's old/new boundary states; may emit events
  (e.g. the predicate's retroactive show/hide);
* :meth:`on_live_adjusted` — invoked after the live state is adjusted; may
  emit events (e.g. count re-emits its replace update with the fixed value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any, List, Optional, Sequence, Tuple

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


class State:
    """One value of a stage's state type ``S`` (paper Section II).

    A subclass names its fields in ``__slots__``; they hold immutable
    values (numbers, strings, tuples) or nested ``State`` objects that
    :meth:`copy` copies.  :meth:`values` is the state as the paper's
    tuple: what equality compares and what :meth:`cells` sizes for
    accounting.  The update wrapper mutates a state only through the
    operator's ``process`` and only while it is the one record's own; a
    ``start`` or ``shadow`` snapshot is never mutated, so snapshots may
    be shared.
    """

    __slots__: Tuple[str, ...] = ()

    def copy(self) -> "State":
        """An independent copy (hot subclasses spell theirs out)."""
        new = object.__new__(type(self))
        for name in self.__slots__:
            setattr(new, name, getattr(self, name))
        return new

    def values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def cells(self) -> int:
        """Approximate retained size of this copy (for accounting)."""
        return _count_cells(self.values())

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.values() == other.values()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "{}{!r}".format(type(self).__name__, self.values())


class _Stateless(State):
    """The state of an operator that keeps none: one object nobody
    mutates, sized like the empty tuple it stands for."""

    __slots__ = ()

    def copy(self) -> State:
        return self


NO_STATE = _Stateless()
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


@dataclass(frozen=True)
class Shape:
    """What one operator is, as the static analyses see it
    (:meth:`StateTransformer.shape` lists the kinds)."""

    kind: str
    axis: Optional[str] = None
    tag: Optional[str] = None
    conditions: Tuple = ()
    combine: str = "and"
    per_stream: bool = False
    reads_items: bool = False
    keep: int = 0
    candidates: Optional[int] = None
    direct_only: bool = False
    item_input: Optional[int] = None

    def to_dict(self) -> dict:
        """The kind and every parameter off its default (JSON-able)."""
        out: dict = {"kind": self.kind}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = ([repr(c) for c in value]
                               if f.name == "conditions" else value)
        return out


OPAQUE = Shape("opaque")


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
    #: The mutable state ``process`` works on (see :class:`State`); an
    #: operator that keeps state assigns its own in ``__init__``.  The
    #: update wrapper points it at the state of the region an event
    #: belongs to before each ``process`` call.
    state: State = NO_STATE
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
    region_mutable: bool = False
    #: Set by the wrapper before each process() call: the input stream the
    #: event belongs to (the event's own id for live content, the region's
    #: root input stream for region content).  Binary operators route by
    #: this rather than by e.id.
    current_input_root: Optional[int] = None
    #: Set by the wrapper before each process() call: the update region the
    #: event is content of (None for live content).
    current_region: Optional[int] = None
    #: Set by the wrapper before each process() call: current_region and
    #: its positionally enclosing regions that are not yet frozen,
    #: innermost first (empty for live content).  Operators that slave
    #: output regions to input visibility register against every one of
    #: them; a frozen region can never change visibility again.
    current_region_chain: Tuple[int, ...] = ()

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

    #: True for a stage that may hold an item's root before it decides
    #: whether to emit the item (:mod:`repro.operators.deferral`): the
    #: wrapper asks :meth:`holds` before a bracket opens on a state.
    defers = False

    def holds(self, state: State) -> bool:
        """Does ``state`` hold an item's root, nothing of it emitted?"""
        return False

    def open_held(self, out: int) -> List[Event]:
        """Open the held item's region in ``self.state``, emitting on
        ``out``; the events go before a bracket that opens inside it."""
        return []

    def bracket_anchor(self, uid: int) -> int:
        """The output-space container the translated bracket of region
        ``uid``, opening on an input stream, nests into.

        By default an update bracket arriving on the input stream is
        re-emitted targeting the operator's output stream.  Operators that
        are currently emitting *inside* an output-side region of their own
        making (e.g. the predicate's per-element mutable region) return
        that region's id so nested incoming brackets anchor correctly.
        """
        return self.output_id

    # -- what the static analyses read ----------------------------------------

    def shape(self) -> "Shape":
        """What this operator *is*, for the plan's static analyses.

        The path projection, the reads pass and type inference
        (:mod:`repro.analysis`) each keep one transfer rule per kind
        (DESIGN.md section 16); a kind without a rule gets that
        analysis's top: the universal projection, ``ALL`` reads, type
        ``any*``.  The base class is ``opaque``.

        Its ``kind`` is one of:

        * ``step`` — navigation along ``axis`` (``"child"``,
          ``"descendant"`` or ``"self"``) to elements named ``tag`` (None:
          any);
        * ``copy`` — passes its input's items on as they are (tee, tuple
          plumbing);
        * ``filter`` — passes a subset of its items, decided by the inline
          ``conditions`` combined with ``combine`` (``"and"``/``"or"``);
        * ``text`` — character data per input item (text step, string value);
        * ``flag`` — one boolean cD per input value (comparisons, exists);
        * ``literal`` — one constant cD per tuple of its input;
        * ``concat`` — both inputs' items, left before right;
        * ``construct`` — wraps content in an element ``tag``: the whole
          stream (``per_stream``, emitted even for empty input) or each
          tuple;
        * ``aggregate`` — one value for the whole input, shown even for
          empty input; ``reads_items`` when the value depends on the items'
          content, not only on how many there are;
        * ``join`` — the backward-axis join: items of input ``keep`` that
          contain an item of the other input; ``candidates`` is the stream
          the candidates arrive on, ``direct_only`` restricts to parents;
        * ``sort`` — reorders the items of stream ``item_input`` by the key
          items of the other input;
        * ``empty`` — emits no content at all;
        * ``opaque`` — unknown: every analysis assumes the worst.
        """
        return OPAQUE

    def static_facts(self) -> dict:
        """Update-protocol facts (:mod:`repro.analysis.static_plan`).

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
        }

    # -- the state modifier F ----------------------------------------------

    def process(self, e: Event, out: int) -> List[Event]:
        """Handle one event of the operator's own stream(s).

        ``out`` is the id the result goes on: ``output_id`` for live
        content, the translated region id while the wrapper replays the
        content of a region it translates (TRANSLATE and TEE).  The
        operator emits on ``out`` wherever it would emit on
        ``output_id`` (brackets it opens on its output included), and
        content of a container it opened while emitting on another id —
        before the region began, or in another region — goes on ``out``
        too: everything a stage emits while replaying a region is that
        region's content, save what sits in containers opened inside it.
        """
        raise NotImplementedError

    def on_other(self, e: Event) -> List[Event]:
        """Handle an event of a foreign stream (default: pass through)."""
        return [e]

    def on_end(self) -> List[Event]:
        """Called once when the global stream ends (flush hook)."""
        return []

    # -- update adjustment (non-inert transformers override) -----------------
    #
    # Pure functions over snapshots: they mutate none of their arguments
    # and may not mutate ``self.state`` either.

    def adjust(self, state: State, s1: State, s2: State) -> State:
        """The paper's adjust: s2 changed to s3=s2'; fix up ``state``.

        Returns ``state`` itself when nothing changes, else a new object,
        which may share unchanged parts with the arguments: the wrapper
        copies it before any ``process`` call mutates it.
        """
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


def _count_cells(value: Any) -> int:
    if isinstance(value, (tuple, list, frozenset, set)):
        return 1 + sum(_count_cells(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(_count_cells(k) + _count_cells(v)
                       for k, v in value.items())
    return 1


class Identity(StateTransformer):
    """Pass a stream through unchanged (useful in tests and as a spacer)."""

    def shape(self) -> Shape:
        return Shape("copy")

    def process(self, e: Event, out: int) -> List[Event]:
        return [e] if out == self.output_id else [e.relabel(out)]


class Relabel(StateTransformer):
    """Relabel a stream to a new stream number."""

    def shape(self) -> Shape:
        return Shape("copy")

    def process(self, e: Event, out: int) -> List[Event]:
        return [e.relabel(out)]


class Drop(StateTransformer):
    """Consume a stream, emitting nothing (used to discard residue)."""

    def shape(self) -> Shape:
        return Shape("empty")

    def process(self, e: Event, out: int) -> List[Event]:
        return PASS_THROUGH


class StructuralRelay(StateTransformer):
    """Relay only structural events (sS/eS/sT/eT); drop all content.

    The residue of static dead-stage elimination
    (:func:`repro.analysis.types.optimize_plan`): a stage whose output
    type is provably empty forwards structural events unchanged and —
    by the emptiness proof — never any content, so this constant-state
    relay is byte-equivalent to it (and to any chain of such stages).
    """

    inert = True

    def process(self, e: Event, out: int) -> List[Event]:
        if e.kind in (SS, ES, ST, ET):
            return [e.relabel(out)]
        return PASS_THROUGH

    def shape(self) -> Shape:
        return Shape("empty")

    def static_facts(self) -> dict:
        return dict(super().static_facts(),
                    notes="statically-empty segment (dead stages "
                          "eliminated by the type checker)")


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
            out.extend(transformer.process(e, transformer.output_id))
        else:
            out.extend(transformer.on_other(e))
    out.extend(transformer.on_end())
    return out
