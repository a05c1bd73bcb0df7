"""Stage fusion: compile runs of pipeline stages into one closure.

The interpreted driver (:func:`repro.core.pipeline.bind_drain`)
pays a fixed per-event tax at every stage boundary: a work-list
iteration, a routing-key classification, a handler-table double
subscript, and stack traffic for multi-output stages.  Profiling the
paper queries puts that dispatch layer at roughly 40% of wall time —
none of it does query work.

This module removes the tax without touching operator semantics.  Using
the static analyzer's facts (:func:`repro.analysis.static_plan.
analyze_plan`), each compiled plan is partitioned into maximal runs of
streaming stages; each run of two or more becomes a
:class:`FusedSegment` whose driver is *generated source code*: one
``def`` with a nested ``for`` loop per stage, the per-stage dispatch
inlined.  The generated body replicates the routed interpreter exactly:

* an **active-flavor** level performs the same ``id in tracked`` probe
  and ``handlers[kind]`` dispatch the interpreter performs, for data
  events and update kinds alike — against the *live* wrapper tables,
  whose identities never change (the dormant -> active transition
  mutates them in place) — so it is valid in every wrapper state and
  the wrapper's handlers stay the only implementation of what a stage
  does with an event: the generated code reads nothing of a wrapper
  beyond ``handlers``, ``tracked``, ``input_ids``, ``t``, ``calls`` and
  its dormancy;
* a **dormant-flavor** level (only where the analyzer guarantees no
  update event can ever arrive, and only while the wrapper really is
  dormant) skips the wrapper shim entirely and calls the transformer's
  ``process`` directly, preserving the ``calls`` accounting;
* any update-kind event entering a dormant level is handed to an
  interpreted tail drive (:meth:`FusedSegment._tail`: the same
  ``bind_drain`` loop, bound over this segment's levels with ``emit``
  as its sink); if that event activated a wrapper a
  dormant-flavor level was generated for, the segment regenerates
  itself with the activated stage demoted to active flavor (a *deopt*),
  so the fast path is never consulted in a stale state.

Exit events leave through the caller-supplied ``emit`` continuation
*as they are produced*, never batched: stages allocate fresh stream
ids on the data path (e.g. a predicate opening an item region), so an
exit must traverse the whole rest of the chain before the segment
computes its next exit or the global id-allocation order — and with it
the raw event stream — would diverge from the interpreter.

Fusion changes neither the event stream nor the per-stage call counts:
the differential suite (``tests/test_fusion.py``) holds fused runs
byte- and call-identical to interpreted runs.  Segments are rebuilt —
never pickled — across checkpoint/restore (``Pipeline._bind``).
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.pipeline import bind_drain
from ..core.wrapper import _FIRST_UPDATE, UpdateWrapper
from ..events.model import FREEZE

_FREEZE = int(FREEZE)

#: Longest run compiled into one closure.  One ``for`` block per stage
#: plus the batch variant's source-event loop must fit CPython's
#: 20-block static nesting limit, so the cap is 19 — crossing a chunk
#: boundary costs a closure frame per *exit* event (far rarer than
#: source events once the leading steps have filtered), while losing
#: the in-frame source loop would cost a frame per source event.
MAX_SEGMENT = 19


class SegmentSpec:
    """One planned segment: a half-open stage range plus dormancy facts."""

    def __init__(self, start: int, end: int,
                 dormant: Sequence[bool]) -> None:
        self.start = start
        self.end = end
        self.dormant = tuple(dormant)

    @property
    def fused(self) -> bool:
        return self.end - self.start >= 2

    def __repr__(self) -> str:
        return "SegmentSpec({}..{}, dormant={})".format(
            self.start, self.end, list(self.dormant))


class FusionPlan:
    """The fusion partition of one compiled plan."""

    def __init__(self, segments: List[SegmentSpec], n_stages: int) -> None:
        self.segments = segments
        self.n_stages = n_stages

    @property
    def fused(self) -> bool:
        """Does at least one segment span two or more stages?"""
        return any(s.fused for s in self.segments)

    def __repr__(self) -> str:
        return "FusionPlan({} stages -> {} units)".format(
            self.n_stages, len(self.segments))


def fusion_partition(plan, report=None,
                     assume_updates: bool = False) -> FusionPlan:
    """Partition ``plan`` into maximal fusible runs.

    A stage joins a run when it streams (``paper_blocking`` stages — the
    ones a conventional evaluator buffers on — stay interpreted as
    single-stage units, where the wrapper's full bracket bookkeeping is
    the dominant cost anyway) and passes foreign events through (the
    routing contract fusion inlines).  ``assume_updates=True`` demotes
    every dormant guarantee to active flavor — used for suffix plans in
    shared-prefix groups, whose *input* already carries brackets the
    per-plan analyzer cannot see.
    """
    from ..analysis.static_plan import analyze_plan
    if report is None:
        report = analyze_plan(plan)
    n = len(plan.stages)
    fusible = []
    dormant = []
    for sr in report.stages:
        t = sr.transformer
        fusible.append(bool(t.passes_foreign)
                       and not sr.facts.get("paper_blocking"))
        dormant.append(sr.dormant and not assume_updates)
    segments: List[SegmentSpec] = []
    i = 0
    while i < n:
        if not fusible[i]:
            segments.append(SegmentSpec(i, i + 1, (False,)))
            i += 1
            continue
        j = i
        while j < n and fusible[j] and j - i < MAX_SEGMENT:
            j += 1
        segments.append(SegmentSpec(i, j, dormant[i:j]))
        i = j
    return FusionPlan(segments, n)


def _generate_source(wrappers: Sequence[UpdateWrapper],
                     flavors: Sequence[str],
                     batch: bool = False) -> str:
    """Emit the fused driver's source for one segment.

    One nested loop level per stage; ``emit`` receives the exit events
    one at a time, in exactly the depth-first order the interpreter's
    LIFO work list would let them cross this boundary.

    Active levels inline the interpreter's complete routing block for
    *every* event kind — key classification, the freeze fix-map write,
    the tracked-probe, the handler-table dispatch — so data and update
    traffic alike (predicate item brackets, freezes, hides) stay on the
    generated path and go through the one implementation of each
    handler, the wrapper's own; the table entry is also what performs a
    dormant wrapper's activation.  ``_tail`` is reached only through
    dormant levels, where an update's arrival falsifies the dormancy
    assumption and forces a deopt.  The exit level applies the
    sink-position freeze fix, making the segment safe to aim straight
    at the sink.
    """
    n = len(wrappers)
    head = ("def _fused_batch(events, emit," if batch
            else "def _fused(e0, emit,")
    extra = ""
    if batch and "dormant" in flavors:
        extra = " SEG=SEG, G=G, _res=_res,"
    lines = [head + " _tail=_tail, fixf=fixf," + extra]
    binds = []
    for k, flavor in enumerate(flavors):
        if flavor == "dormant":
            binds.append("w{0}=w{0}, t{0}=t{0}, p{0}=p{0}, I{0}=I{0}"
                         .format(k))
        else:
            binds.append("H{0}=H{0}, R{0}=R{0}".format(k))
    lines.append("           " + ",\n           ".join(binds) + "):")
    indent = "    "
    # The batch variant hoists the per-event driver call into the
    # generated function itself.  A dormant level's tail divert can
    # deopt mid-batch (regenerating the segment's closures), which
    # would leave this running frame on stale code — so wherever a
    # divert exists the frame compares the segment's build generation
    # after the diverting event completes and, on mismatch, hands the
    # *rest of the iterator* to the per-event resume path.  That is
    # exactly the granularity the per-event driver has: a deopt takes
    # effect at the next source event, never mid-event.
    base = 1
    dormant_tail = any(f == "dormant" for f in flavors[1:])
    if batch:
        lines.append(indent + "events = iter(events)")
        lines.append(indent + "for e0 in events:")
        base = 2

    def put(depth: int, text: str) -> None:
        lines.append(indent * (depth + base) + text)

    for k, (w, flavor) in enumerate(zip(wrappers, flavors)):
        put(k, "k{0} = e{0}.kind".format(k))
        if flavor == "dormant":
            put(k, "if k{0} >= {1}:".format(k, _FIRST_UPDATE))
            put(k + 1, "_tail({0}, e{0})".format(k))
            if batch and k == 0:
                # The divert may have deopted this very frame; the rest
                # of the batch must run against the regenerated code.
                put(k + 1, "if SEG._gen != G:")
                put(k + 2, "_res(events, emit)")
                put(k + 2, "return")
                put(k + 1, "continue")
            else:
                put(k + 1, "return" if k == 0 else "continue")
            ids = sorted(w.input_ids)
            if len(ids) == 1:
                put(k, "if e{0}.id == {1}:".format(k, ids[0]))
                put(k + 1, "w{0}.calls += 1".format(k))
                put(k + 1, "t{0}.current_input_root = {1}".format(k,
                                                                  ids[0]))
                put(k + 1, "r{0} = p{0}(e{0})".format(k))
            else:
                put(k, "if e{0}.id in I{0}:".format(k))
                put(k + 1, "w{0}.calls += 1".format(k))
                put(k + 1, "t{0}.current_input_root = e{0}.id".format(k))
                put(k + 1, "r{0} = p{0}(e{0})".format(k))
            put(k, "else:")
            put(k + 1, "r{0} = (e{0},)".format(k))
        else:
            # Key carry: when the event object is unchanged from the
            # previous level (a passthrough, or a handler returning the
            # event itself), its routing key is too, and a FREEZE was
            # already recorded in the fix map at first classification
            # (``freeze`` is a set discard — idempotent, so skipping
            # the repeat is exact).  Only valid after an active level:
            # a dormant level diverts update kinds to the tail drive,
            # so the carried key would never have been computed.
            put(k, "if k{0} < {1}:".format(k, _FIRST_UPDATE))
            put(k + 1, "key{0} = e{0}.id".format(k))
            if k > 0 and flavors[k - 1] != "dormant":
                put(k, "elif e{0} is e{1}:".format(k, k - 1))
                put(k + 1, "key{0} = key{1}".format(k, k - 1))
            put(k, "elif k{0} >= {1}:".format(k, _FREEZE))
            put(k + 1, "if k{0} == {1}:".format(k, _FREEZE))
            put(k + 2, "fixf(e{0}.id)".format(k))
            put(k + 1, "key{0} = e{0}.id".format(k))
            put(k, "elif k{0} & 1:".format(k))
            put(k + 1, "key{0} = e{0}.id".format(k))
            put(k, "else:")
            put(k + 1, "key{0} = e{0}.sub".format(k))
            put(k, "r{0} = H{0}[k{0}](e{0}) "
                   "if key{0} in R{0} else (e{0},)".format(k))
        put(k, "for e{0} in r{1}:".format(k + 1, k))
    put(n, "if e{0}.kind == {1}:".format(n, _FREEZE))
    put(n + 1, "fixf(e{0}.id)".format(n))
    put(n, "emit(e{0})".format(n))
    if batch and dormant_tail:
        # A divert below level 0 cannot return straight out of its
        # nested loops (siblings of the diverted event still traverse
        # this frame, matching the per-event driver); the generation
        # check lands once per source event instead.
        put(0, "if SEG._gen != G:")
        put(1, "_res(events, emit)")
        put(1, "return")
    return "\n".join(lines) + "\n"


class FusedSegment:
    """A run of stages compiled into one generated driver closure.

    The pipeline drives the segment as one unit: :meth:`drive` pushes
    one event through every fused level, :meth:`feed_batch` a whole
    source batch, each exit handed to ``emit`` (the next segment's
    ``drive``, or the sink) immediately.  All state lives in the
    wrapped stages; the closure binds only objects whose identity is
    stable for the wrappers' lifetime (handler tables, tracked maps,
    transformers), so regenerating it is always safe and checkpoints
    simply drop it.
    """

    def __init__(self, wrappers: Sequence[UpdateWrapper], start: int,
                 spec_dormant: Sequence[bool], fix_freeze, emit) -> None:
        self.wrappers = list(wrappers)
        self.start = start
        self.spec_dormant = tuple(spec_dormant)
        self.fix_freeze = fix_freeze
        self.emit = emit
        self.deopts = 0
        self._gen = 0
        self._drain = bind_drain([w.handlers for w in self.wrappers],
                                 [w.tracked for w in self.wrappers],
                                 emit, fix_freeze)
        self._build()

    # -- code generation ----------------------------------------------------

    def _flavors(self) -> List[str]:
        return ["dormant" if (spec and w.dormant) else "active"
                for spec, w in zip(self.spec_dormant, self.wrappers)]

    def _build(self) -> None:
        flavors = self._flavors()
        self._gen_dormant = [f == "dormant" for f in flavors]
        self._dormant_watch = tuple(
            w for g, w in zip(self._gen_dormant, self.wrappers) if g)
        source = _generate_source(self.wrappers, flavors)
        self.source = source
        # Everything bound keeps its identity for the wrappers' lifetime
        # (handler tables and tracked maps are only ever mutated in
        # place — the contract the routed interpreter relies on too).
        namespace = {"_tail": self._tail, "fixf": self.fix_freeze}
        for k, w in enumerate(self.wrappers):
            namespace["w{}".format(k)] = w
            namespace["t{}".format(k)] = w.t
            namespace["p{}".format(k)] = w.t.process
            namespace["I{}".format(k)] = w.input_ids
            namespace["H{}".format(k)] = w.handlers
            namespace["R{}".format(k)] = w.tracked
        exec(compile(source, "<fused-segment>", "exec"), namespace)
        self._impl = namespace["_fused"]
        # The whole-batch entry point runs the source-event loop inside
        # the generated frame.  Chunks with dormant levels can deopt
        # mid-batch: the frame captures this build's generation and, the
        # moment a divert regenerates the segment, hands the rest of the
        # event iterator to :meth:`_resume` (per-event drive against the
        # always-fresh ``_impl``).
        self._gen += 1
        namespace["SEG"] = self
        namespace["G"] = self._gen
        namespace["_res"] = self._resume
        bsource = _generate_source(self.wrappers, flavors, batch=True)
        try:
            exec(compile(bsource, "<fused-segment-batch>", "exec"),
                 namespace)
        except SyntaxError:
            # The extra source-event loop can push a deep chunk past
            # CPython's static block-nesting limit; the per-event
            # resume loop is the same drive minus the in-frame loop.
            self._impl_batch = self._resume
        else:
            self._impl_batch = namespace["_fused_batch"]

    # -- driving ------------------------------------------------------------

    def drive(self, ev) -> None:
        """One event through every level (what an upstream segment
        emits into).  Re-reads ``_impl`` per event: a deopt swaps it."""
        self._impl(ev, self.emit)

    def feed_batch(self, events) -> None:
        """A source batch through the in-frame loop of the current
        build; a mid-batch deopt hands the rest to :meth:`_resume`."""
        self._impl_batch(events, self.emit)

    def _resume(self, it, emit) -> None:
        """Finish a batch whose generated frame went stale mid-stream.

        ``it`` is the batch iterator, positioned after the deopting
        event; each remaining event re-reads ``_impl`` (a further deopt
        swaps it again), which is the per-event driver's granularity.
        """
        for ev in it:
            self._impl(ev, emit)

    def _tail(self, k: int, ev) -> None:
        """Interpreted drive of ``ev`` through levels ``k..end``.

        The update-kind slow path: the pipeline's own event loop bound
        over this segment's stages, exits handed to ``emit`` as they
        surface.  If handling the event activated a wrapper the
        generated code still treats as dormant, the closure is
        regenerated before the next event (deopt) — the fast path never
        runs against a stale dormancy assumption.
        """
        self._drain((ev,), k)
        for w in self._dormant_watch:
            if not w.dormant:
                self.deopts += 1
                self._build()
                break

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        return {
            "start": self.start,
            "end": self.start + len(self.wrappers),
            "stages": [type(w.t).__name__ for w in self.wrappers],
            "dormant": list(self._gen_dormant),
            "deopts": self.deopts,
        }

    def __repr__(self) -> str:
        return "FusedSegment(stages {}..{}, {} dormant)".format(
            self.start, self.start + len(self.wrappers),
            sum(self._gen_dormant))
