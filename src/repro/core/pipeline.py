"""Push-based pipeline plumbing (paper Section II).

A query is a chain of stages; every stage is a
:class:`~repro.core.transformer.StateTransformer` wrapped by the generic
:class:`~repro.core.wrapper.UpdateWrapper`.  The global event stream is
pushed through the chain one event at a time; each stage may emit zero or
more events for the next stage.  The paper's ``Filter`` class with its
``dispatch`` method is provided for fidelity; :class:`Pipeline` is the
iterative driver the engine uses (no recursion, cheap accounting).
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_ns
from typing import Callable, Iterable, List, Optional, Sequence

from ..events.model import FREEZE, UPDATE_STARTS, Event
from .transformer import Context, StateTransformer
from .wrapper import _FIRST_UPDATE, UpdateWrapper

_FREEZE = int(FREEZE)
_UPDATE_START_KINDS = frozenset(int(k) for k in UPDATE_STARTS)


class Filter:
    """The paper's push-based filter: dispatches events to ``next``."""

    def __init__(self, transformer: StateTransformer,
                 next: Optional["Filter"] = None) -> None:
        self.wrapper = UpdateWrapper(transformer)
        self.next = next

    def dispatch(self, e: Event) -> None:
        for a in self.wrapper.dispatch(e):
            if self.next is not None:
                self.next.dispatch(a)

    def finish(self) -> None:
        for a in self.wrapper.on_end():
            if self.next is not None:
                self.next.dispatch(a)
        if self.next is not None:
            self.next.finish()


class SinkFilter(Filter):
    """Chain terminator that hands events to a callable sink."""

    def __init__(self, sink: Callable[[Event], None]) -> None:
        self.sink = sink
        self.next = None

    def dispatch(self, e: Event) -> None:
        self.sink(e)

    def finish(self) -> None:
        pass


def build_filter_chain(transformers: Sequence[StateTransformer],
                       sink: Callable[[Event], None]) -> Filter:
    """Link transformers into the paper's Filter chain, ending at ``sink``."""
    head: Filter = SinkFilter(sink)
    for t in reversed(transformers):
        head = Filter(t, head)
    return head


class Pipeline:
    """Iterative pipeline driver with per-stage accounting.

    Args:
        ctx: shared context (id allocator, fix map).
        stages: the transformers, source side first.
        sink: an object with ``process(event)`` (e.g. a Display or a
            Collector); events surviving the last stage land there.
        always_active: disable the wrappers' update-free fast path (every
            stage pays full region bookkeeping from the first event); used
            by differential tests and ablations.
        sanitize: interpose a
            :class:`~repro.analysis.sanitize.BoundaryChecker` at every
            stage boundary (source -> stage 0, stage i -> stage i+1,
            last stage -> sink) validating the inter-stage event
            protocol; any violation raises
            :class:`~repro.events.errors.ProtocolViolation`.  Disables
            the routing fast path so every boundary sees its full
            stream.
        recorder: an optional :class:`~repro.obs.MetricsRecorder`.  The
            disabled path costs exactly one ``is None`` test per batch:
            with no recorder the original drain runs untouched; with one
            the instrumented twin (:meth:`_drain_observed`) runs
            instead.  Recording never changes the output stream, the
            routing decisions, or the per-stage call counts.
        reclaim_on_freeze: Section V state reclamation (default on).
            ``False`` is the bench memory ablation: freezes forward and
            fix the mutability map as usual but state copies persist.
        fusion: an optional
            :class:`~repro.compile.fusion.FusionPlan`.  Runs of
            streaming stages then execute through generated closures
            (one call per fused segment per event) instead of the
            per-stage drain; byte- and call-identical to the
            interpreted path by construction.  Silently ignored — the
            pipeline stays fully interpreted — whenever any observer
            needs the per-stage event stream: sanitize (boundary
            checkers interpose at every stage boundary), a recorder
            (per-stage counters), or always-active mode (reference
            accounting, routing off).
    """

    def __init__(self, ctx: Context, stages: Sequence[StateTransformer],
                 sink, always_active: bool = False,
                 sanitize: bool = False, recorder=None,
                 reclaim_on_freeze: bool = True, fusion=None) -> None:
        self.ctx = ctx
        self.wrappers: List[UpdateWrapper] = [
            UpdateWrapper(t, always_active=always_active,
                          reclaim_on_freeze=reclaim_on_freeze)
            for t in stages]
        self.sink = sink
        # Per-stage kind-indexed handler tables, captured once: the batched
        # driver calls ``tables[idx][e.kind](e)`` instead of re-resolving
        # wrapper attributes per event.  The table objects have fixed
        # identity — the dormant -> active transition mutates them in
        # place — so caching here is safe for the pipeline's lifetime.
        self._tables = [w.handlers for w in self.wrappers]
        # Per-stage routing sets (live views, mutated by the wrappers as
        # regions open and close): a data event whose id is not in a
        # stage's set would be passed through verbatim by that stage, so
        # the batched driver skips the dispatch entirely.  Routing is off
        # in always-active mode (per-stage call counts must match the
        # reference driver) and when any stage customizes on_other.
        if not always_active and all(t.passes_foreign for t in stages):
            self._routes = [w.tracked for w in self.wrappers]
        else:
            self._routes = None
        if sanitize:
            # Local import: repro.analysis depends on the compiler, which
            # depends on this module.
            from ..analysis.sanitize import boundary_checkers
            self._checkers: Optional[list] = boundary_checkers(stages, sink)
            # Routing would skip boundaries for untracked events; the
            # checkers need the complete stream at every boundary.  The
            # one global side effect routing performs — the fix-map write
            # of freeze — moves into the checker feed path instead.
            self._routes = None
        else:
            self._checkers = None
        self._recorder = recorder
        if recorder is not None:
            recorder.attach(self.wrappers, stages)
        self._finished = False
        self._fusion_plan = None
        self._segments = None
        self._drive = None
        self._fast_seg = None
        self._fast_emit = None
        if (fusion is not None and getattr(fusion, "fused", False)
                and self._routes is not None and self._checkers is None
                and recorder is None):
            self._fusion_plan = fusion
            self._build_drive()

    def _build_drive(self) -> None:
        """Assemble the fused per-event driver from ``self._fusion_plan``.

        The driver is a continuation chain, sink side first: each fused
        segment's generated closure hands every exit event to the next
        unit's drive *as it is produced* (stages allocate fresh stream
        ids on the data path, so an exit must traverse the whole rest
        of the chain before its segment computes the next exit — the
        depth-first ordering the interpreter's LIFO stack provides).
        Interpreted units (blocking stages, single-stage gaps) get a
        closure replicating one iteration of :meth:`_drain`'s routing
        block.  Only built when routing is on, sanitize is off, and no
        recorder is attached — the states in which :meth:`_drain` would
        perform exactly these steps.
        """
        # Local import: repro.compile depends on core modules.
        from ..compile.fusion import MAX_SEGMENT, FusedSegment
        # The generated driver spans the *entire* stage list: the inlined
        # per-level routing block is exactly one _drain iteration for any
        # wrapped stage (the wrapper's handler table has the same shape
        # whether the transformer streams or buffers), so blocking stages
        # ride along as active-flavor levels instead of paying a closure
        # frame per event at every partition gap.  The fusion partition
        # still decides which levels may use the dormant fast path.
        specs = self._fusion_plan.segments
        flags: List[bool] = []
        for spec in specs:
            if spec.fused:
                flags.extend(spec.dormant)
            else:
                flags.extend([False] * (spec.end - spec.start))
        n = len(self.wrappers)
        # One generated closure per chunk of at most MAX_SEGMENT stages
        # (bounds codegen size); chunks chain sink-first so each exit
        # crosses the whole remaining pipeline before its chunk computes
        # the next exit — the depth-first order the interpreter's LIFO
        # stack provides, which the id allocator depends on.
        bounds = list(range(0, n, MAX_SEGMENT)) + [n]
        segments = []
        emit = self.sink.process
        for start, end in reversed(list(zip(bounds, bounds[1:]))):
            seg = FusedSegment(self.wrappers[start:end], start,
                               flags[start:end], self.ctx)
            segments.append(seg)
            seg_emit = emit

            def chunk_drive(ev, _seg=seg, _emit=seg_emit):
                # Re-read _impl per event: a deopt mid-batch swaps it.
                _seg._impl(ev, _emit)
            emit = chunk_drive
        segments.reverse()
        self._segments = segments
        self._drive = emit
        # feed_batch runs the first chunk's in-frame source loop and
        # hands its exits to the rest of the chain (the sink directly in
        # the common single-chunk case): no wrapper closure per source
        # event anywhere.
        self._fast_seg = segments[0]
        self._fast_emit = seg_emit

    @property
    def fused(self) -> bool:
        return self._drive is not None

    def rebind_fused(self) -> None:
        """Regenerate the fused driver after a transformer was patched.

        Fused segments capture each stage's bound ``process`` at codegen
        time, so in-place patches (fault injection) are invisible until
        the driver is rebuilt.  Call before any events are fed — a
        rebuild resets per-segment dormancy to the plan's static flags.
        No-op on interpreted pipelines.
        """
        if self._fusion_plan is not None:
            self._build_drive()

    def fusion_info(self) -> Optional[dict]:
        """Fusion introspection: segment layout and deopt counters."""
        if self._fusion_plan is None or self._segments is None:
            return None
        return {
            "units": len(self._fusion_plan.segments),
            "stages": len(self.wrappers),
            "segments": [seg.describe() for seg in self._segments],
            "deopts": sum(seg.deopts for seg in self._segments),
        }

    def feed(self, e: Event) -> None:
        """Push one source event through every stage into the sink.

        Propagation is depth-first, like the paper's ``Filter.dispatch``:
        each event a stage emits traverses the *entire* rest of the chain
        before the stage's next emitted event.  This ordering is
        semantically significant — the global mutability map means a
        ``freeze`` must not overtake the ``hide`` emitted just before it.

        This recursive form is the reference implementation;
        :meth:`feed_batch` is the equivalent flattened driver.
        """
        if self._recorder is not None:
            self._drain_observed(0, (e,))
            return
        if self._drive is not None:
            self._drive(e)
            return
        self._dispatch(0, e)

    def _dispatch(self, idx: int, e: Event) -> None:
        checkers = self._checkers
        if checkers is not None:
            if e.kind == _FREEZE:
                self.ctx.fix.freeze(e.id)
            checkers[idx].feed(e)
        wrappers = self.wrappers
        if idx == len(wrappers):
            self.sink.process(e)
            return
        nxt = idx + 1
        for out in wrappers[idx].dispatch(e):
            self._dispatch(nxt, out)

    def feed_batch(self, events: Iterable[Event]) -> None:
        """Push a batch of source events through the chain iteratively.

        Equivalent to ``for e in events: self.feed(e)`` but flattens the
        recursive dispatch into an explicit work-list loop: pending
        (stage, event) pairs live on a LIFO stack, which reproduces the
        depth-first ordering invariant documented in :meth:`feed` exactly
        — an emitted event traverses the whole rest of the chain before
        its siblings, so a ``freeze`` can never overtake the ``hide``
        emitted just before it.
        """
        if self._recorder is not None:
            self._drain_observed(0, events)
            return
        fast = self._fast_seg
        if fast is not None:
            # The first chunk's source-event loop runs inside the
            # generated frame (exits cross the rest of the chain via
            # _fast_emit — the sink itself in the common single-chunk
            # case); a mid-batch deopt hands the rest of the iterator
            # to the per-event resume path (see FusedSegment._resume).
            fast._impl_batch(events, self._fast_emit)
            return
        drive = self._drive
        if drive is not None:
            for e in events:
                drive(e)
            return
        self._drain(0, events)

    def _drain(self, start_idx: int, events: Iterable[Event]) -> None:
        tables = self._tables
        routes = self._routes
        checkers = self._checkers
        n = len(tables)
        sink_process = self.sink.process
        fix_freeze = self.ctx.fix.freeze
        stack: List[tuple] = []
        push = stack.append
        pop = stack.pop
        for e in events:
            idx = start_idx
            ev = e
            while True:
                kind = ev.kind
                if checkers is not None:
                    if kind == _FREEZE:
                        fix_freeze(ev.id)
                    checkers[idx].feed(ev)
                if routes is not None:
                    # Routing: skip every stage that would pass the event
                    # through unchanged.  Data events and update starts /
                    # freeze / hide / show are keyed by the event id; a
                    # bracket end is keyed by the substream it closes (the
                    # id a tracking stage registered at the start).  A
                    # wrapper that tracks none of an update's ids has no
                    # local effect — the single global side effect, the
                    # fix-map write of freeze, is applied here once (it is
                    # idempotent, so tracking stages re-applying it is
                    # harmless).  Wrappers whose sU handler would register
                    # state always have the target id in their route map,
                    # so they are never skipped.
                    if kind < _FIRST_UPDATE:
                        key = ev.id
                    elif kind >= _FREEZE:
                        if kind == _FREEZE:
                            fix_freeze(ev.id)
                        key = ev.id
                    elif kind & 1:  # sM/sR/sB/sA: odd Kind values
                        key = ev.id
                    else:           # eM/eR/eB/eA
                        key = ev.sub
                    while idx < n and key not in routes[idx]:
                        idx += 1
                if idx < n:
                    out = tables[idx][kind](ev)
                    m = len(out)
                    if m:
                        idx += 1
                        if m > 1:
                            # Later siblings wait on the stack (reverse
                            # order, LIFO) while the first output runs
                            # the rest of the chain.
                            i = m - 1
                            while i > 0:
                                push((idx, out[i]))
                                i -= 1
                        ev = out[0]
                        continue
                else:
                    sink_process(ev)
                if not stack:
                    break
                idx, ev = pop()

    def _drain_observed(self, start_idx: int,
                        events: Iterable[Event]) -> None:
        """Instrumented twin of :meth:`_drain` (telemetry enabled).

        Identical control flow — routing, checkers, the LIFO stack, the
        depth-first ordering invariant — plus per-stage event counting,
        periodic footprint sampling (every ``sample_interval`` source
        events), and optional update-provenance hops.  Kept as a
        separate method so the unobserved hot path carries zero
        telemetry cost; the differential tests hold the two drains
        byte- and call-identical.
        """
        rec = self._recorder
        stage_ms = rec.stages
        sink_counts = rec.sink_counts
        trace = rec.trace
        flight = rec.flight
        hists = rec.histograms
        hist_update = hists["update_latency"]
        tables = self._tables
        routes = self._routes
        checkers = self._checkers
        n = len(tables)
        sink_process = self.sink.process
        fix_freeze = self.ctx.fix.freeze
        counting_source = start_idx == 0
        # Latency clocks ride source batches only: on_end flushes from
        # finish() (start_idx > 0) are not drain observations, which
        # keeps observation counts deterministic — the sharded
        # differential holds merged counts equal to single-process.
        t_batch = _perf_ns() if counting_source else 0
        t_update = 0
        stack: List[tuple] = []
        push = stack.append
        pop = stack.pop
        for e in events:
            if counting_source:
                if flight is not None:
                    flight.note(e)
                if rec.count_source():
                    rec.sample_now()
                # End-to-end update latency: propagation is depth-first,
                # so by the time the drain returns to the source loop
                # every display delta of this update start has landed.
                t_update = (_perf_ns()
                            if e.kind in _UPDATE_START_KINDS else 0)
            idx = start_idx
            ev = e
            while True:
                kind = ev.kind
                if checkers is not None:
                    if kind == _FREEZE:
                        fix_freeze(ev.id)
                    checkers[idx].feed(ev)
                if routes is not None:
                    if kind < _FIRST_UPDATE:
                        key = ev.id
                    elif kind >= _FREEZE:
                        if kind == _FREEZE:
                            fix_freeze(ev.id)
                        key = ev.id
                    elif kind & 1:
                        key = ev.id
                    else:
                        key = ev.sub
                    while idx < n and key not in routes[idx]:
                        idx += 1
                if idx < n:
                    sm = stage_ms[idx]
                    sm.in_counts[kind] += 1
                    is_start = kind in _UPDATE_START_KINDS
                    if trace is not None and is_start:
                        trace.record(ev.sub, kind, idx, "enter")
                    out = tables[idx][kind](ev)
                    m = len(out)
                    if m:
                        out_counts = sm.out_counts
                        for o in out:
                            out_counts[o.kind] += 1
                        if trace is not None and is_start:
                            sub = ev.sub
                            for o in out:
                                if (o.kind in _UPDATE_START_KINDS
                                        and o.sub != sub):
                                    trace.record(sub, kind, idx,
                                                 "translate",
                                                 to_region=o.sub)
                        idx += 1
                        if m > 1:
                            i = m - 1
                            while i > 0:
                                push((idx, out[i]))
                                i -= 1
                        ev = out[0]
                        continue
                else:
                    sink_counts[kind] += 1
                    if trace is not None and kind in _UPDATE_START_KINDS:
                        trace.record(ev.sub, kind, -1, "emit")
                    sink_process(ev)
                if not stack:
                    break
                idx, ev = pop()
            if t_update:
                hist_update.record(_perf_ns() - t_update)
                t_update = 0
        if counting_source:
            hists["drain_batch"].record(_perf_ns() - t_batch)

    def feed_all(self, events: Iterable[Event]) -> None:
        self.feed_batch(events)

    def finish(self) -> None:
        """Flush every stage's ``on_end`` through the rest of the chain."""
        if self._finished:
            return
        self._finished = True
        drain = (self._drain if self._recorder is None
                 else self._drain_observed)
        for idx, w in enumerate(self.wrappers):
            drain(idx + 1, w.on_end())
        finish = getattr(self.sink, "finish", None)
        if finish is not None:
            finish()
        if self._checkers is not None:
            for checker in self._checkers:
                checker.finish()
        if self._recorder is not None:
            # Final footprint sample: end-of-stream state (post on_end).
            self._recorder.sample_now()

    def run(self, events: Iterable[Event]):
        """Feed a complete stream, flush, and return the sink."""
        self.feed_all(events)
        self.finish()
        return self.sink

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> bytes:
        """Snapshot the pipeline's complete mid-stream state.

        Everything the next event's processing depends on is captured in
        one versioned envelope (see :mod:`repro.fault.checkpoint`): the
        shared context (id allocator, fix map), every stage wrapper with
        its transformer and region tables, the sink (display buffers
        included), and the boundary checkers when sanitizing.  Restoring
        the blob into a freshly built pipeline for the same plan and
        feeding the remaining stream produces byte-identical output to
        an uninterrupted run (``tests/test_checkpoint.py``).
        """
        from ..fault.checkpoint import encode_checkpoint
        return encode_checkpoint("pipeline", self.checkpoint_schema(),
                                 self.checkpoint_state())

    def checkpoint_schema(self) -> dict:
        """Structural identity a restore target must match."""
        return {
            "stages": [type(w.t).__name__ for w in self.wrappers],
            "sink": type(self.sink).__name__,
        }

    def checkpoint_state(self) -> dict:
        """The live state graph; callers embed it in their own envelope.

        :class:`~repro.xquery.engine.QueryRun` pickles this dict together
        with its own extras in ONE pickle so cross-references (the display
        *is* the sink) survive the round trip via pickle memoization.
        """
        return {
            "ctx": self.ctx,
            "wrappers": self.wrappers,
            "sink": self.sink,
            "checkers": self._checkers,
            "routing": self._routes is not None,
            "finished": self._finished,
            # The partition only (plain data).  Generated closures are
            # rebuilt against the restored wrappers' current dormancy.
            "fusion": self._fusion_plan,
        }

    def restore(self, blob: bytes) -> "Pipeline":
        """Adopt a :meth:`checkpoint` snapshot, replacing current state.

        The receiving pipeline must be structurally compatible — same
        stage transformer classes in the same order, same sink class —
        which a fresh compile of the same query guarantees (compilation
        is deterministic; stream numbers are allocated identically).
        Raises :class:`~repro.fault.checkpoint.CheckpointError` on any
        format or schema mismatch.  A recorder attached to this pipeline
        is re-attached to the restored wrappers; its counters cover the
        post-restore tail only.
        """
        from ..fault.checkpoint import decode_checkpoint, require_schema
        schema, state = decode_checkpoint(blob, "pipeline")
        require_schema(schema, self.checkpoint_schema())
        self.apply_checkpoint_state(state)
        return self

    def apply_checkpoint_state(self, state: dict) -> None:
        """Adopt an already-validated :meth:`checkpoint_state` dict."""
        self.ctx = state["ctx"]
        self.wrappers = state["wrappers"]
        self.sink = state["sink"]
        self._tables = [w.handlers for w in self.wrappers]
        self._checkers = state["checkers"]
        if state["routing"] and self._checkers is None:
            self._routes = [w.tracked for w in self.wrappers]
        else:
            self._routes = None
        self._finished = state["finished"]
        if self._recorder is not None:
            self._recorder.attach(self.wrappers,
                                  [w.t for w in self.wrappers])
        else:
            for w in self.wrappers:
                w.obs = None
        self._fusion_plan = state.get("fusion")
        self._segments = None
        self._drive = None
        self._fast_seg = None
        self._fast_emit = None
        if (self._fusion_plan is not None and self._routes is not None
                and self._checkers is None and self._recorder is None):
            self._build_drive()

    def __getstate__(self) -> dict:
        # Strip the generated driver chain (closures do not pickle);
        # __setstate__ regenerates it from the stored fusion plan.
        state = self.__dict__.copy()
        state["_segments"] = None
        state["_drive"] = None
        state["_fast_seg"] = None
        state["_fast_emit"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if (self._fusion_plan is not None and self._routes is not None
                and self._checkers is None and self._recorder is None):
            self._build_drive()

    # -- accounting ----------------------------------------------------------

    def total_calls(self) -> int:
        """Total state-transformer dispatches (the paper's ``events``)."""
        return sum(w.calls for w in self.wrappers)

    def stage_accounts(self) -> List[dict]:
        """Per-stage accounting: one dict per stage, source side first.

        The single source of truth for state accounting —
        :meth:`state_cells` and :meth:`live_regions` are sums over this
        list, and the telemetry layer's footprint samples use the same
        underlying :meth:`~repro.core.wrapper.UpdateWrapper.account`
        walk, so every observer agrees on the numbers.
        """
        from ..obs.recorder import stage_identities
        idents = stage_identities([w.t for w in self.wrappers])
        accounts = []
        for ident, w in zip(idents, self.wrappers):
            cells, regions, entries = w.account()
            accounts.append({
                "index": ident.index,
                "label": ident.label,
                "calls": w.calls,
                "state_cells": cells,
                "live_regions": regions,
                "region_entries": entries,
            })
        return accounts

    def state_cells(self) -> int:
        """Retained transformer-state cells across all stages."""
        return sum(a["state_cells"] for a in self.stage_accounts())

    def live_regions(self) -> int:
        return sum(a["live_regions"] for a in self.stage_accounts())


class Collector:
    """A sink that records the raw output event stream."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def process(self, e: Event) -> None:
        self.events.append(e)


def run_stages(ctx: Context, stages: Sequence[StateTransformer],
               events: Iterable[Event]) -> List[Event]:
    """Run events through stages (with update wrappers); return raw output."""
    collector = Collector()
    Pipeline(ctx, stages, collector).run(events)
    return collector.events
