"""Push-based pipeline plumbing (paper Section II).

A query is a chain of stages; every stage is a
:class:`~repro.core.transformer.StateTransformer` wrapped by the generic
:class:`~repro.core.wrapper.UpdateWrapper`.  The global event stream is
pushed through the chain one event at a time; each stage may emit zero or
more events for the next stage.  The paper's ``Filter`` class with its
recursive ``dispatch`` is kept as the differential oracle;
:func:`bind_drain` is the one event loop the engine runs —
:class:`Pipeline` binds it over its stages — and observers (telemetry,
the sanitizer) interpose on what the loop calls rather than fork it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..events.model import FREEZE, Event
from .transformer import Context, StateTransformer
from .wrapper import _FIRST_UPDATE, UpdateWrapper

_FREEZE = int(FREEZE)


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


def bind_drain(tables: Sequence[list], routes: Optional[Sequence],
               sink: Callable[[Event], None],
               fix_freeze: Callable[[int], None]):
    """Bind the interpreted event loop; returns ``drain(events, start_idx=0)``.

    ``drain`` pushes each event in at stage ``start_idx`` and on through
    ``tables`` (per-stage kind-indexed handler lists) into ``sink``.
    Propagation is depth-first, like the paper's ``Filter.dispatch``:
    each event a stage emits traverses the *entire* rest of the chain
    before the stage's next emitted event — later siblings wait on a
    LIFO work list.  The ordering is semantically significant: stages
    allocate stream ids as they go, and the global mutability map means
    a ``freeze`` must not overtake the ``hide`` emitted just before it.
    It is also what lets an observer wrap the *source iterable*: the
    loop asks for the next source event only when the previous one's
    whole cascade has landed in the sink.

    ``routes`` (per-stage tracked-id maps, live views the wrappers
    mutate) lets the loop skip every stage that would pass an event
    through unchanged; ``None`` visits every stage.  Data events,
    update starts and freeze / hide / show are keyed by the event id; a
    bracket end by the substream it closes (the id a tracking stage
    registered at the start).  A wrapper that tracks none of an update's
    ids has no local effect — the single global side effect, the fix-map
    write of freeze, is applied here once (it is idempotent, so tracking
    stages re-applying it is harmless).  Wrappers whose sU handler would
    register state always have the target id in their route map, so
    they are never skipped.

    Everything query- or observer-specific arrives as data: the tables
    and the sink may be wrapped (see :meth:`Pipeline._bind`), and the
    tables keep their identity for the wrappers' lifetime (the dormant
    -> active transition mutates them in place), so one binding lasts
    until the stage list itself is replaced.
    """
    n = len(tables)
    # One work list per binding: a one-event feed must not pay an
    # allocation.  Empty between calls — also after an exception.
    stack: List[tuple] = []
    push = stack.append
    pop = stack.pop

    def drain(events: Iterable[Event], start_idx: int = 0) -> None:
        try:
            for ev in events:
                idx = start_idx
                while True:
                    kind = ev.kind
                    if routes is not None:
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
                        if out:
                            idx += 1
                            # Later siblings wait (reverse order, LIFO)
                            # while the first output runs the rest of
                            # the chain.
                            i = len(out)
                            while i > 1:
                                i -= 1
                                push((idx, out[i]))
                            ev = out[0]
                            continue
                    else:
                        sink(ev)
                    if not stack:
                        break
                    idx, ev = pop()
        except BaseException:
            # A quarantined or protocol-violating feed must not leave
            # its pending siblings for the next call.
            del stack[:]
            raise

    return drain


class Pipeline:
    """The pipeline driver: one bound drain, with per-stage accounting.

    Args:
        ctx: shared context (id allocator, fix map).
        stages: the transformers, source side first.
        sink: an object with ``process(event)`` (e.g. a Display or a
            Collector); events surviving the last stage land there.
        always_active: disable the wrappers' update-free fast path (every
            stage pays full region bookkeeping from the first event); used
            by differential tests and ablations.  Also turns routing off,
            so per-stage call counts are the paper's "events" column.
        sanitize: interpose a
            :class:`~repro.analysis.sanitize.BoundaryChecker` at every
            stage boundary (source -> stage 0, stage i -> stage i+1,
            last stage -> sink) validating the inter-stage event
            protocol; any violation raises
            :class:`~repro.events.errors.ProtocolViolation`.  The
            checkers wrap the handler tables and the sink the drain is
            bound over (:func:`~repro.analysis.sanitize.
            interpose_checkers`); routing is off so every boundary sees
            its full stream.
        recorder: an optional :class:`~repro.obs.MetricsRecorder`.  It
            wraps the same tables and sink with counting / trace shims
            and the source iterable with a generator
            (:meth:`~repro.obs.MetricsRecorder.interpose`,
            :meth:`~repro.obs.MetricsRecorder.observe_source`); without
            one nothing is wrapped and the loop carries no observer
            test.  Recording never changes the output stream, the
            routing decisions, or the per-stage call counts.
        reclaim_on_freeze: Section V state reclamation (default on).
            ``False`` is the bench memory ablation: freezes forward and
            fix the mutability map as usual but state copies persist.
    """

    def __init__(self, ctx: Context, stages: Sequence[StateTransformer],
                 sink, always_active: bool = False,
                 sanitize: bool = False, recorder=None,
                 reclaim_on_freeze: bool = True) -> None:
        self.ctx = ctx
        self.wrappers: List[UpdateWrapper] = [
            UpdateWrapper(t, always_active=always_active,
                          reclaim_on_freeze=reclaim_on_freeze)
            for t in stages]
        self.sink = sink
        # Routing is off in always-active mode (per-stage call counts
        # must match the paper's chain), when any stage customizes
        # on_other, and under the sanitizer.
        self._routing = (not always_active and not sanitize
                         and all(t.passes_foreign for t in stages))
        if sanitize:
            # Local import: repro.analysis depends on the compiler, which
            # depends on this module.
            from ..analysis.sanitize import boundary_checkers
            self._checkers: Optional[list] = boundary_checkers(stages, sink)
        else:
            self._checkers = None
        self._recorder = recorder
        if recorder is not None:
            recorder.attach(self.wrappers, stages)
        self._finished = False
        self._bind()

    def _bind(self) -> None:
        """(Re)bind the event loop over the current wrappers and sink.

        Called at construction and whenever the wrappers are replaced
        (restore, unpickling).  This is the one place observers meet
        the loop: each may wrap the handler tables and the sink —
        recorder innermost, so a boundary is checked before it is
        counted — and the recorder also wraps the source iterable.
        """
        tables = [w.handlers for w in self.wrappers]
        sink = self.sink.process
        # ``fix.freeze`` is exactly a discard on the not-fixed set (see
        # MutabilityRegistry), and the set is assigned once for the
        # context's lifetime: bind the C-level method, the drain
        # calls it once per hop of every freeze.
        fix_freeze = self.ctx.fix._not_fixed.discard
        recorder = self._recorder
        if recorder is not None:
            tables, sink = recorder.interpose(tables, sink)
        if self._checkers is not None:
            from ..analysis.sanitize import interpose_checkers
            tables, sink = interpose_checkers(self._checkers, tables, sink,
                                              fix_freeze)
        routes = ([w.tracked for w in self.wrappers] if self._routing
                  else None)
        drain = self._drain = bind_drain(tables, routes, sink, fix_freeze)
        if recorder is not None:
            observe = recorder.observe_source
            self._feed = lambda events: drain(observe(events))
        else:
            self._feed = drain

    def feed(self, e: Event) -> None:
        """Push one source event through every stage into the sink."""
        self._feed((e,))

    def feed_batch(self, events: Iterable[Event]) -> None:
        """Push a batch of source events through the chain, in order.

        Equivalent to ``for e in events: self.feed(e)`` — the same loop
        serves both, so routing and the per-stage call counts do not
        depend on how the stream was chunked.
        """
        self._feed(events)

    feed_all = feed_batch

    def finish(self) -> None:
        """Flush every stage's ``on_end`` through the rest of the chain."""
        if self._finished:
            return
        self._finished = True
        drain = self._drain
        for idx, w in enumerate(self.wrappers):
            drain(w.on_end(), idx + 1)
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
            "routing": self._routing,
            "finished": self._finished,
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
        self._checkers = state["checkers"]
        self._routing = state["routing"]
        self._finished = state["finished"]
        if self._recorder is not None:
            self._recorder.attach(self.wrappers,
                                  [w.t for w in self.wrappers])
        else:
            for w in self.wrappers:
                w.obs = None
        self._bind()

    def __getstate__(self) -> dict:
        # Strip everything _bind() builds (closures do not pickle);
        # __setstate__ rebinds against the unpickled wrappers.
        state = self.__dict__.copy()
        del state["_drain"], state["_feed"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

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
