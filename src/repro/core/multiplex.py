"""Single-pass fan-out of one event stream to many query pipelines.

The serving scenario the paper motivates (Section I: many standing
queries over one live update stream) needs the inverse of the usual
driver loop: instead of pulling the stream once per query, pull it
*once* and push every batch through N independent pipelines.  The
multiplexer owns the work every consumer would otherwise repeat:

* the input batch is materialized once and shared by reference — one
  tokenizer pass, one event-object allocation, regardless of N;
* consumers that opt out of updates (paper Section V) share a single
  :class:`~repro.events.model.UpdateStripper` pass — stripping is a
  deterministic function of the input, so its output is computed once
  and fed to every opted-out pipeline;
* with ``validate=True`` the one protocol checker
  (:class:`~repro.events.wellformed.BoundaryChecker`, the same one the
  sanitizer puts at every stage boundary) checks the whole shared input
  once, before any consumer sees a batch, instead of once per consumer.

Each pipeline fed directly does its own (per-query) transformer work —
the multiplexer never reorders or drops events, so its results and
accounting are exactly those of an independent run over the same
events (``tests/test_multiquery.py`` holds this byte-for-byte and,
with ``share_prefixes=False``, call-for-call).  The members of a
shared prefix group (:mod:`repro.compile.sharing`) are fed by their
group instead: same answers, and the shared stages' calls are counted
once, on the group.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..events.model import Event, UpdateStripper
from ..events.wellformed import BoundaryChecker


class EventMultiplexer:
    """Drive N :class:`~repro.xquery.engine.QueryRun` pipelines in one pass.

    Args:
        runs: the consumers.  A run constructed with ``ignore_updates``
            is detected by its stripper marker and served from the shared
            stripped stream instead of running its own stripper.
        validate: check the raw input against the whole stream
            protocol with one shared
            :class:`~repro.events.wellformed.BoundaryChecker`.
        quarantine: isolate pipeline failures.  An exception escaping
            one pipeline (an operator bug, an injected fault, a
            :class:`~repro.events.errors.ProtocolViolation` from that
            pipeline's sanitizer) detaches *that* pipeline from the
            fan-out and records a captured error report; the siblings
            keep running.  Refusals of the shared input checker stay
            fatal — a malformed source invalidates every consumer.
            With ``quarantine=False`` the first pipeline exception
            propagates (the pre-fault-tolerance behaviour).
    """

    def __init__(self, runs: Sequence, validate: bool = False,
                 quarantine: bool = False) -> None:
        self.runs = list(runs)
        self._raw_pipelines = [(i, r.pipeline)
                               for i, r in enumerate(self.runs)
                               if r._stripper is None]
        self._stripped_pipelines = [(i, r.pipeline)
                                    for i, r in enumerate(self.runs)
                                    if r._stripper is not None]
        self._stripper: Optional[UpdateStripper] = (
            UpdateStripper() if self._stripped_pipelines else None)
        self.checker: Optional[BoundaryChecker] = (
            BoundaryChecker("shared input") if validate else None)
        self.quarantine = quarantine
        #: run index -> captured error report (see repro.fault).
        self.quarantined: Dict[int, dict] = {}
        self.events_in = 0
        self.batches = 0
        #: Events handed to each consumer class (batch-level counters:
        #: the telemetry layer reads these, the hot loop never branches).
        self.raw_events_out = 0
        self.stripped_events_out = 0
        self._finished = False
        #: Shared prefix groups (see
        #: :class:`repro.compile.sharing.SharedGroup`).  Member runs are
        #: removed from the direct fan-out — the group feeds them from
        #: its prefix pipeline's output — but keep their run indices for
        #: results, stats, and quarantine accounting.
        self._groups: List = []
        self._grouped: frozenset = frozenset()
        #: The :class:`~repro.fault.FaultPlan` in force, if any —
        #: installed by the owning executor so quarantine bundles can
        #: record the replayable spec and seed.
        self.fault_plan = None
        #: Run indices proven statically empty by the type checker
        #: (:mod:`repro.analysis.types`).  Detached from the fan-out
        #: entirely: their answer is the empty sequence for *every*
        #: input, so feeding them would be pure overhead.
        self.static_empty: frozenset = frozenset()

    def set_static_empty(self, indices: Iterable[int]) -> None:
        """Detach statically-empty pipelines from the fan-out.

        The owning executor installs the run indices whose plans the
        type checker proved empty for every document of the declared
        schema.  Those pipelines are never fed and never finished —
        their displays stay at the provably correct empty answer.
        """
        self.static_empty = frozenset(indices)
        self._detach(self.static_empty)

    def _detach(self, indices) -> None:
        """Take the given run indices out of the direct fan-out."""
        self._raw_pipelines = [(i, p) for i, p in self._raw_pipelines
                               if i not in indices]
        self._stripped_pipelines = [(i, p)
                                    for i, p in self._stripped_pipelines
                                    if i not in indices]

    def set_groups(self, groups: Sequence) -> None:
        """Install shared prefix groups; detach members from the fan-out."""
        self._groups = list(groups)
        self._grouped = frozenset(i for g in self._groups
                                  for i in g.member_indices)
        self._detach(self._grouped)

    def feed(self, event: Event) -> None:
        self.feed_batch((event,))

    def _feed_groups(self, batch: Sequence[Event]) -> None:
        for group in self._groups:
            for i, exc, scope in group.feed_batch(
                    batch, quarantine=self.quarantine):
                self._quarantine(i, exc, scope, group)

    def _quarantine(self, run_index: int, exc: BaseException,
                    scope: str = "pipeline", group=None) -> None:
        """Detach one run and record why.

        ``scope`` says which pipeline threw, and so whose flight ring
        the bundle carries (its ``ring`` key): the run's own —
        ``"pipeline"`` for a run fed the source, ``"member"`` for a
        shared group's member, fed the routed prefix output — or, for
        ``"prefix"``, the ring of ``group``'s shared prefix.
        """
        from ..fault import error_report
        report = error_report(
            exc, run_index=run_index, events_in=self.events_in)
        recorder = (group.recorder if scope == "prefix"
                    else getattr(self.runs[run_index], "recorder", None))
        if recorder is not None and recorder.flight is not None:
            # Post-mortem bundle: the failing pipeline's recent events,
            # stage identities, and telemetry snapshot travel with the
            # quarantine report (plain dicts — they cross the shard
            # result pipe and land in the chaos CLI's artifacts).
            from ..obs.flightrec import build_bundle
            report["flight_bundle"] = build_bundle(
                "quarantine", recorder=recorder,
                error={"error_type": report["error_type"],
                       "message": report["message"]},
                fault_plan=self.fault_plan, ring=scope,
                run_index=run_index, events_in=self.events_in)
        self.quarantined[run_index] = report
        self._detach((run_index,))

    def feed_batch(self, events: Iterable[Event]) -> None:
        """Fan one input batch out to every pipeline.

        The batch is materialized once; pipelines receive it by
        reference.  Pipelines are independent (disjoint contexts and
        stream-number spaces), so per-batch sequencing across consumers
        is unobservable — within each pipeline the event order is exactly
        the input order.
        """
        batch = events if isinstance(events, (list, tuple)) \
            else list(events)
        self.events_in += len(batch)
        self.batches += 1
        if self.checker is not None:
            feed = self.checker.feed
            for e in batch:
                feed(e)
        if self._groups:
            self._feed_groups(batch)
        if self._stripper is not None:
            stripper_feed = self._stripper.feed
            stripped = [out for e in batch for out in stripper_feed(e)]
            self.stripped_events_out += self._fan_out(
                self._stripped_pipelines, stripped)
        self.raw_events_out += self._fan_out(self._raw_pipelines, batch)

    def _fan_out(self, pipelines: Sequence, batch: Sequence[Event]) -> int:
        """Feed ``batch`` to each pipeline; returns the number of events
        handed over."""
        pipelines = list(pipelines)   # a quarantine detaches from the list
        for i, pipeline in pipelines:
            try:
                pipeline.feed_batch(batch)
            except Exception as exc:
                if not self.quarantine:
                    raise
                self._quarantine(i, exc)
        return len(batch) * len(pipelines)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.checker is not None:
            self.checker.finish()
        for i, run in enumerate(self.runs):
            if (i in self.quarantined or i in self._grouped
                    or i in self.static_empty):
                continue
            if self.quarantine:
                try:
                    run.finish()
                except Exception as exc:
                    self._quarantine(i, exc)
            else:
                run.finish()
        # Grouped members flush through their group: the prefix's
        # end-of-stream tail must reach them before their own on_end.
        for group in self._groups:
            for i, exc, scope in group.finish(quarantine=self.quarantine):
                self._quarantine(i, exc, scope, group)

    # -- accounting ----------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate executor metrics plus the per-pipeline breakdown."""
        per_pipeline = [r.stats() for r in self.runs]
        return {
            "pipelines": len(self.runs),
            "events_in": self.events_in,
            "batches": self.batches,
            "fanout": {
                "raw_pipelines": len(self._raw_pipelines),
                "stripped_pipelines": len(self._stripped_pipelines),
                "raw_events_out": self.raw_events_out,
                "stripped_events_out": self.stripped_events_out,
                "grouped_pipelines": len(self._grouped),
                "static_empty_pipelines": len(self.static_empty),
            },
            "shared_strip": self._stripper is not None,
            "validated_events": (self.checker.count
                                 if self.checker is not None else 0),
            "transformer_calls": sum(s["transformer_calls"]
                                     for s in per_pipeline),
            "state_cells": sum(s["state_cells"] for s in per_pipeline),
            "per_pipeline": per_pipeline,
        }
