"""XFlux: the public query engine.

Typical use::

    from repro import XFlux

    engine = XFlux('X//europe//item[location="Albania"]/quantity')
    result = engine.run_xml(open("auction.xml").read())
    print(result.text())          # the final answer
    print(result.stats())         # buffering metrics

Continuous operation::

    engine = XFlux('stream()//quote[name="IBM"]/price',
                   mutable_source=True)
    run = engine.start()
    for event in ticker_events:
        run.feed(event)
        print(run.display.text())   # the continuously updated answer

The engine compiles the query once per ``start()``/``run()`` (stream
numbers are single-use) and pushes events through the transformer
pipeline into a :class:`~repro.core.display.Display`.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional

from ..core.display import Display
from ..core.pipeline import Pipeline
from ..core.transformer import Context
from ..events.model import Event
from ..xmlio.tokenizer import XMLTokenizer, tokenize
from .ast import Expr
from .compiler import Compiler, Plan
from .parser import parse_cached


#: The on/off environment switches, ``REPRO_<name>`` each.
ENV_FLAGS = ("SANITIZE", "METRICS", "FLIGHT")


def env_flag(name: str, value: Optional[bool] = None) -> bool:
    """Resolve one on/off switch: an explicit ``value`` wins, ``None``
    reads the ``REPRO_<name>`` environment variable — unset, ``""`` and
    ``"0"`` are off, ``"1"`` is on, anything else is a ``ValueError``
    (``REPRO_METRICS=false`` must not turn recording on).

    The one reader of :data:`ENV_FLAGS`.
    """
    if value is not None:
        return bool(value)
    raw = os.environ.get("REPRO_" + name, "")
    if raw in ("", "0", "1"):
        return raw == "1"
    raise ValueError("REPRO_{} must be 0 or 1, got {!r}".format(name, raw))


def _ingest(text: str, source_id: int, needs_oids: bool, timed: bool):
    """Tokenize one whole document: the ingest of :meth:`XFlux.run_xml`,
    :meth:`MultiQueryRun.run_xml` and the sharded supervisor.

    Returns ``(events, chunk_histogram)``.  ``timed`` (a run that
    records telemetry) times the scan into a fresh
    :class:`~repro.obs.histogram.LogHistogram`; otherwise the histogram
    is None and the plain :func:`tokenize` path runs.
    """
    if not timed:
        return tokenize(text, stream_id=source_id,
                        emit_oids=needs_oids), None
    from ..obs.histogram import LogHistogram
    tok = XMLTokenizer(stream_id=source_id, emit_oids=needs_oids)
    tok.chunk_histogram = hist = LogHistogram()
    return tok.feed(text) + tok.close(), hist


def _merge_executor_metrics(executor, dicts: list) -> Optional[dict]:
    """Merge per-pipeline recorder dicts, then add the executor's own
    telemetry exactly once.

    The tokenizer chunk histogram belongs to the one shared scan, not
    to any pipeline, so a sharded run merges to the same totals as the
    single-process executor.
    """
    if not dicts:
        return None
    from ..obs import merge_metrics
    merged = merge_metrics(dicts)
    if executor.chunk_latency is not None:
        merged.setdefault("histograms", {})["tokenizer_chunk"] = \
            executor.chunk_latency.to_dict()
    return merged


class QueryRun:
    """One live execution of a compiled query."""

    def __init__(self, plan: Plan,
                 on_change: Optional[Callable[[Event, Display],
                                              None]] = None,
                 track_snapshots: bool = False,
                 ignore_updates: bool = False,
                 always_active: bool = False,
                 sanitize: Optional[bool] = None,
                 metrics: Optional[bool] = None,
                 trace: bool = False,
                 sample_interval: int = 256,
                 reclaim_on_freeze: bool = True,
                 flight: Optional[bool] = None) -> None:
        sanitize = env_flag("SANITIZE", sanitize)
        metrics = env_flag("METRICS", metrics)
        flight = env_flag("FLIGHT", flight)
        self.plan = plan
        self.display = Display(plan.result_id, on_change=on_change,
                               track_snapshots=track_snapshots)
        if metrics or trace or flight:
            # The flight ring is fed by the recorder's source generator,
            # so it implies a recorder (same rule as tracing).
            from ..obs import MetricsRecorder
            self.recorder: Optional["MetricsRecorder"] = MetricsRecorder(
                sample_interval=sample_interval, trace=trace,
                flight=flight)
        else:
            self.recorder = None
        self.pipeline = Pipeline(plan.ctx, plan.stages, self.display,
                                 always_active=always_active,
                                 sanitize=sanitize,
                                 recorder=self.recorder,
                                 reclaim_on_freeze=reclaim_on_freeze)
        from ..events.model import UpdateStripper
        self._stripper = UpdateStripper() if ignore_updates else None

    def feed(self, event: Event) -> None:
        if self._stripper is not None:
            for e in self._stripper.feed(event):
                self.pipeline.feed(e)
            return
        self.pipeline.feed(event)

    def feed_all(self, events: Iterable[Event]) -> None:
        """Feed a whole batch through the flattened pipeline driver."""
        if self._stripper is not None:
            stripper_feed = self._stripper.feed
            self.pipeline.feed_batch(
                e for event in events for e in stripper_feed(event))
            return
        self.pipeline.feed_batch(events)

    def finish(self) -> "QueryRun":
        self.pipeline.finish()
        return self

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self) -> bytes:
        """Snapshot the run mid-stream: the whole run, pickled.

        One pickle keeps shared structure: the display in the envelope
        *is* the pipeline's sink, and the plan's stages are the
        wrappers' transformers.  ``on_change`` callbacks ride along and
        must therefore be picklable (module-level functions; no
        closures) — a non-picklable callback raises
        :class:`~repro.fault.checkpoint.CheckpointError` at checkpoint
        time, never silently drops state.
        """
        from ..fault.checkpoint import encode_checkpoint
        return encode_checkpoint("queryrun", self._schema(), self)

    def restore(self, blob: bytes) -> "QueryRun":
        """Adopt a :meth:`checkpoint` snapshot in place; returns ``self``.

        The receiving run must have the same stages, sink and stripper
        (schema-guarded), which a fresh compile of the same query with
        the same flags guarantees.  It takes the checkpointed run's
        attributes whole, observers included: the recorder, flight
        ring, sanitizer checkers and the display's ``on_change`` are
        the checkpointed run's, so a restored recorder counts the whole
        stream, not the tail.  :meth:`MultiQueryRun.restore` works the
        same way.
        """
        from ..fault.checkpoint import decode_checkpoint, require_schema
        schema, run = decode_checkpoint(blob, "queryrun")
        require_schema(schema, self._schema())
        self.__dict__.update(vars(run))
        return self

    def _schema(self) -> dict:
        """Structural identity a restore target must match."""
        return {
            "stages": [type(w.t).__name__ for w in self.pipeline.wrappers],
            "sink": type(self.pipeline.sink).__name__,
            "stripper": self._stripper is not None,
        }

    # -- results ---------------------------------------------------------------

    def text(self) -> str:
        """The currently displayed answer."""
        return self.display.text()

    def events(self):
        return self.display.events()

    def stats(self) -> dict:
        """Execution metrics: transformer calls and retained state.

        ``per_stage`` breaks the aggregate counters down by stage (the
        aggregates are exact sums over it), and says of each ``//`` step
        what it copies per level (``reads``: ``all`` false means the
        step's copies were pruned), and of each item-scope predicate and
        ancestor join what is read of its items and how many went out
        plain, were dropped, or opened a region (``gate``); ``metrics``
        appears when the run has a telemetry recorder attached.
        """
        from ..analysis.projection import gate_reads, step_reads
        per_stage = self.pipeline.stage_accounts()
        for k, reads in step_reads(self.plan):
            per_stage[k]["reads"] = reads.to_dict()
        for k, reads in gate_reads(self.plan):
            per_stage[k]["gate"] = dict(
                reads=reads.to_dict(),
                items=self.plan.stages[k].item_counts())
        out = {
            "transformer_calls": self.pipeline.total_calls(),
            "state_cells": sum(a["state_cells"] for a in per_stage),
            "live_regions": sum(a["live_regions"] for a in per_stage),
            "region_entries": sum(a["region_entries"] for a in per_stage),
            "display": self.display.stats(),
            "stages": len(self.pipeline.wrappers),
            "per_stage": per_stage,
        }
        if self.recorder is not None:
            out["metrics"] = self.recorder.to_dict()
        return out

    def metrics(self) -> Optional[dict]:
        """The telemetry recorder's dict, or None when recording is off."""
        return None if self.recorder is None else self.recorder.to_dict()


class MultiQueryRun:
    """N standing queries over one shared input stream, in a single pass.

    The serving-shaped executor: the input is tokenized/deserialized
    once, every batch is fanned out to all compiled pipelines by the
    :class:`~repro.core.multiplex.EventMultiplexer`, consumers that
    ignore updates share one stripper pass, queries with identical
    text and flags share one pipeline (their results are reference-equal
    by construction), and queries that open with the same steps share
    one evaluation of them (``share_prefixes``).  Per-query answers are
    exactly those of N independent runs over the same events;
    transformer calls and state cells count each shared stage once, so
    a shared query's own counters cover only its suffix.

    Typical use::

        mq = MultiQueryRun(['X//item/quantity', 'count(X//item)'])
        mq.run_xml(document)
        for query, text in zip(mq.query_texts, mq.texts()):
            print(query, '->', text)

    Args:
        queries: query texts or preconstructed :class:`XFlux` engines
            (mixing is fine; engines keep their own flags).
        mutable_source / ignore_updates: defaults applied to queries
            given as text.
        validate: check the shared input once against the whole stream
            protocol (the producer contract, DESIGN.md section 7); a
            refusal is a :class:`~repro.events.errors.ProtocolViolation`
            and fatal to every query.
        always_active: disable wrapper fast paths (differential tests).
        quarantine: isolate per-query failures (the default).  An
            exception escaping one query's pipeline — an operator bug, a
            :class:`~repro.events.errors.ProtocolViolation` from its
            sanitizer, an injected fault — detaches that query with a
            captured error report; siblings keep running and
            :meth:`statuses` / :meth:`error_reports` tell them apart.
            ``quarantine=False`` restores fail-fast propagation.
        fault_plan: a :class:`~repro.fault.FaultPlan` whose ``raise``
            actions are armed on the matching query pipelines (query
            indices are submission-order positions).
        projection: ignored, like ``fuse``; ``benchmarks/e2e`` and WAL
            manifests written before stream projection was deleted
            still pass it (DESIGN.md section 10).
        schema: the document schema for ``typecheck`` (an
            :class:`~repro.analysis.schema.ElementSchema`, the name
            ``"xmark"``/``"dblp"``, or a DTD file path).
        typecheck: run the static type checker
            (:mod:`repro.analysis.types`) over every unique plan and
            *short-circuit* the statically-empty ones: their answer is
            provably the empty sequence for any document of the
            schema, so they are never fed a single event.  They report
            status ``"empty"`` and the empty text.  Queries over
            mutable sources are skipped (inference is defined over
            documents) and run normally.
        fuse: ignored; ``benchmarks/e2e`` and old WAL manifests still
            pass it, and it goes when a benchmark PR drops it there.
        share_prefixes: factor common leading axis/predicate chains
            into shared prefix pipelines evaluated once per batch
            (:mod:`repro.compile.sharing`).  On by default; ``False``
            opts out and is the unshared oracle the differential tests
            compare with.  Answers are equal either way; calls and
            cells count each shared stage once.  A recorder or a
            flight ring observes the shared executor (the prefix gets
            its own, merged by :meth:`metrics`).  Only sanitize and
            always-active, which are defined over per-query stage
            boundaries, switch it off; ``stats()["sharing"]`` then
            says ``engaged: False`` and which flags did it
            (``disengaged_by``).
    """

    def __init__(self, queries, mutable_source: bool = False,
                 ignore_updates: bool = False, validate: bool = False,
                 always_active: bool = False,
                 sanitize: Optional[bool] = None,
                 metrics: Optional[bool] = None,
                 sample_interval: int = 256,
                 quarantine: bool = True,
                 fault_plan=None,
                 projection: bool = False,
                 schema=None,
                 typecheck: bool = False,
                 fuse: Optional[bool] = None,
                 share_prefixes: Optional[bool] = None,
                 flight: Optional[bool] = None) -> None:
        from ..core.multiplex import EventMultiplexer
        self.engines = []
        for q in queries:
            if isinstance(q, XFlux):
                self.engines.append(q)
            else:
                self.engines.append(XFlux(q, mutable_source=mutable_source,
                                          ignore_updates=ignore_updates))
        self.query_texts = [e.query_text for e in self.engines]
        # Each switch is resolved here, once; the runs get booleans.
        sanitize = env_flag("SANITIZE", sanitize)
        metrics = env_flag("METRICS", metrics)
        flight = env_flag("FLIGHT", flight)
        #: The flags that switched sharing off; ``None`` when it was
        #: opted out (``share_prefixes=False``).  A recorder or flight
        #: ring does not: the prefix pipeline gets its own.
        self._share_blockers = None
        if share_prefixes is None or share_prefixes:
            self._share_blockers = [
                name for name, on in (("always_active", always_active),
                                      ("sanitize", sanitize)) if on]
        #: Is sharing engaged (not opted out and not switched off)?
        self.share_prefixes = self._share_blockers == []
        self._slots = []        # query index -> index into self.runs
        seen = {}
        unique = []             # first engine of each unique slot
        for e in self.engines:
            key = (e.query_text, e.mutable_source, e.ignore_updates)
            slot = seen.get(key)
            if slot is None:
                slot = len(unique)
                seen[key] = slot
                unique.append(e)
            self._slots.append(slot)
        self._slot_engines = unique
        #: Per-slot :class:`~repro.analysis.types.TypeReport` when
        #: ``typecheck`` is on (mutable-source slots are absent).
        self.type_reports = {}
        empty_slots = set()
        if typecheck:
            from ..analysis.types import TypeCheckError, infer_types
            for slot, e in enumerate(unique):
                try:
                    report = infer_types(e.compile(optimize=False),
                                         schema=(e.schema if e.schema
                                                 is not None else schema))
                except TypeCheckError:
                    continue  # mutable source: run the query normally
                self.type_reports[slot] = report
                if report.statically_empty:
                    empty_slots.add(slot)
        #: Slots proven statically empty and detached from the fan-out.
        self.static_empty_slots = frozenset(empty_slots)
        #: Shared prefix groups (empty when sharing is off or nothing
        #: shares); member runs live in ``self.runs`` like any other.
        self.groups = []
        grouped_runs = {}

        def make_run(plan, engine):
            return QueryRun(plan,
                            ignore_updates=engine.ignore_updates,
                            always_active=always_active,
                            sanitize=sanitize,
                            metrics=metrics,
                            sample_interval=sample_interval,
                            flight=flight)

        if self.share_prefixes:
            from ..compile.sharing import build_shared_groups
            # Statically-empty slots never receive events, so sharing
            # a prefix with them buys nothing — keep them solo.
            self.groups = build_shared_groups(
                [(slot, e) for slot, e in enumerate(unique)
                 if slot not in empty_slots],
                make_run)
            for g in self.groups:
                for slot, run in g.members:
                    grouped_runs[slot] = run
        self.runs = []          # unique pipelines, construction order
        for slot, e in enumerate(unique):
            run = grouped_runs.get(slot)
            if run is None:
                if slot in empty_slots:
                    # The checker proved the answer empty for every
                    # document: compile the one-relay constant plan so
                    # the run's footprint matches its (zero) work.
                    from ..analysis.types import constant_empty_plan
                    plan = constant_empty_plan(e.compile(optimize=False))
                else:
                    plan = e.compile()
                run = make_run(plan, e)
            self.runs.append(run)
        source_ids = {r.plan.source_id for r in self.runs}
        if len(source_ids) > 1:
            raise ValueError("queries disagree on the source stream "
                             "number: {}".format(sorted(source_ids)))
        self.source_id = source_ids.pop() if source_ids else 0
        self.needs_oids = any(r.plan.needs_oids for r in self.runs)
        self.mux = EventMultiplexer(self.runs, validate=validate,
                                    quarantine=quarantine)
        if self.groups:
            self.mux.set_groups(self.groups)
        if self.static_empty_slots:
            self.mux.set_static_empty(self.static_empty_slots)
        #: Shared-tokenizer chunk-latency histogram, set by run_xml when
        #: any run records metrics (executor state, counted once).
        self.chunk_latency = None
        self.fault_plan = fault_plan
        self.mux.fault_plan = fault_plan
        if fault_plan:
            from ..fault import arm_stage_fault
            for q, stage, at in fault_plan.stage_faults():
                if 0 <= q < len(self._slots):
                    arm_stage_fault(self.runs[self._slots[q]], stage, at,
                                    query=q)

    def __len__(self) -> int:
        return len(self._slots)

    # -- feeding ---------------------------------------------------------------

    def feed(self, event: Event) -> None:
        self.mux.feed(event)

    def feed_all(self, events: Iterable[Event]) -> None:
        self.mux.feed_batch(events)

    def finish(self) -> "MultiQueryRun":
        self.mux.finish()
        return self

    def run(self, events: Iterable[Event]) -> "MultiQueryRun":
        """Evaluate all queries over a complete event stream."""
        self.feed_all(events)
        return self.finish()

    def run_durable(self, events: Iterable[Event], durable: str,
                    batch_events: int = 512,
                    checkpoint_every: int = 16,
                    checkpoint_cost_factor: float = 9.0,
                    **wal_opts) -> "MultiQueryRun":
        """Evaluate with write-ahead journaling to ``durable`` (a dir).

        Every frame is durably logged before any pipeline sees it,
        checkpoint envelopes land every ``checkpoint_every`` frames
        subject to time-amortization (plus one covering the empty
        prefix, so recovery always has an envelope to restore; see
        :func:`repro.fault.wal.drive_durable`), and quarantines are
        recorded as STATUS records.  After a crash,
        :func:`repro.fault.recover.recover` on the directory
        reproduces this run byte-identically.  ``wal_opts`` pass
        through to :class:`~repro.fault.wal.WriteAheadLog`
        (``segment_bytes``, ``fsync``, ``crash_after_frames``).

        This is the one place an in-process run opens a log: a durable
        single query (:meth:`XFlux.run_durable`) is a one-member
        executor journalled here.  ``flags`` records, per query, what
        an engine built from the text alone would not know, for the
        recovery of a log cut before its first checkpoint.
        """
        from ..fault.wal import WriteAheadLog, drive_durable
        wal = WriteAheadLog(durable, **wal_opts)
        wal.begin({
            "kind": "multiquery",
            "queries": list(self.query_texts),
            "flags": [[e.mutable_source, e.ignore_updates]
                      for e in self.engines],
            "batch_events": batch_events,
            "checkpoint_every": checkpoint_every,
            "needs_oids": self.needs_oids,
            "source_id": self.source_id,
        })
        wal.register_shards([None])
        wal.checkpoint(self.checkpoint(), 0)
        drive_durable(self, events, wal, batch_events=batch_events,
                      checkpoint_every=checkpoint_every,
                      checkpoint_cost_factor=checkpoint_cost_factor)
        return self

    def run_xml(self, text: str, durable: Optional[str] = None,
                **durable_opts) -> "MultiQueryRun":
        """Evaluate all queries over an XML document — tokenized once.

        With ``durable`` set to a directory path the run journals to a
        write-ahead log first (see :meth:`run_durable`).
        """
        events, self.chunk_latency = _ingest(
            text, self.source_id, self.needs_oids,
            timed=durable is None and any(r.recorder is not None
                                          for r in self.runs))
        if durable is not None:
            return self.run_durable(events, durable, **durable_opts)
        return self.run(events)

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self) -> bytes:
        """Snapshot the whole executor mid-stream into one envelope.

        The entire object graph — every pipeline, the multiplexer with
        its shared stripper and checker, dedup aliasing, quarantine
        records, armed faults — goes into one pickle, so restoring gives
        back an executor whose continued run is byte-identical to never
        having stopped.  This is the blob shard workers ship to their
        supervisor (see :mod:`repro.parallel.shard`).
        """
        from ..fault.checkpoint import encode_checkpoint
        return encode_checkpoint(
            "multiquery", {"queries": list(self.query_texts)}, self)

    @classmethod
    def restore(cls, blob: bytes, queries=None) -> "MultiQueryRun":
        """Rehydrate a :meth:`checkpoint` snapshot.

        ``queries`` (optional) guards against feeding the wrong blob to
        a restore site: the checkpointed query texts must match exactly.
        Checkpoints are process-local, version-locked state transfer —
        not durable archives (see DESIGN.md section 9).
        """
        from ..fault.checkpoint import decode_checkpoint, require_schema
        schema, run = decode_checkpoint(blob, "multiquery")
        if queries is not None:
            require_schema(schema, {"queries": list(queries)})
        return run

    # -- results ---------------------------------------------------------------

    def query_run(self, i: int) -> QueryRun:
        """The (possibly shared) live run serving query ``i``."""
        return self.runs[self._slots[i]]

    def text(self, i: int) -> Optional[str]:
        """Query ``i``'s current answer, or ``None`` once quarantined."""
        slot = self._slots[i]
        if slot in self.mux.quarantined:
            return None
        return self.runs[slot].text()

    def texts(self) -> list:
        """Current answers, one per query, in construction order.

        Quarantined queries report ``None`` — their displays froze at an
        arbitrary mid-stream point, so exposing the partial text would
        present a wrong answer as a result.
        """
        quarantined = self.mux.quarantined
        return [None if s in quarantined else self.runs[s].text()
                for s in self._slots]

    def statuses(self) -> list:
        """Per-query health, submission order.

        ``"ok"``, ``"quarantined"``, or ``"empty"`` — the last for
        queries the type checker proved can never produce output
        (their empty text is the exact answer, not a failure).
        """
        quarantined = self.mux.quarantined
        empty = self.static_empty_slots
        return ["empty" if s in empty
                else "quarantined" if s in quarantined else "ok"
                for s in self._slots]

    def error_reports(self) -> dict:
        """Query index -> captured error report for quarantined queries."""
        quarantined = self.mux.quarantined
        return {i: quarantined[s] for i, s in enumerate(self._slots)
                if s in quarantined}

    def stats(self) -> dict:
        """Aggregate executor metrics plus the per-query breakdown.

        ``per_query`` is in submission order; deduplicated queries report
        their shared pipeline's stats.  Aggregate counters (transformer
        calls, state cells) count each unique pipeline and each shared
        prefix once.  Every per-query entry carries a ``status`` key;
        the top-level ``quarantined`` count says how many pipelines
        were detached.
        """
        stats = self.mux.stats()
        quarantined = self.mux.quarantined
        for s, entry in enumerate(stats["per_pipeline"]):
            entry["status"] = ("empty" if s in self.static_empty_slots
                               else "quarantined" if s in quarantined
                               else "ok")
        stats["queries"] = len(self._slots)
        stats["deduped"] = len(self._slots) - len(self.runs)
        stats["quarantined"] = len(quarantined)
        stats["static_empty"] = len(self.static_empty_slots)
        stats["per_query"] = [stats["per_pipeline"][s]
                              for s in self._slots]
        if self.share_prefixes:
            groups = [g.stats() for g in self.groups]
            prefix_calls = sum(g["prefix_calls"] for g in groups)
            stats["sharing"] = {
                "requested": True,
                "engaged": True,
                "groups": groups,
                "shared_queries": sum(len(g["members"]) for g in groups),
                "prefix_calls": prefix_calls,
            }
            # The aggregates count every transformer dispatch actually
            # performed and every cell held, shared prefix stages
            # included.
            stats["transformer_calls"] += prefix_calls
            stats["state_cells"] += sum(g["prefix_state_cells"]
                                        for g in groups)
        elif self._share_blockers:
            stats["sharing"] = {"requested": True, "engaged": False,
                                "disengaged_by": list(self._share_blockers)}
        if any(r.recorder is not None for r in self.runs):
            stats["metrics"] = self.metrics()
        return stats

    def projection_summary(self) -> Optional[dict]:
        """Always None: stream projection was deleted (DESIGN.md section
        10).  ``benchmarks/e2e`` still reads it, like ``fuse``."""
        return None

    def metrics(self) -> Optional[dict]:
        """Merged telemetry across unique pipelines (None when off).

        Each shared prefix is one more pipeline with its own recorder,
        so its stages are counted once, beside the member suffixes
        that read its output.  The members' recorders are ``routed``:
        ``source_events`` and the ``flight`` summary come from the
        pipelines fed the source.
        """
        recorders = ([r.recorder for r in self.runs]
                     + [g.recorder for g in self.groups])
        return _merge_executor_metrics(
            self, [rec.to_dict() for rec in recorders if rec is not None])

    def __repr__(self) -> str:
        return "MultiQueryRun({} queries, {} pipelines)".format(
            len(self._slots), len(self.runs))


#: ``XFlux.start`` keywords that configure one bare :class:`QueryRun`
#: and have no meaning for the executor behind a durable run.
_START_ONLY = frozenset(("on_change", "track_snapshots", "trace",
                         "reclaim_on_freeze"))


class XFlux:
    """A streaming XQuery processor built on update streams.

    Args:
        query: query text in the supported XQuery subset, or a parsed AST.
        mutable_source: declare that the input stream embeds updates;
            predicate/join decisions then stay revocable (more state,
            Section V pruning off).  Leave False for plain documents.
        schema: declare the document schema and let the static type
            checker (:mod:`repro.analysis.types`) optimize every
            compiled plan: provably-dead stages become structural
            relays and statically-empty plans collapse to a
            constant-empty pipeline, byte-identically.  Accepts an
            :class:`~repro.analysis.schema.ElementSchema`, the names
            ``"xmark"``/``"dblp"``, or a DTD file path.  Ignored for
            mutable sources (inference is defined over documents).
    """

    def __init__(self, query, mutable_source: bool = False,
                 ignore_updates: bool = False, schema=None) -> None:
        # Parsing goes through the module-level AST cache: constructing
        # many engines for the same standing query parses once (the
        # compiler never mutates the AST, so sharing is safe).
        self.ast: Expr = (parse_cached(query) if isinstance(query, str)
                          else query)
        self.query_text = query if isinstance(query, str) else repr(query)
        self.mutable_source = mutable_source
        #: Section V consumer opt-out: treat every incoming mutable region
        #: as fixed content; updates targeting them become void and no
        #: per-region state is ever retained.
        self.ignore_updates = ignore_updates
        #: Declared document schema driving compile-time type-directed
        #: plan optimization (None: compile plans as written).
        self.schema = schema

    def compile(self, optimize: Optional[bool] = None) -> Plan:
        """Compile a fresh plan (stream numbers are single-use).

        Every ``//`` step is told what the rest of the plan reads of
        its output and copies no more than that per level
        (:func:`repro.analysis.projection.apply_reads`).  With a
        declared ``schema`` the plan is first run through the static
        type checker and optimized (dead stages relayed, statically
        empty plans collapsed).  ``optimize=False`` is the escape hatch
        returning the plan exactly as compiled — the paper's own
        operators, and the reference the differential tests compare
        the other paths with byte for byte.
        """
        compiler = Compiler(ctx=Context(), source_id=0,
                            mutable_source=self.mutable_source
                            and not self.ignore_updates)
        plan = compiler.compile(self.ast)
        if optimize is False:
            return plan
        if self.schema is not None or optimize:
            from ..analysis.types import optimize_plan
            plan = optimize_plan(plan, schema=self.schema)
        from ..analysis.projection import apply_reads
        apply_reads(plan)
        return plan

    def start(self, on_change: Optional[Callable[[Event, Display],
                                                 None]] = None,
              track_snapshots: bool = False,
              sanitize: Optional[bool] = None,
              metrics: Optional[bool] = None,
              trace: bool = False,
              sample_interval: int = 256,
              reclaim_on_freeze: bool = True,
              fuse: Optional[bool] = None,
              flight: Optional[bool] = None) -> QueryRun:
        """Begin a continuous run; feed it events as they arrive
        (``fuse`` is ignored: ``benchmarks/e2e`` passes it, ROADMAP 1(iii))."""
        return QueryRun(self.compile(), on_change=on_change,
                        track_snapshots=track_snapshots,
                        ignore_updates=self.ignore_updates,
                        sanitize=sanitize, metrics=metrics, trace=trace,
                        sample_interval=sample_interval,
                        reclaim_on_freeze=reclaim_on_freeze,
                        flight=flight)

    def run(self, events: Iterable[Event], **kwargs) -> QueryRun:
        """Evaluate over a complete event stream."""
        run = self.start(**kwargs)
        run.feed_all(events)
        return run.finish()

    def _journalled(self, **run_opts) -> MultiQueryRun:
        """The one-member executor behind a durable single-query run.

        Fail-fast like any single run (``quarantine=False``).  The
        executor takes the switches every pipeline of it shares; what
        only a bare :class:`QueryRun` means anything for is refused by
        name rather than dropped.
        """
        refused = sorted(_START_ONLY.intersection(run_opts))
        if refused:
            raise ValueError("durable runs do not combine with "
                             + ", ".join(refused))
        return MultiQueryRun([self], quarantine=False, **run_opts)

    def run_durable(self, events: Iterable[Event], durable: str,
                    sanitize: Optional[bool] = None,
                    metrics: Optional[bool] = None,
                    sample_interval: int = 256,
                    flight: Optional[bool] = None,
                    **durable_opts) -> QueryRun:
        """Evaluate over an event stream with write-ahead journaling.

        Frames are logged to the ``durable`` directory before the
        pipeline sees them, with periodic checkpoint envelopes, so
        :func:`repro.fault.recover.recover` reproduces the run after a
        crash.  The run is a one-member :class:`MultiQueryRun` — the
        executor that is journalled, checkpointed and recovered —
        and ``durable_opts`` are :meth:`MultiQueryRun.run_durable`'s
        (``batch_events``, ``checkpoint_every``, WAL options); the
        returned :class:`QueryRun` is its ``query_run(0)``.
        """
        mq = self._journalled(
            sanitize=sanitize, metrics=metrics,
            sample_interval=sample_interval, flight=flight)
        return mq.run_durable(events, durable, **durable_opts).query_run(0)

    def run_xml(self, text: str, projection: bool = False,
                schema=None, durable: Optional[str] = None,
                durable_opts: Optional[dict] = None,
                fuse: Optional[bool] = None,
                **kwargs) -> QueryRun:
        """Evaluate over an XML document string (tokenized on the fly).

        With ``durable`` set to a directory path the run journals every
        frame to a write-ahead log ahead of dispatch and checkpoints
        periodically (see :meth:`run_durable`; ``durable_opts`` pass
        through).  ``projection``, ``schema`` and ``fuse`` are ignored:
        ``benchmarks/e2e`` passes them (ROADMAP 1(iii); stream
        projection was deleted, DESIGN.md section 10).
        """
        if durable is not None:
            mq = self._journalled(**kwargs)
            return mq.run_xml(text, durable=durable,
                              **(durable_opts or {})).query_run(0)
        plan = self.compile()
        run = QueryRun(plan, **kwargs)
        events, hist = _ingest(text, plan.source_id, plan.needs_oids,
                               timed=run.recorder is not None)
        if hist is not None:
            from ..obs.histogram import TOKENIZER_CHUNK
            run.recorder.histograms[TOKENIZER_CHUNK] = hist
        run.feed_all(events)
        return run.finish()

    def __repr__(self) -> str:
        return "XFlux({!r})".format(self.query_text)
