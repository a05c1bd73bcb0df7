"""Per-stage pipeline metrics: the observable side of Sections IV-V.

The paper's central empirical claim is qualitative about *trajectories*
— blocking operators are unblocked with a small memory footprint, and
``freeze`` reclaims state mid-stream — yet end-of-run aggregates
(total transformer calls, final state cells) cannot show either.  This
module records what happens *while* the stream flows:

* **per-stage event flow** — events in/out, classified as regular data,
  update brackets (sU/eU), and control (freeze/hide/show);
* **wrapper life cycle** — the dormant -> active transition of each
  stage's :class:`~repro.core.wrapper.UpdateWrapper`, freezes observed,
  and the state cells each freeze reclaimed;
* **memory-footprint time series** — live state cells and open region
  counts per stage, sampled every ``sample_interval`` source events
  (plus one final sample at end-of-stream), giving the footprint
  trajectory whose peak ``benchmarks/e2e`` reports as ``peak_mem_cells``.

**Interposed, not inlined.**  The pipeline has one event loop
(:func:`repro.core.pipeline.bind_drain`) and it knows nothing about
telemetry.  A :class:`MetricsRecorder` attached at pipeline construction
(``Pipeline(..., recorder=...)``, ``QueryRun(..., metrics=True)``, the
``--metrics`` flag, or ``REPRO_METRICS=1``) wraps what that loop calls:
:meth:`MetricsRecorder.interpose` puts a counting (and, when tracing, a
hop-recording) shim around every stage's handler table and around the
sink, and :meth:`MetricsRecorder.observe_source` wraps the source
iterable in a generator.  Two invariants make that sufficient.  Handler
tables keep their identity for the wrappers' lifetime — the dormant ->
active flip mutates them in place — so a shim that indexes the real
table at call time always reaches the current handler.  And propagation
is depth-first, so the loop asks the source generator for its next
event only after the previous event's whole cascade has landed in the
sink: the generator's resume point *is* the end-to-end update-latency,
flight-ring and footprint-sample boundary.  Without a recorder nothing
is wrapped, so the plain path carries no telemetry test at all.

Recorders serialize to plain dicts (:meth:`MetricsRecorder.to_dict`)
so shard workers can ship them over the frame-protocol result pipe;
:func:`merge_metrics` recombines worker dicts into the totals a
single-process run would have produced (counters add, peaks combine,
timelines stay per-pipeline).
"""

from __future__ import annotations

from time import perf_counter_ns as _perf_ns
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

from ..events.model import FREEZE, SHOW, SM, UPDATE_STARTS
from .histogram import DRAIN_BATCH, UPDATE_LATENCY, LogHistogram

_FIRST_UPDATE = int(SM)
_FREEZE = int(FREEZE)
_N_KINDS = int(SHOW) + 1
_UPDATE_START_KINDS = frozenset(int(k) for k in UPDATE_STARTS)

#: Event-class labels, index-aligned with ``Kind`` values: regular data
#: events, update brackets (sU/eU), control events (freeze/hide/show).
KIND_CLASS = tuple(
    "data" if k < _FIRST_UPDATE else
    ("bracket" if k < _FREEZE else "control")
    for k in range(_N_KINDS))

EVENT_CLASSES = ("data", "bracket", "control")


class StageIdentity:
    """Stable identity of one pipeline stage, shared by every observer.

    The telemetry layer, the protocol sanitizer, and the static plan
    analyzer all need to name the same stage the same way; this is the
    one place the naming lives.  ``label`` is the human-facing form
    (``"PredicateFilter[2]"``), ``index`` the machine-facing one.
    """

    __slots__ = ("index", "name", "label", "transformer")

    def __init__(self, index: int, transformer: object) -> None:
        self.index = index
        self.name = type(transformer).__name__
        self.label = "{}[{}]".format(self.name, index)
        self.transformer = repr(transformer)

    def __repr__(self) -> str:
        return "StageIdentity({})".format(self.label)


def _classed(counts: List[int]) -> Dict[str, int]:
    """Kind-indexed counts summed per event class."""
    by_class = dict.fromkeys(EVENT_CLASSES, 0)
    for kind, n in enumerate(counts):
        by_class[KIND_CLASS[kind]] += n
    return by_class


def stage_identities(stages: Sequence) -> List[StageIdentity]:
    """One :class:`StageIdentity` per transformer, in pipeline order."""
    return [StageIdentity(i, t) for i, t in enumerate(stages)]


class StageMetrics:
    """Counters and the footprint timeline for one pipeline stage."""

    __slots__ = ("identity", "in_counts", "out_counts", "activations",
                 "activated_at", "freezes", "cells_reclaimed", "samples",
                 "peak_cells", "peak_regions", "recorder")

    def __init__(self, identity: StageIdentity,
                 recorder: "MetricsRecorder") -> None:
        self.identity = identity
        self.recorder = recorder
        #: Kind-indexed event counts crossing into / out of this stage.
        self.in_counts = [0] * _N_KINDS
        self.out_counts = [0] * _N_KINDS
        self.activations = 0
        #: Source-event sequence number at the dormant -> active flip.
        self.activated_at: Optional[int] = None
        self.freezes = 0
        self.cells_reclaimed = 0
        #: ``[source_seq, state_cells, live_regions]`` triples.
        self.samples: List[List[int]] = []
        self.peak_cells = 0
        self.peak_regions = 0

    # -- wrapper hooks (called from UpdateWrapper when obs is set) --------

    def on_activated(self) -> None:
        self.activations += 1
        if self.activated_at is None:
            self.activated_at = self.recorder.source_events

    def on_freeze(self, cells_reclaimed: int) -> None:
        self.freezes += 1
        self.cells_reclaimed += cells_reclaimed

    # -- sampling ---------------------------------------------------------

    def sample(self, seq: int, cells: int, regions: int) -> None:
        self.samples.append([seq, cells, regions])
        if cells > self.peak_cells:
            self.peak_cells = cells
        if regions > self.peak_regions:
            self.peak_regions = regions

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "index": self.identity.index,
            "label": self.identity.label,
            "events_in": _classed(self.in_counts),
            "events_out": _classed(self.out_counts),
            "activations": self.activations,
            "activated_at": self.activated_at,
            "freezes": self.freezes,
            "cells_reclaimed": self.cells_reclaimed,
            "peak_cells": self.peak_cells,
            "peak_regions": self.peak_regions,
            "samples": [list(s) for s in self.samples],
        }


class MetricsRecorder:
    """Collects per-stage metrics for one pipeline run.

    Args:
        sample_interval: source events between footprint samples.  Each
            sample walks every stage's retained state (the same walk
            ``Pipeline.state_cells`` does), so small intervals trade
            run time for timeline resolution.
        trace: also record update-provenance hops (see
            :mod:`repro.obs.trace`).
        flight: keep a bounded ring of recent source events for
            post-mortem bundles (see :mod:`repro.obs.flightrec`).
            ``True`` uses the default capacity; an int sets it.
    """

    def __init__(self, sample_interval: int = 256,
                 trace: bool = False,
                 flight=False) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1, got {}"
                             .format(sample_interval))
        self.sample_interval = sample_interval
        self.stages: List[StageMetrics] = []
        self.source_events = 0
        #: True when the pipeline is fed a shared prefix's routed output
        #: (:mod:`repro.compile.sharing`) instead of the source stream:
        #: ``source_events``, footprint sample positions and the flight
        #: ring then index that routed input, no update latency is
        #: recorded, and :func:`merge_metrics` takes the source count and
        #: the flight summary from the pipelines fed the source.
        self.routed = False
        self.sink_counts = [0] * _N_KINDS
        #: Latency histograms :meth:`observe_source` feeds.  Executors
        #: may add more (a multi-query executor keeps the tokenizer
        #: chunk histogram at its own level, so shared-tokenizer
        #: latencies are counted once).
        self.histograms: Dict[str, LogHistogram] = {
            DRAIN_BATCH: LogHistogram(),
            UPDATE_LATENCY: LogHistogram(),
        }
        self._wrappers: Sequence = ()
        if trace:
            from .trace import TraceLog
            self.trace: Optional["TraceLog"] = TraceLog()
        else:
            self.trace = None
        if flight:
            from .flightrec import DEFAULT_CAPACITY, FlightRecorder
            capacity = (DEFAULT_CAPACITY if flight is True
                        else int(flight))
            self.flight: Optional["FlightRecorder"] = \
                FlightRecorder(capacity)
        else:
            self.flight = None

    def attach(self, wrappers: Sequence, stages: Sequence) -> None:
        """Bind to a pipeline's wrappers (called by ``Pipeline``)."""
        identities = stage_identities(stages)
        self.stages = [StageMetrics(ident, self) for ident in identities]
        self._wrappers = tuple(wrappers)
        for wrapper, sm in zip(wrappers, self.stages):
            wrapper.obs = sm

    # -- interposition ----------------------------------------------------

    def interpose(self, tables: Sequence[list],
                  sink: Callable) -> Tuple[List[list], Callable]:
        """Wrap the attached stages' handler tables and the sink.

        Returns kind-indexed shim tables (and a sink shim) the event
        loop calls in place of the real ones: each counts the event in,
        calls the real handler — looked up in the real table *at call
        time*, so the in-place dormant -> active flip is seen — and
        counts what came out.  With tracing on, the update-start kinds
        get a second shim recording the provenance hops.
        """
        trace = self.trace

        def stage(idx: int, table: list) -> list:
            sm = self.stages[idx]
            in_counts, out_counts = sm.in_counts, sm.out_counts

            def hop(ev):
                kind = ev.kind
                in_counts[kind] += 1
                out = table[kind](ev)
                for o in out:
                    out_counts[o.kind] += 1
                return out

            if trace is None:
                return [hop] * _N_KINDS

            def traced_hop(ev):
                sub, kind = ev.sub, ev.kind
                trace.record(sub, kind, idx, "enter")
                out = hop(ev)
                for o in out:
                    if o.kind in _UPDATE_START_KINDS and o.sub != sub:
                        trace.record(sub, kind, idx, "translate",
                                     to_region=o.sub)
                return out

            return [traced_hop if kind in _UPDATE_START_KINDS else hop
                    for kind in range(_N_KINDS)]

        sink_counts = self.sink_counts

        def counted_sink(ev):
            kind = ev.kind
            sink_counts[kind] += 1
            if trace is not None and kind in _UPDATE_START_KINDS:
                trace.record(ev.sub, kind, -1, "emit")
            sink(ev)

        return ([stage(idx, table) for idx, table in enumerate(tables)],
                counted_sink)

    def observe_source(self, events: Iterable) -> Iterator:
        """Yield a source batch's events, observing between them.

        Runs *inside* the event loop's ``for`` statement: everything
        before a ``yield`` happens before the event enters stage 0,
        everything after it once that event's depth-first cascade has
        drained.  ``on_end`` flushes do not come through here, which
        keeps observation counts deterministic — the sharded
        differential holds merged counts equal to single-process.
        """
        flight = self.flight
        update_latency = self.histograms[UPDATE_LATENCY]
        # A routed update start is not a source update: its drain is
        # only this pipeline's share of the update's latency.
        timed_kinds = frozenset() if self.routed else _UPDATE_START_KINDS
        t_batch = _perf_ns()
        for e in events:
            if flight is not None:
                flight.note(e)
            if self.count_source():
                self.sample_now()
            if e.kind in timed_kinds:
                # End-to-end update latency: by the time the loop comes
                # back for the next source event, every display delta
                # of this update start has landed.
                t_update = _perf_ns()
                yield e
                update_latency.record(_perf_ns() - t_update)
            else:
                yield e
        self.histograms[DRAIN_BATCH].record(_perf_ns() - t_batch)

    # -- sampling ---------------------------------------------------------

    def sample_now(self) -> None:
        """Take one footprint sample of every attached stage."""
        seq = self.source_events
        for wrapper, sm in zip(self._wrappers, self.stages):
            cells, regions, _ = wrapper.account()
            sm.sample(seq, cells, regions)

    def count_source(self, n: int = 1) -> bool:
        """Advance the source-event counter; True when a sample is due."""
        before = self.source_events
        self.source_events = before + n
        return (before // self.sample_interval
                != self.source_events // self.sample_interval)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "sample_interval": self.sample_interval,
            "source_events": self.source_events,
            "sink_events": _classed(self.sink_counts),
            "stages": [sm.to_dict() for sm in self.stages],
            "peak_cells_total": sum(sm.peak_cells for sm in self.stages),
            "cells_reclaimed_total": sum(sm.cells_reclaimed
                                         for sm in self.stages),
            "freezes_total": sum(sm.freezes for sm in self.stages),
            "activations_total": sum(sm.activations
                                     for sm in self.stages),
            "histograms": {name: h.to_dict()
                           for name, h in self.histograms.items()},
        }
        if self.routed:
            out["routed"] = True
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        if self.flight is not None:
            out["flight"] = self.flight.to_dict()
        return out


def _sum_classed(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    return {k: a.get(k, 0) + b.get(k, 0) for k in EVENT_CLASSES}


def merge_metrics(dicts: Sequence[dict]) -> dict:
    """Combine recorder dicts from independent pipelines into totals.

    Used by the sharded executor to reassemble per-worker metrics: the
    merged counters equal what a single process running every pipeline
    would report.  Stage lists are concatenated (stages of different
    pipelines are distinct); classed event counts and reclaim counters
    add; ``peak_cells_total`` adds (each pipeline's stages hold their
    peaks concurrently).  Source-event counts take the maximum, because
    every pipeline fed the source saw the same shared input stream, and
    the flight summary covers those pipelines' rings.  A ``routed``
    dict — a shared prefix's member, fed the prefix's output — adds its
    stages, counters and histograms but neither of those: its group's
    prefix counts the source for it.
    """
    merged = {
        "sample_interval": None,
        "source_events": 0,
        "sink_events": dict.fromkeys(EVENT_CLASSES, 0),
        "stages": [],
        "peak_cells_total": 0,
        "cells_reclaimed_total": 0,
        "freezes_total": 0,
        "activations_total": 0,
        "pipelines": 0,
    }
    histogram_maps: List[Dict[str, dict]] = []
    flights: List[dict] = []
    traces: List[dict] = []
    for d in dicts:
        if d is None:
            continue
        # A worker may ship an already-merged dict; honour its count.
        merged["pipelines"] += d.get("pipelines", 1)
        if merged["sample_interval"] is None:
            merged["sample_interval"] = d.get("sample_interval")
        routed = d.get("routed", False)
        if not routed:
            merged["source_events"] = max(merged["source_events"],
                                          d.get("source_events", 0))
        merged["sink_events"] = _sum_classed(merged["sink_events"],
                                             d.get("sink_events", {}))
        merged["stages"].extend(d.get("stages", ()))
        for key in ("peak_cells_total", "cells_reclaimed_total",
                    "freezes_total", "activations_total"):
            merged[key] += d.get(key, 0)
        if d.get("histograms"):
            histogram_maps.append(d["histograms"])
        if d.get("flight") and not routed:
            flights.append(d["flight"])
        if d.get("trace"):
            traces.append(d["trace"])
    if histogram_maps:
        # Bucket-by-bucket: the merged state equals one histogram fed
        # every observation, so sharded totals are exact.
        from .histogram import merge_histogram_dicts
        merged["histograms"] = merge_histogram_dicts(histogram_maps)
    if flights:
        from .flightrec import merge_flight_dicts
        merged["flight"] = merge_flight_dicts(flights)
    if traces:
        from .trace import merge_trace_dicts
        merged["trace"] = merge_trace_dicts(traces)
    return merged
