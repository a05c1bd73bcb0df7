"""Pipeline telemetry: per-stage metrics, footprint timelines, tracing.

Opt-in observability over the update-stream pipeline, interposed on
the one event loop rather than written into it, so a run without a
recorder pays nothing (see :mod:`repro.obs.recorder`).

* :class:`MetricsRecorder` — per-stage event-flow counters, wrapper
  life-cycle events, and memory-footprint time series;
* :class:`TraceLog` — update-provenance hops (enter/translate/emit);
* :class:`LogHistogram` — fixed-bucket log2 latency distributions
  (drain batches, update->display deltas, tokenizer chunks);
* :class:`FlightRecorder` — bounded ring of recent events, dumped as
  post-mortem bundles on quarantine / shard failure;
* :func:`stage_identities` — the shared stage naming the sanitizer and
  the static analyzer reuse;
* :func:`merge_metrics` — recombine shard-worker recorder dicts
  (counters add, histogram buckets add, traces rebase onto one clock);
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON and
  OpenMetrics renderers over the recorded state.
"""

from .export import (metrics_to_openmetrics, parse_openmetrics,
                     stage_labels_from_metrics, trace_to_chrome,
                     validate_chrome_trace)
from .flightrec import (DEFAULT_CAPACITY, FlightRecorder, build_bundle,
                        merge_flight_dicts, shard_bundle, write_bundle)
from .histogram import (DRAIN_BATCH, TOKENIZER_CHUNK, UPDATE_LATENCY,
                        LogHistogram, merge_histogram_dicts,
                        summarize_histogram_dict)
from .recorder import (EVENT_CLASSES, KIND_CLASS, MetricsRecorder,
                       StageIdentity, StageMetrics, merge_metrics,
                       stage_identities)
from .trace import SINK_STAGE, Hop, TraceLog, merge_trace_dicts

__all__ = [
    "EVENT_CLASSES",
    "KIND_CLASS",
    "MetricsRecorder",
    "StageIdentity",
    "StageMetrics",
    "merge_metrics",
    "stage_identities",
    "SINK_STAGE",
    "Hop",
    "TraceLog",
    "merge_trace_dicts",
    "DRAIN_BATCH",
    "TOKENIZER_CHUNK",
    "UPDATE_LATENCY",
    "LogHistogram",
    "merge_histogram_dicts",
    "summarize_histogram_dict",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "build_bundle",
    "merge_flight_dicts",
    "shard_bundle",
    "write_bundle",
    "metrics_to_openmetrics",
    "parse_openmetrics",
    "stage_labels_from_metrics",
    "trace_to_chrome",
    "validate_chrome_trace",
]
