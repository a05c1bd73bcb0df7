"""Standard-format exports: Chrome trace-event JSON and OpenMetrics.

PR 4's telemetry stays useful only if it leaves the process in formats
other tools read.  This module renders the two recorder products:

* :func:`trace_to_chrome` — a :class:`~repro.obs.trace.TraceLog` dict
  (or a :func:`~repro.obs.trace.merge_trace_dicts` result) as Chrome
  trace-event / Perfetto JSON: one track (thread) per pipeline stage,
  update-provenance hops as complete events, translations as flow
  arrows between tracks, and region lineage as async spans — load the
  file in ``chrome://tracing`` or https://ui.perfetto.dev.
* :func:`metrics_to_openmetrics` — a
  :class:`~repro.obs.recorder.MetricsRecorder` dict (merged or not) in
  OpenMetrics / Prometheus text exposition format, histograms included
  (cumulative ``le`` buckets on the log2 edges).

The paired validators (:func:`validate_chrome_trace`,
:func:`parse_openmetrics`) are what the obs-smoke CI job and the tests
run against the rendered artifacts, so "externally valid" is checked
by the same code that defines it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from .histogram import bucket_upper

#: Thread id layout inside each pipeline's (pid) track group: the sink
#: renders as thread 1, stage ``i`` as thread ``i + 2``.
_SINK_TID = 1


def _tid(stage: int) -> int:
    return _SINK_TID if stage < 0 else stage + 2


def _hop_name(hop: dict) -> str:
    name = "{} {}".format(hop.get("action", "hop"),
                          hop.get("kind", "?"))
    to_region = hop.get("to_region")
    if to_region is not None:
        return "{} r{}->r{}".format(name, hop.get("region"), to_region)
    return "{} r{}".format(name, hop.get("region"))


def trace_to_chrome(trace: dict,
                    stage_labels: Optional[Dict[int, str]] = None
                    ) -> dict:
    """Render a trace dict as a Chrome trace-event JSON object.

    Accepts both a single :meth:`TraceLog.to_dict` and a merged
    :func:`merge_trace_dicts` result; in the merged form each source
    log becomes its own process (``pid``), so shard-worker pipelines
    sit side by side with per-stage tracks inside each.

    Timestamps: hop ``t_ns`` values divided to microseconds (the trace
    format's unit).  Raw single-log dicts carry monotonic stamps — fine
    within one log; merged dicts are already rebased.
    """
    events: List[dict] = []
    hops = trace.get("hops", ())
    pids = set()
    tids = {}           # (pid, tid) -> label
    for hop in hops:
        pid = hop.get("log", 0)
        stage = hop.get("stage", 0)
        pids.add(pid)
        tid = _tid(stage)
        if (pid, tid) not in tids:
            if stage < 0:
                label = "sink"
            elif stage_labels and stage in stage_labels:
                label = stage_labels[stage]
            else:
                label = "stage {}".format(stage)
            tids[(pid, tid)] = label
    for pid in sorted(pids):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0,
                       "args": {"name": "pipeline {}".format(pid)}})
    for (pid, tid), label in sorted(tids.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": label}})

    # One complete event per hop; region spans and flow arrows ride on
    # the same timestamps.
    region_first: Dict[tuple, dict] = {}
    region_last: Dict[tuple, dict] = {}
    flow_id = 0
    pending_flows: Dict[tuple, List[int]] = {}
    for hop in hops:
        pid = hop.get("log", 0)
        stage = hop.get("stage", 0)
        ts = hop.get("t_ns", 0) / 1000.0
        tid = _tid(stage)
        args = {"region": hop.get("region"),
                "kind": hop.get("kind"),
                "seq": hop.get("seq")}
        if hop.get("to_region") is not None:
            args["to_region"] = hop["to_region"]
        events.append({"name": _hop_name(hop), "ph": "X", "cat": "hop",
                       "ts": ts, "dur": 1, "pid": pid, "tid": tid,
                       "args": args})
        rkey = (pid, hop.get("region"))
        region_first.setdefault(rkey, hop)
        region_last[rkey] = hop
        # A pending flow arrow lands on the target region's next hop.
        for fid in pending_flows.pop(rkey, ()):
            events.append({"name": "translate", "ph": "f", "bp": "e",
                           "cat": "flow", "id": fid, "ts": ts,
                           "pid": pid, "tid": tid})
        if hop.get("action") == "translate" \
                and hop.get("to_region") is not None:
            flow_id += 1
            events.append({"name": "translate", "ph": "s",
                           "cat": "flow", "id": flow_id, "ts": ts,
                           "pid": pid, "tid": tid})
            pending_flows.setdefault(
                (pid, hop["to_region"]), []).append(flow_id)
    # Region lineage as async spans: b at first sighting, e at last.
    for rkey, first in region_first.items():
        pid, region = rkey
        last = region_last[rkey]
        span_id = "r{}.{}".format(pid, region)
        base = {"name": "region {}".format(region), "cat": "region",
                "id": span_id, "pid": pid}
        events.append(dict(base, ph="b",
                           ts=first.get("t_ns", 0) / 1000.0,
                           tid=_tid(first.get("stage", 0))))
        events.append(dict(base, ph="e",
                           ts=last.get("t_ns", 0) / 1000.0,
                           tid=_tid(last.get("stage", 0))))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.export",
            "regions": trace.get("regions"),
            "logs": trace.get("logs", 1),
        },
    }


def validate_chrome_trace(obj: dict) -> int:
    """Check the trace-event required keys; return the event count.

    Every event needs ``name``/``ph``/``pid``/``tid``; every
    non-metadata event needs a numeric ``ts``; complete events need a
    ``dur``; flow and async events need an ``id``.  Raises
    ``ValueError`` on the first violation.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("not a chrome trace: missing traceEvents")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                raise ValueError(
                    "event {} missing {!r}: {!r}".format(i, key, e))
        ph = e["ph"]
        if ph != "M":
            if not isinstance(e.get("ts"), (int, float)):
                raise ValueError(
                    "event {} has no numeric ts: {!r}".format(i, e))
        if ph == "X" and not isinstance(e.get("dur"), (int, float)):
            raise ValueError("complete event {} has no dur".format(i))
        if ph in ("s", "t", "f", "b", "n", "e") and "id" not in e:
            raise ValueError(
                "flow/async event {} has no id".format(i))
    return len(events)


# -- OpenMetrics ----------------------------------------------------------

def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels(**kv) -> str:
    inner = ",".join('{}="{}"'.format(k, _escape_label(v))
                     for k, v in kv.items() if v is not None)
    return "{" + inner + "}" if inner else ""


def _histogram_lines(name: str, hist: dict, out: List[str]) -> None:
    out.append("# TYPE {} histogram".format(name))
    buckets = {int(k): v for k, v in hist.get("buckets", {}).items()}
    cumulative = 0
    for idx in sorted(buckets):
        cumulative += buckets[idx]
        le = bucket_upper(idx) / 1e9
        out.append('{}_bucket{{le="{:.10g}"}} {}'.format(
            name, le, cumulative))
    out.append('{}_bucket{{le="+Inf"}} {}'.format(
        name, hist.get("count", 0)))
    out.append("{}_sum {:.10g}".format(name, hist.get("sum", 0) / 1e9))
    out.append("{}_count {}".format(name, hist.get("count", 0)))


def metrics_to_openmetrics(metrics: dict, prefix: str = "repro") -> str:
    """Render a recorder dict in OpenMetrics text exposition format.

    Counters get the mandated ``_total`` suffix; latency histograms are
    exposed in seconds on the exact log2 bucket edges, so scraped
    distributions merge the same way the in-process ones do.
    """
    out: List[str] = []

    def counter(name: str, value, **labels) -> None:
        out.append("{}_{}_total{} {}".format(
            prefix, name, _labels(**labels), value))

    def gauge(name: str, value, **labels) -> None:
        out.append("{}_{}{} {}".format(
            prefix, name, _labels(**labels), value))

    out.append("# TYPE {}_source_events counter".format(prefix))
    counter("source_events", metrics.get("source_events", 0))
    out.append("# TYPE {}_sink_events counter".format(prefix))
    for cls, n in sorted(metrics.get("sink_events", {}).items()):
        counter("sink_events", n, **{"class": cls})
    for total in ("activations", "freezes", "cells_reclaimed"):
        key = "{}_total".format(total)
        out.append("# TYPE {}_{} counter".format(prefix, total))
        counter(total, metrics.get(key, 0))
    out.append("# TYPE {}_peak_cells gauge".format(prefix))
    gauge("peak_cells", metrics.get("peak_cells_total", 0))
    out.append("# TYPE {}_pipelines gauge".format(prefix))
    gauge("pipelines", metrics.get("pipelines", 1))

    stages = metrics.get("stages", ())
    if stages:
        out.append("# TYPE {}_stage_events_in counter".format(prefix))
        for s in stages:
            for cls, n in sorted(s.get("events_in", {}).items()):
                counter("stage_events_in", n, stage=s.get("index"),
                        label=s.get("label"), **{"class": cls})
        out.append("# TYPE {}_stage_events_out counter".format(prefix))
        for s in stages:
            for cls, n in sorted(s.get("events_out", {}).items()):
                counter("stage_events_out", n, stage=s.get("index"),
                        label=s.get("label"), **{"class": cls})
        out.append("# TYPE {}_stage_peak_cells gauge".format(prefix))
        for s in stages:
            gauge("stage_peak_cells", s.get("peak_cells", 0),
                  stage=s.get("index"), label=s.get("label"))

    for name, hist in sorted(metrics.get("histograms", {}).items()):
        _histogram_lines(
            "{}_{}_latency_seconds".format(prefix, name), hist, out)

    flight = metrics.get("flight")
    if flight:
        out.append("# TYPE {}_flight_events_seen counter".format(prefix))
        counter("flight_events_seen", flight.get("events_seen", 0))

    out.append("# EOF")
    return "\n".join(out) + "\n"


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^{}]*\})?'
    r'\s+(?P<value>[^\s]+)\s*$')
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str) -> Dict[str, List[dict]]:
    """Strict-enough OpenMetrics parser for validation.

    Checks: every sample line parses as ``name{labels} value`` with a
    float value, every sample's family has a preceding ``# TYPE``
    declaration, histogram ``le`` buckets are cumulative
    (non-decreasing, ``+Inf`` equal to ``_count``), and the exposition
    ends with ``# EOF``.  Returns family name -> list of samples
    (each ``{"name", "labels", "value"}``).  Raises ``ValueError``.
    """
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("exposition does not end with # EOF")
    families: Dict[str, str] = {}
    samples: Dict[str, List[dict]] = {}
    for lineno, line in enumerate(lines[:-1], 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                families[parts[2]] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(
                "line {}: unparseable sample {!r}".format(lineno, line))
        name = m.group("name")
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ValueError("line {}: non-float value {!r}".format(
                lineno, m.group("value")))
        labels = dict(_LABEL_RE.findall(m.group("labels") or ""))
        family = name
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(
                "line {}: sample {!r} has no # TYPE declaration"
                .format(lineno, name))
        samples.setdefault(family, []).append(
            {"name": name, "labels": labels, "value": value})
    for family, kind in families.items():
        if kind != "histogram":
            continue
        rows = samples.get(family, [])
        buckets = [r for r in rows if r["name"].endswith("_bucket")]
        counts = [r for r in rows if r["name"].endswith("_count")]
        last = -1.0
        inf_count = None
        for r in buckets:
            if r["value"] < last:
                raise ValueError(
                    "histogram {} buckets not cumulative".format(family))
            last = r["value"]
            if r["labels"].get("le") == "+Inf":
                inf_count = r["value"]
        if buckets and inf_count is None:
            raise ValueError(
                "histogram {} has no +Inf bucket".format(family))
        if counts and inf_count is not None \
                and counts[0]["value"] != inf_count:
            raise ValueError(
                "histogram {}: +Inf bucket != _count".format(family))
    return samples


def stage_labels_from_metrics(metrics: Optional[dict]
                              ) -> Dict[int, str]:
    """Stage index -> label map for :func:`trace_to_chrome` tracks."""
    labels: Dict[int, str] = {}
    for s in (metrics or {}).get("stages", ()):
        idx = s.get("index")
        if idx is not None and idx not in labels:
            labels[idx] = s.get("label", "stage {}".format(idx))
    return labels
