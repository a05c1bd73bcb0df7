"""Interchange-export tests: Chrome trace-event JSON and OpenMetrics.

Both renderers are validated by the same strict checkers the obs-smoke
CI job runs (:func:`validate_chrome_trace`, :func:`parse_openmetrics`),
so a regression in either format fails here first.
"""

import json

import pytest

from repro.bench.harness import PAPER_QUERIES, Workloads
from repro.obs import merge_trace_dicts
from repro.obs.export import (metrics_to_openmetrics, parse_openmetrics,
                              stage_labels_from_metrics,
                              trace_to_chrome, validate_chrome_trace)
from repro.xquery.engine import XFlux

SCALE = 0.02


@pytest.fixture(scope="module")
def traced_run():
    text = Workloads(xmark_scale=SCALE, dblp_scale=SCALE).text("X")
    return XFlux(PAPER_QUERIES["Q3"]).run_xml(text, trace=True)


@pytest.fixture(scope="module")
def metrics(traced_run):
    return traced_run.metrics()


class TestChromeTrace:
    def test_round_trips_with_required_keys(self, metrics):
        chrome = trace_to_chrome(metrics["trace"],
                                 stage_labels_from_metrics(metrics))
        # The acceptance bar: json round-trip plus required keys.
        back = json.loads(json.dumps(chrome))
        n = validate_chrome_trace(back)
        assert n == len(chrome["traceEvents"]) > 0
        assert back["otherData"]["regions"] == metrics["trace"]["regions"]

    def test_one_track_per_stage_plus_sink(self, metrics):
        chrome = trace_to_chrome(metrics["trace"],
                                 stage_labels_from_metrics(metrics))
        names = {e["args"]["name"]: e["tid"]
                 for e in chrome["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "sink" in names
        stage_labels = set(names) - {"sink"}
        assert stage_labels == {s["label"] for s in metrics["stages"]
                                if any(h["stage"] == s["index"]
                                       for h in metrics["trace"]["hops"])}
        # Distinct threads per station.
        assert len(set(names.values())) == len(names)

    def test_hops_become_complete_events(self, metrics):
        chrome = trace_to_chrome(metrics["trace"])
        xs = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(metrics["trace"]["hops"])

    def test_translations_become_flow_pairs(self, metrics):
        chrome = trace_to_chrome(metrics["trace"])
        starts = [e for e in chrome["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in chrome["traceEvents"] if e["ph"] == "f"]
        n_links = len(metrics["trace"]["links"])
        assert len(starts) == n_links
        # Every flow arrow that lands, lands once, with a matching id.
        start_ids = {e["id"] for e in starts}
        assert all(e["id"] in start_ids for e in finishes)

    def test_regions_become_async_spans(self, metrics):
        chrome = trace_to_chrome(metrics["trace"])
        begins = {e["id"]: e["ts"] for e in chrome["traceEvents"]
                  if e["ph"] == "b"}
        ends = {e["id"]: e["ts"] for e in chrome["traceEvents"]
                if e["ph"] == "e"}
        assert set(begins) == set(ends)
        assert len(begins) == metrics["trace"]["regions"]
        assert all(ends[i] >= begins[i] for i in begins)

    def test_merged_trace_gets_one_process_per_log(self, metrics):
        merged = merge_trace_dicts([metrics["trace"],
                                    metrics["trace"]])
        chrome = trace_to_chrome(merged)
        pids = {e["pid"] for e in chrome["traceEvents"]}
        assert pids == {0, 1}
        validate_chrome_trace(chrome)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0,
                                  "tid": 1, "ts": "soon", "dur": 1}]})


class TestOpenMetrics:
    def test_parses_and_counts_match(self, metrics):
        text = metrics_to_openmetrics(metrics)
        families = parse_openmetrics(text)
        source = families["repro_source_events"][0]
        assert source["value"] == metrics["source_events"]
        sink = {s["labels"]["class"]: s["value"]
                for s in families["repro_sink_events"]}
        assert sink == {k: float(v) for k, v
                        in metrics["sink_events"].items()}

    def test_histograms_cumulative_with_inf(self, metrics):
        text = metrics_to_openmetrics(metrics)
        families = parse_openmetrics(text)
        fam = "repro_drain_batch_latency_seconds"
        rows = families[fam]
        buckets = [r for r in rows if r["name"].endswith("_bucket")]
        count = [r for r in rows if r["name"].endswith("_count")][0]
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == count["value"]
        values = [b["value"] for b in buckets]
        assert values == sorted(values)
        # Seconds, not nanoseconds: a drain batch takes < 1000 s.
        s = [r for r in rows if r["name"].endswith("_sum")][0]
        assert 0 < s["value"] < 1000

    def test_ends_with_eof(self, metrics):
        assert metrics_to_openmetrics(metrics).endswith("# EOF\n")

    def test_label_escaping(self):
        m = {"source_events": 1, "sink_events": {}, "stages": [
            {"index": 0, "label": 'evil"label\\with\nstuff',
             "events_in": {"data": 2}, "events_out": {},
             "peak_cells": 0}],
            "histograms": {}}
        text = metrics_to_openmetrics(m)
        families = parse_openmetrics(text)
        row = families["repro_stage_events_in"][0]
        assert row["value"] == 2

    def test_parser_rejections(self):
        with pytest.raises(ValueError):
            parse_openmetrics("repro_x_total 1\n")  # no # EOF
        with pytest.raises(ValueError):
            parse_openmetrics("repro_x_total 1\n# EOF")  # no # TYPE
        with pytest.raises(ValueError):
            parse_openmetrics("# TYPE repro_x counter\n"
                              "repro_x_total banana\n# EOF")
        bad_hist = ("# TYPE h histogram\n"
                    'h_bucket{le="1"} 5\n'
                    'h_bucket{le="+Inf"} 3\n'  # decreasing
                    "h_sum 1\nh_count 3\n# EOF")
        with pytest.raises(ValueError):
            parse_openmetrics(bad_hist)
