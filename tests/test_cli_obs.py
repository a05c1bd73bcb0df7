"""Observability CLI tests: stats/trace/export under the flag matrix.

The telemetry subcommands attach a recorder of their own.  These tests
pin that the CLI keeps working — same result, same payload shape — with
``REPRO_METRICS`` forced on as well, that a misspelt switch is refused, and that the export paths emit artifacts
the strict validators accept.
"""

import io
import json

import pytest

from repro.cli import main
from repro.obs.export import parse_openmetrics, validate_chrome_trace

SCALE = "0.02"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def _stats(name, *extra):
    rc, out, err = _run(["stats", name, "--scale", SCALE, *extra])
    assert rc == 0, err
    return json.loads(out)


def _trace(name, *extra):
    rc, out, err = _run(["trace", name, "--scale", SCALE, *extra])
    assert rc == 0, err
    return json.loads(out)


STATS_KEYS = {"query", "query_text", "result", "metrics", "per_stage"}
TRACE_KEYS = {"query", "query_text", "result", "trace", "metrics"}


class TestStatsShape:
    def test_stats_block_shape(self):
        payload = _stats("Q1")
        assert set(payload) == STATS_KEYS
        m = payload["metrics"]
        assert m["source_events"] > 0
        assert {"drain_batch", "update_latency", "tokenizer_chunk"} \
            <= set(m["histograms"])
        assert all(h["count"] >= 0 for h in m["histograms"].values())

    def test_stats_with_share_forced_on(self, monkeypatch):
        # Sharing is a multi-query concern and on by default; the
        # recording switch forced on by environment must be inert here.
        monkeypatch.setenv("REPRO_METRICS", "1")
        payload = _stats("Q1")
        assert set(payload) == STATS_KEYS

    @pytest.mark.parametrize("argv", [["stats", "Q1", "--scale", SCALE],
                                      ["analyze", "Q1"], ["X//a"]])
    def test_misspelt_switch_is_refused_by_every_command(self, monkeypatch,
                                                         argv):
        monkeypatch.setenv("REPRO_METRICS", "false")
        rc, out, err = _run(argv)
        assert rc == 2 and out == ""
        assert err == "error: REPRO_METRICS must be 0 or 1, got 'false'\n"


class TestTraceShape:
    def test_trace_payload_shape(self):
        payload = _trace("Q3")
        assert set(payload) == TRACE_KEYS
        assert payload["trace"]["hops"]
        assert "epoch_wall_ns" in payload["trace"]

    def test_trace_with_share_forced_on(self, monkeypatch):
        baseline = _trace("Q3")
        monkeypatch.setenv("REPRO_METRICS", "1")
        flagged = _trace("Q3")
        assert set(flagged) == TRACE_KEYS
        assert flagged["result"] == baseline["result"]
        assert (len(flagged["trace"]["hops"])
                == len(baseline["trace"]["hops"]))

    def test_trace_chrome_format(self):
        rc, out, err = _run(["trace", "Q3", "--scale", SCALE,
                             "--format", "chrome"])
        assert rc == 0, err
        chrome = json.loads(out)
        assert validate_chrome_trace(chrome) > 0


class TestExportCommand:
    def test_export_trace_validates(self):
        rc, out, err = _run(["export", "trace", "Q5",
                             "--scale", SCALE])
        assert rc == 0, err
        assert validate_chrome_trace(json.loads(out)) > 0

    def test_export_metrics_validates(self):
        rc, out, err = _run(["export", "metrics", "Q5",
                             "--scale", SCALE])
        assert rc == 0, err
        families = parse_openmetrics(out)
        assert any("drain_batch" in f for f in families)

    def test_export_out_file(self, tmp_path):
        path = str(tmp_path / "q1.prom")
        rc, out, err = _run(["export", "metrics", "Q1",
                             "--scale", SCALE, "--out", path])
        assert rc == 0, err
        assert out.strip() == path
        with open(path) as fh:
            parse_openmetrics(fh.read())

    def test_export_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            _run(["export", "nonsense", "Q1"])

    def test_export_rejects_unknown_query(self):
        rc, out, err = _run(["export", "metrics", "Q99"])
        assert rc == 2
        assert "unknown paper query" in err


class TestMainFlightFlag:
    def test_flight_flag_runs_clean(self, tmp_path):
        doc = tmp_path / "d.xml"
        doc.write_text("<a><b>x</b><b>y</b></a>")
        rc, out, err = _run(["X//b", str(doc), "--flight"])
        assert rc == 0, err
        assert "<b>" in out
