"""Telemetry-layer tests: the zero-overhead and never-changes contracts.

The observability subsystem (:mod:`repro.obs`) promises:

* **differential identity** — running any query with metrics (and
  tracing) enabled yields a byte-identical output stream and identical
  per-stage transformer-call counts to the plain run, across every
  paper query and the update-bearing ticker stream;
* **unified accounting** — ``Pipeline.state_cells`` / ``live_regions``
  are exact sums over ``Pipeline.stage_accounts()``, and the telemetry
  footprint samples use the same walk;
* **meaningful counters** — activations fire on the dormant -> active
  flip, freezes and reclaimed cells are counted where Section V prunes,
  sink counts partition the output stream by event class;
* **mergeability** — shard workers ship recorder dicts and the merged
  totals equal the single-process run's.  A worker groups shared
  prefixes among its own queries only, so that equality is pinned on
  the unshared executor (``share_prefixes=False``); the default one is
  held to the answers.
"""

import os

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.data.stock import StockTicker
from repro.obs import (EVENT_CLASSES, KIND_CLASS, MetricsRecorder,
                       merge_metrics, stage_identities)
from repro.parallel import ShardedMultiQueryRun
from repro.xmlio.tokenizer import tokenize
from repro.xquery.engine import MultiQueryRun, QueryRun, XFlux

SCALE = 0.02
STOCK_QUERY = 'stream()//quote[name="IBM"]/price'

# Under an ambient sanitizer prefix sharing disengages by design.
SANITIZED = os.environ.get("REPRO_SANITIZE") == "1"


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


def _event_keys(run):
    return [(int(e.kind), e.id, e.sub, e.tag, e.text, e.oid)
            for e in run.display.events()]


def _stage_calls(run):
    return [w.calls for w in run.pipeline.wrappers]


def _run_paper_query(workloads, name, **kwargs):
    query = PAPER_QUERIES[name]
    text = workloads.text(QUERY_DATASET[name])
    return XFlux(query).run_xml(text, **kwargs)


class TestDifferentialIdentity:
    """Metrics on vs off: same bytes out, same work done."""

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_output_and_calls_identical(self, workloads,
                                                      name):
        plain = _run_paper_query(workloads, name)
        observed = _run_paper_query(workloads, name, metrics=True,
                                    sample_interval=128)
        assert observed.text() == plain.text()
        assert _event_keys(observed) == _event_keys(plain)
        assert _stage_calls(observed) == _stage_calls(plain)

    def test_tracing_changes_nothing_either(self, workloads):
        plain = _run_paper_query(workloads, "Q3")
        traced = _run_paper_query(workloads, "Q3", metrics=True,
                                  trace=True, sample_interval=64)
        assert _event_keys(traced) == _event_keys(plain)
        assert _stage_calls(traced) == _stage_calls(plain)
        assert traced.metrics()["trace"]["hops"]

    def test_update_stream_identical(self):
        events = StockTicker(n_updates=60, seed=5).events()
        plain = XFlux(STOCK_QUERY, mutable_source=True).run(events)
        observed = XFlux(STOCK_QUERY, mutable_source=True).run(
            events, metrics=True, sample_interval=32)
        assert observed.text() == plain.text()
        assert _event_keys(observed) == _event_keys(plain)
        assert _stage_calls(observed) == _stage_calls(plain)

    def test_recorder_off_by_default(self, workloads, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        run = _run_paper_query(workloads, "Q1")
        assert run.recorder is None
        assert run.metrics() is None
        assert "metrics" not in run.stats()


class TestUnifiedAccounting:
    """One accounting walk, every observer agrees."""

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_aggregates_are_sums_of_per_stage(self, workloads, name):
        run = _run_paper_query(workloads, name)
        stats = run.stats()
        per_stage = stats["per_stage"]
        assert stats["state_cells"] == sum(a["state_cells"]
                                           for a in per_stage)
        assert stats["live_regions"] == sum(a["live_regions"]
                                            for a in per_stage)
        assert stats["transformer_calls"] == sum(a["calls"]
                                                 for a in per_stage)

    def test_stage_accounts_labels_match_identities(self, workloads):
        run = _run_paper_query(workloads, "Q2")
        idents = stage_identities(run.plan.stages)
        accounts = run.pipeline.stage_accounts()
        assert [a["label"] for a in accounts] == [i.label
                                                 for i in idents]
        assert [a["index"] for a in accounts] == list(
            range(len(idents)))

    def test_final_sample_matches_final_accounting(self, workloads):
        run = _run_paper_query(workloads, "Q4", metrics=True,
                               sample_interval=128)
        accounts = run.pipeline.stage_accounts()
        for sm, account in zip(run.metrics()["stages"], accounts):
            last = sm["samples"][-1]
            assert last[1] == account["state_cells"]
            assert last[2] == account["live_regions"]


class TestCounters:
    def test_sink_counts_partition_output(self, workloads):
        run = _run_paper_query(workloads, "Q3", metrics=True)
        sink = run.metrics()["sink_events"]
        assert set(sink) == set(EVENT_CLASSES)
        assert sum(sink.values()) == run.display.events_seen

    def test_kind_class_covers_all_kinds(self):
        from repro.events.model import Kind
        assert len(KIND_CLASS) == len(Kind)
        assert set(KIND_CLASS) == set(EVENT_CLASSES)

    def test_activation_on_first_update(self):
        events = StockTicker(n_updates=10, seed=2).events()
        run = XFlux(STOCK_QUERY, mutable_source=True).run(
            events, metrics=True)
        m = run.metrics()
        assert m["activations_total"] >= 1
        activated = [s for s in m["stages"] if s["activations"]]
        assert all(s["activated_at"] is not None for s in activated)

    def test_freeze_counters_on_ticker(self):
        events = StockTicker(n_updates=40, seed=3,
                             freeze_superseded=True).events()
        run = XFlux(STOCK_QUERY, mutable_source=True).run(
            events, metrics=True)
        m = run.metrics()
        assert m["freezes_total"] > 0
        assert m["cells_reclaimed_total"] > 0

    def test_source_freezes_add_to_internal_ones(self):
        # Internal stages freeze their own regions as decisions become
        # final, so the count never reaches zero; source freezes must
        # strictly add on top.
        def freezes(superseded):
            events = StockTicker(n_updates=10, seed=4,
                                 freeze_superseded=superseded).events()
            run = XFlux(STOCK_QUERY, mutable_source=True).run(
                events, metrics=True)
            return run.metrics()["freezes_total"]

        assert freezes(True) > freezes(False)

    def test_sample_interval_validation(self):
        with pytest.raises(ValueError):
            MetricsRecorder(sample_interval=0)

    def test_sampling_respects_interval(self, workloads):
        run = _run_paper_query(workloads, "Q1", metrics=True,
                               sample_interval=100)
        m = run.metrics()
        # One sample per crossed interval boundary + the final one.
        expected = m["source_events"] // 100 + 1
        assert len(m["stages"][0]["samples"]) == expected


class TestFreezeAblation:
    """``reclaim_on_freeze=False``: same output, bigger footprint."""

    def test_output_identical_state_retained(self):
        events = StockTicker(n_updates=50, seed=7).events()
        normal = XFlux(STOCK_QUERY, mutable_source=True).run(
            events, metrics=True, sample_interval=16)
        kept = XFlux(STOCK_QUERY, mutable_source=True).run(
            events, metrics=True, sample_interval=16,
            reclaim_on_freeze=False)
        assert _event_keys(kept) == _event_keys(normal)
        m_n, m_k = normal.metrics(), kept.metrics()
        assert m_k["freezes_total"] == m_n["freezes_total"]
        assert m_k["peak_cells_total"] > m_n["peak_cells_total"]
        assert (kept.stats()["state_cells"]
                > normal.stats()["state_cells"])

    @pytest.mark.parametrize("name", ["Q4", "Q7", "Q9"])
    def test_blocking_queries_reclaim(self, workloads, name):
        plain = _run_paper_query(workloads, name, metrics=True,
                                 sample_interval=256)
        kept = _run_paper_query(workloads, name, metrics=True,
                                sample_interval=256,
                                reclaim_on_freeze=False)
        assert kept.text() == plain.text()
        assert (kept.metrics()["peak_cells_total"]
                >= plain.metrics()["peak_cells_total"])


class TestMerge:
    def test_merge_counters_add(self):
        a = {"sample_interval": 8, "source_events": 10,
             "sink_events": {"data": 3, "bracket": 1, "control": 0},
             "stages": [{"label": "A[0]"}], "peak_cells_total": 5,
             "cells_reclaimed_total": 2, "freezes_total": 1,
             "activations_total": 1}
        b = {"sample_interval": 8, "source_events": 10,
             "sink_events": {"data": 1, "bracket": 0, "control": 2},
             "stages": [{"label": "B[0]"}, {"label": "B[1]"}],
             "peak_cells_total": 7, "cells_reclaimed_total": 0,
             "freezes_total": 0, "activations_total": 0}
        merged = merge_metrics([a, b, None])
        assert merged["pipelines"] == 2
        assert merged["source_events"] == 10
        assert merged["sink_events"] == {"data": 4, "bracket": 1,
                                         "control": 2}
        assert len(merged["stages"]) == 3
        assert merged["peak_cells_total"] == 12
        assert merged["freezes_total"] == 1

    def test_merge_idempotent_over_merged_dicts(self):
        a = {"pipelines": 3, "source_events": 4,
             "sink_events": {"data": 1, "bracket": 0, "control": 0},
             "stages": [], "peak_cells_total": 1,
             "cells_reclaimed_total": 0, "freezes_total": 0,
             "activations_total": 0, "sample_interval": 8}
        merged = merge_metrics([a, a])
        assert merged["pipelines"] == 6

    def test_multiquery_metrics_merged(self, workloads):
        names = ["Q1", "Q2", "Q3"]
        mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                           metrics=True)
        mq.run_xml(workloads.text("X"))
        m = mq.metrics()
        assert m["pipelines"] == 3
        singles = [
            _run_paper_query(workloads, n, metrics=True).metrics()
            for n in names]
        assert m["peak_cells_total"] == sum(s["peak_cells_total"]
                                            for s in singles)
        assert "metrics" in mq.stats()

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_shard_merge_matches_single_process(self, workloads,
                                                workers):
        names = ["Q1", "Q2", "Q3", "Q7"]
        queries = [PAPER_QUERIES[n] for n in names]
        text = workloads.text("X")
        ref = MultiQueryRun(queries, metrics=True, share_prefixes=False)
        ref.run_xml(text)
        m_ref = ref.metrics()
        sharded = ShardedMultiQueryRun(queries, workers=workers,
                                       metrics=True, share_prefixes=False)
        sharded.run_xml(text)
        m = sharded.metrics()
        assert sharded.texts() == ref.texts()
        assert m["pipelines"] == m_ref["pipelines"]
        assert m["sink_events"] == m_ref["sink_events"]
        assert m["peak_cells_total"] == m_ref["peak_cells_total"]
        assert m["freezes_total"] == m_ref["freezes_total"]
        assert len(m["stages"]) == len(m_ref["stages"])
        assert "metrics" in sharded.stats()

    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_shard_histograms_and_flight_match_single_process(
            self, workloads, workers):
        """Sharded observability is exact where exactness is possible.

        Bucket *values* are wall-clock and nondeterministic, so the
        differential holds the deterministic parts equal: observation
        counts (one ``update_latency`` sample per update-start source
        event, one ``tokenizer_chunk`` sample per parent-side chunk)
        and the flight ring's ``events_seen``.  Bucket-exact merge
        arithmetic is proven separately in tests/test_histogram.py
        with synthetic values.
        """
        names = ["Q1", "Q2", "Q3", "Q7"]
        queries = [PAPER_QUERIES[n] for n in names]
        text = workloads.text("X")
        ref = MultiQueryRun(queries, metrics=True, flight=True,
                            share_prefixes=False)
        ref.run_xml(text)
        m_ref = ref.metrics()
        sharded = ShardedMultiQueryRun(queries, workers=workers,
                                       metrics=True, flight=True,
                                       share_prefixes=False)
        sharded.run_xml(text)
        m = sharded.metrics()
        assert sharded.texts() == ref.texts()
        assert set(m["histograms"]) == set(m_ref["histograms"]) \
            == {"drain_batch", "update_latency", "tokenizer_chunk"}
        for hname in ("update_latency", "tokenizer_chunk"):
            assert (m["histograms"][hname]["count"]
                    == m_ref["histograms"][hname]["count"]), hname
        assert m["histograms"]["drain_batch"]["count"] > 0
        assert (m["flight"]["events_seen"]
                == m_ref["flight"]["events_seen"])
        assert m["flight"]["pipelines"] == m_ref["flight"]["pipelines"]

    def test_shared_prefixes_recorded_answer_like_independent_runs(
            self, workloads):
        # Q2 and Q7 share X//item in one process, not on a shard of
        # their own; every executor still gives the independent answers.
        names = ["Q1", "Q2", "Q3", "Q7"]
        queries = [PAPER_QUERIES[n] for n in names]
        text = workloads.text("X")
        expected = [_run_paper_query(workloads, n).text() for n in names]
        mq = MultiQueryRun(queries, metrics=True, flight=True)
        mq.run_xml(text)
        sharded = ShardedMultiQueryRun(queries, workers=3, metrics=True,
                                       flight=True)
        sharded.run_xml(text)
        assert mq.texts() == sharded.texts() == expected
        assert mq.metrics()["pipelines"] == len(mq.runs) + len(mq.groups)

    def test_shared_prefixes_count_the_source_once(self, workloads):
        """A member reads its prefix's routed output, not the source:
        the merged source count, flight summary and projection
        counters come from the pipelines fed the source."""
        names = ["Q1", "Q2", "Q3", "Q7"]
        queries = [PAPER_QUERIES[n] for n in names]
        text = workloads.text("X")
        tokens = len(tokenize(text))
        for projection in (False, True):
            kw = {"projection": True, "schema": "xmark"} if projection \
                else {}
            mq = MultiQueryRun(queries, metrics=True, flight=True, **kw)
            m = mq.run_xml(text).metrics()
            assert mq.groups or SANITIZED
            members = [run for g in mq.groups for _, run in g.members]
            assert all(run.recorder.routed for run in members)
            assert all(run.recorder.to_dict()["routed"] for run in members)
            fed = len(mq.runs) - len(members) + len(mq.groups)
            assert m["source_events"] == tokens
            assert m["flight"]["pipelines"] == fed
            masks = list(mq._masks.values()) + [
                g.mask for g in mq.groups if g.mask is not None]
            if not projection:
                assert m["flight"]["events_seen"] == fed * tokens
                assert not masks and "projection" not in m
                continue
            # Every mask, the group's union mask included, counts what
            # it drops and passes of the whole stream once.
            assert masks
            dropped = m["projection"]["mask_events_dropped"]
            passed = m["projection"]["mask_events_passed"]
            assert dropped + passed == len(masks) * tokens
            assert m["flight"]["events_seen"] == \
                (fed - len(masks)) * tokens + passed

    def test_shared_prefixes_time_source_updates_only(self):
        """Update latency is timed per source update start, by each
        pipeline fed the source; routed members time none."""
        from repro.events.model import UPDATE_STARTS
        events = list(StockTicker(n_updates=60, seed=9).events())
        starts = sum(1 for e in events if e.kind in UPDATE_STARTS)
        queries = [STOCK_QUERY, 'stream()//quote[name="IBM"]/name']
        mq = MultiQueryRun(queries, mutable_source=True, metrics=True)
        mq.run(events)
        assert mq.groups or SANITIZED
        fed = len(mq.runs) - sum(len(g.members) for g in mq.groups) \
            + len(mq.groups)
        m = mq.metrics()
        assert m["source_events"] == len(events)
        assert m["histograms"]["update_latency"]["count"] == fed * starts
        for g in mq.groups:
            for _, run in g.members:
                assert run.recorder.histograms["update_latency"].count == 0

    def test_update_latency_counts_update_starts(self):
        """One latency observation per update-start source event."""
        from repro.events.model import Kind
        events = list(StockTicker(n_updates=60, seed=9).events())
        starts = sum(1 for e in events
                     if e.kind in (Kind.START_MUTABLE,
                                   Kind.START_REPLACE,
                                   Kind.START_INSERT_BEFORE,
                                   Kind.START_INSERT_AFTER))
        assert starts > 0
        run = QueryRun(XFlux(STOCK_QUERY).compile(), metrics=True)
        run.feed_all(events)
        run.finish()
        hist = run.recorder.histograms["update_latency"]
        assert hist.count == starts
        assert run.recorder.histograms["drain_batch"].count >= 1

    def test_shard_metrics_off_means_absent(self, workloads,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        sharded = ShardedMultiQueryRun([PAPER_QUERIES["Q1"]],
                                       workers=1, metrics=False)
        sharded.run_xml(workloads.text("X"))
        assert sharded.metrics() is None
        assert "metrics" not in sharded.stats()


class TestEnvOptIn:
    def test_repro_metrics_env(self, workloads, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        run = _run_paper_query(workloads, "Q1")
        assert run.recorder is not None
        assert run.metrics() is not None

    def test_env_zero_means_off(self, workloads, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        run = _run_paper_query(workloads, "Q1")
        assert run.recorder is None
