"""Differential tests for the shared-stream multi-query executor.

The contract under test: evaluating N queries through one
:class:`~repro.xquery.engine.MultiQueryRun` pass — or through
:class:`~repro.parallel.ShardedMultiQueryRun` worker processes — yields
per-query answers *byte-identical* to N independent ``run_xml`` calls.
With ``share_prefixes=False`` the transformer-call accounting is
identical too (the multiplexer shares tokenization and stripping, never
per-query work); by default the executor also evaluates shared leading
steps once, so those runs are held to the answers only.  Holds for
plain documents and for update-bearing streams.
"""

import os

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.data.stock import StockTicker
from repro.events.wellformed import WellFormednessError
from repro.parallel import ShardedMultiQueryRun, shard_queries
from repro.xquery.engine import MultiQueryRun, XFlux
from repro.xquery.parser import parse_cached

SCALE = 0.02

# Under an ambient sanitizer sharing disengages by design.
SANITIZED = os.environ.get("REPRO_SANITIZE") == "1"


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


@pytest.fixture(scope="module")
def independent(workloads):
    """Reference: each paper query through its own single-query run."""
    out = {}
    for name, query in PAPER_QUERIES.items():
        run = XFlux(query).run_xml(workloads.text(QUERY_DATASET[name]))
        out[name] = (run.text(), run.stats()["transformer_calls"])
    return out


def _by_dataset():
    groups = {}
    for name in PAPER_QUERIES:
        groups.setdefault(QUERY_DATASET[name], []).append(name)
    return sorted(groups.items())


class TestMultiplexDifferential:
    def test_single_pass_matches_independent_runs(self, workloads,
                                                  independent):
        for dataset, names in _by_dataset():
            mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                               share_prefixes=False)
            mq.run_xml(workloads.text(dataset))
            stats = mq.stats()
            for i, name in enumerate(names):
                text, calls = independent[name]
                assert mq.text(i) == text, name
                assert (stats["per_query"][i]["transformer_calls"]
                        == calls), name

    def test_shared_prefixes_match_independent_answers(self, workloads,
                                                       independent):
        for dataset, names in _by_dataset():
            mq = MultiQueryRun([PAPER_QUERIES[n] for n in names])
            mq.run_xml(workloads.text(dataset))
            assert SANITIZED or mq.groups, dataset
            assert mq.texts() == [independent[n][0] for n in names]

    def test_validate_mode_same_answers(self, workloads, independent):
        names = ["Q1", "Q2", "Q7"]
        mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                           validate=True)
        mq.run_xml(workloads.text("X"))
        assert mq.texts() == [independent[n][0] for n in names]
        assert mq.stats()["validated_events"] == mq.stats()["events_in"]

    def test_aggregate_stats_shape(self, workloads):
        mq = MultiQueryRun([PAPER_QUERIES["Q1"], PAPER_QUERIES["Q2"]])
        mq.run_xml(workloads.text("X"))
        stats = mq.stats()
        assert stats["queries"] == 2 and stats["pipelines"] == 2
        assert stats["transformer_calls"] == sum(
            s["transformer_calls"] for s in stats["per_pipeline"])
        assert len(stats["per_query"]) == 2


class TestShardedDifferential:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sharded_matches_independent_runs(self, workloads,
                                              independent, workers):
        for dataset, names in _by_dataset():
            smq = ShardedMultiQueryRun(
                [PAPER_QUERIES[n] for n in names], workers=workers,
                share_prefixes=False)
            smq.run_xml(workloads.text(dataset))
            stats = smq.stats()
            for i, name in enumerate(names):
                text, calls = independent[name]
                assert smq.texts()[i] == text, name
                assert (stats["per_query"][i]["transformer_calls"]
                        == calls), name
            assert stats["workers"] == min(workers, len(names))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_sharded_shared_prefixes_match_independent_answers(
            self, workloads, independent, workers):
        for dataset, names in _by_dataset():
            smq = ShardedMultiQueryRun(
                [PAPER_QUERIES[n] for n in names], workers=workers)
            smq.run_xml(workloads.text(dataset))
            assert smq.texts() == [independent[n][0] for n in names]

    def test_small_frames_same_answers(self, workloads, independent):
        # Force many codec frames; framing must not be observable.
        names = ["Q1", "Q2", "Q5"]
        smq = ShardedMultiQueryRun([PAPER_QUERIES[n] for n in names],
                                   workers=2, batch_events=64)
        smq.run_xml(workloads.text("X"))
        assert smq.stats()["frames"] >= 10
        assert smq.texts() == [independent[n][0] for n in names]

    def test_engines_rejected(self):
        with pytest.raises(TypeError):
            ShardedMultiQueryRun([XFlux("count(X//a)")])

    def test_bad_query_fails_fast_in_parent(self):
        with pytest.raises(Exception):
            ShardedMultiQueryRun(["X//item[", "count(X//a)"])


class TestUpdateStreams:
    QUERIES = ['stream()//quote[name="IBM"]/price',
               'count(stream()//quote[name="IBM"])',
               'stream()//quote/price']

    @pytest.fixture(scope="class")
    def events(self):
        return StockTicker(n_updates=40, mutable_names=True,
                           name_update_fraction=0.4, seed=7).events()

    @pytest.fixture(scope="class")
    def reference(self, events):
        out = []
        for q in self.QUERIES:
            run = XFlux(q, mutable_source=True).run(events)
            out.append((run.text(), run.stats()["transformer_calls"]))
        return out

    def test_multiplex_tracks_updates(self, events, reference):
        mq = MultiQueryRun(self.QUERIES, mutable_source=True,
                           share_prefixes=False)
        mq.run(events)
        stats = mq.stats()
        for i, (text, calls) in enumerate(reference):
            assert mq.text(i) == text
            assert stats["per_query"][i]["transformer_calls"] == calls

    def test_event_at_a_time_feed_reads_like_independent_runs(self,
                                                              events):
        # The standing-query shape: one event in, every display read.
        mq = MultiQueryRun(self.QUERIES, mutable_source=True)
        runs = [XFlux(q, mutable_source=True).start()
                for q in self.QUERIES]
        for event in events:
            mq.feed(event)
            for run in runs:
                run.feed(event)
            assert mq.texts() == [run.text() for run in runs]
        mq.finish()
        assert mq.texts() == [run.finish().text() for run in runs]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sharded_tracks_updates(self, events, reference, workers):
        smq = ShardedMultiQueryRun(self.QUERIES, workers=workers,
                                   mutable_source=True, batch_events=37,
                                   share_prefixes=False)
        smq.run(events)
        stats = smq.stats()
        for i, (text, calls) in enumerate(reference):
            assert smq.texts()[i] == text
            assert stats["per_query"][i]["transformer_calls"] == calls

    def test_shared_prefixes_track_updates(self, events, reference):
        answers = [text for text, _ in reference]
        mq = MultiQueryRun(self.QUERIES, mutable_source=True)
        assert SANITIZED or mq.groups     # the //quote chain is shared
        assert mq.run(events).texts() == answers
        smq = ShardedMultiQueryRun(self.QUERIES, workers=1,
                                   mutable_source=True, batch_events=37)
        assert smq.run(events).texts() == answers

    def test_shared_stripper_matches_private(self, events):
        q = self.QUERIES[0]
        solo = XFlux(q, mutable_source=True, ignore_updates=True)
        expected = solo.run(events).text()
        mq = MultiQueryRun([q, q[:-6] + "/name"], mutable_source=True,
                           ignore_updates=True)
        mq.run(events)
        assert mq.text(0) == expected
        assert mq.mux.stats()["shared_strip"]

    def test_mixed_consumers_one_pass(self, events):
        raw = XFlux(self.QUERIES[0], mutable_source=True)
        opted_out = XFlux(self.QUERIES[0], mutable_source=True,
                          ignore_updates=True)
        mq = MultiQueryRun([raw, opted_out])
        mq.run(events)
        assert mq.text(0) == XFlux(
            self.QUERIES[0], mutable_source=True).run(events).text()
        assert mq.text(1) == XFlux(
            self.QUERIES[0], mutable_source=True,
            ignore_updates=True).run(events).text()


class TestDedup:
    def test_identical_queries_share_a_pipeline(self, workloads,
                                                independent):
        q = PAPER_QUERIES["Q1"]
        mq = MultiQueryRun([q, q, PAPER_QUERIES["Q2"]])
        assert len(mq.runs) == 2 and len(mq) == 3
        mq.run_xml(workloads.text("X"))
        stats = mq.stats()
        assert stats["deduped"] == 1
        assert mq.texts()[0] == mq.texts()[1] == independent["Q1"][0]
        assert (stats["per_query"][0] is stats["per_query"][1])

    def test_dedup_off(self):
        q = PAPER_QUERIES["Q1"]
        mq = MultiQueryRun([q, q], dedup=False)
        assert len(mq.runs) == 2

    def test_different_flags_not_deduped(self):
        q = 'stream()//quote/price'
        mq = MultiQueryRun([XFlux(q, mutable_source=True),
                            XFlux(q, mutable_source=True,
                                  ignore_updates=True)])
        assert len(mq.runs) == 2


class TestValidation:
    def test_mismatched_close_raises(self):
        # The tokenizer catches this in XML input, so feed a broken
        # *event* stream directly (e.g. from a buggy producer).
        from repro.events.model import EE, SE, SS, Event
        mq = MultiQueryRun(["count(X//a)"], validate=True)
        with pytest.raises(WellFormednessError):
            mq.feed_all([Event(SS, 0), Event(SE, 0, tag="doc"),
                         Event(SE, 0, tag="a"), Event(EE, 0, tag="b")])

    def test_unclosed_document_raises_at_finish(self):
        mq = MultiQueryRun(["count(X//a)"], validate=True)
        from repro.xmlio.tokenizer import tokenize
        events = tokenize("<doc><a></a></doc>")
        mq.feed_all(events[:-2])  # drop eE(doc), eS
        with pytest.raises(WellFormednessError):
            mq.finish()

    def test_disagreeing_source_streams_rejected(self):
        with pytest.raises(ValueError):
            MultiQueryRun([XFlux("count(X//a)"),
                           XFlux("count(stream(3)//a)")])


class TestShardPartitioning:
    def test_covers_every_query_once(self):
        shards = shard_queries(9, 4)
        flat = sorted(i for s in shards for i in s)
        assert flat == list(range(9))
        assert len(shards) == 4

    def test_no_empty_shards_when_fewer_queries(self):
        assert shard_queries(2, 8) == [[0], [1]]
        assert shard_queries(0, 4) == []

    def test_submission_order_within_shard(self):
        # Query i runs on shard i mod k: sizes within one of each
        # other, submission order kept inside every shard.
        assert shard_queries(8, 3) == [[0, 3, 6], [1, 4, 7], [2, 5]]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            shard_queries(3, 0)


class TestAstCache:
    def test_same_text_shares_one_ast(self):
        q = 'X//cache_probe[a="b"]/c'
        assert XFlux(q).ast is XFlux(q).ast
        assert parse_cached(q) is parse_cached(q)

    def test_cached_ast_still_compiles_fresh_plans(self, workloads):
        q = PAPER_QUERIES["Q1"]
        first = XFlux(q).run_xml(workloads.text("X")).text()
        second = XFlux(q).run_xml(workloads.text("X")).text()
        assert first == second


class TestDisplayTextCache:
    def test_text_memoized_between_events(self):
        engine = XFlux('stream()//quote/price', mutable_source=True)
        run = engine.start()
        events = StockTicker(symbols=("IBM",), n_updates=3,
                             mutable_names=False, seed=3).events()
        for e in events:
            run.feed(e)
        rendered = run.text()
        assert run.text() is rendered  # cache hit: same object
        run.finish()
        assert run.text() == rendered

    def test_cache_invalidated_by_new_events(self):
        engine = XFlux('stream()//quote/price', mutable_source=True)
        run = engine.start()
        events = StockTicker(symbols=("IBM",), n_updates=4,
                             mutable_names=False, seed=3).events()
        seen = set()
        for e in events:
            run.feed(e)
            seen.add(run.text())
        run.finish()
        seen.add(run.text())
        assert len(seen) > 1  # display really changed across updates
