"""Differential tests for plan-driven stream projection.

The contract: running any query with ``projection=True`` yields answers
*byte-identical* to running it without — the projection may only change
how many events the tokenizer materializes and how many each pipeline
dispatches, never what a query observes of its own paths.  Holds for
every paper query, through every executor (single run, multiplexed
with and without shared prefixes, sharded with 1 and 3 workers), with
the protocol sanitizer interposed, and on mutable update streams (where
the analysis must refuse to prune at all).
"""

import pytest

from repro.analysis import known_schema
from repro.analysis.projection import (CHILD, ProjectionMask,
                                       ProjectionMatcher,
                                       QueryProjection, derive_projection,
                                       format_path, union_projection)
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.data.stock import StockTicker
from repro.parallel import ShardedMultiQueryRun
from repro.xquery.engine import MultiQueryRun, XFlux

SCALE = 0.02
DATASET_SCHEMA = {"X": "xmark", "D": "dblp"}

XMARK_NAMES = [n for n in PAPER_QUERIES if QUERY_DATASET[n] == "X"]
DBLP_NAMES = [n for n in PAPER_QUERIES if QUERY_DATASET[n] == "D"]


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


@pytest.fixture(scope="module")
def reference(workloads):
    """Answers with projection off, one independent run per query."""
    return {name: XFlux(query).run_xml(
                workloads.text(QUERY_DATASET[name])).text()
            for name, query in PAPER_QUERIES.items()}


class TestDeriveProjection:
    def test_q1_paths(self):
        proj = derive_projection(XFlux(PAPER_QUERIES["Q1"]).compile())
        assert not proj.universal
        assert proj.describe() == ["//europe//item",
                                   "//europe//item/quantity"]

    def test_q2_paths(self):
        proj = derive_projection(XFlux(PAPER_QUERIES["Q2"]).compile())
        assert "//item" in proj.describe()

    @pytest.mark.parametrize("name", ["Q4", "Q5", "Q6"])
    def test_oid_queries_fall_back_to_universal(self, name):
        proj = derive_projection(XFlux(PAPER_QUERIES[name]).compile())
        assert proj.universal
        assert "oids" in proj.reason

    def test_mutable_source_falls_back_to_universal(self):
        plan = XFlux('stream()//quote/price',
                     mutable_source=True).compile()
        proj = derive_projection(plan)
        assert proj.universal
        assert "mutable" in proj.reason

    def test_union_of_paths(self):
        a = derive_projection(XFlux(PAPER_QUERIES["Q1"]).compile())
        b = derive_projection(XFlux(PAPER_QUERIES["Q2"]).compile())
        u = union_projection([a, b])
        assert not u.universal
        assert set(u.describe()) == set(a.describe()) | set(b.describe())

    def test_union_with_universal_is_universal(self):
        a = derive_projection(XFlux(PAPER_QUERIES["Q1"]).compile())
        b = QueryProjection(universal=True, reason="test")
        assert union_projection([a, b]).universal

    def test_format_path(self):
        assert format_path(((CHILD, "a"), ("descendant", "b"))) == "/a//b"


class TestPrunability:
    def test_descendant_paths_need_a_schema(self):
        proj = derive_projection(XFlux(PAPER_QUERIES["Q1"]).compile())
        assert not ProjectionMatcher(proj).prunable
        assert ProjectionMatcher(proj, schema="xmark").prunable
        assert ProjectionMatcher(proj,
                                 schema=known_schema("xmark")).prunable

    def test_child_paths_prunable_without_schema(self):
        proj = QueryProjection(paths=frozenset({
            ((CHILD, "site"), (CHILD, "regions"))}))
        assert ProjectionMatcher(proj).prunable

    def test_universal_not_prunable(self):
        proj = QueryProjection(universal=True, reason="test")
        assert not ProjectionMatcher(proj).prunable

    def test_unknown_schema_name_rejected(self):
        proj = derive_projection(XFlux(PAPER_QUERIES["Q1"]).compile())
        with pytest.raises(ValueError):
            ProjectionMatcher(proj, schema="no-such-schema")

    def test_schema_closures(self):
        xmark = known_schema("xmark")
        assert "item" in xmark.descendants("regions")
        assert "quantity" not in xmark.descendants("payment")


class TestSingleRunDifferential:
    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_projection_on_equals_off(self, name, workloads, reference):
        dataset = QUERY_DATASET[name]
        run = XFlux(PAPER_QUERIES[name]).run_xml(
            workloads.text(dataset), projection=True,
            schema=DATASET_SCHEMA[dataset])
        assert run.text() == reference[name], name
        assert run.projection is not None

    def test_q1_actually_prunes(self, workloads, reference):
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(
            workloads.text("X"), projection=True, schema="xmark")
        assert run.text() == reference["Q1"]
        assert run.projection_stats is not None
        assert run.projection_stats.pruned_ratio() > 0.5
        assert run.projection_stats.bytes_skipped > 0

    def test_exact_child_path_prunes_without_schema(self, workloads):
        # The pruning-heavy regime: every sibling subtree of an exact
        # child-axis path is skipped, no schema needed.
        query = "X/regions/europe/item/quantity"
        plain = XFlux(query).run_xml(workloads.text("X"))
        run = XFlux(query).run_xml(workloads.text("X"), projection=True)
        assert run.text() == plain.text()
        assert run.projection_stats.pruned_ratio() > 0.9

    @pytest.mark.parametrize("name", ["Q4", "Q5", "Q6"])
    def test_universal_queries_never_prune(self, name, workloads,
                                           reference):
        run = XFlux(PAPER_QUERIES[name]).run_xml(
            workloads.text("X"), projection=True, schema="xmark")
        assert run.text() == reference[name]
        assert run.projection_stats is None  # fell back, no skip mode

    def test_child_axis_from_root_not_pruned(self):
        # Regression: the engine's first ChildStep matches children of
        # the *root* (the root element consumes no path step).  The
        # matcher must therefore keep the root unconditionally — an
        # earlier cursor transitioned on the root tag, pruned the whole
        # document for any root not named like step 0, and silently
        # returned an empty answer.
        doc = "<c><book><title>U</title></book><other><x/></other></c>"
        plain = XFlux("X/book/title").run_xml(doc)
        assert plain.text() == "<title>U</title>"
        projected = XFlux("X/book/title").run_xml(doc, projection=True)
        assert projected.text() == plain.text()
        assert projected.projection_stats is not None
        assert projected.projection_stats.subtrees_skipped > 0

    def test_descendant_step_never_matches_root(self):
        # Companion fact: descendant steps match strictly below the
        # root, so keeping the root blanket is exact, not conservative.
        assert XFlux("X//c").run_xml("<c><d>x</d></c>").text() == ""

    def test_sanitized_run_identical(self, workloads, reference,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for name in ("Q1", "Q7", "Q8"):
            dataset = QUERY_DATASET[name]
            run = XFlux(PAPER_QUERIES[name]).run_xml(
                workloads.text(dataset), projection=True,
                schema=DATASET_SCHEMA[dataset])
            assert run.text() == reference[name], name


class TestMultiQueryDifferential:
    @pytest.mark.parametrize("dataset,names", [("X", XMARK_NAMES),
                                               ("D", DBLP_NAMES)])
    def test_multiplex_projection_identical(self, dataset, names,
                                            workloads, reference):
        # Unshared, every pipeline gets its own mask; shared (the
        # default), members sit behind their group's union mask.
        for share in (False, None):
            mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                               projection=True, share_prefixes=share,
                               schema=DATASET_SCHEMA[dataset])
            mq.run_xml(workloads.text(dataset))
            assert mq.texts() == [reference[n] for n in names], share
            if share is False:
                assert mq.stats()["projection"]["masked_pipelines"] > 0

    def test_masks_drop_events(self, workloads, reference):
        names = ["Q1", "Q2", "Q7"]
        mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                           projection=True, schema="xmark")
        mq.run_xml(workloads.text("X"))
        assert mq.texts() == [reference[n] for n in names]
        assert mq.projection_summary()["mask_events_dropped"] > 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sharded_projection_identical(self, workers, workloads,
                                          reference):
        for dataset, names in (("X", XMARK_NAMES), ("D", DBLP_NAMES)):
            smq = ShardedMultiQueryRun(
                [PAPER_QUERIES[n] for n in names], workers=workers,
                projection=True, schema=DATASET_SCHEMA[dataset])
            smq.run_xml(workloads.text(dataset))
            assert smq.texts() == [reference[n] for n in names]

    def test_sanitized_multiplex_identical(self, workloads, reference,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        names = ["Q1", "Q2", "Q3"]
        mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                           projection=True, schema="xmark")
        mq.run_xml(workloads.text("X"))
        assert mq.texts() == [reference[n] for n in names]


class TestUpdateStreams:
    QUERIES = ['stream()//quote[name="IBM"]/price',
               'count(stream()//quote[name="IBM"])']

    @pytest.fixture(scope="class")
    def events(self):
        return StockTicker(n_updates=40, mutable_names=True,
                           name_update_fraction=0.4, seed=7).events()

    def test_multiplex_projection_is_a_noop(self, events):
        plain = MultiQueryRun(self.QUERIES, mutable_source=True)
        plain.run(events)
        projected = MultiQueryRun(self.QUERIES, mutable_source=True,
                                  projection=True)
        projected.run(events)
        assert projected.texts() == plain.texts()
        summary = projected.projection_summary()
        assert summary["union"]["universal"]
        assert not summary["tokenizer_pruning"]
        assert summary["mask_events_dropped"] == 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_sharded_projection_is_a_noop(self, events, workers):
        plain = MultiQueryRun(self.QUERIES, mutable_source=True)
        plain.run(events)
        smq = ShardedMultiQueryRun(self.QUERIES, workers=workers,
                                   mutable_source=True, projection=True,
                                   batch_events=37)
        smq.run(events)
        assert smq.texts() == plain.texts()

    def test_mask_disables_itself_on_update_events(self):
        # Defense in depth: even a mask built from a (mis-declared)
        # immutable plan must stop filtering the moment an update
        # bracket appears, and pass everything through untouched.
        from repro.events.model import SM, Event
        proj = QueryProjection(paths=frozenset({((CHILD, "keep"),)}))
        mask = ProjectionMask(ProjectionMatcher(proj), source_id=0)
        batch = [Event(SM, 0, tag="quote")]
        assert mask.filter(batch) == batch
        from repro.xmlio.tokenizer import tokenize
        later = tokenize("<drop><x/></drop>")
        assert mask.filter(later) == later  # permanently disabled


class TestMetricsEquality:
    def test_sharded_metrics_equal_single_process(self, workloads):
        names = ["Q1", "Q2", "Q7"]
        queries = [PAPER_QUERIES[n] for n in names]
        doc = workloads.text("X")
        # One query per worker shares nothing, so the single process
        # must not share either for the mask counters to line up.
        mq = MultiQueryRun(queries, metrics=True, projection=True,
                           schema="xmark", share_prefixes=False)
        mq.run_xml(doc)
        smq = ShardedMultiQueryRun(queries, workers=3, metrics=True,
                                   projection=True, schema="xmark",
                                   share_prefixes=False)
        smq.run_xml(doc)
        m1, m2 = mq.metrics(), smq.metrics()
        assert m1 is not None and m2 is not None
        assert "projection" in m1
        assert m1["projection"] == m2["projection"]
        assert m1["projection"]["mask_events_dropped"] > 0

    def test_counters_reach_recorder_dict(self, workloads):
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(
            workloads.text("X"), projection=True, schema="xmark",
            metrics=True)
        metrics = run.metrics()
        assert metrics["projection"]["events_pruned"] == \
            run.projection_stats.events_pruned
