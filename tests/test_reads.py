"""The backward "reads" pass and the pruned copies of the ``//`` steps
(DESIGN.md section 15).

``XFlux.compile()`` tells every ``//`` step what the rest of the plan
reads of its output; ``compile(optimize=False)`` is the plan as the
paper's operators make it.  The two must be indistinguishable at the
sink: same events, same region ids, same text.
"""

import os

import pytest
from hypothesis import given, settings

from repro import XFlux, parse_xml, tokenize
from repro.analysis.projection import (ROOT_ONLY, Reads, apply_reads,
                                       stage_reads, step_reads)
from repro.baselines.dom_eval import evaluate_to_xml
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.core import Context, Pipeline
from repro.core.pipeline import Collector
from repro.core.transformer import Identity
from repro.data.xmark import LOCATIONS, PAYMENTS, REGIONS
from repro.events.model import UPDATE_ENDS, UPDATE_STARTS
from repro.operators import (AncestorJoin, ChildStep, Concat, CountItems,
                             DescendantStep, ForTuples, LiteralText,
                             SortTuples, StreamConstruct, StringValue, Tee,
                             TextStep, TupleConstruct)
from repro.parallel import ShardedMultiQueryRun
from repro.xquery.engine import MultiQueryRun, QueryRun
from repro.xquery.parser import parse as parse_query
from tests.test_property_based import queries, xml_trees

ALL = Reads.everything("the test")
RECORDED = any(os.environ.get("REPRO_" + flag, "") not in ("", "0")
               for flag in ("SANITIZE", "METRICS", "FLIGHT"))


# -- the lattice and the transfer rules -----------------------------------------


class TestReads:
    def test_nothing_below_the_root_is_one_value(self):
        assert Reads(("a",), 1, True) == ROOT_ONLY
        assert Reads((), None, True) == ROOT_ONLY

    def test_union(self):
        a = Reads(("a",), 2, False)
        b = Reads(("b",), None, True)
        assert a | b == Reads(("a", "b"), None, True)
        assert a | ROOT_ONLY == a
        assert (a | ALL).is_all and (a | ALL).by == "the test"
        assert (Reads(None, 2, False) | b) == Reads(None, None, True)
        assert (Reads(None, 2, False) | b).is_all

    def test_forced_by_does_not_compare(self):
        assert Reads.everything("x") == Reads.everything("y")


class TestTransferRules:
    def test_child_step(self, ctx):
        step = ChildStep(ctx, 1, 2, "q")
        assert stage_reads(step, 1, ALL) == Reads(("q",), None, True)
        assert stage_reads(step, 1, ROOT_ONLY) == Reads(("q",), 2, False)
        assert stage_reads(step, 1, Reads(("x",), 2, False)) == \
            Reads(("q",), 3, False)
        assert stage_reads(ChildStep(ctx, 1, 2, None), 1, ROOT_ONLY) == \
            Reads(None, 2, False)

    def test_descendant_step_as_consumer(self, ctx):
        step = DescendantStep(ctx, 1, 2, "q")
        assert stage_reads(step, 1, ROOT_ONLY) == Reads(None, None, False)
        forced = stage_reads(step, 1, Reads(("x",), None, True))
        assert forced.is_all and forced.by == repr(step)

    def test_count_and_literal_read_boundaries(self, ctx):
        assert stage_reads(CountItems(ctx, 1, 2), 1, ALL) == ROOT_ONLY
        assert stage_reads(LiteralText(ctx, 1, 2, ": "), 1, ALL) == \
            ROOT_ONLY

    @pytest.mark.parametrize("query,reads", [
        ('count(X//a[q="1"])', Reads(("q",), None, True)),
        ('count(X//a[contains(q,"1")])', Reads(("q",), None, True)),
        ("count(X//a[q])", Reads(("q",), 2, False)),
        ('count(X//a[q="1" and p])', Reads(("p", "q"), None, True)),
        ('count(for $a in X//a where $a/* = "1" return $a)',
         Reads(None, None, True)),
    ])
    def test_predicate_reads_its_fused_conditions(self, query, reads):
        assert XFlux(query).compile().stages[0].reads == reads

    def test_predicate_passes_on_what_is_read_of_its_output(self):
        plan = XFlux('X//a[q="1"]/r').compile()
        assert plan.stages[0].reads == Reads(("q", "r"), None, True)

    def test_generic_inline_condition_reads_everything(self):
        plan = XFlux('count(X//a[q/r="1"])').compile()
        reads = plan.stages[0].reads
        assert reads.is_all and "generic inline condition" in reads.by

    def test_ancestor_join(self, ctx):
        join = AncestorJoin(ctx, 1, 2, 3)
        assert stage_reads(join, 1, ROOT_ONLY) == Reads(None, None, False)
        assert stage_reads(join, 2, ALL) == ROOT_ONLY
        parent = AncestorJoin(ctx, 1, 2, 3, direct_only=True)
        assert stage_reads(parent, 1, ROOT_ONLY) == Reads(None, 2, False)
        forced = stage_reads(parent, 1, Reads(("c",), None, True))
        assert forced.is_all and forced.by == repr(parent)

    def test_plumbing_passes_the_union_of_its_consumers(self, ctx):
        out = Reads(("q",), None, True)
        assert stage_reads(ForTuples(ctx, 1, 2), 1, out) == out
        assert stage_reads(Concat(ctx, 1, 2, 3), 1, out) == out
        assert stage_reads(Concat(ctx, 1, 2, 3), 2, out) == out
        assert stage_reads(Tee(ctx, 1, 2), 1, out) == out
        sort = SortTuples(ctx, 1, 2, 3)
        assert stage_reads(sort, 1, out) == out
        assert stage_reads(sort, 2, out).is_all      # the key stream
        # A tee passes its input on: what later stages read of it stays.
        plan = XFlux('for $a in X//a return ($a/q, $a/r/text())').compile()
        assert plan.stages[0].reads == Reads(("q", "r"), None, True)

    def test_constructors_shift_by_one_level(self, ctx):
        for ctor in (StreamConstruct(ctx, 1, 2, "w"),
                     TupleConstruct(ctx, 1, 2, "w")):
            assert stage_reads(ctor, 1, ROOT_ONLY) == ROOT_ONLY
            assert stage_reads(ctor, 1, Reads(("x",), 2, False)) == \
                ROOT_ONLY
            # Which of the wrapper's children is read is not a
            # statement about the children of those children.
            assert stage_reads(ctor, 1, Reads(("x",), 3, True)) == \
                Reads(None, 2, True)
            assert stage_reads(ctor, 1, ALL).is_all


class TestEverythingElseIsAll:
    @pytest.mark.parametrize("make", [
        lambda ctx: Identity(ctx, (1,), 2),
        lambda ctx: TextStep(ctx, 1, 2),
        lambda ctx: StringValue(ctx, 1, 2),
    ])
    def test_undeclared_stage(self, ctx, make):
        stage = make(ctx)
        assert "reads" not in stage.static_facts()
        reads = stage_reads(stage, 1, ROOT_ONLY)
        assert reads.is_all and reads.by == repr(stage)

    def test_unknown_kind(self, ctx):
        class Odd(Identity):
            def static_facts(self):
                return dict(super().static_facts(),
                            reads={"kind": "telepathy"})
        assert stage_reads(Odd(ctx, (1,), 2), 1, ROOT_ONLY).is_all

    def test_undeclared_stage_in_a_plan(self):
        plan = XFlux("sum(X//a/q)").compile()
        assert plan.stages[0].reads == Reads(("q",), None, True)
        plan = XFlux("X//a/text()").compile()
        assert plan.stages[0].reads.is_all
        assert "TextStep" in plan.stages[0].reads.by

    def test_sink(self):
        reads = XFlux("X//a").compile().stages[0].reads
        assert reads.is_all and reads.by == "the sink"

    def test_mutable_source(self):
        plan = XFlux('count(stream()//a[q="1"])',
                     mutable_source=True).compile()
        reads = plan.stages[0].reads
        assert reads.is_all and reads.by == "the mutable update source"
        # ... while the same query over a document is pruned.
        assert not XFlux('count(X//a[q="1"])').compile().stages[0] \
            .reads.is_all

    def test_as_compiled_plan_is_left_alone(self):
        plan = XFlux('count(X//a[q="1"])').compile(optimize=False)
        assert plan.stages[0].reads is None
        [(k, reads)] = step_reads(plan)
        assert k == 0 and reads.is_all and "optimize=False" in reads.by

    @pytest.mark.skipif(RECORDED, reason="sharing disengages")
    def test_shared_prefix_reads_what_its_members_read(self):
        # Of a stream routed to member pipelines the prefix's sink
        # reads what they do: a member that displays it makes it ALL.
        narrow = MultiQueryRun(['X//a[q="1"]/r', 'count(X//a[q="1"])'],
                               share_prefixes=True)
        [group] = narrow.groups
        assert group.pipeline.wrappers[0].t.reads == \
            Reads(("q", "r"), None, True)
        wide = MultiQueryRun(['X//a[q="1"]/r', 'X//a[q="1"]'],
                             share_prefixes=True)
        [group] = wide.groups
        reads = group.pipeline.wrappers[0].t.reads
        assert reads.is_all and reads.by == "the sink"

    def test_sink_streams_are_read_as_told(self, ctx):
        class FakePlan:
            stages = [DescendantStep(ctx, 0, 1, "a")]
            result_id, mutable_source = 1, False
        assert apply_reads(FakePlan, sink={7: ALL}) == \
            {7: ALL, 0: Reads(None, None, False)}
        assert FakePlan.stages[0].reads == ROOT_ONLY


# -- what a level's copy holds ------------------------------------------------------


DOC = "<r><a>t<q>1<z>2</z></q><p><q>3</q></p><a><q>4</q></a>u</a></r>"


def copies(reads, tag="a"):
    """The output of ``//tag`` over DOC, per copy, as text."""
    ctx = Context()
    ctx.ids.reserve(0)
    step = DescendantStep(ctx, 0, 1, tag)
    step.reads = reads
    out = Collector()
    Pipeline(ctx, [step], out).run(tokenize(DOC))
    by_id = {}
    for e in out.events:
        if not e.is_update and e.kind.name in ("START_ELEMENT",
                                               "END_ELEMENT", "CDATA"):
            by_id.setdefault(e.id, []).append(
                "<" + e.tag + ">" if e.kind.name == "START_ELEMENT" else
                "</" + e.tag + ">" if e.kind.name == "END_ELEMENT" else
                e.text)
    return ["".join(parts) for parts in by_id.values()]


class TestCopies:
    def test_everything(self):
        assert copies(None) == copies(ALL) == [
            "<a>t<q>1<z>2</z></q><p><q>3</q></p><a><q>4</q></a>u</a>",
            "<a><q>4</q></a>"]

    def test_roots_only(self):
        assert copies(ROOT_ONLY) == ["<a></a>", "<a></a>"]

    def test_read_children_whole(self):
        assert copies(Reads(("q",), None, True)) == [
            "<a><q>1<z>2</z></q></a>", "<a><q>4</q></a>"]

    def test_no_text(self):
        assert copies(Reads(None, None, False)) == [
            "<a><q><z></z></q><p><q></q></p><a><q></q></a></a>",
            "<a><q></q></a>"]

    def test_child_boundaries(self):
        assert copies(Reads(None, 2, False)) == [
            "<a><q></q><p></p><a></a></a>", "<a><q></q></a>"]
        assert copies(Reads(("p", "a"), 2, False)) == [
            "<a><p></p><a></a></a>", "<a></a>"]

    def test_a_deeper_bound_is_applied_as_none(self):
        assert copies(Reads(("p",), 3, False)) == \
            copies(Reads(("p",), None, False)) == \
            ["<a><p><q></q></p></a>", "<a></a>"]

    def test_wildcard_step_levels_are_independent(self):
        assert copies(Reads(("q",), None, True), tag=None) == [
            "<a><q>1<z>2</z></q></a>", "<q></q>", "<z></z>",
            "<p><q>3</q></p>", "<q></q>", "<a><q>4</q></a>", "<q></q>"]

    def test_brackets_are_never_cut(self):
        def brackets(reads):
            ctx = Context()
            ctx.ids.reserve(0)
            step = DescendantStep(ctx, 0, 1, None)
            step.reads = reads
            out = Collector()
            Pipeline(ctx, [step], out).run(tokenize(DOC))
            return [e for e in out.events if e.is_update]
        assert brackets(ROOT_ONLY) == brackets(None)


# -- the differential ---------------------------------------------------------------


MULTI_QUERIES = (
    ['X//item[location="{}"]/quantity'.format(loc)
     for loc in LOCATIONS[:6]]
    + ['X//item[location="Albania"][payment="{}"]/location'.format(pay)
       for pay in PAYMENTS]
    + ['X//{}//item[location="Albania"]/quantity'.format(reg)
       for reg in REGIONS])

SHAPES = [
    "X//item[payment]/quantity",                       # exists
    "count(X//*[payment])",
    'for $i in X//item where $i/* = "Cash" return $i/location',  # any tag
    'X//item[location="Albania" and payment="Cash"]/quantity',
    'X//item[location="Albania" or payment]/quantity',
    "count(X//item/quantity)",
    "X//item/../location",
    "count(X//quantity/ancestor::*)",
    "<r>{ X//item/location }</r>",
    'for $i in X//* where $i/location = "Albania" return $i/quantity',
]

NESTED_DOCS = [
    "<root><a><a><b>y</b></a><c>w</c></a></root>",
    "<root><a><b>y</b><a><a><b>y</b><c>q</c></a><c>w</c></a></a></root>",
    "<r><x><a><c>1</c><a><b>y</b></a></a></x>"
    "<a><b>n</b><a>t<a><b>y</b>u</a></a></a></r>",
]

NESTED_QUERIES = [
    "X//a", "X//a//a", "X//*//a/b", 'X//a[b="y"]', 'X//a[b="y"]/c',
    "X//a[a]/c", 'count(X//a[b="y"]//b)', "X//a//*",
    "count(X//a/ancestor::*)", "count(X//a/..)",
    'X//a[b="y"]/ancestor::*/c', "X//a/../c", "count(X//b/ancestor::a)",
    'for $x in X//a where $x/b = "y" return <hit>{ $x/c }</hit>',
    'for $x in X//a order by $x/b return ($x/c/text(), ";")',
]


def sink_events(plan, events):
    """What the display reads of the plan's output: the result stream
    and every region bracketed into it.  (A tuple stream left over
    after its last ``$x`` tee also arrives, and is ignored.)"""
    out = Collector()
    Pipeline(plan.ctx, plan.stages, out).run(events)
    shown = {plan.result_id}
    read = []
    for e in out.events:
        if e.kind in UPDATE_STARTS and e.id in shown:
            shown.add(e.sub)
        if (e.sub if e.kind in UPDATE_ENDS else e.id) in shown:
            read.append(e)
    return read


def assert_same_at_the_sink(query, doc):
    """Pruned and as-compiled plan: the same events reach the sink."""
    engine = XFlux(query)
    as_compiled = engine.compile(optimize=False)
    pruned = engine.compile()
    events = tokenize(doc, emit_oids=pruned.needs_oids)
    reference = sink_events(as_compiled, events)
    assert sink_events(pruned, events) == reference, query
    run = QueryRun(engine.compile(), sanitize=True)
    run.feed_all(events)
    run.finish()
    plain = QueryRun(engine.compile(optimize=False))
    plain.feed_all(events)
    plain.finish()
    assert run.text() == plain.text(), query
    assert list(run.events()) == list(plain.events()), query
    return pruned


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=0.02, dblp_scale=0.02)


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries(self, workloads, name):
        pruned = assert_same_at_the_sink(
            PAPER_QUERIES[name], workloads.text(QUERY_DATASET[name]))
        # Every paper query has a step the pass engages on.
        assert not all(r.is_all for _, r in step_reads(pruned)), name

    @pytest.mark.parametrize("query", MULTI_QUERIES + SHAPES)
    def test_multi_query_and_predicate_shapes(self, workloads, query):
        assert_same_at_the_sink(query, workloads.text("X"))

    @pytest.mark.parametrize("doc", NESTED_DOCS)
    @pytest.mark.parametrize("query", NESTED_QUERIES)
    def test_nested_matches(self, query, doc):
        assert_same_at_the_sink(query, doc)
        if not query.startswith("for "):
            # (A FLWOR over nested matches is wrong with or without the
            # pass — ROADMAP item 1(a): ForTuples takes the inner
            # match's bracket for an update inside the outer tuple.)
            assert XFlux(query).run_xml(doc).text() == evaluate_to_xml(
                parse_query(query), parse_xml(doc))

    @given(xml_trees(), queries())
    @settings(max_examples=150, deadline=None)
    def test_recursive_documents(self, doc, query):
        engine = XFlux(query)
        events = tokenize(doc)
        assert sink_events(engine.compile(), events) == \
            sink_events(engine.compile(optimize=False), events)

    @pytest.mark.parametrize("dataset", ["X", "D"])
    def test_executors(self, workloads, dataset):
        """Multiplexed, prefix-shared and sharded over three workers:
        every answer is the as-compiled plan's."""
        queries = [q for n, q in sorted(PAPER_QUERIES.items())
                   if QUERY_DATASET[n] == dataset]
        if dataset == "X":
            queries += MULTI_QUERIES + SHAPES
        text = workloads.text(dataset)
        reference = []
        for q in queries:
            plan = XFlux(q).compile(optimize=False)
            run = QueryRun(plan)
            run.feed_all(tokenize(text, emit_oids=plan.needs_oids))
            reference.append(run.finish().text())
        for flags in ({}, {"share_prefixes": True},
                      {"sanitize": True}):
            mq = MultiQueryRun(queries, **flags).run_xml(text)
            assert mq.texts() == reference, flags
        with ShardedMultiQueryRun(queries, workers=3) as smq:
            smq.run_xml(text)
            assert smq.texts() == reference


class TestObservability:
    def test_stats_say_whether_pruning_engaged(self, workloads):
        run = XFlux(PAPER_QUERIES["Q4"]).run_xml(workloads.text("X"))
        reads = {s["index"]: s["reads"]
                 for s in run.stats()["per_stage"] if "reads" in s}
        assert reads == {
            1: {"all": False, "tags": ["location"], "depth": None,
                "text": True},
            3: {"all": False, "tags": None, "depth": 2, "text": False}}
        sunk = XFlux("X//item").run_xml(workloads.text("X"))
        assert sunk.stats()["per_stage"][0]["reads"] == {
            "all": True, "tags": None, "depth": None, "text": True,
            "forced_by": "the sink"}

    def test_pruning_cuts_the_call_blow_up(self, workloads):
        """The paper's //* emits each event once per enclosing element;
        most of those copies nobody reads."""
        events = workloads.events("X")
        calls = []
        for optimize in (False, None):
            run = QueryRun(XFlux(PAPER_QUERIES["Q3"]).compile(
                optimize=optimize))
            run.feed_all(events)
            calls.append(run.finish().stats()["transformer_calls"])
        as_compiled, pruned = calls
        assert as_compiled > 8 * len(events)
        assert pruned < as_compiled / 2
