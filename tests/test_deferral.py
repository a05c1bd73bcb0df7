"""Predicates and ancestor joins decide before they emit (DESIGN.md
section 17): an item's root is held, unread events are dropped, and a
region opens only for a read event, or a bracket, arriving undecided.
"""

import pytest

from repro import QueryRun, XFlux, parse_xml, tokenize
from repro.analysis.projection import ROOT_ONLY, Reads, gate_reads
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core import Pipeline
from repro.core.pipeline import Collector
from repro.events import loads
from repro.events.model import Kind
from repro.operators import AncestorJoin, Predicate
from repro.xquery.parser import parse as parse_query

#: a[1]: decided true before its read child (plain); a[2]: its read
#: child comes first (a region, frozen at the end); a[3]: decided
#: false at its end with nothing read (never emitted).
DOC = ("<r><a><c>1</c><q>x</q><z>u</z></a><a><q>y</q><c>1</c></a>"
       "<a><c>2</c><z>v</z></a></r>")
QUERY = 'X/a[c="1"]/q'


def predicate_output(query, doc, optimize=None):
    """The events the plan's predicate emits, and the predicate."""
    plan = XFlux(query).compile(optimize=optimize)
    [k] = [k for k, s in enumerate(plan.stages) if isinstance(s, Predicate)]
    out = Collector()
    Pipeline(plan.ctx, plan.stages[:k + 1], out).run(tokenize(doc))
    return out.events, plan.stages[k]


def kinds(events):
    return [e.kind.name for e in events]


class TestOneItemThreeWays:
    def test_counts_and_answer(self):
        run = XFlux(QUERY).run_xml(DOC)
        assert run.text() == "<q>x</q><q>y</q>"
        [(k, reads)] = gate_reads(run.plan)
        assert reads == Reads(("q",), None, True)
        assert run.stats()["per_stage"][k]["gate"]["items"] == {
            "plain": 1, "dropped": 1, "region": 1}

    def test_only_read_events_go_out(self):
        events, _ = predicate_output(QUERY, DOC)
        tags = [e.tag for e in events if e.kind == Kind.START_ELEMENT]
        assert tags == ["a", "q", "a", "q"]   # no c, no z, no third a
        updates = [e.kind.name for e in events if e.is_update]
        assert updates == ["START_MUTABLE", "END_MUTABLE", "FREEZE"]

    def test_as_compiled_is_the_papers_stream(self):
        events, pred = predicate_output(QUERY, DOC, optimize=False)
        assert pred.reads is None and not pred.defers
        assert kinds(events).count("START_MUTABLE") == 3
        assert pred.item_counts() == {"plain": 0, "dropped": 0,
                                      "region": 3}

    def test_a_where_clause_is_not_gated(self):
        plan = XFlux('for $x in X/a where $x/c = "1" return $x/q'
                     ).compile()
        [pred] = [s for s in plan.stages if isinstance(s, Predicate)]
        assert pred.reads is None and gate_reads(plan) == []


class TestJoin:
    def test_count_reads_root_only(self):
        query = "count(X//q/..)"
        run = XFlux(query).run_xml(DOC)
        assert run.text() == "2"
        [(k, reads)] = gate_reads(run.plan)
        assert isinstance(run.plan.stages[k], AncestorJoin)
        assert reads == ROOT_ONLY
        items = run.stats()["per_stage"][k]["gate"]["items"]
        assert items["region"] == 0 and items["plain"] == 2


class TestHeldRootMeetsABracket:
    """A bracket opening on the state that holds an item's root opens
    the item's region first; the bracket nests in it."""

    SOURCE = ('sS(0) sE(0,"r") sE(0,"a") sM(0,5) sE(5,"z") cD(5,"u") '
              'eE(5,"z") eM(0,5) sE(0,"c") cD(0,"1") eE(0,"c") '
              'sE(0,"q") cD(0,"x") eE(0,"q") eE(0,"a") eE(0,"r") eS(0)')

    def test_region_opens_before_the_bracket(self):
        plan = XFlux(QUERY).compile()
        pred = plan.stages[1]
        assert pred.defers
        out = Collector()
        Pipeline(plan.ctx, plan.stages[:2], out).run(loads(self.SOURCE))
        first = kinds(out.events[:4])
        assert first[1:4] == ["START_MUTABLE", "START_ELEMENT",
                              "START_MUTABLE"]
        opened, root, bracket = out.events[1:4]
        assert root.id == opened.sub and root.tag == "a"
        assert bracket.id == opened.sub   # nested in the item's region
        assert pred.item_counts()["region"] == 1

    @pytest.mark.parametrize("optimize", [None, False])
    def test_answer_under_the_sanitizer(self, optimize):
        run = QueryRun(XFlux(QUERY).compile(optimize=optimize),
                       sanitize=True)
        run.feed_all(loads(self.SOURCE))
        run.finish()
        assert run.text() == "<q>x</q>"


@pytest.mark.parametrize("query", [
    QUERY, 'X//a[c="1"]', "count(X/a[z])", "X/a[c or z]/q",
    "count(X//q/ancestor::a)", "X//c/../q",
])
def test_matches_dom_eval(query):
    run = QueryRun(XFlux(query).compile(), sanitize=True)
    run.feed_all(tokenize(DOC, emit_oids=run.plan.needs_oids))
    run.finish()
    assert run.text() == evaluate_to_xml(parse_query(query), parse_xml(DOC))


class TestAnalyzeShowsTheGates:
    def test_paper_queries_defer(self):
        from io import StringIO
        from repro.cli import main
        for name in ("Q3", "Q4"):
            out = StringIO()
            assert main(["analyze", name], out=out, err=StringIO()) == 0
            assert ": defers, reads" in out.getvalue(), name

    def test_a_run_counts_the_items(self, tmp_path):
        from io import StringIO
        from repro.cli import main
        doc = tmp_path / "doc.xml"
        doc.write_text(DOC)
        out = StringIO()
        assert main(["analyze", QUERY, "--input", str(doc)], out=out,
                    err=StringIO()) == 0
        assert ("[1] items: 1 plain, 1 never emitted, 1 in a region"
                in out.getvalue())
