"""Tests for the compiler and the XFlux engine facade."""

import pytest

from repro import CompileError, XFlux, parse_xml
from repro.baselines.dom_eval import evaluate_to_xml
from repro.operators import (AncestorJoin, CountItems, DescendantStep,
                             Predicate, SortTuples, Tee)
from repro.xquery.compiler import Compiler
from repro.xquery.engine import MultiQueryRun, env_flag
from repro.xquery.parser import parse

from tests.helpers import assert_query_matches_naive, flux_result


class TestPlans:
    def test_plan_stage_shapes(self):
        plan = XFlux('X//item[a="1"]/b').compile()
        kinds = [type(s).__name__ for s in plan.stages]
        assert kinds == ["DescendantStep", "Predicate", "ChildStep"]

    def test_backward_plan_inserts_source_tee(self):
        plan = XFlux("count(X//item/..)").compile()
        assert isinstance(plan.stages[0], Tee)
        assert plan.needs_oids
        assert any(isinstance(s, AncestorJoin) for s in plan.stages)
        assert isinstance(plan.stages[-1], CountItems)

    def test_forward_plan_needs_no_oids(self):
        assert not XFlux("X//item").compile().needs_oids

    def test_order_by_plan_sorts_after_construction(self):
        plan = XFlux('for $d in D//r order by $d/k return '
                     '<e>{ $d/v }</e>').compile()
        names = [type(s).__name__ for s in plan.stages]
        assert names.index("TupleConstruct") < names.index("SortTuples")

    def test_plans_are_single_use(self):
        engine = XFlux("X//item")
        p1, p2 = engine.compile(), engine.compile()
        assert p1.result_id != p2.result_id or p1.ctx is not p2.ctx


class TestCompileErrors:
    def test_unbound_variable(self):
        with pytest.raises(CompileError):
            XFlux("$nope/title").compile()

    def test_literal_outside_flwor(self):
        with pytest.raises(CompileError):
            XFlux('"just a string"').compile()

    def test_backward_axis_in_condition(self):
        with pytest.raises(CompileError):
            XFlux('X//item[a/ancestor::b]').compile()

    def test_foreign_variable_in_where(self):
        with pytest.raises(CompileError):
            XFlux('for $a in X//p return '
                  'for $b in X//q where $a/x = "1" return $b').compile()

    def test_top_level_comparison(self):
        with pytest.raises(CompileError):
            XFlux('X//a = "b"').compile()

    @pytest.mark.parametrize("query", [
        # answered '' where dom_eval answers <b>x</b>
        "for $x in X/b return ($x/a, X/b)",
        # an update into a region the display never saw
        "for $x in X/b return ($x/a, X/*[b])",
        "for $x in X/b let $y := X/c return $y",
        "for $x in X/b return for $y in X/c return $y",
    ])
    def test_document_path_in_return(self, query):
        # Not aligned with the tuples, like the shapes above.
        with pytest.raises(CompileError, match="document path"):
            XFlux(query).compile()


class TestHiddenTupleConstructor:
    """A tuple hidden by its where-clause (or its binding path's
    predicate) takes its constructed element and literals along, even
    when the content it wraps is empty."""

    @staticmethod
    def answers(query, doc, optimize):
        from repro import QueryRun, tokenize
        run = QueryRun(XFlux(query).compile(optimize=optimize),
                       sanitize=True)
        run.feed_all(tokenize(doc))
        run.finish()
        return run.text(), evaluate_to_xml(parse(query), parse_xml(doc))

    @pytest.mark.parametrize("doc", [
        "<root><b>x</b></root>",
        "<root><b><c>1</c><c><d/></c></b><b>y</b></root>",
    ])
    @pytest.mark.parametrize("query", [
        "for $x in X/b where $x/c return <h>{ $x/c }</h>",
        "for $x in X/b[c] return <h>{ $x/c }</h>",
        'for $x in X/b where $x/c return ($x/c, "!")',
    ])
    @pytest.mark.parametrize("optimize", [None, False])
    def test_matches_dom_eval(self, query, doc, optimize):
        got, expected = self.answers(query, doc, optimize)
        assert got == expected

    # The constructor follows every region its content shows up in at
    # tuple top level, and the regions a bracket opens on its input
    # there: not an item region, nor a region behind a sequence's own.
    @pytest.mark.xfail(strict=True, reason="an item's hide hides the "
                       "whole constructed element")
    @pytest.mark.parametrize("optimize", [None, False])
    def test_a_hidden_item_hides_only_itself(self, optimize):
        got, expected = self.answers(
            "for $x in X/b return <h>{ $x/c[d] }</h>",
            "<root><b><c>1</c><c><d/></c></b></root>", optimize)
        assert got == expected

    @pytest.mark.xfail(strict=True, reason="Concat's regions hide the "
                       "where-clause's from the constructor")
    @pytest.mark.parametrize("optimize", [None, False])
    def test_an_empty_sequence_in_a_hidden_tuple(self, optimize):
        got, expected = self.answers(
            "for $x in X/b where $x/c return <h>{ $x/c, $x/d }</h>",
            "<root><b>x</b></root>", optimize)
        assert got == expected


class TestEngineFacade:
    def test_run_xml_returns_queryrun(self, auction_xml):
        run = XFlux("count(X//item)").run_xml(auction_xml)
        assert run.text() == "4"
        stats = run.stats()
        assert stats["transformer_calls"] > 0
        assert stats["stages"] >= 1
        assert "display" in stats

    def test_continuous_feeding(self, auction_xml):
        from repro.xmlio import tokenize
        engine = XFlux("count(X//item)")
        run = engine.start()
        seen = []
        for e in tokenize(auction_xml):
            run.feed(e)
            seen.append(run.text())
        run.finish()
        assert seen[-1] == "4"
        assert "2" in seen  # intermediate counts were displayed

    def test_on_change_callback(self, auction_xml):
        calls = []
        XFlux("count(X//item)").run_xml(
            auction_xml, on_change=lambda e, d: calls.append(e))
        assert calls

    def test_accepts_preparsed_ast(self, auction_xml):
        engine = XFlux(parse("count(X//item)"))
        assert engine.run_xml(auction_xml).text() == "4"


class TestEngineSwitches:
    def test_fuse_keyword_is_accepted_and_ignored(self, auction_xml):
        # Stage fusion is gone, but ``benchmarks/e2e`` (which only a
        # benchmark PR may edit) still passes ``fuse=True`` at these
        # three places: the tier-1 guard for ``run.py --trace 1`` and
        # CI's sharing gate.
        from repro.data.stock import StockTicker
        query, queries = "X//item/quantity", ["X//item", "count(X//item)"]
        plain = XFlux(query).run_xml(auction_xml)
        run = XFlux(query).run_xml(auction_xml, fuse=True)
        assert list(run.events()) == list(plain.events())
        events = StockTicker(n_updates=50).events()
        ticker = XFlux('stream()//quote[name="IBM"]/price',
                       mutable_source=True)
        live = ticker.start(fuse=True)
        live.feed_all(events)
        assert live.finish().text() == ticker.run(events).text()
        mq = MultiQueryRun(queries, fuse=True).run_xml(auction_xml)
        assert mq.texts() == MultiQueryRun(queries).run_xml(
            auction_xml).texts()
        for stats in [run.stats(), live.stats(), mq.stats(),
                      *mq.stats()["per_query"]]:
            assert "fusion" not in stats

    @pytest.mark.parametrize("raw,expected", [
        (None, False), ("", False), ("0", False), ("1", True),
        ("false", ValueError), ("off", ValueError), ("yes", ValueError)])
    def test_env_flag(self, monkeypatch, raw, expected):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        if raw is not None:
            monkeypatch.setenv("REPRO_METRICS", raw)
        # An explicit value wins over whatever the environment says.
        assert env_flag("METRICS", True) is True
        assert env_flag("METRICS", False) is False
        if expected is ValueError:
            with pytest.raises(ValueError) as info:
                MultiQueryRun(["X//a"])
            assert str(info.value) == \
                "REPRO_METRICS must be 0 or 1, got '{}'".format(raw)
        else:
            assert env_flag("METRICS") is expected


class TestQueriesAgainstOracle:
    """Differential tests beyond the paper's nine queries."""

    @pytest.mark.parametrize("query", [
        "X//item",
        "X//item/location",
        "X//europe/item",
        "X//*",
        'X//item[location="Albania"]',
        'X//item[location!="Albania"]/location',
        'X//item[quantity>"4"]/quantity',
        'X//item[quantity<="5"]/quantity',
        "X//item[payment]/quantity",
        "count(X//regions/*)",
        "count(X//*)",
        "sum(X//quantity)",
        "avg(X//quantity)",
        "<wrap>{ X//asia//location }</wrap>",
        "for $i in X//item return $i/location",
        'for $i in X//item where $i/payment = "Cash" return $i/quantity',
        "for $i in X//item order by $i/quantity return $i/quantity",
        ("for $i in X//item order by $i/quantity descending "
         "return $i/quantity"),
        ("for $i in X//europe/item order by $i/location "
         "return ($i/location/text(), ';')"),
        "<out>{ for $i in X//item return <q>{ $i/quantity }</q> }</out>",
        "count(X//item/ancestor::regions)",
        'X//item[location="Nowhere"]/quantity',
    ])
    def test_matches_naive(self, query, auction_xml):
        assert_query_matches_naive(query, auction_xml)

    @pytest.mark.parametrize("query", [
        "D//inproceedings/title",
        'D//inproceedings[year="1999"]/title',
        ('for $d in D//inproceedings order by $d/title '
         'return $d/title/text()'),
        "count(D//author)",
    ])
    def test_bib_queries(self, query, bib_xml):
        assert_query_matches_naive(query, bib_xml)

    def test_recursive_descendants(self, recursive_xml):
        assert_query_matches_naive("X//part", recursive_xml)
        assert_query_matches_naive("count(X//part//part)", recursive_xml)

    def test_empty_result_is_empty_string(self, auction_xml):
        assert flux_result("X//nothing", auction_xml) == ""


class TestNestedFLWOR:
    def test_flattening_nested_for(self, auction_xml):
        # A nested FLWOR that is the whole return clause re-tuples.
        assert_query_matches_naive(
            "for $r in X//europe return for $i in $r/item "
            "return $i/location", auction_xml)

    def test_nested_for_with_outer_where(self, auction_xml):
        assert_query_matches_naive(
            'for $r in X//regions return for $i in $r/europe '
            'where $i/item return $i/item', auction_xml)

    def test_outer_variable_in_inner_rejected(self):
        with pytest.raises(CompileError):
            XFlux("for $g in X//g return for $x in $g/x "
                  "return ($g/n/text(), $x)").compile()

    def test_flwor_inside_per_tuple_constructor_rejected(self):
        with pytest.raises(CompileError):
            XFlux("for $g in X//g return "
                  "<grp>{ for $x in $g/x return $x }</grp>").compile()


class TestLetClauses:
    DOC = ("<r><b><t>X</t><p>3</p></b>"
           "<b><t>Y</t><p>1</p></b></r>")

    def test_let_binds_relative_path(self):
        assert_query_matches_naive(
            "for $b in X//b let $t := $b/t return ($t, $b/p)", self.DOC)

    def test_chained_lets(self):
        assert_query_matches_naive(
            "for $b in X//b let $t := $b/t let $v := $t/text() "
            "return <e>{ $v }</e>", self.DOC)

    def test_let_with_order_by(self):
        assert_query_matches_naive(
            "for $b in X//b let $t := $b/t order by $b/p "
            "return $t/text()", self.DOC)

    def test_let_with_where(self, auction_xml):
        assert_query_matches_naive(
            'for $i in X//item let $l := $i/location '
            'where $i/payment = "Cash" return $l', auction_xml)

    def test_let_scoping_restored(self):
        # The binding does not leak past the FLWOR.
        q = ("for $a in X//b let $x := $a/t return $x")
        from repro import XFlux
        XFlux(q).run_xml(self.DOC)  # compiles and runs without residue
        with pytest.raises(CompileError):
            XFlux("$x/t").compile()
