"""Tests for the descendant step (//*, //tag) — paper Section VI-C."""

from repro.core import Collector, Display, Pipeline
from repro.core.transformer import run_sequence
from repro.events import UPDATE_STARTS, check_stream, loads
from repro.operators import DescendantStep
from repro.xmlio import tokenize


def descend(ctx, xml, tag):
    out = ctx.ids.reserve(10)
    disp = Display(out)
    Pipeline(ctx, [DescendantStep(ctx, 0, out, tag)], disp).run(
        tokenize(xml))
    return disp


class TestWildcard:
    def test_paper_example_postorder(self, ctx):
        # Section VI-C: //* over <a><b><c><d>X</d><d>Y</d></c></b>
        #                        <b><c><d>Z</d></c></b></a>
        disp = descend(ctx, "<a><b><c><d>X</d><d>Y</d></c></b>"
                            "<b><c><d>Z</d></c></b></a>", None)
        assert disp.text() == ("<d>X</d><d>Y</d><c><d>X</d><d>Y</d></c>"
                               "<b><c><d>X</d><d>Y</d></c></b>"
                               "<d>Z</d><c><d>Z</d></c>"
                               "<b><c><d>Z</d></c></b>")

    def test_root_excluded(self, ctx):
        disp = descend(ctx, "<a><b>x</b></a>", None)
        assert disp.text() == "<b>x</b>"

    def test_top_level_text_dropped(self, ctx):
        out = ctx.ids.reserve(10)
        disp = Display(out)
        Pipeline(ctx, [DescendantStep(ctx, 0, out, None)], disp).run(
            loads('sS(0) sE(0,"a") cD(0,"loose") sE(0,"b") cD(0,"in") '
                  'eE(0,"b") eE(0,"a") eS(0)'))
        assert disp.text() == "<b>in</b>"


class TestTagged:
    def test_non_recursive_matches_document_order(self, ctx):
        disp = descend(ctx, "<r><a><item>1</item></a><item>2</item></r>",
                       "item")
        assert disp.text() == "<item>1</item><item>2</item>"

    def test_recursive_nesting_postorder(self, ctx, recursive_xml):
        disp = descend(ctx, recursive_xml, "part")
        assert disp.text() == ("<part>c</part><part>b<part>c</part></part>"
                               "<part>a<part>b<part>c</part></part></part>"
                               "<part>d</part><part>e</part>")

    def test_no_matches(self, ctx):
        disp = descend(ctx, "<r><a>x</a></r>", "zzz")
        assert disp.text() == ""

    def test_non_recursive_emits_no_insert_updates(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [DescendantStep(ctx, 0, out, "item")], col).run(
            tokenize("<r><item>1</item><item>2</item></r>"))
        # Only the (immediately frozen) empty anchors, no insert-befores:
        # the paper's "as efficient as /tag".
        assert not any(e.abbrev in ("sB", "sA", "sR") for e in col.events)

    def test_recursive_emits_insert_before(self, ctx, recursive_xml):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [DescendantStep(ctx, 0, out, "part")], col).run(
            tokenize(recursive_xml))
        assert any(e.abbrev == "sB" for e in col.events)

    def test_generated_regions_frozen(self, ctx, recursive_xml):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [DescendantStep(ctx, 0, out, "part")], col).run(
            tokenize(recursive_xml))
        opened = {e.sub for e in col.events if e.kind in UPDATE_STARTS}
        frozen = {e.id for e in col.events if e.abbrev == "freeze"}
        assert opened <= frozen

    def test_output_brackets_nest(self, ctx, recursive_xml):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [DescendantStep(ctx, 0, out, "part")], col).run(
            tokenize(recursive_xml))
        check_stream(col.events)


class TestInertness:
    def test_state_restored_after_document(self, ctx):
        step = DescendantStep(ctx, 0, ctx.ids.reserve(10), None)
        before = step.state.copy()
        run_sequence(step, tokenize("<a><b><c>x</c></b></a>")[1:-1])
        assert step.state == before

    def test_composes_with_itself(self, ctx):
        # //a//b
        a, b = ctx.ids.reserve(10), ctx.ids.reserve(11)
        disp = Display(b)
        Pipeline(ctx, [DescendantStep(ctx, 0, a, "sec"),
                       DescendantStep(ctx, a, b, "p")], disp).run(
            tokenize("<doc><sec><p>1</p><div><p>2</p></div></sec>"
                     "<p>outside</p></doc>"))
        assert disp.text() == "<p>1</p><p>2</p>"
