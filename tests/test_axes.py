"""Tests for child/text/string-value steps."""

from repro.core import Collector, Display, Pipeline
from repro.core.transformer import run_sequence
from repro.events import CD, loads
from repro.operators import ChildStep, SelfStep, StringValue, TextStep
from repro.xmlio import tokenize, write_events


def run_step(ctx, step, xml, out_id):
    disp = Display(out_id)
    Pipeline(ctx, [step], disp).run(tokenize(xml))
    return disp.text()


class TestChildStep:
    def test_selects_matching_children_of_root(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, ChildStep(ctx, 0, out, "b"),
                        "<r><b>1</b><c>no</c><b>2</b></r>", out)
        assert text == "<b>1</b><b>2</b>"

    def test_does_not_select_grandchildren(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, ChildStep(ctx, 0, out, "b"),
                        "<r><c><b>deep</b></c></r>", out)
        assert text == ""

    def test_selected_subtree_complete(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, ChildStep(ctx, 0, out, "b"),
                        "<r><b>x<c>y</c>z</b></r>", out)
        assert text == "<b>x<c>y</c>z</b>"

    def test_wildcard(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, ChildStep(ctx, 0, out, None),
                        "<r><a>1</a><b>2</b></r>", out)
        assert text == "<a>1</a><b>2</b>"

    def test_same_tag_nested_not_reselected(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, ChildStep(ctx, 0, out, "b"),
                        "<r><b>x<b>inner</b></b></r>", out)
        assert text == "<b>x<b>inner</b></b>"

    def test_inert_state_restored(self, ctx):
        step = ChildStep(ctx, 0, ctx.ids.reserve(10), "b")
        before = step.state.copy()
        run_sequence(step, tokenize("<r><b>x</b></r>")[1:-1])
        assert step.state == before

    def test_composition(self, ctx):
        a, b = ctx.ids.reserve(10), ctx.ids.reserve(11)
        disp = Display(b)
        Pipeline(ctx, [ChildStep(ctx, 0, a, "x"),
                       ChildStep(ctx, a, b, "y")], disp).run(
            tokenize("<r><x><y>1</y></x><x><z><y>no</y></z></x></r>"))
        assert disp.text() == "<y>1</y>"


class TestTextStep:
    def test_selects_text_children(self, ctx):
        out = ctx.ids.reserve(10)
        disp = Display(out)
        Pipeline(ctx, [ChildStep(ctx, 0, 5, "b"),
                       TextStep(ctx, 5, out)], disp).run(
            tokenize("<r><b>keep<c>skip</c>also</b></r>"))
        assert disp.text() == "keepalso"

    def test_ignores_nested_text(self, ctx):
        out = ctx.ids.reserve(10)
        text = run_step(ctx, TextStep(ctx, 0, out),
                        "<r><a>deep</a></r>", out)
        assert text == ""


class TestSelfStep:
    def test_relabels_everything(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [SelfStep(ctx, 0, out)], col).run(
            tokenize("<a>x</a>"))
        assert all(e.id == out for e in col.events)


class TestStringValue:
    def test_element_string_value_concatenates_descendants(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [StringValue(ctx, 0, out)], col).run(
            loads('sS(0) sE(0,"a") cD(0,"x") sE(0,"b") cD(0,"y") '
                  'eE(0,"b") cD(0,"z") eE(0,"a") eS(0)'))
        values = [e.text for e in col.events if e.kind == CD]
        assert values == ["xyz"]

    def test_one_value_per_item(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [StringValue(ctx, 0, out)], col).run(
            loads('sS(0) sE(0,"a") cD(0,"1") eE(0,"a") '
                  'sE(0,"a") cD(0,"2") eE(0,"a") eS(0)'))
        values = [e.text for e in col.events if e.kind == CD]
        assert values == ["1", "2"]

    def test_bare_top_level_text_passes(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [StringValue(ctx, 0, out)], col).run(
            loads('sS(0) cD(0,"plain") eS(0)'))
        values = [e.text for e in col.events if e.kind == CD]
        assert values == ["plain"]

    def test_empty_element_yields_empty_value(self, ctx):
        out = ctx.ids.reserve(10)
        col = Collector()
        Pipeline(ctx, [StringValue(ctx, 0, out)], col).run(
            loads('sS(0) sE(0,"a") eE(0,"a") eS(0)'))
        values = [e.text for e in col.events if e.kind == CD]
        assert values == [""]
