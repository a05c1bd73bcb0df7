"""Fidelity tests: the paper's concrete pseudo-code behaviours, verbatim.

Each test transcribes a behaviour the paper states explicitly — worked
examples, operator output shapes, wrapper state rules — and checks the
implementation reproduces it (modulo the documented deviations: fresh
region numbers where the paper's examples reuse them inconsistently).
"""

from repro.core import Collector, Context, Display, Pipeline, apply_updates
from repro.core.transformer import run_sequence
from repro.core.wrapper import UpdateWrapper
from repro.events import CD, loads
from repro.operators import ChildStep, Concat, CountItems, DescendantStep
from repro.operators.aggregate import CountState
from repro.xmlio import tokenize, write_events


class TestSectionII:
    """Simple XML streams and the /tag state modifier."""

    def test_name_element_tokenization(self):
        # "<name>Smith</name> is tokenized into the event sequence
        #  [sE(0,"name"), cD(0,"Smith"), eE(0,"name")]"
        events = tokenize("<name>Smith</name>")
        assert [e.abbrev for e in events[1:-1]] == ["sE", "cD", "eE"]
        assert events[2].text == "Smith"

    def test_tag_step_is_inert(self, ctx):
        # "The state transformer of /tag is inert because, for properly
        #  nested XML elements, the final values of depth and pass are
        #  restored to their starting values."
        step = ChildStep(ctx, 0, ctx.fresh_id(), "tag")
        initial = step.state.copy()
        run_sequence(step, tokenize("<r><tag>a</tag><o><tag>b</tag></o>"
                                    "</r>")[1:-1])
        assert step.state == initial


class TestSectionIII:
    """Update streams: the worked replace/insert example."""

    def test_worked_example_result(self):
        # "After the updates are applied, the result is equivalent to the
        #  sequence [cD(0,"w"), cD(0,"y"), cD(0,"z")]."
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) '
               'sR(1,2) cD(2,"y") eR(1,2) '
               'sA(2,3) cD(3,"z") eA(2,3) '
               'sB(1,3) cD(3,"w") eB(1,3) eS(0)')
        out = apply_updates(loads(src))
        assert [(e.kind, e.id, e.text) for e in out] == \
            [(CD, 0, "w"), (CD, 0, "y"), (CD, 0, "z")]

    def test_count_emission_shape(self, ctx):
        # "F(e) sends continuous updates on the count value, starting
        #  with 0 and sending a replacement update with the new counter
        #  value on each [item]."
        out_id = ctx.fresh_id()
        col = Collector()
        Pipeline(ctx, [CountItems(ctx, 0, out_id)], col).run(
            loads('sS(0) sE(0,"a") eE(0,"a") eS(0)'))
        shapes = [e.abbrev for e in col.events]
        assert shapes == ["sS", "sM", "cD", "eM",      # initial 0
                          "sR", "cD", "eR",            # replacement 1
                          "eS"]
        texts = [e.text for e in col.events if e.kind == CD]
        assert texts == ["0", "1"]


class TestSectionIV:
    """The wrapper's state bookkeeping rules."""

    def _wrapped_count(self, ctx):
        t = CountItems(ctx, 0, ctx.fresh_id())
        return UpdateWrapper(t)

    def test_sM_copies_end_state(self, ctx):
        # sM, sA: start[uid] <- end[id]; end[uid] <- end[id]
        w = self._wrapped_count(ctx)
        for e in loads('sS(0) sE(0,"a") eE(0,"a") sM(0,7)'):
            w.dispatch(e)
        assert w.region(7).start == w.region(7).end
        assert w.region(7).start.count == 1  # the count so far

    def test_sR_copies_start_state(self, ctx):
        # sR, sB: start[uid] <- start[id]; end[uid] <- start[id]
        w = self._wrapped_count(ctx)
        for e in loads('sS(0) sM(0,7) sE(7,"a") eE(7,"a") eM(0,7) '
                       'sE(0,"b") eE(0,"b") sR(7,8)'):
            w.dispatch(e)
        assert w.region(8).start.count == 0  # the count *before* region 7
        assert w.region(8).end == w.region(8).start

    def test_hide_moves_end_to_shadow(self, ctx):
        # hide(uid): shadow[uid] <- end[uid]; end[uid] <- start[uid]
        w = self._wrapped_count(ctx)
        for e in loads('sS(0) sM(0,7) sE(7,"a") eE(7,"a") eM(0,7)'):
            w.dispatch(e)
        end_before = w.region(7).end
        for e in loads("hide(7)"):
            w.dispatch(e)
        assert w.region(7).shadow == end_before
        assert w.region(7).end == w.region(7).start

    def test_show_restores_shadow(self, ctx):
        w = self._wrapped_count(ctx)
        for e in loads('sS(0) sM(0,7) sE(7,"a") eE(7,"a") eM(0,7) '
                       'hide(7)'):
            w.dispatch(e)
        shadow = w.region(7).shadow
        for e in loads("show(7)"):
            w.dispatch(e)
        assert w.region(7).end == shadow
        assert w.region(7).shadow is None

    def test_count_adjustment_formula(self, ctx):
        # "count <- count + (s2.count - s1.count)"
        t = CountItems(ctx, 0, ctx.fresh_id())
        got = t.adjust(CountState(10), CountState(3), CountState(5))
        assert got.values() == (12, 0)


class TestSectionV:
    def test_freeze_removes_states(self, ctx):
        # "when a state transformer sees that a fix[id] is true, it
        #  removes the states for id"
        w = UpdateWrapper(CountItems(ctx, 0, ctx.fresh_id()))
        for e in loads('sS(0) sM(0,7) sE(7,"a") eE(7,"a") eM(0,7)'):
            w.dispatch(e)
        assert w.region(7).end is not None
        for e in loads("freeze(7)"):
            w.dispatch(e)
        assert w.region(7) is None  # the record is the states
        assert ctx.fix.is_fixed(7)

    def test_updates_to_fixed_ids_are_void(self, ctx):
        out_id = ctx.fresh_id()
        disp = Display(out_id)
        pipe = Pipeline(ctx, [CountItems(ctx, 0, out_id)], disp)
        pipe.run(loads('sS(0) sM(0,7) sE(7,"a") eE(7,"a") eM(0,7) '
                       'freeze(7) sR(7,8) sE(8,"b") eE(8,"b") '
                       'sE(8,"c") eE(8,"c") eR(7,8) eS(0)'))
        assert disp.text() == "1"


class TestSectionVI:
    def test_concat_example(self, ctx):
        # VI-A: the example's streams, via the actual operator: tuples of
        # the two streams interleave; the result is left-then-right.
        out = ctx.fresh_id()
        disp = Display(out)
        Pipeline(ctx, [Concat(ctx, 0, 1, out)], disp).run(loads(
            'sS(0) sS(1) sT(0) sT(1) cD(0,"x") cD(1,"y") cD(0,"z") '
            'cD(1,"w") eT(0) eT(1) eS(0) eS(1)'))
        assert disp.text() == "xzyw"

    def test_descendant_example(self, ctx):
        # VI-C: //* over <a><b><c><d>X</d><d>Y</d></c></b>
        #                <b><c><d>Z</d></c></b></a>, postorder.
        out = ctx.fresh_id()
        disp = Display(out)
        Pipeline(ctx, [DescendantStep(ctx, 0, out, None)], disp).run(
            tokenize("<a><b><c><d>X</d><d>Y</d></c></b>"
                     "<b><c><d>Z</d></c></b></a>"))
        assert disp.text() == ("<d>X</d><d>Y</d><c><d>X</d><d>Y</d></c>"
                               "<b><c><d>X</d><d>Y</d></c></b>"
                               "<d>Z</d><c><d>Z</d></c>"
                               "<b><c><d>Z</d></c></b>")

    def test_descendant_operator_state_is_depth_bounded(self, ctx):
        # VI-C: the operator's own state is the depth and the per-level
        # ids — never buffered events.
        deep = "<r>" + "<p>" * 30 + "x" + "</p>" * 30 + "</r>"
        step = DescendantStep(ctx, 0, ctx.fresh_id(), None)
        max_levels = 0
        for e in tokenize(deep):
            if not e.is_update and e.id == 0:
                step.process(e, step.output_id)
                max_levels = max(max_levels, len(step.state.levels))
        assert max_levels == 30  # one entry per open level, nothing else
