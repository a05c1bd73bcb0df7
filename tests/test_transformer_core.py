"""Tests for the transformer base, context, and mutability registry."""

import pytest

from repro.core import (Collector, Context, Drop, Identity,
                        MutabilityRegistry, Pipeline, Relabel)
from repro.core.transformer import run_sequence
from repro.events import cdata, loads


class TestMutabilityRegistry:
    def test_unknown_ids_are_fixed(self):
        fix = MutabilityRegistry()
        assert fix.is_fixed(7)

    def test_declare_mutable(self):
        fix = MutabilityRegistry()
        fix.declare_mutable(7)
        assert not fix.is_fixed(7)
        assert fix.live_count() == 1

    def test_freeze(self):
        fix = MutabilityRegistry()
        fix.declare_mutable(7)
        fix.freeze(7)
        assert fix.is_fixed(7)

    def test_inherit_propagates_mutability(self):
        fix = MutabilityRegistry()
        fix.declare_mutable(1)
        fix.inherit(1, 2)
        assert not fix.is_fixed(2)
        fix.inherit(99, 3)  # fixed target: new id stays fixed
        assert fix.is_fixed(3)

    def test_ignored_streams_stay_fixed(self):
        fix = MutabilityRegistry()
        fix.ignored_streams.add(5)
        fix.declare_mutable(5)
        assert fix.is_fixed(5)

    def test_redeclare_after_freeze(self):
        fix = MutabilityRegistry()
        fix.declare_mutable(1)
        fix.freeze(1)
        fix.declare_mutable(1)
        assert not fix.is_fixed(1)


class TestContext:
    def test_fresh_ids_unique(self):
        ctx = Context()
        assert ctx.fresh_id() != ctx.fresh_id()

    def test_default_components(self):
        ctx = Context()
        assert ctx.fix.is_fixed(123)


class TestSimpleTransformers:
    def test_identity(self, ctx):
        t = Identity(ctx, (0,), 0)
        evs = loads('sE(0,"a") cD(0,"x") eE(0,"a")')
        assert run_sequence(t, evs) == evs

    def test_relabel(self, ctx):
        t = Relabel(ctx, (0,), 9)
        out = run_sequence(t, [cdata(0, "x")])
        assert out[0].id == 9

    def test_drop(self, ctx):
        t = Drop(ctx, (0,), 0)
        assert run_sequence(t, [cdata(0, "x")]) == []

    def test_foreign_events_pass_through(self, ctx):
        t = Drop(ctx, (0,), 0)
        evs = [cdata(5, "keep")]
        assert run_sequence(t, evs) == evs


class TestPipelinePlumbing:
    def test_empty_pipeline_reaches_sink(self, ctx):
        col = Collector()
        pipe = Pipeline(ctx, [], col)
        evs = loads('sS(0) cD(0,"x") eS(0)')
        pipe.run(evs)
        assert col.events == evs

    def test_depth_first_ordering(self, ctx):
        # A stage emitting [a, b] must deliver a through the entire rest
        # of the chain before b (the paper's push-based dispatch).
        order = []

        class Dup(Identity):
            def process(self, e):
                return [e, e.relabel(e.id)]

        class Spy(Identity):
            def process(self, e):
                order.append(e.text)
                return [e]

        class TagSink:
            def process(self, e):
                order.append("sink:" + (e.text or ""))

        pipe = Pipeline(ctx, [Dup(ctx, (0,), 0), Spy(ctx, (0,), 0)],
                        TagSink())
        pipe.feed(cdata(0, "x"))
        assert order == ["x", "sink:x", "x", "sink:x"]

    def test_failed_feed_leaves_no_work_behind(self, ctx):
        # A stage emitted [a, b] and a failed downstream: b was still
        # waiting its turn.  It must die with the failed feed, not run
        # ahead of the next one (a quarantined or sanitizer-stopped
        # pipeline may be fed again, e.g. to flush it).
        class Dup(Identity):
            def process(self, e):
                return [e, e.relabel(e.id)]

        class Fuse(Identity):
            def process(self, e):
                if e.text == "boom":
                    raise RuntimeError("boom")
                return [e]

        col = Collector()
        pipe = Pipeline(ctx, [Dup(ctx, (0,), 0), Fuse(ctx, (0,), 0)], col)
        with pytest.raises(RuntimeError):
            pipe.feed(cdata(0, "boom"))
        pipe.feed(cdata(0, "ok"))
        assert [e.text for e in col.events] == ["ok", "ok"]

    def test_finish_flushes_on_end(self, ctx):
        class Flusher(Identity):
            def on_end(self):
                return [cdata(self.output_id, "flushed")]

        col = Collector()
        pipe = Pipeline(ctx, [Flusher(ctx, (0,), 0)], col)
        pipe.run([])
        assert [e.text for e in col.events] == ["flushed"]

    def test_finish_is_idempotent(self, ctx):
        col = Collector()
        pipe = Pipeline(ctx, [], col)
        pipe.run([])
        pipe.finish()
        assert col.events == []

    def test_call_accounting(self, ctx):
        col = Collector()
        pipe = Pipeline(ctx, [Identity(ctx, (0,), 0),
                              Identity(ctx, (0,), 0)], col)
        pipe.run(loads('sS(0) cD(0,"a") eS(0)'))
        assert pipe.total_calls() == 6  # 3 events x 2 stages


class TestFilterChain:
    def test_paper_style_filter_chain(self, ctx):
        from repro.core import build_filter_chain
        seen = []
        chain = build_filter_chain([Relabel(ctx, (0,), 1)], seen.append)
        for e in loads('sS(0) cD(0,"x") eS(0)'):
            chain.dispatch(e)
        chain.finish()
        assert [e.id for e in seen] == [1, 1, 1]
