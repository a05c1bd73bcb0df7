"""Tests for the generic update wrapper ``W`` (paper Section IV/V)."""

import pytest

from repro.core import Collector, Context, Display, Pipeline
from repro.core.transformer import StateTransformer
from repro.core.wrapper import UpdatePolicy, UpdateWrapper
from repro.events import loads
from repro.operators import ChildStep, CountItems, Tee
from tests.helpers import assert_nesting_tree_consistent


def run_count(ctx, src, input_id=0):
    out_id = ctx.ids.reserve(900)
    disp = Display(out_id)
    pipe = Pipeline(ctx, [CountItems(ctx, input_id, out_id)], disp)
    pipe.run(loads(src))
    return disp, pipe


class TestStateCopies:
    def test_count_sees_replacement_delta(self, ctx):
        # Replace one element by two: the count must go 1 -> 2.
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"

    def test_count_sees_empty_replacement(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sE(0,"k") eE(0,"k") sR(1,2) eR(1,2) eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "1"

    def test_insert_after_adds(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sA(1,2) sE(2,"b") eE(2,"b") eA(1,2) eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"

    def test_hide_subtracts_show_restores(self, ctx):
        base = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
                'sM(0,2) sE(2,"b") eE(2,"b") eM(0,2) {} eS(0)')
        disp, _ = run_count(ctx, base.format("hide(1)"))
        assert disp.text() == "1"
        ctx2 = Context()
        disp, _ = run_count(ctx2, base.format("hide(1) show(1)"))
        assert disp.text() == "2"

    def test_cascaded_replacement_counts_latest(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) eR(1,2) '
               'sR(2,3) sE(3,"x") eE(3,"x") sE(3,"y") eE(3,"y") eR(2,3) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "2"


class TestMutabilityAnalysis:
    def test_freeze_drops_wrapper_state(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) freeze(1) eS(0)')
        disp, pipe = run_count(ctx, src)
        w = pipe.wrappers[0]
        assert w.live_regions() == 0
        assert disp.text() == "1"

    def test_frozen_region_updates_ignored(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) freeze(1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, _ = run_count(ctx, src)
        assert disp.text() == "1"

    def test_ignored_stream_processed_as_plain_content(self, ctx):
        # The consumer opted out of updates for this stream: the mutable
        # region's content counts, later updates are void (Section V).
        ctx.fix.ignored_streams.add(1)
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sR(1,2) sE(2,"b") eE(2,"b") sE(2,"c") eE(2,"c") eR(1,2) '
               'eS(0)')
        disp, pipe = run_count(ctx, src)
        assert disp.text() == "1"
        assert pipe.wrappers[0].live_regions() == 0

    def test_peak_state_counting(self, ctx):
        src = ('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) '
               'sM(0,2) sE(2,"b") eE(2,"b") eM(0,2) eS(0)')
        _, pipe = run_count(ctx, src)
        assert pipe.wrappers[0].peak_states >= 3  # live + two regions


class TestPolicies:
    def test_tee_duplicates_brackets_with_fresh_ids(self, ctx):
        copy_id = ctx.ids.reserve(40)
        col = Collector()
        pipe = Pipeline(ctx, [Tee(ctx, 0, copy_id)], col)
        pipe.run(loads('sS(0) sM(0,1) cD(1,"x") eM(0,1) eS(0)'))
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 2
        assert starts[0].sub == 1          # original preserved
        assert starts[1].sub != 1          # copy renumbered
        assert starts[1].id == copy_id
        # Copied content carries the copy region's number.
        texts = [(e.id, e.text) for e in col.events if e.text]
        assert (1, "x") in texts
        assert (starts[1].sub, "x") in texts

    def test_translate_renumbers_brackets(self, ctx):
        out_id = ctx.ids.reserve(41)
        col = Collector()
        pipe = Pipeline(ctx, [ChildStep(ctx, 0, out_id, "b")], col)
        pipe.run(loads(
            'sS(0) sE(0,"r") sM(0,1) sE(1,"b") cD(1,"x") eE(1,"b") '
            'eM(0,1) eE(0,"r") eS(0)'))
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 1
        assert starts[0].id == out_id
        assert starts[0].sub != 1

    def test_consume_emits_no_brackets(self, ctx):
        out_id = ctx.ids.reserve(42)
        col = Collector()
        pipe = Pipeline(ctx, [CountItems(ctx, 0, out_id)], col)
        pipe.run(loads('sS(0) sM(0,1) sE(1,"a") eE(1,"a") eM(0,1) eS(0)'))
        # Only the counter's own output region appears, not the input's.
        starts = [e for e in col.events if e.abbrev == "sM"]
        assert len(starts) == 1
        assert starts[0].id == out_id


class TestAdjustLaws:
    """The paper's three adjust properties, on the count transformer."""

    def _make(self, ctx):
        return CountItems(ctx, 0, ctx.ids.reserve(43))

    def test_identity_law(self, ctx):
        # adjust(s1, s2, s2) == s1
        t = self._make(ctx)
        s1, s2 = (5, 0), (9, 0)
        assert t.adjust(s1, s2, s2) == s1

    def test_replacement_law(self, ctx):
        # adjust(s1, s1, s2) == s2
        t = self._make(ctx)
        s1, s2 = (5, 0), (9, 0)
        assert t.adjust(s1, s1, s2) == s2

    def test_commutation_law(self, ctx):
        # adjust(f*(v, s1), s2, s3) == f*(v, adjust(s1, s2, s3))
        from repro.core.transformer import run_sequence
        v = loads('sE(0,"a") eE(0,"a") sE(0,"b") eE(0,"b")')

        def f_star(state):
            t = self._make(Context())
            t.set_state(state)
            run_sequence(t, v)
            return t.get_state()

        t = self._make(ctx)
        s1, s2, s3 = (4, 0), (1, 0), (7, 0)
        assert t.adjust(f_star(s1), s2, s3) == f_star(t.adjust(s1, s2, s3))


class TestFreezeSplicesTheNestingTree:
    """freeze(uid) removes uid from the live nesting tree: its children
    move up to its nearest live ancestor and cached chains are redone."""

    NESTED = ('sS(0) sM(0,1) sE(1,"a") sM(1,2) sE(2,"b") sM(2,3) sE(3,"c") '
              'eE(3,"c") eM(2,3) eE(2,"b") eM(1,2) sM(1,4) sE(4,"d") '
              'eE(4,"d") eM(1,4) eE(1,"a") eM(0,1) ')

    def feed(self, ctx, src):
        out_id = ctx.ids.reserve(900)
        pipe = Pipeline(ctx, [CountItems(ctx, 0, out_id)], Display(out_id))
        for e in loads(src):
            pipe.feed(e)
        w = pipe.wrappers[0]
        assert_nesting_tree_consistent(w)
        return w

    @staticmethod
    def parents(w):
        return {uid: rec.parent and rec.parent.id
                for uid, rec in w.tracked.items() if rec.facet == 2}

    @staticmethod
    def children(w):
        return {uid: {kid.id for kid in rec.children}
                for uid, rec in w.tracked.items() if rec.children}

    def test_chain_is_the_live_enclosing_regions(self, ctx):
        w = self.feed(ctx, self.NESTED)
        assert w.region(3).chain == (3, 2, 1)
        assert self.children(w) == {1: {2, 4}, 2: {3}}

    def test_outer_freeze_reparents_children(self, ctx):
        w = self.feed(ctx, self.NESTED + "freeze(1)")
        assert self.parents(w) == {2: None, 3: 2, 4: None}
        assert self.children(w) == {2: {3}}
        # Chains cached while region 1 was live are gone with it.
        assert [w.region(k).chain for k in (2, 3, 4)] == [None] * 3
        assert w._region_chain(w.region(3)) == (3, 2)

    def test_middle_freeze_splices_grandchild_onto_grandparent(self, ctx):
        w = self.feed(ctx, self.NESTED + "freeze(2)")
        assert self.parents(w) == {1: None, 3: 1, 4: 1}
        assert self.children(w) == {1: {3, 4}}
        assert w.region(2) is None and w.region(3).chain is None
        assert w._region_chain(w.region(3)) == (3, 1)
        # Not below the frozen region: its cached chain stays.
        assert w.region(4).chain == (4, 1)

    def test_leaf_freeze_drops_the_empty_child_set(self, ctx):
        w = self.feed(ctx, self.NESTED + "freeze(3)")
        assert self.parents(w) == {1: None, 2: 1, 4: 1}
        assert self.children(w) == {1: {2, 4}}
        assert w.region(2).children is None

    def test_freezing_everything_leaves_no_entry(self, ctx):
        w = self.feed(ctx, self.NESTED + "freeze(1) freeze(3) freeze(2) "
                                         "freeze(4)")
        assert set(w.tracked) == set(w.input_ids)
        assert w.region_entries() == 1  # the shared live record

    def test_ablation_keeps_the_record_but_not_the_tree_links(self, ctx):
        # reclaim_on_freeze=False: the record stays in ``tracked`` marked
        # kept, out of the nesting tree, and a repeated freeze is foreign.
        out_id = ctx.ids.reserve(900)
        w = UpdateWrapper(CountItems(ctx, 0, out_id), reclaim_on_freeze=False)
        for e in loads(self.NESTED + "freeze(2)"):
            w.dispatch(e)
        kept = w.region(2)
        assert kept.kept and kept.parent is None and kept.children is None
        assert kept.start is not None and w.live_regions() == 4
        assert self.parents(w) == {1: None, 2: None, 3: 1, 4: 1}
        assert_nesting_tree_consistent(w)
        again = loads("freeze(2)")[0]
        assert w.dispatch(again) == [again]

    def test_an_id_opened_again_is_still_one_record(self, ctx):
        # Sorting and concatenation move an item by inserting its region
        # anew under the id it already has: the record moves, with what
        # hangs on it, and nothing is left behind at the old place.
        w = self.feed(ctx, self.NESTED + 'sM(0,5) sE(5,"e") eE(5,"e") '
                                         'eM(0,5)')
        first = w.region(2)
        entries, start = w.region_entries(), w.region(5).start
        for e in loads('sB(5,2) sE(2,"f") eE(2,"f") eB(5,2)'):
            w.dispatch(e)
        assert w.region(2) is first
        # ... but for the order mirror, which the sB built: one entry
        # per region, the re-opened one's old timestamp not among them.
        assert w.region_entries() == entries + len(w._mirror) == entries + 5
        assert w.live_regions() == 5
        assert self.parents(w) == {1: None, 2: None, 3: 2, 4: 1, 5: None}
        assert self.children(w) == {1: {4}, 2: {3}}
        assert first.start == start  # sB: the target's start
        assert w.region(3).chain is None
        assert_nesting_tree_consistent(w)

    def test_bracket_end_names_the_target_its_start_did(self, ctx):
        # Target 1 freezes while its replacement 5 is still open: the
        # translated eR must close the bracket the translated sR opened.
        out_id = ctx.ids.reserve(900)
        collector = Collector()
        pipe = Pipeline(ctx, [ChildStep(ctx, 0, out_id, "a")], collector)
        for e in loads('sS(0) sE(0,"r") sM(0,1) sE(1,"a") eE(1,"a") '
                       'eM(0,1) sR(1,5) sE(5,"a") freeze(1) eE(5,"a") '
                       'eR(1,5) eE(0,"r") eS(0)'):
            pipe.feed(e)
        pipe.finish()
        starts = [e for e in collector.events if e.abbrev == "sR"]
        ends = [e for e in collector.events if e.abbrev == "eR"]
        assert [(e.id, e.sub) for e in starts] == \
            [(e.id, e.sub) for e in ends]


class _Journal(StateTransformer):
    """State = every event processed, in order; stream 1 is RAW."""

    def __init__(self, ctx):
        super().__init__(ctx, (1, 2), ctx.ids.reserve(900))
        self.seen = ()

    def update_policy(self, stream_id):
        return (UpdatePolicy.RAW if stream_id == 1
                else UpdatePolicy.TRANSLATE)

    def process(self, e):
        self.seen += (repr(e),)
        return []

    def get_state(self):
        return self.seen

    def set_state(self, state):
        self.seen = state


class TestRawPolicy:
    def test_state_written_by_a_raw_freeze_survives_the_next_swap(self, ctx):
        # process(freeze) may mutate state (SortTuples enqueues an
        # in-tuple freeze): the snapshot taken before it must not be
        # written back over it when region 20's content swaps states.
        t = _Journal(ctx)
        w = UpdateWrapper(t)
        for e in loads('sM(1,10) eM(1,10) sM(2,20) cD(20,"x") cD(1,"y") '
                       'sM(2,22) freeze(10) cD(20,"z") eM(2,22) eM(2,20)'):
            w.dispatch(e)
        w.on_end()  # loads the live state
        assert t.seen == tuple(repr(e) for e in loads(
            'sM(1,10) eM(1,10) cD(1,"y") freeze(10)'))
