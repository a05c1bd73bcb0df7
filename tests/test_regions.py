"""Tests for the region tree — the update-application semantics (§III)."""

from repro.core import RegionTree, apply_updates
from repro.events import loads
from repro.xmlio import write_events


def applied_text(src, **kwargs):
    return write_events(apply_updates(loads(src), **kwargs))


class TestPaperExamples:
    def test_section3_worked_example(self):
        # Replace "x" by "y", insert "z" after the replacement, insert "w"
        # before the (already replaced) region: result w y z.
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) sR(1,2) cD(2,"y") eR(1,2) '
               'sA(2,3) cD(3,"z") eA(2,3) sB(1,3) cD(3,"w") eB(1,3) eS(0)')
        out = apply_updates(loads(src))
        assert [(e.id, e.text) for e in out] == [(0, "w"), (0, "y"),
                                                 (0, "z")]

    def test_concatenation_example(self):
        # Section VI-A: left stream 0 routed before right stream 1.
        src = ('sT(2) sM(2,1) sB(1,0) cD(0,"x") cD(1,"y") cD(0,"z") '
               'cD(1,"w") eB(1,0) eM(2,1) eT(2)')
        out = apply_updates(loads(src))
        assert [e.text for e in out] == ["x", "z", "y", "w"]

    def test_descendant_example(self):
        # Section VI-C traced with fresh ids (see DESIGN.md).
        src = ('sS(0) sM(0,1) sE(1,"b") sE(1,"c") sB(1,2) sE(2,"c") '
               'cD(1,"x") cD(2,"x") eE(2,"c") eB(1,2) eE(1,"c") '
               'eE(1,"b") eM(0,1) eS(0)')
        assert applied_text(src) == "<c>x</c><b><c>x</c></b>"


class TestReplacement:
    def test_replace_keeps_position(self):
        src = ('sS(0) cD(0,"a") sM(0,1) cD(1,"b") eM(0,1) cD(0,"c") '
               'sR(1,2) cD(2,"B") eR(1,2) eS(0)')
        assert applied_text(src) == "aBc"

    def test_cascaded_replacements_latest_wins(self):
        src = ('sS(0) sM(0,1) cD(1,"v1") eM(0,1) '
               'sR(1,2) cD(2,"v2") eR(1,2) sR(2,3) cD(3,"v3") eR(2,3) '
               'eS(0)')
        assert applied_text(src) == "v3"

    def test_re_replacing_original_region(self):
        # Replacing region 1 twice: the second replacement discards the
        # first entirely.
        src = ('sS(0) sM(0,1) cD(1,"v1") eM(0,1) '
               'sR(1,2) cD(2,"v2") eR(1,2) sR(1,3) cD(3,"v3") eR(1,3) '
               'eS(0)')
        assert applied_text(src) == "v3"

    def test_delete_by_empty_replacement(self):
        src = 'sS(0) cD(0,"a") sM(0,1) cD(1,"b") eM(0,1) sR(1,2) eR(1,2) eS(0)'
        assert applied_text(src) == "a"

    def test_replacement_with_elements(self):
        src = ('sS(0) sM(0,1) sE(1,"old") eE(1,"old") eM(0,1) '
               'sR(1,2) sE(2,"new") cD(2,"t") eE(2,"new") eR(1,2) eS(0)')
        assert applied_text(src) == "<new>t</new>"


class TestInserts:
    def test_insert_before_and_after(self):
        src = ('sS(0) sM(0,1) cD(1,"m") eM(0,1) '
               'sB(1,2) cD(2,"l") eB(1,2) sA(1,3) cD(3,"r") eA(1,3) eS(0)')
        assert applied_text(src) == "lmr"

    def test_repeated_insert_before_preserves_arrival_order(self):
        src = ('sS(0) sM(0,1) cD(1,"m") eM(0,1) '
               'sB(1,2) cD(2,"a") eB(1,2) sB(1,3) cD(3,"b") eB(1,3) eS(0)')
        assert applied_text(src) == "abm"

    def test_repeated_insert_after_stacks_backwards(self):
        src = ('sS(0) sM(0,1) cD(1,"m") eM(0,1) '
               'sA(1,2) cD(2,"a") eA(1,2) sA(1,3) cD(3,"b") eA(1,3) eS(0)')
        assert applied_text(src) == "mba"

    def test_update_id_reuse_targets_latest(self):
        # The paper: "only the latest one is active and open for updates".
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) '
               'sA(1,3) cD(3,"z") eA(1,3) sB(1,3) cD(3,"w") eB(1,3) '
               'sA(3,4) cD(4,"!") eA(3,4) eS(0)')
        # The second region numbered 3 ("w") is the active one, so the
        # insert-after lands after "w".
        assert applied_text(src) == "w!xz"


class TestVisibility:
    def test_hide_and_show(self):
        src_hide = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) eS(0)')
        assert applied_text(src_hide) == ""
        src_show = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) show(1) eS(0)')
        assert applied_text(src_show) == "x"

    def test_hide_is_idempotent(self):
        src = 'sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) hide(1) show(1) eS(0)'
        assert applied_text(src) == "x"

    def test_hidden_region_still_updatable(self):
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) '
               'sR(1,2) cD(2,"y") eR(1,2) show(1) eS(0)')
        assert applied_text(src) == "y"


class TestFreeze:
    def test_freeze_seals_against_updates(self):
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) freeze(1) '
               'sR(1,2) cD(2,"y") eR(1,2) eS(0)')
        assert applied_text(src) == "x"

    def test_freeze_hidden_region_discards_content(self):
        src = 'sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) freeze(1) eS(0)'
        tree = RegionTree()
        tree.process_all(loads(src))
        assert write_events(tree.flatten()) == ""
        # The discarded region is gone from the bookkeeping entirely.
        assert tree.stats()["regions"] == 1  # only the stream root

    def test_freeze_visible_region_dissolves(self):
        src = ('sS(0) cD(0,"a") sM(0,1) cD(1,"b") eM(0,1) freeze(1) '
               'cD(0,"c") eS(0)')
        tree = RegionTree()
        tree.process_all(loads(src))
        assert write_events(tree.flatten()) == "abc"
        assert tree.stats()["regions"] == 1

    def test_region_id_reusable_after_freeze(self):
        src = ('sS(0) sM(0,1) cD(1,"x") eM(0,1) freeze(1) '
               'sM(0,1) cD(1,"y") eM(0,1) sR(1,2) cD(2,"Y") eR(1,2) eS(0)')
        assert applied_text(src) == "xY"


class TestRobustness:
    def test_updates_to_unknown_targets_ignored(self):
        src = 'sS(0) cD(0,"a") sR(99,1) cD(1,"junk") eR(99,1) eS(0)'
        tree = RegionTree()
        tree.process_all(loads(src))
        assert write_events(tree.flatten()) == "a"
        assert tree.ignored_updates == 1

    def test_insert_beside_a_stream_root_is_ignored(self):
        # A stream root has no position before or after it: the update
        # is ignored, with its content, like one at an unknown target.
        for start, end in (("sB", "eB"), ("sA", "eA")):
            src = ('sS(0) cD(0,"a") {}(0,5) cD(5,"junk") {}(0,5) cD(0,"b") '
                   'eS(0)'.format(start, end))
            assert applied_text(src) == "ab"
            tree = RegionTree(result_ids=[0])
            tree.process_all(loads(src))
            assert tree.text() == "ab"
            assert tree.ignored_updates == 1
            assert tree.stats() == {"regions": 1, "events": 2,
                                    "registry": 1, "open": 1}

    def test_display_ignores_an_insert_beside_its_root(self):
        from repro.core import Display
        display = Display(0)
        for e in loads('sS(0) cD(0,"a") sB(0,5) cD(5,"junk") eB(0,5)'):
            display.process(e)
        assert display.text() == "a"
        assert display.tree.ignored_updates == 1

    def test_untracked_stream_content_ignored(self):
        src = 'sS(0) cD(0,"a") cD(5,"ghost") eS(0)'
        assert applied_text(src) == "a"

    def test_result_id_filtering(self):
        src = 'sS(0) cD(0,"a") eS(0) sS(1) cD(1,"b") eS(1)'
        tree = RegionTree(result_ids=[1])
        tree.process_all(loads(src))
        assert write_events(tree.flatten()) == "b"

    def test_keep_tuples(self):
        src = 'sS(0) sT(0) cD(0,"a") eT(0) eS(0)'
        out = apply_updates(loads(src), keep_tuples=True)
        assert [e.abbrev for e in out] == ["sT", "cD", "eT"]

    def test_flatten_relabels_to_root(self):
        src = 'sS(0) sM(0,5) cD(5,"x") eM(0,5) eS(0)'
        out = apply_updates(loads(src))
        assert out[0].id == 0

    def test_nested_mutable_regions(self):
        src = ('sS(0) sM(0,1) cD(1,"a") sM(1,2) cD(2,"b") eM(1,2) '
               'cD(1,"c") eM(0,1) sR(2,3) cD(3,"B") eR(2,3) eS(0)')
        assert applied_text(src) == "aBc"

    def test_stats_counts(self):
        src = ('sS(0) sM(0,1) sE(1,"a") cD(1,"t") eE(1,"a") eM(0,1) eS(0)')
        tree = RegionTree()
        tree.process_all(loads(src))
        stats = tree.stats()
        assert stats["regions"] == 2  # root + region 1
        assert stats["events"] == 3
