"""Tests for the update stripper and region-tree internals."""

from repro.core.regions import Region, RegionTree
from repro.events import (UpdateStripper, cdata, check_stream, loads,
                          strip_updates)
from repro.xmlio import write_events


class TestUpdateStripper:
    def test_plain_stream_untouched(self):
        evs = loads('sS(0) sE(0,"a") cD(0,"x") eE(0,"a") eS(0)')
        assert strip_updates(evs) == evs

    def test_mutable_region_dissolves_into_content(self):
        evs = loads('sS(0) sM(0,1) sE(1,"a") cD(1,"x") eE(1,"a") eM(0,1) '
                    'eS(0)')
        out = strip_updates(evs)
        assert write_events(out) == "<a>x</a>"
        assert all(e.id == 0 for e in out)
        check_stream(out)
        assert not any(e.is_update for e in out)

    def test_replace_content_dropped(self):
        evs = loads('sS(0) sM(0,1) cD(1,"keep") eM(0,1) '
                    'sR(1,2) cD(2,"ignored") eR(1,2) eS(0)')
        assert write_events(strip_updates(evs)) == "keep"

    def test_inserts_dropped(self):
        evs = loads('sS(0) sM(0,1) cD(1,"m") eM(0,1) '
                    'sB(1,2) cD(2,"l") eB(1,2) sA(1,3) cD(3,"r") eA(1,3) '
                    'eS(0)')
        assert write_events(strip_updates(evs)) == "m"

    def test_nested_mutables_flatten(self):
        evs = loads('sS(0) sM(0,1) cD(1,"a") sM(1,2) cD(2,"b") eM(1,2) '
                    'cD(1,"c") eM(0,1) eS(0)')
        assert write_events(strip_updates(evs)) == "abc"

    def test_toggles_vanish(self):
        evs = loads('sS(0) sM(0,1) cD(1,"x") eM(0,1) hide(1) freeze(1) '
                    'eS(0)')
        out = strip_updates(evs)
        assert write_events(out) == "x"  # the hide was ignored

    def test_incremental_feed(self):
        stripper = UpdateStripper()
        evs = loads('sS(0) sM(0,1) cD(1,"x") eM(0,1) eS(0)')
        out = []
        for e in evs:
            out.extend(stripper.feed(e))
        assert write_events(out) == "x"


class TestRegionInternals:
    def test_dissolve_preserves_order(self):
        tree = RegionTree()
        tree.process_all(loads(
            'sS(0) cD(0,"a") sM(0,1) cD(1,"b") sM(1,2) cD(2,"c") eM(1,2) '
            'eM(0,1) cD(0,"d") freeze(2) freeze(1) eS(0)'))
        assert write_events(tree.flatten()) == "abcd"
        assert tree.stats()["regions"] == 1

    def test_counts_recursive(self):
        region = Region(1)
        region.append_event(cdata(1, "x"))
        child = Region(2)
        child.append_event(cdata(2, "y"))
        region.append_child(child)
        region.append_event(cdata(1, "z"))
        counts = region.counts()
        assert counts == {"regions": 1, "events": 3}

    def test_iter_events_skips_hidden(self):
        region = Region(1)
        child = Region(2)
        child.hidden = True
        child.append_event(cdata(2, "hidden"))
        region.append_child(child)
        region.append_event(cdata(1, "shown"))
        assert [e.text for e in region.iter_events()] == ["shown"]

    def test_run_coalescing(self):
        region = Region(1)
        for i in range(5):
            region.append_event(cdata(1, str(i)))
        # All five events share one run node.
        node = region.head.next
        assert len(node.events) == 5
        assert node.next is region.tail

    def test_clear_content_reports_dropped_regions(self):
        region = Region(1)
        inner = Region(2)
        deeper = Region(3)
        inner.append_child(deeper)
        deeper.append_event(cdata(3, "x"))
        region.append_child(inner)
        region.append_event(cdata(1, "y"))
        dropped, events = region.clear_content()
        assert {r.id for r in dropped} == {2, 3}
        assert events == 2
        assert list(region.iter_events()) == []

    def test_show_on_never_hidden_is_noop(self):
        tree = RegionTree()
        tree.process_all(loads('sS(0) sM(0,1) cD(1,"x") eM(0,1) show(1) '
                               'eS(0)'))
        assert write_events(tree.flatten()) == "x"
