"""Tests for the dataset generators and the result display."""

import pytest

from repro import XFlux, parse_xml, tokenize
from repro.core import Display, Pipeline, RegionTree
from repro.data import DBLPGenerator, StockTicker, XMarkGenerator
from repro.events import check_stream
from repro.operators import CountItems


class TestXMark:
    def test_deterministic(self):
        a = XMarkGenerator(scale=0.02, seed=5).text()
        b = XMarkGenerator(scale=0.02, seed=5).text()
        assert a == b

    def test_seed_changes_content(self):
        a = XMarkGenerator(scale=0.02, seed=5).text()
        b = XMarkGenerator(scale=0.02, seed=6).text()
        assert a != b

    def test_scale_grows_document(self):
        small = XMarkGenerator(scale=0.02).text()
        large = XMarkGenerator(scale=0.08).text()
        assert len(large) > 2 * len(small)

    def test_schema_shape(self):
        root = parse_xml(XMarkGenerator(scale=0.02).text())
        assert root.tag == "site"
        regions = root.child_elements("regions")[0]
        assert {r.tag for r in regions.child_elements()} == {
            "africa", "asia", "australia", "europe", "namerica",
            "samerica"}
        item = regions.descendants("item")[0]
        child_tags = {c.tag for c in item.child_elements()}
        assert {"location", "quantity", "payment",
                "description"} <= child_tags

    def test_recursive_parlists_present(self):
        root = parse_xml(XMarkGenerator(scale=0.05, seed=1).text())
        nested = [p for p in root.descendants("parlist")
                  if p.descendants("parlist")]
        assert nested  # //* has real work to do

    def test_albania_selectivity(self):
        gen = XMarkGenerator(scale=0.2, seed=3, albania_fraction=0.1)
        root = parse_xml(gen.text())
        locations = [l.string_value for l in root.descendants("location")]
        frac = sum(1 for l in locations if l == "Albania") / len(locations)
        assert 0.04 < frac < 0.2

    def test_valid_xml(self):
        events = tokenize(XMarkGenerator(scale=0.02).text())
        check_stream(events)


class TestDBLP:
    def test_deterministic(self):
        assert DBLPGenerator(scale=0.02).text() == \
            DBLPGenerator(scale=0.02).text()

    def test_record_structure(self):
        root = parse_xml(DBLPGenerator(scale=0.02).text())
        assert root.tag == "dblp"
        rec = root.child_elements()[0]
        assert rec.tag in ("inproceedings", "article")
        tags = {c.tag for c in rec.child_elements()}
        assert {"author", "title", "year"} <= tags

    def test_smith_selectivity(self):
        gen = DBLPGenerator(scale=0.3, seed=2, smith_fraction=0.1)
        root = parse_xml(gen.text())
        authors = [a.string_value for a in root.descendants("author")]
        smiths = sum(1 for a in authors if "Smith" in a)
        assert smiths > 0

    def test_years_in_range(self):
        root = parse_xml(DBLPGenerator(scale=0.05).text())
        years = {int(y.string_value) for y in root.descendants("year")}
        assert all(1988 <= y <= 2007 for y in years)


class TestStockTicker:
    def test_stream_is_valid(self):
        check_stream(StockTicker(n_updates=20).events())

    def test_deterministic(self):
        a = StockTicker(seed=4).events()
        b = StockTicker(seed=4).events()
        assert a == b

    def test_snapshot_then_updates(self):
        events = StockTicker(symbols=("IBM", "MSFT"),
                             n_updates=5).events()
        replaces = [e for e in events if e.abbrev == "sR"]
        assert len(replaces) == 5

    def test_immutable_names_have_no_name_regions(self):
        events = StockTicker(mutable_names=False, n_updates=0).events()
        mutables = [e for e in events if e.abbrev == "sM"]
        assert len(mutables) == len(StockTicker().symbols)  # prices only

    def test_superseded_regions_frozen(self):
        events = StockTicker(n_updates=10).events()
        replaced = [e.id for e in events if e.abbrev == "sR"]
        frozen = {e.id for e in events if e.abbrev == "freeze"}
        assert set(replaced) <= frozen


class TestDisplay:
    def test_snapshot_tracking(self):
        from repro.events import loads
        from repro.core import Context
        ctx = Context()
        ctx.ids.reserve(0)
        out = ctx.fresh_id()
        disp = Display(out, track_snapshots=True)
        pipe = Pipeline(ctx, [CountItems(ctx, 0, out)], disp)
        pipe.run(loads('sS(0) sE(0,"a") eE(0,"a") sE(0,"a") eE(0,"a") '
                       'eS(0)'))
        # Replacements momentarily clear the counter region before the
        # new value arrives; the non-empty snapshots are the counts.
        assert [s for s in disp.snapshots if s] == ["0", "1", "2"]

    def test_stats_shape(self, auction_xml):
        run = XFlux("X//item").run_xml(auction_xml)
        stats = run.stats()["display"]
        for key in ("regions", "events", "peak_regions", "peak_events"):
            assert key in stats

    def test_events_snapshot_is_plain(self, auction_xml):
        run = XFlux("X//item/location").run_xml(auction_xml)
        assert all(not e.is_update for e in run.events())
