"""The display is a maintained view (DESIGN.md, "A read costs the change").

``Display.text()`` joins text cached per region; the reference is still
``write_events(Display.events())`` — flatten the tree, serialise the
copy.  Two kinds of test pin the pair together:

* **differential** — the two agree after *every* event, on the ticker's
  standing queries, on Q1–Q9 fed per event, on the generated update
  streams and lifecycles of ``tests/test_property_based.py`` (engine
  display and the track-all applier), and on hand cases for the edits
  that must not, or must, reach an enclosing region's cache; every
  cache that claims to be valid is also checked where no read looks
  yet (under a hidden region);
* **work bound** — a count, never a timing: with the one event-to-text
  function wrapped by a counter, a read serialises the events that
  arrived since the last one and nothing else, whatever the size of the
  answer, and a read after an edit that changes no text serialises
  nothing and finds the root's cache still valid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import tests.test_property_based as generators
from repro import QueryRun, XFlux
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.core import RegionTree
from repro.core.regions import Region, Run
from repro.data.stock import StockTicker
from repro.events import loads
from repro.events.model import CD, EE, SE
from repro.xmlio import write_events, writer
from tests.helpers import chain_nodes, reachable_regions, ticker_stream

TICKER_QUERIES = {
    "ibm-price": 'stream()//quote[name="IBM"]/price',
    "ibm-count": 'count(stream()//quote[name="IBM"])',
    "all-prices": 'stream()//quote/price',
}
FIRST_REGION = 10_000_000


def ticker(n_symbols, n_updates):
    """Snapshot prefix and one event list per update."""
    return ticker_stream(
        ["IBM"] + ["S{:03d}".format(i) for i in range(1, n_symbols)],
        n_updates)


# -- the reference, and the invariant behind the cache ------------------------


def assert_caches_valid(tree):
    """Every cache that claims validity holds what a flatten would give,
    seen by a read or not; a stale visible region has a stale parent
    (what lets an edit stop at the first stale region it meets); and
    ``parent`` names the region whose chain a region sits in."""
    todo = list(tree.roots.values())
    while todo:
        region = todo.pop()
        if region.text is not None:
            assert region.text == write_events(region.iter_events()), region
        elif not region.hidden and region.parent is not None:
            assert region.parent.text is None, region
        for node in chain_nodes(region):
            if isinstance(node, Run):
                assert node.text == write_events(
                    node.events[:node.rendered])
            else:
                assert node.parent is region
                todo.append(node)
    for region in tree.registry.values():
        assert region.parent is not None or region.id in tree.roots


def assert_text_is_reference(tree):
    assert tree.text() == write_events(tree.flatten())
    assert_caches_valid(tree)


def feed_checking(tree, events, every=1):
    """Feed a tree event by event, reading at every ``every``-th."""
    for i, e in enumerate(events, 1):
        tree.process(e)
        assert_caches_valid(tree)
        if i % every == 0:
            assert_text_is_reference(tree)
    assert_text_is_reference(tree)
    return tree.text()


def checked_run(plan, events, every=1):
    """Feed a query run event by event; ``text()`` against the reference
    after every ``every``-th *sink* event and at the end."""
    seen = [0]

    def check(_event, display):
        seen[0] += 1
        if seen[0] % every == 0:
            assert display.text() == write_events(display.events())

    run = QueryRun(plan, on_change=check)
    for e in events:
        run.feed(e)
    run.finish()
    assert_text_is_reference(run.display.tree)
    return run


def standing(query):
    return XFlux(query, mutable_source=True).compile()


# -- differential ------------------------------------------------------------------


@pytest.mark.parametrize("name", TICKER_QUERIES)
def test_ticker_text_is_reference_after_every_event(name):
    prefix, updates = ticker(8, 400)
    run = XFlux(TICKER_QUERIES[name], mutable_source=True).start()
    for e in prefix + [e for update in updates for e in update]:
        run.feed(e)
        assert run.text() == write_events(run.events())
    assert_caches_valid(run.display.tree)


@pytest.fixture(scope="module")
def documents():
    return Workloads(xmark_scale=0.02, dblp_scale=0.02)


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_paper_query_text_is_reference_after_every_event(documents, name):
    plan = XFlux(PAPER_QUERIES[name]).compile()
    events = documents.events(QUERY_DATASET[name], oids=plan.needs_oids)
    run = checked_run(plan, events)
    assert run.text() == XFlux(PAPER_QUERIES[name]).run(events).text()


READ_EVERY = st.sampled_from((1, 2, 5))


class TestGeneratedStreams:
    """Reading after every event keeps every cache warm; reading now
    and then leaves stale regions under further edits, which is where
    an invalidation that stops too early would show."""

    @given(generators.TestUpdateStreams.update_streams(), READ_EVERY)
    @settings(max_examples=80, deadline=None)
    def test_update_streams(self, src, every):
        events = loads(src)
        feed_checking(RegionTree(), events, every)
        for query in ('stream()//item/v', 'stream()//item[v="hit"]',
                      'count(stream()//item[v="hit"])'):
            checked_run(standing(query), events, every)

    @given(st.randoms(use_true_random=False), READ_EVERY)
    @settings(max_examples=150, deadline=None)
    def test_lifecycles(self, rng, every):
        events = generators.lifecycle_events(rng)
        feed_checking(RegionTree(), events, every)
        for query in generators.TestUpdateLifecycles.QUERIES:
            checked_run(standing(query), events, every)


class TestHandCases:
    HEAD = 'sS(0) cD(0,"a") sM(0,1) cD(1,"x") eM(0,1) cD(0,"b") '

    @staticmethod
    def both_ways(src, expected, **kwargs):
        """Read after every event, and only once at the end."""
        kwargs.setdefault("result_ids", [0])
        events = loads(src)
        assert feed_checking(RegionTree(**kwargs), events) == expected
        tree = RegionTree(**kwargs)
        tree.process_all(events)
        assert tree.text() == expected
        assert_text_is_reference(tree)
        return tree

    def test_hidden_root(self):
        self.both_ways('sS(0) cD(0,"a") hide(0) cD(0,"b")', "")
        self.both_ways('sS(0) cD(0,"a") hide(0) cD(0,"b") show(0)', "ab")

    def test_two_roots_one_hidden(self):
        self.both_ways('sS(0) sS(1) cD(0,"a") cD(1,"b") hide(0) cD(0,"c")',
                       "b", result_ids=None)

    def test_show_after_hide(self):
        self.both_ways(self.HEAD + 'hide(1)', "ab")
        self.both_ways(self.HEAD + 'hide(1) show(1)', "axb")

    def test_replace_over_a_hidden_target(self):
        src = self.HEAD + 'hide(1) sR(1,2) cD(2,"y") eR(1,2) '
        self.both_ways(src, "ab")
        self.both_ways(src + 'show(1)', "ayb")

    def test_content_arriving_under_a_hidden_region(self):
        src = ('sS(0) cD(0,"a") sM(0,1) cD(1,"x") hide(1) cD(1,"y") '
               'sM(1,2) cD(2,"z") eM(1,2) ')
        self.both_ways(src, "a")
        self.both_ways(src + 'show(1) cD(2,"!")', "axyz")
        self.both_ways(src + 'show(1) cD(1,"!")', "axyz!")

    def test_hide_inside_a_hidden_region(self):
        src = ('sS(0) sM(0,1) cD(1,"x") sM(1,2) cD(2,"y") eM(1,2) eM(0,1) '
               'hide(1) hide(2) show(1) ')
        self.both_ways(src, "x")
        self.both_ways(src + 'show(2)', "xy")

    LIVE_CHILD = ('sS(0) cD(0,"a") sM(0,1) cD(1,"x") sM(1,2) cD(2,"k") '
                  'eM(1,2) cD(1,"y") eM(0,1) cD(0,"b") ')

    def test_freeze_of_a_hidden_region_with_live_children(self):
        src = self.LIVE_CHILD + 'hide(1) freeze(1) '
        self.both_ways(src, "ab")
        # The child went with it: updates that address it are ignored.
        tree = self.both_ways(src + 'sR(2,3) cD(3,"z") eR(2,3)', "ab")
        assert tree.ignored_updates == 1

    def test_freeze_of_a_visible_region_with_live_children(self):
        src = self.LIVE_CHILD + 'freeze(1) '
        tree = self.both_ways(src, "axkyb")
        assert tree.registry[2].parent is tree.roots[0]
        self.both_ways(src + 'sR(2,3) cD(3,"z") eR(2,3)', "axzyb")
        self.both_ways(src + 'sB(2,3) cD(3,"l") eB(2,3) sA(2,4) cD(4,"r") '
                             'eA(2,4) hide(2)', "axlryb")

    def test_freeze_while_the_child_is_stale(self):
        src = ('sS(0) sM(0,1) sM(1,2) cD(2,"k") freeze(1) cD(2,"l") '
               'eM(1,2) eM(0,1)')
        self.both_ways(src, "kl")

    def test_keep_tuples(self):
        src = ('sS(0) sT(0) cD(0,"a") eT(0) sM(0,1) sT(1) cD(1,"b") eT(1) '
               'eM(0,1)')
        tree = self.both_ways(src, "ab", keep_tuples=True)
        assert [e.abbrev for e in tree.flatten()] == ["sT", "cD", "eT",
                                                      "sT", "cD", "eT"]

    def test_regions_used_directly(self):
        # Region's own editing methods keep the cache, not only the tree.
        region, child = Region(1), Region(2)
        child.append_event(loads('cD(2,"y")')[0])
        assert region.render() == ""
        region.append_child(child)
        assert region.render() == "y"
        child.set_hidden(True)
        assert region.render() == ""
        child.set_hidden(False)
        region.clear_content()
        assert region.render() == "" == write_events(region.iter_events())


def test_restored_display_reads_like_the_uninterrupted_one():
    """Cached text is not pickled; a restored display rebuilds it at the
    first read and maintains it per update from there."""
    prefix, updates = ticker(8, 120)
    for query in TICKER_QUERIES.values():
        engine = XFlux(query, mutable_source=True)
        first = engine.start()
        first.feed_all(prefix)
        for update in updates[:60]:
            first.feed_all(update)
            first.text()
        resumed = engine.start().restore(first.checkpoint())
        assert all(region.text is None for region
                   in reachable_regions(resumed.display.tree))
        for update in updates[60:]:
            for run in (first, resumed):
                run.feed_all(update)
            assert resumed.text() == first.text() \
                == write_events(resumed.events())
        assert_caches_valid(resumed.display.tree)


# -- work bound --------------------------------------------------------------------


@pytest.fixture
def serialised(monkeypatch):
    """Calls of the one event-to-text function, as a one-element list."""
    calls = [0]
    plain = writer.event_xml

    def counting(e):
        calls[0] += 1
        return plain(e)

    monkeypatch.setattr(writer, "event_xml", counting)
    return calls


def root_cache(run):
    return run.display.tree.roots[run.display.result_id].text


@pytest.mark.parametrize("n_symbols", [8, 64])
def test_a_read_serialises_the_new_region_only(serialised, n_symbols):
    """``all-prices``: a price update puts three events on the display
    and a name update none; the read after it serialises exactly those,
    at 8 symbols as at 64."""
    arrived = [0]

    def count_data(e, _display):
        arrived[0] += e.kind in (SE, EE, CD)

    prefix, updates = ticker(n_symbols, 200)
    run = XFlux(TICKER_QUERIES["all-prices"], mutable_source=True).start(
        on_change=count_data)
    run.feed_all(prefix)
    run.text()
    assert serialised[0] == arrived[0] == 3 * n_symbols
    per_read = set()
    for update in updates:
        serialised[0] = arrived[0] = 0
        run.feed_all(update)
        if not arrived[0]:
            assert root_cache(run) is not None
        text = run.text()
        assert serialised[0] == arrived[0]
        per_read.add(serialised[0])
        assert run.text() is text and serialised[0] == arrived[0]
    assert per_read == {0, 3}


def test_an_update_under_a_hidden_quote_serialises_nothing(serialised):
    """``ibm-price`` over two quotes: the second is hidden while its name
    is not IBM, and its price updates cost a read nothing until a name
    update shows it."""
    events = StockTicker(["IBM", "XYZ"], n_updates=0,
                         first_region=FIRST_REGION).events()[:-2]
    ibm_price, xyz_name, xyz_price = (FIRST_REGION + 1, FIRST_REGION + 2,
                                      FIRST_REGION + 3)

    def replace(target, new, tag, text):
        return loads('sR({t},{n}) sE({n},"{tag}") cD({n},"{x}") '
                     'eE({n},"{tag}") eR({t},{n}) freeze({t})'.format(
                         t=target, n=new, tag=tag, x=text))

    run = XFlux(TICKER_QUERIES["ibm-price"], mutable_source=True).start()
    run.feed_all(events)
    shown = run.text()
    assert shown.count("<price>") == 1
    serialised[0] = 0
    new = FIRST_REGION + 10
    for price in ("1.00", "2.00"):
        run.feed_all(replace(xyz_price, new, "price", price))
        xyz_price, new = new, new + 1
        assert root_cache(run) is shown
        assert run.text() is shown and serialised[0] == 0
    run.feed_all(replace(ibm_price, new, "price", "3.00"))
    assert root_cache(run) is None
    assert run.text() == "<price>3.00</price>" and serialised[0] == 3
    serialised[0] = 0
    run.feed_all(replace(xyz_name, new + 1, "name", "IBM"))
    assert run.text() == "<price>3.00</price><price>2.00</price>"
    assert serialised[0] == 3  # the hidden quote's latest price, once
    # Hidden again, now with a cache that was valid when it was hidden.
    run.feed_all(replace(new + 1, new + 2, "name", "XYZ"))
    shown = run.text()
    assert shown == "<price>3.00</price>"
    serialised[0] = 0
    run.feed_all(replace(xyz_price, new + 3, "price", "4.00"))
    assert root_cache(run) is shown
    assert run.text() is shown and serialised[0] == 0


def test_a_growing_run_serialises_each_event_once(serialised):
    """A run read after every append extends its text by the new event;
    it is not serialised again from its first."""
    tree = RegionTree(result_ids=[0])
    events = loads('sS(0) sE(0,"a") cD(0,"x") cD(0,"y") sE(0,"b") '
                   'eE(0,"b") cD(0,"z") eE(0,"a")')
    for e in events:
        tree.process(e)
        tree.text()
    assert tree.text() == "<a>xy<b></b>z</a>"
    assert serialised[0] == len(events) - 1  # sS is not content
    assert_text_is_reference(tree)


@pytest.mark.parametrize("edit", [
    'eM(0,1)',                      # a bracket end
    'sM(0,2)',                      # an empty region
    'sM(0,2) eM(0,2) hide(2)',      # ... hidden
    'sA(1,2) eA(1,2) sB(1,3)',      # ... beside another
    'eM(0,1) freeze(1)',            # a visible region dissolving
    'sT(0) eT(0)',                  # tuple marks the display drops
    'sR(9,2) cD(2,"junk") eR(9,2)',  # an ignored update and its content
])
def test_an_edit_no_read_can_see_keeps_every_cache(serialised, edit):
    tree = RegionTree(result_ids=[0])
    tree.process_all(loads('sS(0) cD(0,"a") sM(0,1) cD(1,"x")'))
    shown = tree.text()
    serialised[0] = 0
    for e in loads(edit):
        tree.process(e)
        assert tree.roots[0].text is shown
    assert tree.text() is shown and serialised[0] == 0
    assert_text_is_reference(tree)
