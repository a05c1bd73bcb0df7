"""Freeze reclaims everything (paper Section V, DESIGN.md wrapper notes).

The stock ticker replaces each of 16 fields over and over and freezes
the region it has just replaced, so the set of regions that can still be
addressed never grows.  These tests pin the consequence: whatever a
stage keeps per region — state copies *and* the bookkeeping around them
— is sized by the live regions, not by the stream position, and nothing
a stage holds names a region after its ``freeze`` has been processed.
The display is a stage like the others: nothing reachable from its
region tree — through ``registry``, ``open``, content chains or the
``parent`` links its cached text is invalidated along — is a region
that dissolved or was dropped.

Deterministic; nothing here is timed.
"""

from __future__ import annotations

import pytest

from repro import QueryRun, XFlux
from repro.core import Context, UpdateWrapper
from repro.events import loads
from repro.operators import ChildStep
from repro.xquery.engine import env_flag
from tests.helpers import (assert_nesting_tree_consistent,
                           assert_nothing_mentions, live_depth,
                           stage_containers, ticker_stream)

SYMBOLS = ["IBM"] + ["S{:02d}".format(i) for i in range(1, 8)]
QUERIES = {
    "ibm-price": 'stream()//quote[name="IBM"]/price',
    "ibm-count": 'count(stream()//quote[name="IBM"])',
    "all-prices": 'stream()//quote/price',
    "flwor": ('<r>{ for $q in stream()//quote where $q/name="IBM" '
              'return <q>{$q/price}</q> }</r>'),
}
#: name -> QueryRun keywords
CONFIGS = {
    "interpreted": {},
    "always-active": {"always_active": True},
    "sanitized": {"sanitize": True},
}
#: Set by CI: every run then carries boundary checkers or a recorder.
OBSERVED = env_flag("SANITIZE") or env_flag("METRICS")
N = 500
#: Updates after which the stages are inspected; the first and the last
#: are also where the checkpoint is sized.
MARKS = (N, 3 * N, 7 * N)
#: quote predicate region > field region > the replacement still open.
LIVE_DEPTH = 3


@pytest.fixture(scope="module")
def stream():
    """Snapshot prefix and one event list per update."""
    return ticker_stream(SYMBOLS, MARKS[-1])


def sizes(run):
    """Container sizes.  How many quotes are hidden right now moves
    none of them: a shadow is a field of its region's record."""
    found = {label: len(held)
             for label, held in stage_containers(run).items()}
    for k, w in enumerate(run.pipeline.wrappers):
        found["w{}.region_entries".format(k)] = w.region_entries()
    return found


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("query", QUERIES)
def test_bookkeeping_is_flat_in_stream_position(stream, query, config):
    prefix, updates = stream
    run = QueryRun(XFlux(QUERIES[query], mutable_source=True).compile(),
                   **CONFIGS[config])
    run.feed_all(prefix)
    not_fixed = run.pipeline.ctx.fix._not_fixed
    ever_mutable = set(not_fixed)
    seen_sizes, seen_checkpoints = [], []
    for count, update in enumerate(updates, 1):
        for event in update:
            run.feed(event)
            ever_mutable |= not_fixed
        run.text()  # a standing display is read: its text caches are warm
        for w in run.pipeline.wrappers:
            chain = w.t.current_region_chain
            assert len(chain) <= live_depth(w) <= LIVE_DEPTH
            assert all(w.region(uid).facet == 2 for uid in chain)
        if count in MARKS:
            assert_nothing_mentions(run, ever_mutable - not_fixed)
            for w in run.pipeline.wrappers:
                assert_nesting_tree_consistent(w)
            seen_sizes.append(sizes(run))
            seen_checkpoints.append(len(run.checkpoint()))
    assert seen_sizes[0] == seen_sizes[1] == seen_sizes[2]
    assert {"display.tree.registry", "display.tree.open",
            "display.tree.regions"} <= set(seen_sizes[0])
    stats = run.stats()
    assert stats["region_entries"] == sum(
        a["region_entries"] for a in stats["per_stage"])
    if config != "sanitized" and not OBSERVED:
        # Checkers and recorders ride in the checkpoint and grow by
        # design: a checker remembers every id it has seen frozen to
        # reject its reuse, a recorder keeps its footprint timeline.
        small, large = sorted((seen_checkpoints[0], seen_checkpoints[-1]))
        assert large - small < 0.10 * small


class TestNothingIsRegisteredForWhatCannotBeAddressed:
    """An update that is void on arrival, and a fixed-``sM`` alias once
    its bracket closes, can never be addressed again: no record."""

    @staticmethod
    def wrapper():
        ctx = Context()
        return ctx, UpdateWrapper(ChildStep(ctx, 1, ctx.ids.reserve(900),
                                            "a"))

    def test_void_updates_of_a_fixed_target(self):
        # Stream 1 was never declared mutable, so every update aimed at
        # it inherits fixedness and is void.
        _, w = self.wrapper()
        for e in loads('sS(1) sE(1,"r")'):
            w.dispatch(e)
        before = w.region_entries()
        for k in range(10, 20):
            for e in loads('sR(1,{0}) sE({0},"a") eE({0},"a") eR(1,{0}) '
                           'freeze({0})'.format(k)):
                w.dispatch(e)
            assert w.region(k) is None
        assert w.region_entries() == before
        assert set(w.tracked) == {1}

    def test_closed_aliases_and_void_updates_inside_them(self):
        # The consumer ignores updates on these ids: each sM is a
        # fixed alias (plain content), tracked exactly while it is open.
        ctx, w = self.wrapper()
        ctx.fix.ignored_streams.update(range(10, 20))
        for e in loads('sS(1) sE(1,"r")'):
            w.dispatch(e)
        before = w.region_entries()
        for k in range(10, 20):
            for e in loads('sM(1,{0}) sE({0},"a")'.format(k)):
                w.dispatch(e)
            assert w.region(k).facet == 0 and w.region(k).start is None
            for e in loads('sA({0},{1}) cD({1},"x") eA({0},{1}) '
                           'eE({0},"a") eM(1,{0})'.format(k, k + 100)):
                w.dispatch(e)
            assert w.region(k) is None and w.region(k + 100) is None
        assert w.region_entries() == before
        assert set(w.tracked) == {1}


@pytest.mark.parametrize("name", ["Q7", "Q9"])
def test_reopened_ids_leave_one_record_each(name):
    """Q7's tuple constructor and Q9's sort and concatenation are fed
    ids that are opened again (an item is moved by inserting its region
    anew): each wrapper still has exactly one record per id it tracks,
    and nothing reachable that it does not track."""
    from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
    plan = XFlux(PAPER_QUERIES[name]).compile()
    events = Workloads(xmark_scale=0.02, dblp_scale=0.02).events(
        QUERY_DATASET[name], oids=plan.needs_oids)
    run = QueryRun(plan)
    for i in range(0, len(events), 64):
        run.feed_all(events[i:i + 64])
        for w in run.pipeline.wrappers:
            assert_nesting_tree_consistent(w)
