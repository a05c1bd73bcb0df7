"""Freeze reclaims everything (paper Section V, DESIGN.md wrapper notes).

The stock ticker replaces each of 16 fields over and over and freezes
the region it has just replaced, so the set of regions that can still be
addressed never grows.  These tests pin the consequence: whatever a
stage keeps per region — state copies *and* the bookkeeping around them
— is sized by the live regions, not by the stream position, and nothing
a stage holds names a region after its ``freeze`` has been processed.

Deterministic; nothing here is timed.
"""

from __future__ import annotations

import os

import pytest

from repro import QueryRun, XFlux
from repro.data.stock import StockTicker
from repro.events.model import SR
from tests.helpers import (assert_nesting_tree_consistent,
                           assert_nothing_mentions, live_depth,
                           stage_containers)

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
    "interpreted": {"fuse": False},
    "always-active": {"always_active": True},
    "fused": {"fuse": True},
    "sanitized": {"sanitize": True},
}
#: Set by CI: every run then carries boundary checkers or a recorder,
#: which ride the interpreted drain only.
OBSERVED = any(os.environ.get(name, "") not in ("", "0")
               for name in ("REPRO_SANITIZE", "REPRO_METRICS"))
EVENTS_PER_UPDATE = 6
N = 500
#: Updates after which the stages are inspected; the first and the last
#: are also where the checkpoint is sized.
MARKS = (N, 3 * N, 7 * N)
#: quote predicate region > field region > the replacement still open.
LIVE_DEPTH = 3


@pytest.fixture(scope="module")
def stream():
    """Snapshot prefix and one event list per update."""
    events = StockTicker(SYMBOLS, n_updates=MARKS[-1],
                         name_update_fraction=0.1, seed=7,
                         first_region=10_000_000).events()
    first = next(i for i, e in enumerate(events) if e.kind == SR)
    body = events[first:-2]
    assert len(body) == MARKS[-1] * EVENTS_PER_UPDATE
    return events[:first], [body[i:i + EVENTS_PER_UPDATE]
                            for i in range(0, len(body), EVENTS_PER_UPDATE)]


def sizes(run):
    """Container sizes; ``shadow`` follows how many quotes are hidden
    right now, so it is bounded by the live regions instead of pinned."""
    found = {}
    for label, held in stage_containers(run).items():
        if not label.endswith(".shadow"):
            found[label] = len(held)
    for k, w in enumerate(run.pipeline.wrappers):
        assert len(w.shadow) <= w.live_regions()
        found["w{}.region_entries".format(k)] = \
            w.region_entries() - len(w.shadow)
    return found


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("query", QUERIES)
def test_bookkeeping_is_flat_in_stream_position(stream, query, config):
    prefix, updates = stream
    run = QueryRun(XFlux(QUERIES[query], mutable_source=True).compile(),
                   **CONFIGS[config])
    run.feed_all(prefix)
    if config == "fused" and not OBSERVED:
        assert run.pipeline.fused
    not_fixed = run.pipeline.ctx.fix._not_fixed
    ever_mutable = set(not_fixed)
    seen_sizes, seen_checkpoints = [], []
    for count, update in enumerate(updates, 1):
        for event in update:
            run.feed(event)
            ever_mutable |= not_fixed
        for w in run.pipeline.wrappers:
            chain = w.t.current_region_chain
            assert len(chain) <= live_depth(w) <= LIVE_DEPTH
            assert set(chain) <= w._regions
        if count in MARKS:
            assert_nothing_mentions(run, ever_mutable - not_fixed)
            for w in run.pipeline.wrappers:
                assert_nesting_tree_consistent(w)
            seen_sizes.append(sizes(run))
            seen_checkpoints.append(len(run.checkpoint()))
    assert seen_sizes[0] == seen_sizes[1] == seen_sizes[2]
    stats = run.stats()
    assert stats["region_entries"] == sum(
        a["region_entries"] for a in stats["per_stage"])
    if config != "sanitized" and not OBSERVED:
        # Checkers and recorders ride in the checkpoint and grow by
        # design: a checker remembers every id it has seen frozen to
        # reject its reuse, a recorder keeps its footprint timeline.
        small, large = sorted((seen_checkpoints[0], seen_checkpoints[-1]))
        assert large - small < 0.10 * small
