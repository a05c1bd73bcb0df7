"""Ablations: the design choices DESIGN.md calls out, measured.

* freeze / mutability analysis (Section V): retained state with and
  without producer freezes, and peak state with and without freeze
  reclamation over Q1-Q9 and the ticker;
* unblocked sorting (Section VI-D): first-output latency against a
  blocking sort;
* descendant-or-self (Section VI-C): bufferless operation against an
  explicit buffering implementation;
* update streams vs eager re-evaluation: the cost of one incoming update.
"""

import time

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.core import Context, Display, Pipeline
from repro.data.stock import StockTicker
from repro.data.xmark import XMarkGenerator
from repro.xmlio import tokenize
from repro.xquery.engine import XFlux


STOCK_QUERY = 'stream()//quote[name="IBM"]/price'


def _run_stock(events):
    engine = XFlux(STOCK_QUERY, mutable_source=True)
    run = engine.start()
    run.feed_all(events)
    run.finish()
    return run


def test_freeze_state_pruning(benchmark):
    """Section V ablation: producer freezes bound the retained state."""
    n = 300
    with_freeze = StockTicker(n_updates=n, mutable_names=False,
                              freeze_superseded=True).events()
    without = StockTicker(n_updates=n, mutable_names=False,
                          freeze_superseded=False).events()

    run = benchmark.pedantic(lambda: _run_stock(with_freeze), rounds=3,
                             iterations=1)
    cells_frozen = run.stats()["state_cells"]
    cells_open = _run_stock(without).stats()["state_cells"]
    benchmark.extra_info.update({
        "state_cells_with_freeze": cells_frozen,
        "state_cells_without_freeze": cells_open,
    })
    # Without freezes every superseded region keeps state copies in every
    # stage; with them the state is proportional to the live regions.
    assert cells_frozen * 5 < cells_open


def _event_keys(run):
    return [(int(e.kind), e.id, e.sub, e.tag, e.text, e.oid)
            for e in run.display.events()]


@pytest.mark.parametrize("name", list(PAPER_QUERIES) + ["ticker"])
def test_freeze_reclaims_peak_state(benchmark, workloads, name):
    """Section V ablation: ``freeze`` lets every stage drop the state it
    kept for revocability.  With ``reclaim_on_freeze=False`` freezes
    still flow and fix the mutability map, but no stage reclaims its
    per-region copies: the output stream must not change, the peak
    footprint must not shrink, and for the blocking operators (count,
    tuple construction, sort) and the ticker it more than doubles.
    Plain documents exercise it too — the compiler allocates mutable
    regions for its own revocable decisions and freezes them."""
    if name == "ticker":
        engine = XFlux(STOCK_QUERY, mutable_source=True)
        events = StockTicker(n_updates=200).events()
        interval = 32
    else:
        engine = XFlux(PAPER_QUERIES[name])
        events = workloads.events(QUERY_DATASET[name],
                                  oids=engine.compile().needs_oids)
        interval = 256

    def both():
        return [engine.run(events, metrics=True, sample_interval=interval,
                           reclaim_on_freeze=reclaim)
                for reclaim in (True, False)]

    on, off = benchmark.pedantic(both, rounds=1, iterations=1)
    assert _event_keys(on) == _event_keys(off)
    peak_on = on.metrics()["peak_cells_total"]
    peak_off = off.metrics()["peak_cells_total"]
    reduction = 1.0 - peak_on / peak_off if peak_off else 0.0
    benchmark.extra_info.update({
        "peak_cells_reclaiming": peak_on,
        "peak_cells_retaining": peak_off,
        "peak_reduction": round(reduction, 4),
    })
    assert peak_on <= peak_off
    assert off.stats()["state_cells"] >= on.stats()["state_cells"]
    if name in ("Q4", "Q7", "Q9", "ticker"):
        assert reduction > 0.5
    # The peaks above are read off footprint timelines: each must be
    # in stream order and carry the peak it reports.
    for stage in on.metrics()["stages"]:
        samples = stage["samples"]
        assert samples, (name, stage["label"])
        assert [s[0] for s in samples] == sorted(s[0] for s in samples)
        assert stage["peak_cells"] == max(s[1] for s in samples)
        assert stage["peak_regions"] == max(s[2] for s in samples)


def test_sort_unblocking(benchmark):
    """Section VI-D ablation: the sorted display grows continuously."""
    xml = XMarkGenerator(scale=0.02, seed=3).text()
    events = tokenize(xml)
    query = ("for $i in X//item order by $i/quantity "
             "return $i/quantity")
    engine = XFlux(query)

    def first_sorted_output():
        run = engine.start()
        for i, e in enumerate(events):
            run.feed(e)
            if run.display.tree.stats()["events"] > 2:
                return i
        run.finish()
        return len(events)

    at_event = benchmark.pedantic(first_sorted_output, rounds=3,
                                  iterations=1)
    benchmark.extra_info.update({
        "first_sorted_output_at_event": at_event,
        "stream_length": len(events),
    })
    # A blocking sort cannot emit before the end of the stream; the
    # insert-after strategy emits as soon as the first item's key is in.
    assert at_event < len(events) / 10


def test_descendant_buffering(benchmark):
    """Section VI-C ablation: //* without buffering vs with buffering.

    The buffered reference implementation caches each element's pending
    subtrees; the update-stream version keeps only a depth-high state.
    Compare peak auxiliary buffering on a deep document.
    """
    deep = ["<r>"]
    for _ in range(40):
        deep.append("<p>")
    deep.append("x")
    for _ in range(40):
        deep.append("</p>")
    deep.append("</r>")
    text = "".join(deep)
    events = tokenize(text)

    from repro.operators import DescendantStep

    def unblocked():
        ctx = Context()
        ctx.ids.reserve(0)
        out = ctx.fresh_id()
        disp = Display(out)
        pipe = Pipeline(ctx, [DescendantStep(ctx, 0, out, None)], disp)
        pipe.run(events)
        return max(len(w.t.levels) + 2 for w in pipe.wrappers), disp

    def buffered_reference():
        # Classic approach: per open element, buffer the copies of its
        # subtree until it closes.  Track the peak buffered event count.
        stack, peak = [], 0
        out = []
        for e in events:
            if e.abbrev == "sE":
                stack.append([])
            for buf in stack:
                buf.append(e)
            if e.abbrev == "eE":
                done = stack.pop()
                out.append(done)
            peak = max(peak, sum(len(b) for b in stack))
        return peak

    op_state, disp = benchmark.pedantic(unblocked, rounds=3, iterations=1)
    peak_buffered = buffered_reference()
    benchmark.extra_info.update({
        "unblocked_operator_state": op_state,
        "buffered_reference_peak_events": peak_buffered,
    })
    # The buffered version holds O(depth^2) events at the deepest point;
    # the operator state is O(depth).
    assert op_state * 10 < peak_buffered


def test_incremental_vs_reeval(benchmark):
    """Update streams vs recomputing from scratch on every update."""
    base = StockTicker(n_updates=0, mutable_names=False).events()
    updates = StockTicker(n_updates=100, mutable_names=False).events()
    # The suffix after the base snapshot is the update tail (strip the
    # shared close events from base).
    tail = updates[len(base) - 2:]
    query = STOCK_QUERY

    def incremental():
        engine = XFlux(query, mutable_source=True)
        run = engine.start()
        run.feed_all(base[:-2])
        start = time.perf_counter()
        run.feed_all(tail)
        run.finish()
        return time.perf_counter() - start

    def reevaluate():
        # Re-run the full query once per update (the strawman).
        engine = XFlux(query, mutable_source=True)
        start = time.perf_counter()
        for _ in range(10):  # 10 of the 100 updates, scaled below
            fresh = engine.start()
            fresh.feed_all(updates)
            fresh.finish()
        return (time.perf_counter() - start) * 10

    inc = benchmark.pedantic(incremental, rounds=3, iterations=1)
    ree = reevaluate()
    benchmark.extra_info.update({
        "incremental_secs_for_100_updates": round(inc, 4),
        "reeval_secs_for_100_updates": round(ree, 4),
    })
    assert inc < ree


def test_consumer_opt_out(benchmark):
    """Section V's consumer choice: ignoring updates prunes everything."""
    events = StockTicker(n_updates=300, mutable_names=True,
                         freeze_superseded=False, seed=6).events()
    q = STOCK_QUERY

    def opted_out():
        run = XFlux(q, ignore_updates=True).start()
        run.feed_all(events)
        run.finish()
        return run

    run = benchmark.pedantic(opted_out, rounds=3, iterations=1)
    tracking = XFlux(q, mutable_source=True).start()
    tracking.feed_all(events)
    tracking.finish()
    benchmark.extra_info.update({
        "state_cells_opted_out": run.stats()["state_cells"],
        "state_cells_tracking": tracking.stats()["state_cells"],
    })
    assert run.stats()["state_cells"] * 3 < tracking.stats()["state_cells"]


def test_scaling_memory_constant(benchmark):
    """Boundedness across scales: Q1's retained state is flat while the
    input grows ~5x (the asymptotic version of the paper's mem column)."""
    def measure(scale):
        text = XMarkGenerator(scale=scale, seed=13).text()
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(text)
        return len(text), run.stats()["state_cells"]

    def run_both():
        return measure(0.02), measure(0.10)

    (small, large) = benchmark.pedantic(run_both, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "small_bytes": small[0], "small_cells": small[1],
        "large_bytes": large[0], "large_cells": large[1],
    })
    assert large[0] > 4 * small[0]
    assert large[1] <= small[1] * 2
