"""State accounting is pinned along the whole stream, not only at its end.

For the paper queries Q1-Q9 (scale 0.1 documents) and the three ticker
queries (400 updates), every wrapper's ``account()`` — retained state
cells, live regions, region entries — is sampled every
:data:`INTERVAL` source events, and the pipeline's ``total_calls()`` is
taken at the end.  A change to how stages hold their state must leave
all of it exactly as it is: ``peak_mem_cells`` and
``wrapper.cells_reclaimed`` are sums of these cells.

The snapshot ``tests/data/state_trajectory.json`` is written by
``python tests/test_state_trajectory.py --write``; regenerate it only
for a change that means to move the accounting.  It holds true readings
throughout, dormant wrappers included.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

if __package__ in (None, ""):  # run as a script: make ``tests`` importable
    sys.path[:0] = [os.path.join(os.path.dirname(__file__), ".."),
                    os.path.join(os.path.dirname(__file__), "..", "src")]

from repro import QueryRun, XFlux  # noqa: E402
from repro.bench.harness import (PAPER_QUERIES, QUERY_DATASET,  # noqa: E402
                                 Workloads)
from tests.helpers import ticker_stream  # noqa: E402

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data",
                        "state_trajectory.json")
INTERVAL = 256
PAPER = ["Q{}".format(i) for i in range(1, 10)]
TICKER_SYMBOLS = ["IBM"] + ["S{:02d}".format(i) for i in range(1, 8)]
TICKER_QUERIES = {
    "ibm-price": 'stream()//quote[name="IBM"]/price',
    "ibm-count": 'count(stream()//quote[name="IBM"])',
    "all-prices": 'stream()//quote/price',
}
TICKER_UPDATES = 400


def trajectory(plan, events) -> dict:
    """Every wrapper's account every INTERVAL source events (and once
    after the end), and the total calls, of one plain run."""
    run = QueryRun(plan, sanitize=False, metrics=False, flight=False)
    wrappers = run.pipeline.wrappers
    samples = []
    for n, event in enumerate(events, 1):
        run.feed(event)
        if n % INTERVAL == 0:
            samples.append([list(w.account()) for w in wrappers])
    run.finish()
    samples.append([list(w.account()) for w in wrappers])
    return {"samples": samples, "total_calls": run.pipeline.total_calls()}


def cases():
    workloads = Workloads(xmark_scale=0.1, dblp_scale=0.1)
    for name in PAPER:
        plan = XFlux(PAPER_QUERIES[name]).compile()
        yield name, plan, workloads.events(QUERY_DATASET[name],
                                           oids=plan.needs_oids)
    prefix, updates = ticker_stream(TICKER_SYMBOLS, TICKER_UPDATES)
    events = prefix + [e for update in updates for e in update]
    for name, query in TICKER_QUERIES.items():
        yield name, XFlux(query, mutable_source=True).compile(), events


def compute() -> dict:
    return {name: trajectory(plan, events)
            for name, plan, events in cases()}


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("name", PAPER + list(TICKER_QUERIES))
def test_state_trajectory(name, snapshot, computed):
    want, got = snapshot[name], computed[name]
    assert got["total_calls"] == want["total_calls"]
    assert len(got["samples"]) == len(want["samples"])
    for k, (g, w) in enumerate(zip(got["samples"], want["samples"])):
        assert g == w, "{}: account moved at sample {}".format(name, k)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_state_trajectory.py "
                         "--write")
    with open(SNAPSHOT, "w") as f:
        json.dump(compute(), f, separators=(",", ":"))
        f.write("\n")
