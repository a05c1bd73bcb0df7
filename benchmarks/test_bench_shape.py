"""Shape checks: the relative structure of the paper's Table 2.

The reproduction is not expected to match the paper's absolute numbers
(Java on a 2008 Pentium 4 vs pure Python); the claims that must hold are
relative:

* the automata baseline is far faster than XFlux on query 3 (the paper
  measures 70 s vs 197 s on its hardware; the compositional ``//*``
  translation re-emits each element once per depth);
* ``//*``-based queries (Q3, Q6) have the largest transformer-call
  counts, an order of magnitude above Q1 (17 M vs 683 M in the paper);
* retained memory stays bounded (sub-MB equivalents) for every query.

The first two are claims about the paper's operators, so they are held
against the plan as compiled (``XFlux.compile(optimize=False)``:
``xflux_secs`` / ``calls_m`` of a row).  The plan the engine runs cuts
each ``//`` level's copy to what the rest of the plan reads
(``pruned_secs`` / ``pruned_calls_m``); what that does to the blow-up is
stated beside them.
"""

import time

import pytest

from repro.baselines.spex import SpexEngine
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, run_query
from repro.xquery.engine import XFlux


@pytest.fixture(scope="module")
def table(workloads):
    return {name: run_query(workloads, name) for name in PAPER_QUERIES}


def test_spex_beats_xflux_on_q3(benchmark, table):
    row = table["Q3"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"xflux_secs": row.xflux_secs, "pruned_secs": row.pruned_secs,
         "spex_secs": row.spex_secs})
    assert row.spex_secs is not None
    # The paper's gap is ~3x on its scale; ours is larger because Python
    # function-call overhead amplifies the event blow-up.
    assert row.spex_secs * 2 < row.xflux_secs
    # Pruned, Q3 still pays a bracket pair per element per level: the
    # automaton stays ahead.
    assert row.spex_secs < row.pruned_secs


def test_wildcard_queries_blow_up_call_counts(benchmark, table):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    calls = {name: row.calls_m for name, row in table.items()}
    pruned = {name: row.pruned_calls_m for name, row in table.items()}
    benchmark.extra_info.update(calls)
    benchmark.extra_info.update(
        {"pruned_" + name: value for name, value in pruned.items()})
    # Q3 and Q6 (//*-based) dominate Q1, as in the paper (683M/329M vs
    # 17M there).
    assert calls["Q3"] > 4 * calls["Q1"]
    assert calls["Q6"] > 4 * calls["Q1"]
    # Most of Q3's copies nobody reads (its predicate and child step
    # read two children of each candidate); Q6's second //* reads every
    # element boundary, so only its text goes.
    assert pruned["Q3"] < calls["Q3"] / 2
    assert calls["Q6"] * 0.5 < pruned["Q6"] < calls["Q6"]
    for name in calls:
        assert pruned[name] <= calls[name], name


def test_q1_has_best_xflux_throughput(benchmark, table):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rates = {name: row.mb_per_sec for name, row in table.items()
             if QUERY_DATASET[name] == "X"}
    benchmark.extra_info.update(rates)
    assert rates["Q1"] == max(rates.values())


def test_memory_bounded_for_all_queries(benchmark, table, workloads):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    mems = {name: row.mem_cells for name, row in table.items()}
    benchmark.extra_info.update(mems)
    for name, row in table.items():
        # Retained state stays a small fraction of the stream (the
        # paper's sub-MB column against multi-hundred-MB inputs).  Q9's
        # sort is the paper's largest consumer too (its key map grows
        # with the item count — "it still requires unbounded state").
        events_in = len(workloads.events(QUERY_DATASET[name]))
        factor = 2 if name == "Q9" else 1
        assert row.mem_cells < events_in * factor, name


def test_spex_results_match_xflux(benchmark, table):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for name in ("Q1", "Q2", "Q3", "Q8"):
        assert table[name].spex_matches, name


def test_first_output_latency_vs_blocking(benchmark, workloads):
    """Unblocking claim: XFlux shows its first answer long before the
    blocking baseline shows anything at all."""
    from repro.xmlio import tokenize
    text = workloads.xmark_text
    events = workloads.events("X")
    engine = XFlux(PAPER_QUERIES["Q1"])

    def first_output():
        run = engine.start()
        start = time.perf_counter()
        for i, e in enumerate(events):
            run.feed(e)
            if run.display.tree.stats()["events"] > 0:
                return time.perf_counter() - start, i
        run.finish()
        return time.perf_counter() - start, len(events)

    (latency, at_event) = benchmark.pedantic(first_output, rounds=3,
                                             iterations=1)
    benchmark.extra_info.update({
        "first_output_at_event": at_event,
        "stream_length": len(events),
    })
    # The first qualified item appears early in the stream, not at EOF.
    assert at_event < len(events) / 2
