"""Benchmark harness: regenerate the paper's evaluation tables.

The paper's Section VII reports two tabulations:

* **Table 1 (datasets)** — document size, SAX event count, tokenize time
  for the XMark (X) and DBLP (D) documents;
* **Table 2 (queries)** — per benchmark query: XFlux execution time,
  throughput (MB/s), SPEX time where SPEX supports the query, the number
  of state-transformer calls ("events"), and retained memory.  Time and
  calls are stated twice: for the plan as the paper's operators make it
  (``XFlux.compile(optimize=False)``, the paper's column — every ``//``
  level copies every event below it) and for the plan the engine runs,
  whose ``//`` steps copy what the rest of the plan reads.

This module measures the same quantities on the synthetic datasets (the
substitutions are documented in DESIGN.md): wall-clock times, transformer
dispatch counts from the pipeline wrappers, and retained state as counted
cells (transformer state copies + display regions/buffered events) — the
quantity Section V's mutability analysis bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..baselines.spex import SpexEngine, SpexError
from ..data.dblp import DBLPGenerator
from ..data.xmark import XMarkGenerator
from ..events.model import Event
from ..xmlio.tokenizer import tokenize
from ..xquery.engine import XFlux

#: The paper's nine benchmark queries, verbatim (X = XMark, D = DBLP).
PAPER_QUERIES: Dict[str, str] = {
    "Q1": 'X//europe//item[location="Albania"]/quantity',
    "Q2": 'X//item[location="Albania"][payment="Cash"]/location',
    "Q3": 'X//*[location="Albania"]/quantity',
    "Q4": 'count(X//item[location="Albania"]/..)',
    "Q5": 'count(X//item[location="Albania"]/ancestor::europe)',
    "Q6": 'count(X//item[location="Albania"]/ancestor::*//location)',
    "Q7": ('<result>{ for $c in X//item where $c/location = "Albania" '
           'return <item>{ $c/quantity, $c/payment }</item> }</result>'),
    "Q8": 'D//inproceedings[author="John Smith"]/title',
    "Q9": ('for $d in D//inproceedings '
           'where contains($d/author,"Smith") order by $d/year '
           'return ($d/year/text(),": ",$d/title/text(),"\\n")'),
}

#: Queries the paper also runs on SPEX (dashes elsewhere in its table).
SPEX_QUERIES = ("Q1", "Q2", "Q3", "Q8")

#: Which dataset each query reads.
QUERY_DATASET = {q: ("D" if q in ("Q8", "Q9") else "X")
                 for q in PAPER_QUERIES}


def timed(fn):
    """Run ``fn`` once under the wall clock; returns (secs, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@dataclass
class DatasetStats:
    """One row of the paper's dataset table."""
    name: str
    document: str
    size_mb: float
    events_m: float
    tokenize_secs: float

    def row(self) -> str:
        return "{:<8} {:>4} {:>9.2f} {:>9.3f} {:>9.3f}".format(
            self.name, self.document, self.size_mb, self.events_m,
            self.tokenize_secs)


@dataclass
class QueryStats:
    """One row of the paper's query table.

    ``xflux_secs``, ``mb_per_sec`` and ``calls_m`` are the as-compiled
    plan's (the paper's column); ``pruned_secs`` and ``pruned_calls_m``
    are those of the plan the engine runs.
    """
    query: str
    xflux_secs: float
    mb_per_sec: float
    spex_secs: Optional[float]
    calls_m: float
    mem_cells: int
    pruned_secs: float = 0.0
    pruned_calls_m: float = 0.0
    result_preview: str = ""
    spex_matches: Optional[bool] = None

    def row(self) -> str:
        spex = ("{:>8.3f}".format(self.spex_secs)
                if self.spex_secs is not None else "       -")
        return ("{:<4} {:>9.3f} {:>9.3f} {:>7.2f} {} {:>9.3f} {:>9.3f} "
                "{:>10}".format(self.query, self.xflux_secs,
                                self.pruned_secs, self.mb_per_sec, spex,
                                self.calls_m, self.pruned_calls_m,
                                self.mem_cells))


class Workloads:
    """Materialized datasets for one benchmark run."""

    def __init__(self, xmark_scale: float = 0.05,
                 dblp_scale: float = 0.05, seed: int = 42) -> None:
        self.xmark_scale = xmark_scale
        self.dblp_scale = dblp_scale
        self.xmark_text = XMarkGenerator(scale=xmark_scale,
                                         seed=seed).text()
        self.dblp_text = DBLPGenerator(scale=dblp_scale,
                                       seed=seed).text()
        self._event_cache: Dict[tuple, List[Event]] = {}

    def text(self, dataset: str) -> str:
        return self.xmark_text if dataset == "X" else self.dblp_text

    def events(self, dataset: str, oids: bool = False) -> List[Event]:
        key = (dataset, oids)
        if key not in self._event_cache:
            self._event_cache[key] = tokenize(self.text(dataset),
                                              emit_oids=oids)
        return self._event_cache[key]

    def dataset_stats(self) -> List[DatasetStats]:
        out = []
        for name, doc in (("XMark", "X"), ("DBLP", "D")):
            text = self.text(doc)
            secs, events = timed(lambda t=text: tokenize(t))
            out.append(DatasetStats(
                name=name, document=doc,
                size_mb=len(text) / 1e6,
                events_m=len(events) / 1e6,
                tokenize_secs=secs))
        return out


def run_query(workloads: Workloads, name: str,
              query: Optional[str] = None) -> QueryStats:
    """Execute one benchmark query on XFlux (and SPEX when supported)."""
    text = workloads.text(QUERY_DATASET.get(name, "X"))
    query = query if query is not None else PAPER_QUERIES[name]
    engine = XFlux(query)
    from ..xquery.engine import QueryRun
    # The paper's operators first, then the plan the engine runs.
    measured = []
    for optimize in (False, None):
        plan = engine.compile(optimize=optimize)
        events = workloads.events(QUERY_DATASET.get(name, "X"),
                                  oids=plan.needs_oids)
        run = QueryRun(plan)
        secs, _ = timed(lambda: (run.feed_all(events), run.finish()))
        measured.append((secs, run.stats()))
    (secs, stats), (pruned_secs, pruned_stats) = measured
    mem = stats["state_cells"] + stats["display"]["peak_regions"]

    spex_secs: Optional[float] = None
    spex_matches: Optional[bool] = None
    if name in SPEX_QUERIES:
        try:
            spex = SpexEngine.from_query(query)
        except SpexError:
            spex = None
        if spex is not None:
            plain = workloads.events(QUERY_DATASET.get(name, "X"))
            spex_secs, _ = timed(lambda: spex.process_all(plain))
            spex_matches = spex.text() == run.text()

    return QueryStats(
        query=name,
        xflux_secs=secs,
        mb_per_sec=(len(text) / 1e6) / secs if secs > 0 else 0.0,
        spex_secs=spex_secs,
        calls_m=stats["transformer_calls"] / 1e6,
        mem_cells=mem,
        pruned_secs=pruned_secs,
        pruned_calls_m=pruned_stats["transformer_calls"] / 1e6,
        result_preview=run.text()[:60],
        spex_matches=spex_matches)


def run_all(workloads: Optional[Workloads] = None,
            queries: Optional[Sequence[str]] = None) -> List[QueryStats]:
    """Run the full benchmark suite; returns one row per query."""
    workloads = workloads if workloads is not None else Workloads()
    names = list(queries) if queries is not None else list(PAPER_QUERIES)
    return [run_query(workloads, name) for name in names]


def format_report(datasets: List[DatasetStats],
                  rows: List[QueryStats]) -> str:
    """Render both tables in the paper's layout."""
    lines = ["Datasets (paper Table 1 analogue)",
             "{:<8} {:>4} {:>9} {:>9} {:>9}".format(
                 "bench", "doc", "size MB", "events M", "time s")]
    lines.extend(d.row() for d in datasets)
    lines.append("")
    lines.append("Queries (paper Table 2 analogue)")
    lines.append("{:<4} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9} {:>10}".format(
        "Q", "XFlux s", "pruned s", "MB/s", "SPEX s", "calls M",
        "pruned M", "mem cells"))
    lines.extend(r.row() for r in rows)
    return "\n".join(lines)
