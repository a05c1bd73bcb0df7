"""The four workloads: their inputs, their oracle answers and their passes.

Every pass calls the engine the way a user does — ``XFlux.run_xml``,
``XFlux.start`` and ``MultiQueryRun.run_xml`` with their default
arguments — and every layer is measured from outside, by timing calls
into its public functions.  Nothing here reads ``repro.bench``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import (Display, MultiQueryRun, QueryRun, XFlux, apply_updates,
                   tokenize)
from repro.baselines.dom_eval import evaluate_to_xml
from repro.data.dblp import DBLPGenerator
from repro.data.stock import StockTicker
from repro.data.xmark import LOCATIONS, PAYMENTS, REGIONS, XMarkGenerator
from repro.events import Kind, dumps
from repro.events.codec import decode_batch, encode_batch
from repro.parallel import ShardedMultiQueryRun, available_workers
from repro.xmlio import parse, write_events
from repro.xquery.parser import parse as parse_query

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space of the durable variant; inside the checkout, ignored by git.
TMP = ROOT / ".bench_tmp"
DEFAULT_SEED = 42

#: The paper's nine benchmark queries (X = XMark, D = DBLP).
QUERIES: Dict[str, str] = {
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

#: The queries that read the DBLP document; all others read XMark.
DBLP_QUERIES = ("Q8", "Q9")

#: Sixteen cheap standing queries with long common prefixes.
MULTI_QUERIES: List[Tuple[str, str]] = (
    [("loc-" + loc.replace(" ", "_"),
      'X//item[location="{}"]/quantity'.format(loc))
     for loc in LOCATIONS[:6]]
    + [("pay-" + pay.replace(" ", "_"),
        'X//item[location="Albania"][payment="{}"]/location'.format(pay))
       for pay in PAYMENTS]
    + [("reg-" + reg,
        'X//{}//item[location="Albania"]/quantity'.format(reg))
       for reg in REGIONS])

#: Eight symbols and 4000 updates make each replace chain ~500 deep.
#: Updates that flip a name to or from IBM are the latency tail: 2.5 %
#: of all updates, so that p99 falls inside that class, not on its edge.
TICKER_SYMBOLS = ["IBM"] + ["S{:02d}".format(i) for i in range(1, 8)]
TICKER_QUERIES = [
    ("ibm-price", 'stream()//quote[name="IBM"]/price'),
    ("ibm-count", 'count(stream()//quote[name="IBM"])'),
    ("all-prices", 'stream()//quote/price'),
]
#: Source region ids start far above the engine's own IdGenerator
#: (first=1000); with the generator's default of 1 they collide after
#: ~1050 updates and two of the three answers go wrong, which the
#: set-up probe keeps on the record.
TICKER_FIRST_REGION = 10_000_000
EVENTS_PER_UPDATE = 6

#: Every stream is cut into this many slices in the traced pass, so the
#: first and the last fifth are four slices each.
SLICES = 20

#: Bytes of items per XMark region at scale 1.0 (180 items of ~590 bytes).
XMARK_REGION_BYTES = 106_000

#: workload -> (size, smoke size): document scale, or number of updates.
#: Documents are small so that a run holds many passes of short
#: operations: the host's bursts last milliseconds, and the more often an
#: operation is timed the surer some of its timings are clean.  Cut to a
#: fixed size and fixed counts, they vary little in work over seeds.
SIZES = {"doc_light": (0.1, 0.02), "doc_heavy": (0.1, 0.02),
         "multi_query": (0.1, 0.02), "ticker": (4000, 400)}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pick(sizes: List[int], count: int, budget: int) -> List[int]:
    """Indices of ``count`` of the sizes whose sum is nearest the budget."""
    # reach[i][k] has bit s set when k of the first i sizes can sum to s.
    reach = [[1] + [0] * count]
    for size in sizes:
        last = reach[-1]
        reach.append([1] + [last[k] | last[k - 1] << size
                            for k in range(1, count + 1)])
    sums = reach[-1][count]
    if not sums:
        raise SystemExit("fewer than {} candidates to pick from".format(count))
    total = min((s for s in range(sums.bit_length()) if sums >> s & 1),
                key=lambda s: abs(s - budget))
    picked = []
    for i in range(len(sizes) - 1, -1, -1):
        if not reach[i][count - len(picked)] >> total & 1:
            picked.append(i)
            total -= sizes[i]
    return picked[::-1]


def xmark_document(seed: int, scale: float) -> str:
    """An XMark document whose size does not depend on the seed.

    The generator fixes the item count and lets item sizes vary, so
    documents of one scale differ by 6 % in length from seed to seed and
    every timing moves with them; cut to a byte budget alone, they
    differ by 20 % in items, and the state Q7 retains with them.
    Generate twice the items and keep, region by region, the scale's
    count of items whose bytes come nearest the budget; a region that
    misses it leaves the difference to the next one.
    """
    count = XMarkGenerator(scale=scale).items_per_region()
    budget = int(XMARK_REGION_BYTES * scale)
    parts: List[str] = []
    items: List[str] = []
    room = 0
    for chunk in XMarkGenerator(scale=scale * 2, seed=seed).chunks():
        if chunk.startswith("<item>"):
            items.append(chunk)
            continue
        if items:
            room += budget
            for i in pick([len(item) for item in items], count, room):
                parts.append(items[i])
                room -= len(items[i])
            items = []
        parts.append(chunk)
    return "".join(parts)


def dblp_document(seed: int, scale: float) -> str:
    """A DBLP document whose record counts do not depend on the seed.

    The generator draws each record's kind, so the inproceedings that
    Q9 holds to sort differ by 10 % from seed to seed.  Generate half
    as many records again and keep the first 70 % of the scale's count
    that are inproceedings and the first 30 % that are articles.
    """
    records = DBLPGenerator(scale=scale).record_count()
    room = {"<inproceedings>": records * 7 // 10}
    room["<article>"] = records - room["<inproceedings>"]
    parts = []
    for chunk in DBLPGenerator(scale=scale * 1.5, seed=seed).chunks():
        kind = chunk[:chunk.index(">") + 1]
        if kind in room:
            if not room[kind]:
                continue
            room[kind] -= 1
        parts.append(chunk)
    if any(room.values()):
        raise SystemExit("dblp: too few records of a kind: {}".format(room))
    return "".join(parts)


def eager_answer(query: str, events: list) -> str:
    """The paper's claim as an oracle: apply every update eagerly,
    re-parse, and evaluate the query naively over the final document."""
    root = parse("<stream>{}</stream>".format(
        write_events(apply_updates(events))))
    return evaluate_to_xml(parse_query(query), root)


@dataclass
class Group:
    """Queries that read one input: a document, or an update stream."""
    key: str
    queries: List[Tuple[str, str]]
    text: Optional[str] = None
    events: Optional[list] = None
    schema: Optional[str] = None
    oracle: List[str] = field(default_factory=list)

    @property
    def mutable(self) -> bool:
        return self.events is not None

    def input_digest(self) -> str:
        if self.text is not None:
            return sha256(self.text)
        return sha256(dumps(self.events))


@dataclass
class PassResult:
    """One pass: seconds per operation, the answers, the live runs.

    A traced pass has no operations; it fills the last three instead:
    seconds per slice of each stream, events tokenized, and with
    ``capture`` the (result id, sink events) of every display.
    """
    ops: List[float] = field(default_factory=list)
    texts: List[Optional[str]] = field(default_factory=list)
    runs: list = field(default_factory=list)
    slices: List[List[float]] = field(default_factory=list)
    tokenized: int = 0
    captured: List[Tuple[int, list]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.ops)


def _query_kwargs(fuse, metrics) -> dict:
    """Keyword arguments of QueryRun / MultiQueryRun for a variant."""
    kw = {}
    if fuse is not None:
        kw["fuse"] = fuse
    if metrics:
        kw.update(metrics=True, sample_interval=256)
    return kw


class Workload:
    """One named workload.  Subclasses build ``groups`` and drive passes."""

    #: How queries are executed in the timed pass.
    native_mode = "independent"
    #: Whether the queries hold their state at the same time, so that
    #: their peak cells add up; otherwise the largest one counts.
    concurrent = False

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.size = SIZES[name][1 if smoke else 0]
        self.groups: List[Group] = []
        #: Answers the set-up probe found wrong (ticker only).
        self.id_collision_mismatches = 0

    # -- set-up ----------------------------------------------------------------

    def build_groups(self) -> List[Group]:
        raise NotImplementedError

    def answers(self, group: Group) -> List[str]:
        """The oracle's answer to each query of the group."""
        raise NotImplementedError

    def setup(self, pin: bool = False) -> None:
        """Inputs from the seed, pinned digests, oracle answers, warm-up."""
        self.groups = self.build_groups()
        for group in self.groups:
            group.oracle = self.answers(group)
        self.check_digests(pin)
        self.run_probe()
        warm = self.run_pass()
        if self.mismatches(warm):
            raise SystemExit("{}: warm-up answers differ from the oracle"
                             .format(self.name))

    def run_probe(self) -> None:
        """Known-defect probes of this workload (untimed, never fatal)."""

    def digests(self) -> Dict[str, str]:
        out = {}
        for group in self.groups:
            out["input." + group.key] = group.input_digest()
            for (name, _), text in zip(group.queries, group.oracle):
                out["oracle." + name] = sha256(text)
        return out

    def check_digests(self, pin: bool) -> None:
        """Default-seed inputs and answers must match the committed ones."""
        if self.seed != DEFAULT_SEED:
            return
        path = HERE / "digests.json"
        pinned = json.loads(path.read_text()) if path.exists() else {}
        key = "{}.{}".format(self.name, "smoke" if self.smoke else "full")
        if pin:
            pinned[key] = self.digests()
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                            + "\n")
        elif pinned.get(key) != self.digests():
            raise SystemExit(
                "{}: generator or oracle drifted: seed {} no longer gives "
                "the inputs and answers pinned in digests.json (re-pin "
                "with --pin if the change is intended)".format(
                    key, DEFAULT_SEED))

    # -- passes ----------------------------------------------------------------

    @property
    def oracle(self) -> List[str]:
        return [text for group in self.groups for text in group.oracle]

    def mismatches(self, result: PassResult) -> int:
        return sum(1 for got, want in zip(result.texts, self.oracle)
                   if got != want)

    def run_pass(self, mode: Optional[str] = None, **variant) -> PassResult:
        raise NotImplementedError

    def traced_pass(self, tracer: Tracer, capture: bool = False
                    ) -> PassResult:
        """The native pass in staged form, one span per layer call.

        With ``capture`` every display also records the events its
        pipeline hands it.  Keeping them alive costs the collector ~10 %
        of the pass, so the pass that captures is not the one timed.
        """
        raise NotImplementedError

    def first_query_once(self) -> None:
        """Run the workload's first query alone, start to answer."""
        raise NotImplementedError

    def midstream_checkpoint(self) -> Callable[[], bytes]:
        """Feed the first query half its input; return its checkpoint call."""
        raise NotImplementedError

    def source_events(self, group: Group) -> list:
        return group.events if group.mutable else tokenize(group.text)

    def tokenizer_sample(self) -> Optional[str]:
        """A text to time the tokenizer on when it is off the workload's
        path; None when the traced pass tokenizes the inputs itself."""
        return None


def _multiplexed(group: Group, fuse=None, metrics=False, projection=False,
                 share=None) -> MultiQueryRun:
    kw = _query_kwargs(fuse, metrics)
    if projection:
        kw.update(projection=True, schema=group.schema)
    if share is not None:
        kw["share_prefixes"] = share
    return MultiQueryRun([q for _, q in group.queries],
                         mutable_source=group.mutable, **kw)


class XmlWorkload(Workload):
    """Whole documents in, answers out: doc_light, doc_heavy, multi_query."""

    def __init__(self, name, seed, smoke, queries, native_mode) -> None:
        super().__init__(name, seed, smoke)
        self.queries = queries
        self.native_mode = native_mode
        self.concurrent = native_mode == "multiplexed"

    def build_groups(self) -> List[Group]:
        docs = {"X": ("xmark", lambda: xmark_document(self.seed, self.size)),
                "D": ("dblp", lambda: dblp_document(self.seed, self.size))}
        groups = []
        for key, (schema, make) in docs.items():
            queries = [(n, q) for n, q in self.queries
                       if DBLP_QUERIES.count(n) == (key == "D")]
            if queries:
                groups.append(Group(key, queries, text=make(), schema=schema))
        return groups

    def answers(self, group: Group) -> List[str]:
        root = parse(group.text)
        return [evaluate_to_xml(parse_query(q), root)
                for _, q in group.queries]

    def run_pass(self, mode=None, fuse=None, metrics=False, projection=False,
                 share=None, durable=None) -> PassResult:
        mode = mode or self.native_mode
        result = PassResult()
        clock = time.perf_counter
        for g, group in enumerate(self.groups):
            if mode == "independent":
                kw = _query_kwargs(fuse, metrics)
                if projection:
                    kw.update(projection=True, schema=group.schema)
                for i, (_, query) in enumerate(group.queries):
                    if durable:
                        kw["durable"] = os.path.join(
                            durable, "{}-{}".format(g, i))
                    start = clock()
                    run = XFlux(query).run_xml(group.text, **kw)
                    text = run.text()
                    result.ops.append(clock() - start)
                    result.texts.append(text)
                    result.runs.append(run)
            elif mode == "multiplexed":
                kw = ({"durable": os.path.join(durable, str(g))}
                      if durable else {})
                start = clock()
                mq = _multiplexed(group, fuse, metrics, projection, share)
                texts = mq.run_xml(group.text, **kw).texts()
                result.ops.append(clock() - start)
                result.texts.extend(texts)
                result.runs.append(mq)
            else:
                start = clock()
                with ShardedMultiQueryRun(
                        [q for _, q in group.queries],
                        workers=min(2, available_workers())) as sharded:
                    texts = sharded.run_xml(group.text).texts()
                result.ops.append(clock() - start)
                result.texts.extend(texts)
                result.runs.append(sharded)
        return result

    def traced_pass(self, tracer: Tracer, capture: bool = False
                    ) -> PassResult:
        result = PassResult()
        with tracer.span("pass"):
            for group in self.groups:
                if self.native_mode == "independent":
                    for name, query in group.queries:
                        self._staged(tracer, result, group, name, [query],
                                     capture)
                else:
                    self._staged(tracer, result, group, "all",
                                 [q for _, q in group.queries], capture)
        return result

    def _staged(self, tracer, result, group, name, queries, capture) -> None:
        multiplexed = self.native_mode == "multiplexed"
        feed_span = "mux.feed_batch" if multiplexed else "pipeline.feed"
        with tracer.span("query:" + name, query=name):
            with tracer.span("compile"):
                if multiplexed:
                    run = _multiplexed(group)
                    source, oids = run.source_id, run.needs_oids
                    displays = [run.query_run(i).display
                                for i in range(len(queries))]
                else:
                    plan = XFlux(queries[0]).compile()
                    run = QueryRun(plan)
                    source, oids = plan.source_id, plan.needs_oids
                    displays = [run.display]
            captured = capture_sink_events(displays) if capture else []
            with tracer.span("tokenize"):
                events = tokenize(group.text, stream_id=source,
                                  emit_oids=oids)
            step = -(-len(events) // SLICES)
            slices = []
            for i in range(0, len(events), step):
                chunk = events[i:i + step]
                start = time.perf_counter()
                with tracer.span(feed_span):
                    run.feed_all(chunk)
                slices.append(time.perf_counter() - start)
            with tracer.span("pipeline.finish"):
                run.finish()
            with tracer.span("display.text"):
                texts = run.texts() if multiplexed else [run.text()]
        result.texts.extend(texts)
        result.runs.append(run)
        result.captured.extend(captured)
        result.tokenized += len(events)
        result.slices.append(slices)

    def first_query_once(self) -> None:
        group = self.groups[0]
        XFlux(group.queries[0][1]).run_xml(group.text).text()

    def midstream_checkpoint(self) -> Callable[[], bytes]:
        group = self.groups[0]
        plan = XFlux(group.queries[0][1]).compile()
        run = QueryRun(plan)
        events = tokenize(group.text, stream_id=plan.source_id,
                          emit_oids=plan.needs_oids)
        run.feed_all(events[:len(events) // 2])
        return run.checkpoint


class TickerWorkload(Workload):
    """An unbounded update stream tracked by three standing displays."""

    concurrent = True

    def build_groups(self) -> List[Group]:
        return [Group("T", TICKER_QUERIES,
                      events=self._stream(self.size, TICKER_FIRST_REGION))]

    def _stream(self, n_updates: int, first_region: int) -> list:
        return StockTicker(TICKER_SYMBOLS, n_updates=n_updates,
                           name_update_fraction=0.1, seed=self.seed,
                           first_region=first_region).events()

    def answers(self, group: Group) -> List[str]:
        return [eager_answer(q, group.events) for _, q in group.queries]

    def run_probe(self) -> None:
        """Count the answers the id-space collision gets wrong."""
        events = self._stream(400 if self.smoke else 1500, first_region=1)
        wrong = 0
        for _, query in TICKER_QUERIES:
            got = XFlux(query, mutable_source=True).run(events).text()
            wrong += got != eager_answer(query, events)
        self.id_collision_mismatches = wrong

    def _split(self) -> Tuple[list, List[list], list]:
        """Snapshot prefix, one event list per update, closing events."""
        events = self.groups[0].events
        first = next(i for i, e in enumerate(events)
                     if e.kind == Kind.START_REPLACE)
        body = events[first:-2]
        if len(body) != self.size * EVENTS_PER_UPDATE:
            raise SystemExit("ticker: update stream is not {} events per "
                             "update".format(EVENTS_PER_UPDATE))
        updates = [body[i:i + EVENTS_PER_UPDATE]
                   for i in range(0, len(body), EVENTS_PER_UPDATE)]
        return events[:first], updates, events[-2:]

    def run_pass(self, mode=None, fuse=None, metrics=False,
                 share=None) -> PassResult:
        """Feed each update event by event to every standing query, then
        read every display; one operation per update."""
        mode = mode or self.native_mode
        group = self.groups[0]
        if mode == "multiplexed":
            runs = [_multiplexed(group, fuse, metrics, share=share)]
        else:
            runs = [XFlux(q, mutable_source=True).start(
                        **_query_kwargs(fuse, metrics))
                    for _, q in group.queries]
        prefix, updates, tail = self._split()
        for run in runs:
            run.feed_all(prefix)
        read = "texts" if mode == "multiplexed" else "text"
        feeds = [run.feed for run in runs]
        reads = [getattr(run, read) for run in runs]
        clock = time.perf_counter
        ops = []
        for update in updates:
            start = clock()
            for event in update:
                for feed in feeds:
                    feed(event)
            for read_display in reads:
                read_display()
            ops.append(clock() - start)
        for run in runs:
            run.feed_all(tail)
            run.finish()
        texts = (runs[0].texts() if mode == "multiplexed"
                 else [run.text() for run in runs])
        return PassResult(ops, texts, runs)

    def traced_pass(self, tracer: Tracer, capture: bool = False
                    ) -> PassResult:
        """Query-major inside each window of updates: one span per query
        per window, one per feed and per read.  The standing queries
        start before the pass, as in the timed one."""
        group = self.groups[0]
        with tracer.span("compile"):
            runs = [XFlux(q, mutable_source=True).start()
                    for _, q in group.queries]
        captured = (capture_sink_events([run.display for run in runs])
                    if capture else [])
        prefix, updates, tail = self._split()
        for run in runs:
            run.feed_all(prefix)
        step = -(-len(updates) // SLICES)
        slices = []
        clock = time.perf_counter_ns
        with tracer.span("pass"):
            for i in range(0, len(updates), step):
                window = updates[i:i + step]
                start = time.perf_counter()
                for (name, _), run in zip(group.queries, runs):
                    feed, read = run.feed, run.text
                    with tracer.span("query:" + name, query=name):
                        for update in window:
                            fed_from = clock()
                            for event in update:
                                feed(event)
                            read_from = clock()
                            read()
                            tracer.add("pipeline.feed", fed_from, read_from)
                            tracer.add("display.text", read_from, clock())
                slices.append(time.perf_counter() - start)
        for run in runs:
            run.feed_all(tail)
            run.finish()
        return PassResult(texts=[run.text() for run in runs], runs=runs,
                          slices=[slices], captured=captured)

    def tokenizer_sample(self) -> str:
        """The eagerly updated document, as XML."""
        return write_events(apply_updates(self.groups[0].events))

    def first_query_once(self) -> None:
        group = self.groups[0]
        XFlux(group.queries[0][1], mutable_source=True).run(
            group.events).text()

    def midstream_checkpoint(self) -> Callable[[], bytes]:
        group = self.groups[0]
        run = XFlux(group.queries[0][1], mutable_source=True).start()
        run.feed_all(group.events[:len(group.events) // 2])
        return run.checkpoint


def capture_sink_events(displays: list) -> List[Tuple[int, list]]:
    """Record, per display, every event its pipeline hands it."""
    captured = []
    for display in displays:
        events: list = []
        display.on_change = lambda event, _display, add=events.append: \
            add(event)
        captured.append((display.result_id, events))
    return captured


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    def paper(names):
        return [(n, QUERIES[n]) for n in names]
    if name == "doc_light":
        return XmlWorkload(name, seed, smoke,
                           paper(("Q1", "Q2", "Q5", "Q7", "Q8")),
                           "independent")
    if name == "doc_heavy":
        return XmlWorkload(name, seed, smoke,
                           paper(("Q3", "Q4", "Q6", "Q9")), "independent")
    if name == "multi_query":
        return XmlWorkload(name, seed, smoke, MULTI_QUERIES, "multiplexed")
    if name == "ticker":
        return TickerWorkload(name, seed, smoke)
    raise SystemExit("unknown workload {!r}".format(name))


WORKLOADS = ("doc_light", "doc_heavy", "ticker", "multi_query")


# -- measurements shared by all workloads -----------------------------------------


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def collected_pass(workload: Workload, **variant) -> PassResult:
    gc.collect()
    return workload.run_pass(**variant)


def collected_trace(workload: Workload, capture: bool = False
                    ) -> Tuple[Tracer, PassResult]:
    tracer = Tracer(workload.name)
    gc.collect()
    return tracer, workload.traced_pass(tracer, capture)


def durable_pass(workload: Workload) -> Tuple[PassResult, int]:
    """The native pass journalled to a write-ahead log; bytes logged."""
    TMP.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=TMP)
    try:
        result = collected_pass(workload, durable=directory)
        logged = sum(os.path.getsize(os.path.join(base, f))
                     for base, _, files in os.walk(directory)
                     for f in files)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return result, logged


def replay_display(captured: List[Tuple[int, list]]) -> float:
    """Seconds fresh Displays take to consume the captured sink events."""
    seconds = 0.0
    for result_id, events in captured:
        process = Display(result_id).process
        start = time.perf_counter()
        for event in events:
            process(event)
        seconds += time.perf_counter() - start
    return seconds


def codec_round_trip(events: list) -> Tuple[float, float, int]:
    """Encode and decode the events in 512-event batches."""
    batches = [events[i:i + 512] for i in range(0, len(events), 512)]
    encode_s, payloads = timed(lambda: [encode_batch(b) for b in batches])
    decode_s, decoded = timed(lambda: [decode_batch(p) for p in payloads])
    if [len(b) for b in decoded] != [len(b) for b in batches]:
        raise SystemExit("codec round trip lost events")
    return encode_s, decode_s, sum(len(p) for p in payloads)


def peak_heap_mb(workload: Workload) -> float:
    tracemalloc.start()
    try:
        workload.first_query_once()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
