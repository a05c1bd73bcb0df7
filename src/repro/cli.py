"""Command-line interface: ``python -m repro``.

Run a streaming XQuery over an XML document or a serialized update stream:

    python -m repro 'X//book[author="Joyce"]/title' catalog.xml
    python -m repro --events 'stream()//quote/price' ticker.events
    cat catalog.xml | python -m repro 'count(X//book)'

Options:
    --events           input is the textual event format (repro.events),
                       typically containing embedded updates
    --mutable-source   keep predicate decisions revocable (input embeds
                       updates)
    --ignore-updates   consumer opt-out: treat all updates as void
    --follow           print the display every time it changes (the
                       continuous answer), not just the final result
    --stats            print execution metrics to stderr
    --metrics          record per-stage telemetry while running and
                       print it as JSON to stderr (also: REPRO_METRICS=1)
    --sanitize         validate the inter-stage event protocol while
                       running (also: REPRO_SANITIZE=1)
    --projection       derive the plan's path projection and skip
                       irrelevant subtrees in the tokenizer (add
                       --schema xmark|dblp to sharpen //-led paths)
    --query-file FILE  read the query text from a file instead of argv

There is also a static plan analyzer that lints a compiled pipeline
without running it — per-stage memory classes, the precomputed fix map,
update reachability (paper query names Q1..Q9 are accepted as shorthand):

    python -m repro analyze 'X//europe//item/quantity'
    python -m repro analyze Q7 --input auction.xml
    python -m repro analyze Q3 --json
    python -m repro analyze --sharing        # joint Q1..Q9 prefix trie
    python -m repro analyze Q1 --types --schema xmark  # type checker

two telemetry subcommands that run a query with the observability
layer attached (paper query names synthesize their dataset when no
input is given, so ``python -m repro trace Q3`` works standalone):

    python -m repro stats Q1                 # per-stage metrics JSON
    python -m repro trace Q3 --input doc.xml # update-provenance JSON
    python -m repro trace Q3 --format=chrome # Chrome/Perfetto trace

an export subcommand that emits the recorded telemetry in standard
interchange formats (Chrome trace-event JSON for chrome://tracing /
ui.perfetto.dev, OpenMetrics text for Prometheus tooling):

    python -m repro export trace Q3 --out q3_trace.json
    python -m repro export metrics Q1 --out q1.prom

and a chaos subcommand that runs a sharded multi-query workload under
a scripted fault plan and proves the recovery machinery by byte-level
differential against a clean run (see repro.fault for the spec
grammar):

    python -m repro chaos --fault-plan 'kill:shard=0,after=3'
    python -m repro chaos --fault-plan 'corrupt:frame=5' --report-dir ci

a whole-process crash mode of the same subcommand that SIGKILLs a
durable run at seeded points and proves recovery from the write-ahead
log is byte-identical:

    python -m repro chaos --crash --seeds 1,2,3 --workers 1
    python -m repro chaos --crash --workers 3 --report-dir ci

and a recover subcommand that rebuilds a crashed run from its
write-ahead log directory (see repro.fault.wal / repro.fault.recover):

    python -m repro recover /var/run/job/wal --input catalog.xml
    python -m repro recover ./wal --json --report-dir ci
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable, Optional

from .events.serialize import iter_loads
from .xmlio.tokenizer import XMLTokenizer, tokenize
from .xquery.engine import ENV_FLAGS, XFlux, env_flag


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Streaming XQuery over XML update streams (XFlux "
                    "reproduction)")
    ap.add_argument("query", nargs="?",
                    help="query text (or use --query-file)")
    ap.add_argument("input", nargs="?",
                    help="input file (default: stdin)")
    ap.add_argument("--query-file", help="read the query from this file")
    ap.add_argument("--events", action="store_true",
                    help="input is the textual event-stream format")
    ap.add_argument("--mutable-source", action="store_true",
                    help="the input embeds updates; keep decisions "
                         "revocable")
    ap.add_argument("--ignore-updates", action="store_true",
                    help="consumer opt-out: ignore all embedded updates")
    ap.add_argument("--follow", action="store_true",
                    help="print the display whenever it changes")
    ap.add_argument("--stats", action="store_true",
                    help="print execution metrics to stderr")
    ap.add_argument("--metrics", action="store_true",
                    help="record per-stage telemetry and print it as "
                         "JSON to stderr (also: REPRO_METRICS=1)")
    ap.add_argument("--sanitize", action="store_true",
                    help="validate the inter-stage event protocol while "
                         "running (raises on the first violation)")
    ap.add_argument("--projection", action="store_true",
                    help="derive the plan's path projection and skip "
                         "irrelevant subtrees in the tokenizer (XML "
                         "input only; byte-identical by construction)")
    ap.add_argument("--schema",
                    help="schema refinement for --projection: 'xmark', "
                         "'dblp', or a DTD file path")
    ap.add_argument("--max-depth", type=int, default=None,
                    help="reject documents nesting elements deeper than "
                         "this (structured error instead of unbounded "
                         "stack growth)")
    ap.add_argument("--max-token-bytes", type=int, default=None,
                    help="reject any single tag or character-data run "
                         "larger than this many bytes")
    ap.add_argument("--max-attrs", type=int, default=None,
                    help="reject elements carrying more attributes "
                         "than this")
    ap.add_argument("--flight", action="store_true",
                    help="keep a bounded flight-recorder ring of recent "
                         "events for post-mortem bundles (also: "
                         "REPRO_FLIGHT=1)")
    return ap


def build_analyze_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro analyze",
        description="Statically analyze a compiled query pipeline: "
                    "per-stage memory classes, tracked/emitted update "
                    "brackets, the precomputed fix map, and lints.")
    ap.add_argument("query", nargs="?",
                    help="query text, or a paper query name Q1..Q9")
    ap.add_argument("--query-file", help="read the query from this file")
    ap.add_argument("--mutable-source", action="store_true",
                    help="analyze assuming the input embeds updates")
    ap.add_argument("--input",
                    help="also run the query over this XML document and "
                         "check the static fix map against the runtime "
                         "one ('-' for stdin)")
    ap.add_argument("--events", action="store_true",
                    help="--input is the textual event-stream format")
    ap.add_argument("--sanitize", action="store_true",
                    help="interpose protocol checkers during the "
                         "--input run")
    ap.add_argument("--projection", action="store_true",
                    help="also print the derived stream projection "
                         "(path set, or the universal fallback and why)")
    ap.add_argument("--schema",
                    help="schema for the projection and the type "
                         "checker: 'xmark', 'dblp', or a DTD file path")
    ap.add_argument("--types", action="store_true",
                    help="also run the static type checker: per-stage "
                         "regular-expression types, emptiness proofs, "
                         "dead stages, and update-effect lints (add "
                         "--schema to sharpen; with --input, the "
                         "inferred emptiness is cross-checked against "
                         "runtime event counts)")
    ap.add_argument("--sharing", action="store_true",
                    help="also report the joint Q1..Q9 shared-prefix "
                         "trie (needs no query)")
    ap.add_argument("--json", action="store_true",
                    help="emit the report as JSON instead of text")
    return ap


def _sharing_report() -> dict:
    """The joint shared-prefix trie of the paper queries, as plain data."""
    from .bench.harness import PAPER_QUERIES
    from .compile import describe_sharing
    return describe_sharing(list(PAPER_QUERIES.items()))


def _render_sharing(trie: dict, out) -> None:
    print("joint shared-prefix trie over the paper queries "
          "({} queries, {} eligible, {} shared):".format(
              trie["queries"], trie["eligible"], trie["shared"]),
          file=out)
    for node in trie["prefixes"]:
        print("  {:<45} x{} {} {}".format(
            node["prefix"], node["count"], " ".join(node["queries"]),
            "(evaluated once)" if node["shared"] else ""), file=out)
    for name, why in sorted(trie["excluded"].items()):
        print("  excluded {}: {}".format(name, why), file=out)


def _resolve_query_name(name: str, err) -> Optional[str]:
    """Map a paper query name to its text; reject unknown ``Qn`` names.

    A bare name matching the ``Qn`` pattern that is *not* a known paper
    query is almost certainly a typo, not a query — failing it fast
    with the valid range beats a confusing parse error.  Returns the
    query text, or ``None`` after printing the diagnostic.
    """
    import re
    from .bench.harness import PAPER_QUERIES
    if name in PAPER_QUERIES:
        return PAPER_QUERIES[name]
    if re.fullmatch(r"[Qq]\d+", name):
        print("error: unknown paper query name {!r} (expected Q1..Q{})"
              .format(name, len(PAPER_QUERIES)), file=err)
        return None
    return name


def analyze_main(argv, out, err) -> int:
    import json
    from .analysis import analyze_plan, render_report, report_to_dict, \
        verify_against_runtime
    from .xquery.engine import QueryRun
    args = build_analyze_arg_parser().parse_args(list(argv))
    if args.query_file:
        query_text = _read_text(args.query_file)
    elif args.query is None:
        if args.sharing:
            trie = _sharing_report()
            if args.json:
                print(json.dumps({"sharing": trie}, indent=2), file=out)
            else:
                _render_sharing(trie, out)
            return 0
        print("error: no query given (positional or --query-file)",
              file=err)
        return 2
    else:
        query_text = _resolve_query_name(args.query, err)
        if query_text is None:
            return 2

    try:
        engine = XFlux(query_text, mutable_source=args.mutable_source)
        plan = engine.compile()
        report = analyze_plan(plan)
        from .analysis.projection import (ProjectionMatcher,
                                          derive_projection, step_reads)
        proj = derive_projection(plan)
        prunable = ProjectionMatcher(proj, schema=args.schema).prunable
        reads = step_reads(plan)
    except Exception as exc:  # parse/compile diagnostics for the user
        print("error: {}".format(exc), file=err)
        return 2
    # Type inference backs both the --types report and the always-on
    # "types" block of --json.  A mutable source only *fails* the run
    # when the caller explicitly asked for --types; the JSON block
    # records why inference was skipped instead.
    type_report = None
    type_skip = None
    if args.types or args.json:
        from .analysis import SchemaError, TypeCheckError, infer_types
        try:
            type_report = infer_types(plan, schema=args.schema)
        except TypeCheckError as exc:
            type_skip = str(exc)
            if args.types:
                print("error: --types: {}".format(exc), file=err)
                return 2
        except (SchemaError, ValueError) as exc:
            print("error: --schema: {}".format(exc), file=err)
            return 2
    trie = _sharing_report() if args.sharing else None
    payload = report_to_dict(report) if args.json else None
    if payload is not None:
        payload["projection"] = dict(proj.to_dict(), prunable=prunable,
                                     schema=args.schema)
        payload["reads"] = [dict(r.to_dict(), stage=k,
                                 step=repr(plan.stages[k]))
                            for k, r in reads]
        payload["types"] = (type_report.to_dict()
                            if type_report is not None
                            else {"skipped": type_skip})
        if trie is not None:
            payload["sharing"] = trie
    if not args.json:
        print(render_report(report), file=out)
        if reads:
            print("reads of each // step (what a per-level copy holds "
                  "below its root):", file=out)
        for k, r in reads:
            print("  [{}] {!r}: {}{}".format(
                k, plan.stages[k], r,
                ", forced by {}".format(r.by) if r.is_all else ""),
                file=out)
        if args.types and type_report is not None:
            print(type_report.render(), file=out)
        if trie is not None:
            _render_sharing(trie, out)
        if args.projection:
            if proj.universal:
                print("projection: universal ({})".format(
                    proj.reason or "paths cover the whole document"),
                    file=out)
            else:
                print("projection paths ({}):".format(
                    "prunable" if prunable else
                    "not prunable without a schema"), file=out)
                for path in proj.describe():
                    print("  {}".format(path), file=out)

    if args.input is None:
        if args.json:
            print(json.dumps(payload, indent=2), file=out)
        return 0
    # Dynamic cross-check: run the SAME plan so stream numbers line up.
    # With --types the run records per-stage event counts so inferred
    # emptiness can be held against what actually flowed.
    check_types = args.types and type_report is not None
    text = _read_text(args.input)
    run = QueryRun(plan, sanitize=True if args.sanitize else None,
                   metrics=True if check_types else None)
    try:
        run.feed_all(_event_source(text, args.events, plan.needs_oids))
        run.finish()
    except Exception as exc:
        print("error: {}".format(exc), file=err)
        return 1
    problems = verify_against_runtime(plan, report)
    type_problems = []
    if check_types and run.recorder is not None:
        from .analysis import verify_types_against_runtime
        type_problems = verify_types_against_runtime(type_report,
                                                     run.recorder)
    if args.json:
        payload["runtime_check"] = {"agrees": not problems,
                                    "problems": problems}
        if check_types:
            payload["runtime_check"]["type_contradictions"] = \
                type_problems
        print(json.dumps(payload, indent=2), file=out)
        return 1 if (problems or type_problems) else 0
    if problems:
        print("runtime fix map DISAGREES with the static analysis:",
              file=out)
        for p in problems:
            print("  - {}".format(p), file=out)
        return 1
    if type_problems:
        print("runtime events CONTRADICT the inferred types:", file=out)
        for p in type_problems:
            print("  - {}".format(p), file=out)
        return 1
    print("runtime fix map agrees with the static analysis.", file=out)
    if check_types:
        print("runtime events agree with the inferred types.", file=out)
    return 0


def _add_telemetry_run_args(ap: argparse.ArgumentParser) -> None:
    """The options shared by ``stats``/``trace``/``export``: what to
    run and over which input."""
    ap.add_argument("query",
                    help="query text, or a paper query name Q1..Q9")
    ap.add_argument("--input",
                    help="XML document to run over ('-' for stdin; "
                         "default for Q1..Q9: a synthesized dataset)")
    ap.add_argument("--events", action="store_true",
                    help="--input is the textual event-stream format")
    ap.add_argument("--mutable-source", action="store_true",
                    help="the input embeds updates; keep decisions "
                         "revocable")
    ap.add_argument("--scale", type=float, default=0.02,
                    help="scale of the synthesized dataset when no "
                         "--input is given (default 0.02)")
    ap.add_argument("--sample-interval", type=int, default=256,
                    help="source events between footprint samples "
                         "(default 256)")
    ap.add_argument("--projection", action="store_true",
                    help="prune irrelevant subtrees in the tokenizer; "
                         "the pruning counters land in the metrics JSON "
                         "(XML input only)")
    ap.add_argument("--schema",
                    help="schema refinement for --projection: 'xmark', "
                         "'dblp', or a DTD file path")
    ap.add_argument("--out", help="write the output here instead of "
                                  "stdout")


def build_telemetry_arg_parser(prog: str,
                               tracing: bool) -> argparse.ArgumentParser:
    what = ("update-provenance hops" if tracing
            else "per-stage pipeline metrics")
    ap = argparse.ArgumentParser(
        prog="repro {}".format(prog),
        description="Run a query with telemetry attached and print {} "
                    "as JSON.  Paper query names Q1..Q9 synthesize "
                    "their benchmark dataset when --input is omitted."
                    .format(what))
    _add_telemetry_run_args(ap)
    ap.add_argument("--indent", type=int, default=2,
                    help="JSON indentation (default 2)")
    if tracing:
        ap.add_argument("--format", choices=("json", "chrome"),
                        default="json",
                        help="output format: 'json' (native provenance "
                             "payload) or 'chrome' (Chrome trace-event /"
                             " Perfetto JSON; load in chrome://tracing "
                             "or ui.perfetto.dev)")
    return ap


def build_export_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro export",
        description="Run a query with telemetry attached and export "
                    "the recorded state in a standard format: 'trace' "
                    "emits Chrome trace-event / Perfetto JSON (one "
                    "track per stage, translations as flow arrows, "
                    "region lineage as async spans); 'metrics' emits "
                    "OpenMetrics / Prometheus text exposition, latency "
                    "histograms included.  Paper query names Q1..Q9 "
                    "synthesize their benchmark dataset when --input "
                    "is omitted.")
    ap.add_argument("what", choices=("trace", "metrics"),
                    help="which artifact to export")
    _add_telemetry_run_args(ap)
    ap.add_argument("--indent", type=int, default=2,
                    help="JSON indentation for trace output (default 2)")
    return ap


def export_main(argv, out, err) -> int:
    """``python -m repro export``: standard-format telemetry export."""
    import json
    args = build_export_arg_parser().parse_args(list(argv))
    tracing = args.what == "trace"
    code, run, _ = _run_with_telemetry(args, err, tracing)
    if run is None:
        return code
    metrics = run.metrics()
    if tracing:
        from .obs.export import stage_labels_from_metrics, \
            trace_to_chrome
        chrome = trace_to_chrome(
            metrics.pop("trace"),
            stage_labels=stage_labels_from_metrics(metrics))
        rendered = json.dumps(chrome, indent=args.indent)
    else:
        from .obs.export import metrics_to_openmetrics
        rendered = metrics_to_openmetrics(metrics).rstrip("\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(args.out, file=out)
    else:
        print(rendered, file=out)
    return 0


def _run_with_telemetry(args, err, tracing: bool):
    """Compile + run ``args.query`` with a recorder attached.

    Shared by the ``stats``/``trace``/``export`` subcommands: resolves
    paper query names, synthesizes the benchmark dataset when no input
    is given, applies ``--projection``, and runs to completion.
    Returns ``(exit_code, run, query_text)`` — ``run`` is ``None`` on
    failure.
    """
    from .bench.harness import PAPER_QUERIES, QUERY_DATASET
    query_text = _resolve_query_name(args.query, err)
    if query_text is None:
        return 2, None, None

    try:
        engine = XFlux(query_text, mutable_source=args.mutable_source)
        plan = engine.compile()
    except Exception as exc:
        print("error: {}".format(exc), file=err)
        return 2, None, None

    if args.input is not None:
        text = _read_text(args.input)
        events_mode = args.events
    elif args.query in PAPER_QUERIES:
        # Standalone mode: synthesize the query's benchmark dataset.
        if QUERY_DATASET[args.query] == "D":
            from .data.dblp import DBLPGenerator
            text = DBLPGenerator(scale=args.scale).text()
        else:
            from .data.xmark import XMarkGenerator
            text = XMarkGenerator(scale=args.scale).text()
        events_mode = False
    else:
        text = _read_text(None)  # stdin
        events_mode = args.events

    # The tokenizer is built explicitly (not via _event_source) so the
    # chunk-latency histogram can ride on it; it joins the recorder's
    # histogram map after the run, like the executors do.
    from .obs.histogram import TOKENIZER_CHUNK, LogHistogram
    tok = None
    if events_mode:
        events = iter_loads(text)
    else:
        tok = XMLTokenizer(emit_oids=plan.needs_oids)
        tok.chunk_histogram = LogHistogram()
        events = tok.tokenize(text)

    projection_counters = None
    if args.projection and not args.events:
        from .analysis.projection import (ProjectionMatcher,
                                          derive_projection)
        schema = args.schema
        if schema is None and args.input is None \
                and args.query in PAPER_QUERIES:
            # Synthesized benchmark datasets have a known shape.
            schema = ("dblp" if QUERY_DATASET[args.query] == "D"
                      else "xmark")
        try:
            matcher = ProjectionMatcher(derive_projection(plan),
                                        schema=schema)
        except ValueError as exc:
            print("error: {}".format(exc), file=err)
            return 2, None, None
        if matcher.prunable:
            tok = XMLTokenizer(projection=matcher)
            tok.chunk_histogram = LogHistogram()
            # Materialize so the counters are final before they are
            # snapshotted into the recorder below.
            events = list(tok.tokenize(text))
            projection_counters = tok.projection_stats.counter_dict()

    from .xquery.engine import QueryRun
    run = QueryRun(plan, metrics=True, trace=tracing,
                   sample_interval=args.sample_interval)
    if projection_counters is not None:
        run.recorder.projection = projection_counters
    try:
        run.feed_all(events)
        run.finish()
    except Exception as exc:
        print("error: {}".format(exc), file=err)
        return 1, None, None
    if tok is not None and run.recorder is not None:
        run.recorder.histograms[TOKENIZER_CHUNK] = tok.chunk_histogram
    return 0, run, query_text


def telemetry_main(argv, out, err, tracing: bool) -> int:
    """Shared driver of the ``stats`` and ``trace`` subcommands."""
    import json
    prog = "trace" if tracing else "stats"
    args = build_telemetry_arg_parser(prog, tracing).parse_args(
        list(argv))
    code, run, query_text = _run_with_telemetry(args, err, tracing)
    if run is None:
        return code

    metrics = run.metrics()
    if tracing and getattr(args, "format", "json") == "chrome":
        from .obs.export import stage_labels_from_metrics, \
            trace_to_chrome
        payload = trace_to_chrome(
            metrics.pop("trace"),
            stage_labels=stage_labels_from_metrics(metrics))
    elif tracing:
        payload = {
            "query": args.query,
            "query_text": query_text,
            "result": run.text(),
            "trace": metrics.pop("trace"),
            "metrics": metrics,
        }
    else:
        payload = {
            "query": args.query,
            "query_text": query_text,
            "result": run.text(),
            "metrics": metrics,
            "per_stage": run.stats()["per_stage"],
        }
    rendered = json.dumps(payload, indent=args.indent)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print(args.out, file=out)
    else:
        print(rendered, file=out)
    return 0


def build_recover_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro recover",
        description="Rebuild a crashed run from its write-ahead log: "
                    "restore the newest valid checkpoint, replay the "
                    "logged frame suffix, and print the recovered "
                    "displays.  With --input the stream is also resumed "
                    "past the last logged frame, reproducing an "
                    "uninterrupted run byte for byte.")
    ap.add_argument("wal_dir", help="directory holding wal-*.seg files")
    ap.add_argument("--input",
                    help="re-supply the original document to resume "
                         "past the logged suffix ('-' for stdin)")
    ap.add_argument("--events", action="store_true",
                    help="--input is an event-per-line JSON stream, "
                         "not XML")
    ap.add_argument("--json", action="store_true",
                    help="print the full recovery report as JSON "
                         "instead of the recovered displays")
    ap.add_argument("--report-dir",
                    help="write recovery_report.json and the flight "
                         "bundle into this directory")
    ap.add_argument("--indent", type=int, default=2,
                    help="JSON indentation (default 2)")
    return ap


def recover_main(argv, out, err) -> int:
    """``python -m repro recover``: whole-process WAL recovery."""
    import json
    import os
    from .fault import RecoveryError, WalError, recover
    args = build_recover_arg_parser().parse_args(list(argv))
    text = None
    events = None
    if args.input is not None:
        raw = _read_text(args.input)
        if args.events:
            events = list(iter_loads(raw))
        else:
            text = raw
    try:
        result = recover(args.wal_dir, text=text, events=events)
    except (WalError, RecoveryError) as exc:
        detail = getattr(exc, "reason", None)
        print("error: {}{}".format(
            exc, " (reason={})".format(detail) if detail else ""),
            file=err)
        return 1
    except OSError as exc:
        print("error: {}".format(exc), file=err)
        return 1
    report = result.to_dict()
    if args.report_dir:
        from .obs.flightrec import write_bundle
        os.makedirs(args.report_dir, exist_ok=True)
        base = args.report_dir.rstrip("/")
        with open("{}/recovery_report.json".format(base), "w") as handle:
            json.dump(report, handle, indent=args.indent)
            handle.write("\n")
        if result.bundle is not None:
            write_bundle(result.bundle,
                         "{}/flightrec_recovery.json".format(base))
    if args.json:
        print(json.dumps(report, indent=args.indent), file=out)
    else:
        for i, text_out in enumerate(result.texts):
            status = result.statuses[i] if result.statuses else "ok"
            if status != "ok":
                print("[query {}: {}]".format(i, status), file=out)
            else:
                print(text_out if text_out is not None else "", file=out)
        print("recovered: {} frame(s) replayed, {} event(s) resumed"
              .format(report["frames_replayed"],
                      report["events_resumed"]), file=err)
    return 0


def _crash_child(wal_dir, queries, text, workers, batch_events,
                 checkpoint_every, mutable_source, crash_after):
    """Forked chaos --crash child: run durably, die by SIGKILL mid-log."""
    import os
    # Lead a fresh process group so the supervising parent can sweep
    # the whole engine — the SIGKILL lands mid-flight, before this
    # process can clean up the shard workers it forked.  A belt: the
    # workers see EOF on their frame pipe and exit by themselves
    # (parallel/shard.py closes every inherited supervisor descriptor).
    os.setpgrp()
    if workers <= 1:
        from .xquery.engine import MultiQueryRun
        MultiQueryRun(queries, mutable_source=mutable_source).run_xml(
            text, durable=wal_dir, batch_events=batch_events,
            checkpoint_every=checkpoint_every,
            crash_after_frames=crash_after)
    else:
        from .parallel import ShardedMultiQueryRun
        smq = ShardedMultiQueryRun(
            queries, workers=workers, batch_events=batch_events,
            checkpoint_interval=checkpoint_every,
            mutable_source=mutable_source,
            durable_dir=wal_dir,
            durable_opts={"crash_after_frames": crash_after})
        smq.run_xml(text)


def chaos_crash_main(args, names, queries, text, out, err) -> int:
    """``repro chaos --crash``: SIGKILL the engine at seeded points,
    recover from the WAL, and assert byte-identity with a clean run."""
    import json
    import multiprocessing
    import os
    import shutil
    import tempfile
    from .fault import RecoveryError, WalError, recover
    from .xquery.engine import MultiQueryRun
    seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
    clean = MultiQueryRun(queries, mutable_source=args.mutable_source)
    clean.run_xml(text)
    clean_texts, clean_statuses = clean.texts(), clean.statuses()
    n_events = len(tokenize(text, emit_oids=clean.needs_oids))
    total_frames = max(1, -(-n_events // args.batch_events))
    ctx = multiprocessing.get_context("fork")
    entries = []
    bundles = []
    failed = False
    for seed in seeds:
        crash_after = 1 + (seed * 2654435761) % total_frames
        work_dir = tempfile.mkdtemp(prefix="repro-crash-")
        wal_dir = os.path.join(work_dir, "wal")
        entry = {"seed": seed, "crash_after_frames": crash_after,
                 "workers": args.workers}
        try:
            proc = ctx.Process(
                target=_crash_child,
                args=(wal_dir, queries, text, args.workers,
                      args.batch_events, args.checkpoint_every,
                      args.mutable_source, crash_after))
            proc.start()
            proc.join()
            try:
                # Sweep whatever the child's SIGKILL left of its
                # process group (see _crash_child).
                import signal as _signal
                os.killpg(proc.pid, _signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
            entry["exitcode"] = proc.exitcode
            if proc.exitcode != -9:
                entry["error"] = ("child exited {} instead of SIGKILL"
                                  .format(proc.exitcode))
                failed = True
                continue
            try:
                res = recover(wal_dir, text=text)
            except (WalError, RecoveryError) as exc:
                entry["error"] = str(exc)
                failed = True
                continue
            entry["frames_replayed"] = res.frames_replayed
            entry["events_resumed"] = res.events_resumed
            identical = (res.texts == clean_texts
                         and res.statuses == clean_statuses)
            entry["recovered_byte_identical"] = identical
            if res.bundle is not None:
                bundles.append(res.bundle)
            if not identical:
                entry["diverged"] = [
                    names[i] for i in range(len(names))
                    if res.texts[i] != clean_texts[i]
                    or res.statuses[i] != clean_statuses[i]]
                failed = True
        finally:
            entries.append(entry)
            shutil.rmtree(work_dir, ignore_errors=True)
    report = {
        "mode": "crash",
        "queries": names,
        "seeds": seeds,
        "total_frames": total_frames,
        "runs": entries,
        "all_recovered_byte_identical": not failed,
    }
    if args.report_dir:
        from .obs.flightrec import write_bundle
        os.makedirs(args.report_dir, exist_ok=True)
        base = args.report_dir.rstrip("/")
        files = []
        for n, bundle in enumerate(bundles):
            path = "{}/flightrec_recovery_{:03d}.json".format(base, n)
            write_bundle(bundle, path)
            files.append(path)
        report["flight_bundle_files"] = files
        with open("{}/crash_report.json".format(base), "w") as handle:
            json.dump(report, handle, indent=args.indent)
            handle.write("\n")
    print(json.dumps(report, indent=args.indent), file=out)
    if failed:
        print("error: crash recovery diverged from the clean run",
              file=err)
        return 1
    return 0


def build_chaos_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro chaos",
        description="Differential recovery proof: run a sharded "
                    "multi-query workload clean and again under a "
                    "fault plan, then verify every surviving query's "
                    "output is byte-identical.  Exits non-zero only "
                    "when ALL queries fail or a survivor's output "
                    "diverges.")
    ap.add_argument("--fault-plan",
                    help="fault spec, e.g. 'kill:shard=0,after=3' or "
                         "'corrupt:frame=5;raise:query=1,stage=0,at=99' "
                         "(see repro.fault for the grammar); required "
                         "unless --crash is given")
    ap.add_argument("--crash", action="store_true",
                    help="whole-process crash mode: run the workload "
                         "durably, SIGKILL the engine at a seeded "
                         "frame, then recover from the write-ahead log "
                         "and assert byte-identity with a clean run")
    ap.add_argument("--seeds", default="1",
                    help="comma-separated seeds for --crash; each seed "
                         "picks one crash frame (default: 1)")
    ap.add_argument("--checkpoint-every", type=int, default=4,
                    help="frames between checkpoints in --crash mode "
                         "(default 4)")
    ap.add_argument("--queries", default="Q1,Q2,Q5,Q7",
                    help="comma-separated paper query names or query "
                         "texts (default: Q1,Q2,Q5,Q7)")
    ap.add_argument("--input",
                    help="XML document to run over ('-' for stdin; "
                         "default: a synthesized XMark dataset)")
    ap.add_argument("--scale", type=float, default=0.05,
                    help="scale of the synthesized dataset when no "
                         "--input is given (default 0.05)")
    ap.add_argument("--workers", type=int, default=2,
                    help="shard worker count (default 2)")
    ap.add_argument("--batch-events", type=int, default=256,
                    help="events per broadcast frame (default 256, low "
                         "so faults land mid-stream)")
    ap.add_argument("--mutable-source", action="store_true",
                    help="the queries treat the input as mutable")
    ap.add_argument("--report-dir",
                    help="also write chaos_report.json (and one "
                         "quarantine report file per failed query) "
                         "into this directory")
    ap.add_argument("--indent", type=int, default=2,
                    help="JSON indentation (default 2)")
    return ap


def chaos_main(argv, out, err) -> int:
    """``python -m repro chaos``: scripted-fault differential runner."""
    import json
    import os
    from .bench.harness import PAPER_QUERIES
    from .fault import FaultPlan
    from .parallel import ShardedMultiQueryRun
    args = build_chaos_arg_parser().parse_args(list(argv))
    if not args.crash and args.fault_plan is None:
        print("error: --fault-plan is required unless --crash is given",
              file=err)
        return 2
    names = [q.strip() for q in args.queries.split(",") if q.strip()]
    queries = [PAPER_QUERIES.get(n, n) for n in names]
    if args.input is not None:
        text = _read_text(args.input)
    else:
        from .data.xmark import XMarkGenerator
        text = XMarkGenerator(scale=args.scale).text()
    if args.crash:
        return chaos_crash_main(args, names, queries, text, out, err)
    try:
        plan = FaultPlan.parse(args.fault_plan)
    except ValueError as exc:
        print("error: {}".format(exc), file=err)
        return 2

    def run(fault_plan):
        # The faulted run flies with the flight recorder on, so any
        # quarantine carries a post-mortem bundle; the clean reference
        # run stays at the env defaults.
        smq = ShardedMultiQueryRun(
            queries, workers=args.workers,
            batch_events=args.batch_events,
            mutable_source=args.mutable_source,
            fault_plan=fault_plan,
            flight=True if fault_plan is not None else None)
        smq.run_xml(text)
        return smq

    try:
        clean = run(None)
        faulted = run(plan)
    except Exception as exc:
        print("error: {}".format(exc), file=err)
        return 1

    # Post-mortem bundles: shard-recovery bundles (recorded on every
    # recovery action) plus any quarantine bundles riding the error
    # reports from the workers.
    bundles = list(faulted.flight_bundles())
    for rep in faulted.error_reports().values():
        if isinstance(rep, dict) and rep.get("flight_bundle"):
            bundles.append(rep["flight_bundle"])

    statuses = faulted.statuses()
    survivors_match = [
        None if status != "ok"
        else faulted.texts()[i] == clean.texts()[i]
        for i, status in enumerate(statuses)]
    diverged = [names[i] for i, m in enumerate(survivors_match)
                if m is False]
    all_failed = all(s != "ok" for s in statuses)
    report = {
        "fault_plan": plan.to_spec(),
        "queries": names,
        "statuses": statuses,
        "survivors_byte_identical": not diverged,
        "diverged": diverged,
        "fault_tolerance": faulted.fault_stats(),
        "error_reports": {names[i]: r for i, r
                          in faulted.error_reports().items()},
        "flight_bundles": len(bundles),
        "flight_bundle_reasons": [b.get("reason") for b in bundles],
    }
    bundle_files = []
    if args.report_dir:
        from .obs.flightrec import write_bundle
        os.makedirs(args.report_dir, exist_ok=True)
        base = args.report_dir.rstrip("/")
        for n, bundle in enumerate(bundles):
            path = "{}/flightrec_{:03d}.json".format(base, n)
            write_bundle(bundle, path)
            bundle_files.append(path)
        report["flight_bundle_files"] = bundle_files
    rendered = json.dumps(report, indent=args.indent)
    print(rendered, file=out)
    if args.report_dir:
        base = args.report_dir.rstrip("/")
        with open("{}/chaos_report.json".format(base), "w") as handle:
            handle.write(rendered + "\n")
        for i, rep in faulted.error_reports().items():
            path = "{}/quarantine_query_{}.json".format(base, i)
            with open(path, "w") as handle:
                json.dump({"query": names[i], "report": rep}, handle,
                          indent=args.indent)
                handle.write("\n")
    if diverged:
        print("error: surviving queries diverged: {}".format(
            ", ".join(diverged)), file=err)
        return 1
    if all_failed:
        print("error: all {} queries failed under the fault plan"
              .format(len(names)), file=err)
        return 1
    return 0


def _read_text(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _event_source(text: str, events_mode: bool, needs_oids: bool,
                  limits=None):
    if events_mode:
        return iter_loads(text)
    tok = XMLTokenizer(emit_oids=needs_oids, **(limits or {}))
    return tok.tokenize(text)


def _tokenizer_limits(args) -> dict:
    return {name: value for name, value in (
        ("max_depth", args.max_depth),
        ("max_token_bytes", args.max_token_bytes),
        ("max_attrs", args.max_attrs)) if value is not None}


#: First-argument subcommands; anything else is a query to run.
SUBCOMMANDS = {
    "chaos": chaos_main,
    "analyze": analyze_main,
    "stats": functools.partial(telemetry_main, tracing=False),
    "trace": functools.partial(telemetry_main, tracing=True),
    "export": export_main,
    "recover": recover_main,
}


def main(argv: Optional[Iterable[str]] = None,
         out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        # A misspelt switch fails every command, also one not reading it.
        for name in ENV_FLAGS:
            env_flag(name)
    except ValueError as exc:
        print("error: {}".format(exc), file=err)
        return 2
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:], out, err)
    args = build_arg_parser().parse_args(argv)

    if args.query_file:
        try:
            query_text = _read_text(args.query_file)
        except OSError as exc:
            print("error: {}".format(exc), file=err)
            return 2
        input_path = args.query if args.input is None else args.input
    else:
        if args.query is None:
            print("error: no query given (positional or --query-file)",
                  file=err)
            return 2
        query_text = args.query
        input_path = args.input

    try:
        engine = XFlux(query_text,
                       mutable_source=args.mutable_source,
                       ignore_updates=args.ignore_updates)
        plan = engine.compile()
    except Exception as exc:  # parse/compile diagnostics for the user
        print("error: {}".format(exc), file=err)
        return 2

    proj = None
    proj_tok = None
    if args.projection:
        if args.events:
            print("error: --projection applies to XML input, not "
                  "--events streams", file=err)
            return 2
        from .analysis.projection import (ProjectionMatcher,
                                          derive_projection)
        try:
            proj = derive_projection(plan)
            matcher = ProjectionMatcher(proj, schema=args.schema)
        except ValueError as exc:
            print("error: {}".format(exc), file=err)
            return 2
        if matcher.prunable:
            proj_tok = XMLTokenizer(projection=matcher,
                                    **_tokenizer_limits(args))

    try:
        text = _read_text(input_path)
    except OSError as exc:
        print("error: {}".format(exc), file=err)
        return 2
    run = engine.start(sanitize=True if args.sanitize else None,
                       metrics=True if args.metrics else None,
                       flight=True if args.flight else None)
    shown: Optional[str] = None
    source = (proj_tok.tokenize(text) if proj_tok is not None
              else _event_source(text, args.events, plan.needs_oids,
                                 limits=_tokenizer_limits(args)))
    try:
        for event in source:
            run.feed(event)
            if args.follow:
                current = run.text()
                if current != shown:
                    shown = current
                    print(current, file=out)
        run.finish()
    except Exception as exc:
        print("error: {}".format(exc), file=err)
        return 1
    if proj_tok is not None and run.recorder is not None:
        # Counters are final only now — the tokenizer streamed lazily.
        run.recorder.projection = proj_tok.projection_stats.counter_dict()

    final = run.text()
    if not args.follow or final != shown:
        print(final, file=out)
    if args.stats:
        stats = run.stats()
        print("transformer_calls={} state_cells={} stages={}".format(
            stats["transformer_calls"], stats["state_cells"],
            stats["stages"]), file=err)
        if proj_tok is not None:
            ps = proj_tok.projection_stats
            print("projection: events_pruned={} bytes_skipped={} "
                  "subtrees_skipped={} pruned_ratio={:.4f}".format(
                      ps.events_pruned, ps.bytes_skipped,
                      ps.subtrees_skipped, ps.pruned_ratio()), file=err)
        elif proj is not None:
            print("projection: universal ({})".format(
                proj.reason or "not prunable for this input"), file=err)
    if args.metrics:
        import json
        metrics = run.metrics()
        if metrics is not None:
            print(json.dumps(metrics, indent=2), file=err)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
