"""What is measured: the end-to-end metrics with tracing off, and the
per-layer metrics from the traced pass and one pass per variant.

The names computed here are the names in ``BENCHMARK.json``; run.py
refuses to print a set that differs from it.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

from repro import MultiQueryRun, tokenize

from quiet import QuietGate
from tracer import Tracer, self_times
from workloads import (PassResult, Workload, codec_round_trip,
                       collected_pass, collected_trace, durable_pass,
                       peak_heap_mb, replay_display, timed)


def lower_quartile(values: Sequence[float]) -> float:
    """The nearest-rank lower quartile.

    The host's interference comes in one-sided bursts: identical work
    is never faster than its quiet time and often 20-100 % slower.  The
    lower quartile of repeated timings of one operation stays within a
    few percent of the quiet time where the median does not.
    """
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 4]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


class Metric:
    """A value, and the per-pass samples behind it where there are any."""

    def __init__(self, value: float, samples=None) -> None:
        self.value = value
        self.samples = list(samples) if samples is not None else [value]

    def row(self) -> dict:
        ordered = sorted(self.samples)
        if len(ordered) > 1:
            q1, median, q3 = statistics.quantiles(ordered, n=4)
        else:
            q1 = median = q3 = ordered[0]
        return {"value": self.value, "median": median, "q1": q1, "q3": q3,
                "n": len(ordered)}


def aggregate(workload: Workload, values) -> float:
    """Concurrent queries add their state up; otherwise the largest counts."""
    values = list(values)
    return sum(values) if workload.concurrent else max(values)


def query_stats(run) -> list:
    """Per-query ``stats()`` dicts of a QueryRun or a MultiQueryRun."""
    if isinstance(run, MultiQueryRun):
        return run.stats()["per_pipeline"]
    return [run.stats()]


class Tally:
    """Query executions attempted, and how many missed the oracle."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = self.failed = 0

    def check(self, result: PassResult) -> PassResult:
        self.attempted += len(result.texts)
        self.failed += self.workload.mismatches(result)
        return result


# -- end to end: tracing off --------------------------------------------------------


class TimedSet:
    """The timed passes of one workload, taken one ``step`` at a time so
    that several workloads can share the host round-robin.

    Every pass starts on a quiet host (quiet.py).  The value of a
    timing metric is built per operation: the lower quartile of that
    operation's time over the passes (``lower_quartile``).  ``run_s`` is
    the sum over the operations of a pass, the latencies are
    percentiles over them.
    """

    def __init__(self, workload: Workload, gate: QuietGate, seconds: float,
                 min_passes: int) -> None:
        self.workload = workload
        self.gate = gate
        self.seconds = seconds
        self.min_passes = min_passes
        self.passes: List[List[float]] = []
        self.spent = 0.0
        self.tally = Tally(workload)

    def done(self) -> bool:
        return (len(self.passes) >= self.min_passes
                and self.spent >= self.seconds)

    def step(self) -> None:
        self.gate.wait()
        spent, result = timed(lambda: collected_pass(self.workload))
        self.spent += spent
        self.passes.append(result.ops)
        self.tally.check(result)

    def profile(self) -> List[float]:
        """Per operation, the lower quartile of its time over the passes."""
        return [lower_quartile(column) for column in zip(*self.passes)]

    def metrics(self, setups: Sequence[float]) -> Dict[str, Metric]:
        """The end-to-end metrics; runs the counting pass."""
        counting = self.tally.check(
            collected_pass(self.workload, metrics=True))
        peak = aggregate(self.workload,
                         (run.metrics()["peak_cells_total"]
                          for run in counting.runs))
        profile = self.profile()
        return {
            "setup_s": Metric(statistics.median(setups), setups),
            "run_s": Metric(sum(profile), map(sum, self.passes)),
            "latency_p50_us": Metric(
                percentile(profile, 0.50) * 1e6,
                (percentile(p, 0.50) * 1e6 for p in self.passes)),
            "latency_p99_us": Metric(
                percentile(profile, 0.99) * 1e6,
                (percentile(p, 0.99) * 1e6 for p in self.passes)),
            "peak_mem_cells": Metric(peak),
        }


def run_sets(sets: Sequence[TimedSet]) -> None:
    pending = list(sets)
    while pending:
        for timed_set in pending:
            timed_set.step()
        pending = [s for s in pending if not s.done()]


# -- per layer: the traced pass and the variant passes ---------------------------------


class LayerReport(NamedTuple):
    metrics: Dict[str, Metric]
    tally: Tally
    tracer: Tracer
    engagement: dict


def layer_metrics(workload: Workload, gate: QuietGate) -> LayerReport:
    """Every per-layer metric of one workload.

    Three untraced base passes spread over the run, two traced passes
    and one pass per variant, each started on a quiet host.  The host's
    noise is one-sided, so a variant's ratio is over the fastest base
    pass, and the two traces are merged span by span (the shorter self
    time counts) and compared with the base merged operation by
    operation.  Variant ratios are diagnostics, not gates.
    """
    tally = Tally(workload)

    def run(**variant) -> PassResult:
        gate.wait()
        return collected_pass(workload, **variant)

    def trace(capture=False):
        gate.wait()
        tracer, result = collected_trace(workload, capture)
        return tracer, tally.check(result)

    native = workload.native_mode
    base = [tally.check(run())]
    traces = [trace()]
    fused = tally.check(run(fuse=True))
    other = tally.check(run(mode="multiplexed" if native == "independent"
                            else "independent"))
    # Prefix sharing returns wrong rows today: counted, never failed.
    shared = run(mode="multiplexed", share=True)
    base.append(tally.check(run()))
    traces.append(trace())
    captured = trace(capture=True)[1].captured
    counting = tally.check(run(metrics=True))
    base.append(tally.check(run()))

    base_s = min(b.wall for b in base)
    profile = [min(column) for column in zip(*(b.ops for b in base))]
    tracers = [tracer for tracer, _ in traces]
    independent_s, multiplexed_s = ((base_s, other.wall)
                                    if native == "independent"
                                    else (other.wall, base_s))
    stage = self_times(tracers, in_pass_only=True, stages_only=True)
    staged_s = sum(stage.values())
    stats = [s for r in base[0].runs for s in query_stats(r)]
    recorded = [r.metrics() for r in counting.runs]
    # An input is read once per query, or once for all when multiplexed.
    reads = [len(g.queries) if native == "independent" else 1
             for g in workload.groups]
    sources = [workload.source_events(g) for g in workload.groups]
    fed = sum(len(events) * n for events, n in zip(sources, reads))
    calls = sum(r.stats()["transformer_calls"] for r in base[0].runs)
    # Cost by stream position: the updates themselves where the
    # operations are updates, else the slices of the traced passes.
    positions = ([profile] if workload.groups[0].mutable else
                 [list(map(min, *pair)) for pair in zip(
                     *(result.slices for _, result in traces))])

    m = {
        "compiler.compile_s": self_times(tracers)["compile"],
        "compiler.stages": sum(s["stages"] for s in stats),
        "pipeline.busy_s": sum(stage.get(name, 0.0) for name in (
            "pipeline.feed", "mux.feed_batch", "pipeline.finish")),
        "pipeline.transformer_calls": calls,
        "pipeline.calls_per_event": calls / fed,
        "wrapper.activations": sum(r["activations_total"] for r in recorded),
        "wrapper.freezes": sum(r["freezes_total"] for r in recorded),
        "wrapper.cells_reclaimed": sum(r["cells_reclaimed_total"]
                                       for r in recorded),
        "wrapper.live_regions_peak": aggregate(
            workload, (sum(s["peak_regions"] for s in r["stages"])
                       for r in recorded)),
        "wrapper.cost_growth_ratio": (
            sum(sum(p[-(len(p) // 5):]) for p in positions)
            / sum(sum(p[:len(p) // 5]) for p in positions)),
        "wrapper.latency_p999_us": percentile(profile, 0.999) * 1e6,
        "display.process_s": replay_display(captured),
        "display.text_s": stage["display.text"],
        "display.events_in": sum(len(events) for _, events in captured),
        "display.peak_regions": aggregate(
            workload, (s["display"]["peak_regions"] for s in stats)),
        "multiplex.vs_independent_ratio": multiplexed_s / independent_s,
        "fusion.run_ratio": fused.wall / base_s,
        "fusion.segments": sum(
            len(s["fusion"]["segments"]) for r in fused.runs
            for s in query_stats(r) if s.get("fusion")),
        "sharing.run_ratio": shared.wall / multiplexed_s,
        "sharing.groups": sum(len(mq.groups) for mq in shared.runs),
        "sharing.mismatched_queries": workload.mismatches(shared),
        "obs.metrics_on_ratio": counting.wall / base_s,
        "trace.overhead_ratio": sum(self_times(
            tracers, in_pass_only=True).values()) / sum(profile),
        "trace.closure_ratio": staged_s / sum(profile),
        "ticker.id_collision_mismatches": workload.id_collision_mismatches,
    }

    sample = workload.tokenizer_sample()
    if sample is None:
        tokenizer_s = stage["tokenize"]
        tokenized = traces[0][1].tokenized
        text_bytes = sum(len(g.text) * n
                         for g, n in zip(workload.groups, reads))
        m["tokenizer.share"] = tokenizer_s / staged_s
        projected = tally.check(run(projection=True))
        pruned = 0
        for r in projected.runs:
            summary = (r.projection_summary() if isinstance(r, MultiQueryRun)
                       else r.stats().get("projection")) or {}
            pruned += summary.get("tokenizer", {}).get("events_pruned", 0)
        m["projection.run_ratio"] = projected.wall / base_s
        m["projection.events_pruned_share"] = pruned / tokenized
        sharded = tally.check(run(mode="sharded"))
        m["shard.run_ratio_w2"] = sharded.wall / multiplexed_s
        m["shard.restarts"] = sum(r.fault_stats()["restarts"]
                                  for r in sharded.runs)
        gate.wait()
        durable, m["wal.bytes_logged"] = durable_pass(workload)
        m["wal.overhead_ratio"] = tally.check(durable).wall / base_s
    else:
        # Updates arrive as events: the tokenizer, the projection it
        # hosts, and the batch-only durable and sharded executors are
        # not on this workload's path.  Time the tokenizer on the
        # eagerly updated document so the layer still has a number.
        text_bytes = len(sample)
        tokenizer_s, events = timed(lambda: tokenize(sample))
        tokenized = len(events)
        for name in ("tokenizer.share", "projection.run_ratio",
                     "projection.events_pruned_share", "shard.run_ratio_w2",
                     "shard.restarts", "wal.overhead_ratio",
                     "wal.bytes_logged"):
            m[name] = 0
    m["tokenizer.busy_s"] = tokenizer_s
    m["tokenizer.events"] = tokenized
    m["tokenizer.mb_s"] = text_bytes / 1e6 / tokenizer_s

    m["checkpoint.encode_s"], blob = timed(workload.midstream_checkpoint())
    m["checkpoint.bytes"] = len(blob)
    codec = [codec_round_trip(events) for events in sources]
    m["codec.encode_s"], m["codec.decode_s"], m["codec.bytes"] = (
        sum(column) for column in zip(*codec))
    m["engine.peak_heap_mb"] = peak_heap_mb(workload)

    engagement = {
        "fusion": any(s.get("fusion") for s in stats),
        "sharing_groups": sum(len(r.groups) for r in base[0].runs
                              if isinstance(r, MultiQueryRun)),
        "projection": any("projection" in s for s in stats),
        "recorder": any(r.metrics() is not None for r in base[0].runs),
    }
    fastest = min(tracers, key=Tracer.pass_ns)
    return LayerReport({name: Metric(value) for name, value in m.items()},
                       tally, fastest, engagement)
