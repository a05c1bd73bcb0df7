#!/usr/bin/env python3
"""The repo's end-to-end benchmark with a per-layer trace.

Two ways to run it, both from the root of a checkout:

* the driver's contract, one workload per process and one JSON line::

      python3 benchmarks/e2e/run.py --workload doc_light --seed 7 \\
          --seconds 15 --trace 0      # end-to-end metrics
      python3 benchmarks/e2e/run.py --workload doc_light --seed 7 \\
          --seconds 15 --trace 1      # per-layer metrics

* the full report, every workload round-robin in one process::

      python3 benchmarks/e2e/run.py [--seed N] [--workloads a,b]
          [--smoke] [--aa] [--out DIR]

Both measure the engine as shipped (default arguments, no ``REPRO_*``
variable set), verify every answer against an oracle, and name every
metric as ``BENCHMARK.json`` does.  See README.md beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py: no engine source at {}".format(
        ROOT / "src" / "repro"))
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from measure import TimedSet, layer_metrics, run_sets
from quiet import QuietGate
from workloads import TMP, WORKLOADS, make_workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}
CLOSURE_RANGE = (0.90, 1.10)


def cold_setups(gate: QuietGate, name: str, seed: int, smoke: bool,
                count: int) -> list:
    """Seconds from process start to the end of warm-up, in fresh
    processes: imports, inputs, digests, oracle, probe, warm-up pass."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed), "--setup-only"]
    if smoke:
        command.append("--smoke")
    samples = []
    for _ in range(count):
        gate.wait()
        done = subprocess.run(command, stdout=subprocess.PIPE, check=True,
                              cwd=str(ROOT), text=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- output ----------------------------------------------------------------------------


def check_names(metrics: dict, section: str) -> None:
    want = [m["name"] for m in SPEC[section]]
    if sorted(want) != sorted(metrics):
        sys.exit("metric names differ from BENCHMARK.json {}: {}".format(
            section, sorted(set(want) ^ set(metrics))))


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metric.value, "unit": UNITS[name]}
                    for name, metric in metrics.items()}})


def drive(args) -> int:
    """The driver's contract: one workload, one JSON line."""
    workload = make_workload(args.workload, args.seed, args.smoke)
    workload.setup(pin=args.pin)
    own_setup = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(own_setup)
        return 0
    gate = QuietGate(args.patience)
    if args.trace:
        report = layer_metrics(workload, gate)
        metrics, tally = report.metrics, report.tally
        check_names(metrics, "per_layer")
    else:
        setups = [own_setup] + cold_setups(
            gate, args.workload, args.seed, args.smoke, args.cold_setups - 1)
        timed_set = TimedSet(workload, gate, args.seconds, args.min_passes)
        run_sets([timed_set])
        metrics, tally = timed_set.metrics(setups), timed_set.tally
        check_names(metrics, "end_to_end")
    print(result_line(metrics, tally.attempted, tally.failed))
    return 0


def stamp(args, workloads: list, engagement: dict) -> dict:
    def git(*command):
        try:
            return subprocess.run(("git",) + command, cwd=str(ROOT),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "sizes": {w.name: w.size for w in workloads},
        "engagement": engagement,
    }


def print_rows(title: str, rows: dict) -> None:
    line = "{:<12} {:<32} {:>14} {:<6} {:>14} {:>14} {:>14} {:>4}"
    print("\n" + title)
    print(line.format("workload", "metric", "value", "unit", "median", "q1",
                      "q3", "n"))
    for (workload, name), row in rows.items():
        value, median, q1, q3 = ("{:.6g}".format(row[key]) for key in
                                 ("value", "median", "q1", "q3"))
        print(line.format(workload, name, value, UNITS[name], median, q1, q3,
                          row["n"]))


def report(args) -> int:
    """Every workload in one process: timed passes round-robin with
    tracing off, then the traced and variant passes of each workload."""
    names = args.workloads.split(",") if args.workloads else WORKLOADS
    workloads = [make_workload(n, args.seed, args.smoke) for n in names]
    gate = QuietGate(args.patience * len(workloads))
    setups = {}
    for workload in workloads:
        setups[workload.name] = cold_setups(
            gate, workload.name, args.seed, args.smoke, args.cold_setups)
        workload.setup()

    timed_runs, attempted, failed = [], 0, 0
    for _ in range(2 if args.aa else 1):
        sets = [TimedSet(w, gate, args.seconds, args.min_passes)
                for w in workloads]
        run_sets(sets)
        rows = {}
        for timed_set in sets:
            name = timed_set.workload.name
            metrics = timed_set.metrics(setups[name])
            check_names(metrics, "end_to_end")
            attempted += timed_set.tally.attempted
            failed += timed_set.tally.failed
            rows.update({(name, m): metric.row()
                         for m, metric in metrics.items()})
        timed_runs.append(rows)
    print_rows("end to end (tracing off)", timed_runs[0])

    # Smoke inputs are too small for steady timings: there only wrong
    # answers and malformed traces fail the run.
    layers, tracers, engagement, problems, unsteady = {}, [], {}, [], []
    for workload in workloads:
        layer = layer_metrics(workload, gate)
        check_names(layer.metrics, "per_layer")
        attempted += layer.tally.attempted
        failed += layer.tally.failed
        layers.update({(workload.name, m): metric.row()
                       for m, metric in layer.metrics.items()})
        tracers.append(layer.tracer)
        engagement[workload.name] = layer.engagement
        closure = layer.metrics["trace.closure_ratio"].value
        if not CLOSURE_RANGE[0] <= closure <= CLOSURE_RANGE[1]:
            unsteady.append("{}: trace.closure_ratio {:.3f} outside {}"
                            .format(workload.name, closure, CLOSURE_RANGE))
        problems += layer.tracer.problems()
    print_rows("per layer (traced passes, one pass per variant)", layers)
    print("\nfailure_share {:.6g} ({} failed of {} attempted)".format(
        failed / attempted, failed, attempted))
    if failed:
        problems.append("{} answers differ from the oracle".format(failed))

    def flat(rows):
        return {"{}.{}".format(*key): row for key, row in rows.items()}
    document = {"stamp": stamp(args, workloads, engagement),
                "end_to_end": flat(timed_runs[0]),
                "per_layer": flat(layers),
                "attempted": attempted, "failed": failed}
    if args.aa:
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        document["aa"] = {}
        print("\nA/A: the timed set twice in one invocation")
        for key, row in timed_runs[0].items():
            first, second = row["value"], timed_runs[1][key]["value"]
            difference = abs(second - first) / first
            document["aa"]["{}.{}".format(*key)] = {
                "first": first, "second": second, "difference": difference}
            print("{:<12} {:<16} {:>12.6g} {:>12.6g} {:>8.2%}  bound {:.0%}"
                  .format(*key, first, second, difference, bounds[key[1]]))
            if key[1] != "setup_s" and difference > bounds[key[1]]:
                unsteady.append("A/A: {} {} differs by {:.1%}".format(
                    *key, difference))
        if not args.smoke:
            (HERE / "baseline.json").write_text(
                json.dumps(document, indent=1) + "\n")
    out = Path(args.out) if args.out else ROOT / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(document, indent=1) + "\n")
    for tracer in tracers:
        (out / "trace-{}.json".format(tracer.workload)).write_text(
            json.dumps(tracer.to_json()))
    if not args.smoke:
        problems += unsteady
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="driver mode: run this one workload")
    parser.add_argument("--workloads", help="report mode: a,b,... (all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass")
    parser.add_argument("--aa", action="store_true",
                        help="timed set twice; record the noise floor")
    parser.add_argument("--out", help="directory for result and traces")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="with --setup-only: re-pin digests.json")
    args = parser.parse_args()
    # Cold set-ups per workload, fewest timed passes, and the seconds one
    # invocation may spend waiting for a quiet host; smoke is one of each
    # and does not wait.
    args.cold_setups, args.min_passes, args.patience = 3, 5, 30.0
    if args.smoke:
        args.seconds = args.patience = 0.0
        args.cold_setups = args.min_passes = 1
    set_flags = sorted(v for v in os.environ if v.startswith("REPRO_"))
    if set_flags:
        sys.exit("refusing to run: {} set; the benchmark measures the "
                 "engine as shipped".format(", ".join(set_flags)))
    try:
        return drive(args) if args.workload else report(args)
    finally:
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()


if __name__ == "__main__":
    sys.exit(main())
