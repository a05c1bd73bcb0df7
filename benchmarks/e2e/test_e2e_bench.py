"""Checks of the benchmark harness itself.  Not part of tier-1; run with

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run(*args, env=None, check=True):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=str(ROOT), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=check,
                          env=env)


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """Two smoke runs of the full report: (stdout, out dir, result.json)."""
    reports = []
    for i in range(2):
        out = tmp_path_factory.mktemp("smoke{}".format(i))
        stdout = run("--smoke", "--out", str(out)).stdout
        reports.append((stdout, out,
                        json.loads((out / "result.json").read_text())))
    return reports


def test_spec_keeps_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_report_prints_every_name_and_no_other(smoke_reports):
    stdout = smoke_reports[0][0]
    printed = set()
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 8 and fields[0] in WORKLOADS:
            printed.add((fields[0], fields[1]))
    assert printed == {(w, m) for w in WORKLOADS
                       for m in END_TO_END + PER_LAYER}
    assert "failure_share 0 " in stdout


def test_counts_repeat_exactly(smoke_reports):
    first, second = (report[2] for report in smoke_reports)
    for workload in WORKLOADS:
        for section, name in (("end_to_end", "peak_mem_cells"),
                              ("per_layer", "pipeline.transformer_calls")):
            key = "{}.{}".format(workload, name)
            assert (first[section][key]["value"]
                    == second[section][key]["value"]), key


def test_result_is_stamped(smoke_reports):
    stamp = smoke_reports[0][2]["stamp"]
    for key in ("git_commit", "git_dirty", "python", "nproc", "seed",
                "sizes", "engagement"):
        assert key in stamp
    assert sorted(stamp["engagement"]) == sorted(WORKLOADS)
    # The default configuration: no fusion, no sharing, no recorder.
    assert not any(any(flags.values())
                   for flags in stamp["engagement"].values())


def test_trace_spans_are_well_nested(smoke_reports):
    out = smoke_reports[0][1]
    for workload in WORKLOADS:
        spans = json.loads((out / "trace-{}.json".format(workload))
                           .read_text())
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        last_end = {}
        for span in spans:
            assert span["workload"] == workload
            assert span["start_ns"] <= span["end_ns"]
            parent = span["parent"]
            if parent is not None:
                assert parent in by_id, "unresolvable parent"
                assert by_id[parent]["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= by_id[parent]["end_ns"]
            assert last_end.get(parent, 0) <= span["start_ns"], "overlap"
            last_end[parent] = span["end_ns"]
        assert {"pass", "compile", "display.text"} <= {
            span["name"] for span in spans}


@pytest.mark.parametrize("trace, names", [("0", END_TO_END),
                                          ("1", PER_LAYER)])
def test_driver_line(trace, names):
    stdout = run("--workload", "ticker", "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke").stdout
    line = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert sorted(line["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in line["metrics"].items():
        assert sorted(metric) == ["unit", "value"]
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_refuses_engine_flags_from_the_environment():
    done = run("--workload", "ticker", "--smoke",
               env=dict(os.environ, REPRO_FUSE="1"), check=False)
    assert done.returncode != 0
    assert "REPRO_FUSE" in done.stderr
