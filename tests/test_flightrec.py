"""Flight-recorder tests: the ring, the bundles, and the fault wiring.

The flight recorder rides the instrumented drain (same gate as
metrics), so the contracts here are:

* the ring is bounded and counts exactly the source events;
* ``flight=True`` implies a recorder on every pipeline, a shared
  prefix's included;
* a quarantine dumps a post-mortem bundle whose event ring ends at the
  failure — the ring of the pipeline that threw, which the bundle's
  ``ring`` key names — and a shard recovery dumps a supervisor-side
  bundle whose
  ``replayed_frames`` equals the run's ``fault_stats()`` counters —
  the chaos CLI writes both kinds to disk.
"""

import json
import os

import pytest

from repro.bench.harness import PAPER_QUERIES, Workloads
from repro.events.model import Event, Kind
from repro.fault import FaultPlan, arm_stage_fault
from repro.obs import (DEFAULT_CAPACITY, FlightRecorder, build_bundle,
                       merge_flight_dicts, write_bundle)
from repro.parallel import ShardedMultiQueryRun
from repro.xquery.engine import MultiQueryRun, XFlux

SCALE = 0.02

# Under an ambient sanitizer prefix sharing disengages by design.
SANITIZED = os.environ.get("REPRO_SANITIZE") == "1"
NAMES = ["Q1", "Q2", "Q5", "Q7"]
QUERIES = [PAPER_QUERIES[n] for n in NAMES]


def _stream_of(rendered: str) -> int:
    """The stream id of one rendered ring entry (``sE(1000,'x')``)."""
    return int(rendered[rendered.index("(") + 1:].split(",")[0].rstrip(")"))


@pytest.fixture(scope="module")
def xmark_text():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE).text("X")


class TestRing:
    def test_bounded_and_counting(self):
        rec = FlightRecorder(capacity=4)
        events = [Event(Kind.START_ELEMENT, 1, tag="t{}".format(i))
                  for i in range(10)]
        for e in events:
            rec.note(e)
        assert rec.events_seen == 10
        assert len(rec) == 4
        # Oldest-first, and exactly the last four.
        assert rec.snapshot() == [repr(e) for e in events[-4:]]

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_merge_flight_dicts(self):
        a = FlightRecorder(capacity=8)
        b = FlightRecorder(capacity=4)
        for _ in range(6):
            a.note(Event(Kind.CDATA, 1, text="x"))
        b.note(Event(Kind.CDATA, 1, text="y"))
        merged = merge_flight_dicts([a.to_dict(), b.to_dict(), None])
        assert merged == {"capacity": 8, "events_seen": 7,
                          "recorded": 7, "pipelines": 2}
        # Merging merged dicts keeps the pipeline count additive.
        again = merge_flight_dicts([merged, a.to_dict()])
        assert again["pipelines"] == 3
        assert again["events_seen"] == 13


class TestEngineWiring:
    def test_flight_implies_recorder_and_counts_source_events(
            self, xmark_text):
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(xmark_text,
                                                 flight=True)
        assert run.recorder is not None
        flight = run.recorder.flight
        assert flight is not None
        assert flight.events_seen == run.recorder.source_events
        assert flight.events_seen > 0
        assert 0 < len(flight) <= flight.capacity

    def test_flight_off_by_default(self, xmark_text, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(xmark_text)
        assert run.recorder is None

    def test_repro_flight_env(self, xmark_text, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT", "1")
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(xmark_text)
        assert run.recorder is not None
        assert run.recorder.flight is not None

    def test_metrics_alone_has_no_flight(self, xmark_text):
        run = XFlux(PAPER_QUERIES["Q1"]).run_xml(xmark_text,
                                                 metrics=True)
        assert run.recorder is not None
        assert run.recorder.flight is None

    def test_output_identical_with_flight_on(self, xmark_text):
        plain = XFlux(PAPER_QUERIES["Q7"]).run_xml(xmark_text)
        flown = XFlux(PAPER_QUERIES["Q7"]).run_xml(xmark_text,
                                                   flight=True)
        assert flown.text() == plain.text()


class TestBundles:
    def test_build_bundle_from_recorder(self, xmark_text):
        run = XFlux(PAPER_QUERIES["Q2"]).run_xml(xmark_text,
                                                 flight=True)
        bundle = build_bundle("unit-test", recorder=run.recorder,
                              error={"error_type": "X", "message": "m"})
        assert bundle["bundle"] == "flight-recorder-bundle"
        assert bundle["reason"] == "unit-test"
        assert bundle["error"]["error_type"] == "X"
        assert bundle["last_events"], "ring should not be empty"
        assert bundle["flight"]["events_seen"] > 0
        assert [s["label"] for s in bundle["stages"]]
        # Each stage: its update-protocol facts and, beside them, the
        # shape the static analyses read (Q2: //item, two filters, /location).
        assert [s["shape"] for s in bundle["stages"]] == \
            [t.shape().to_dict() for t in run.plan.stages]
        assert [s["shape"]["kind"] for s in bundle["stages"]] == \
            ["step", "filter", "filter", "step"]
        assert all("brackets" in s["static_facts"] for s in bundle["stages"])
        assert "drain_batch" in bundle["histograms"]
        assert bundle["metrics"]["source_events"] > 0
        # The whole bundle must be JSON-able as-is (it crosses the
        # shard result pipe and lands in report files).
        json.loads(json.dumps(bundle))

    def test_write_bundle_round_trip(self, tmp_path):
        plan = FaultPlan.parse("kill:shard=0,after=1;seed=7")
        bundle = build_bundle("probe", fault_plan=plan, extra_key=3)
        path = write_bundle(bundle, str(tmp_path / "b.json"))
        with open(path) as fh:
            back = json.load(fh)
        assert back["fault_plan"] == plan.to_spec()
        assert back["fault_seed"] == 7
        assert back["extra_key"] == 3


class TestFaultIntegration:
    def test_kill_plan_bundle_matches_recovery_counters(
            self, xmark_text):
        smq = ShardedMultiQueryRun(
            QUERIES, workers=2, batch_events=64,
            fault_plan=FaultPlan.parse("kill:shard=0,after=3"))
        smq.run_xml(xmark_text)
        ft = smq.fault_stats()
        assert ft["restarts"] >= 1
        bundles = smq.flight_bundles()
        assert len(bundles) == ft["flight_bundles"] >= 1
        restart_bundles = [b for b in bundles
                           if b["reason"] == "worker-restart"]
        assert restart_bundles
        # The last recovery's cumulative replay counter is the run's.
        assert (restart_bundles[-1]["replayed_frames"]
                == ft["replayed_frames"])
        assert restart_bundles[-1]["fault_plan"] == ft["fault_plan"]
        for b in bundles:
            json.loads(json.dumps(b))

    def test_quarantine_bundle_carries_the_ring(self, xmark_text):
        """The bundle carries the ring of the pipeline that threw.

        Q2 (query 1) and Q7 share ``X//item`` on their shard, so query
        1's stage 0 is the first stage of a member suffix: its ring
        holds the member's own input, the prefix output routed to it.
        A fault in the shared prefix instead quarantines every member,
        each with the prefix's ring of source events.  Under the
        sanitizer nothing is shared and the ring is the query's own.
        """
        spec = "raise:query=1,stage=0,at=50"
        smq = ShardedMultiQueryRun(
            QUERIES, workers=2, batch_events=64, flight=True,
            fault_plan=FaultPlan.parse(spec))
        smq.run_xml(xmark_text)
        assert smq.statuses()[1] == "quarantined"
        reports = smq.error_reports()
        assert 1 in reports
        bundle = reports[1].get("flight_bundle")
        assert bundle is not None
        assert bundle["reason"] == "quarantine"
        assert bundle["error"]["error_type"] == "InjectedFault"
        assert bundle["fault_plan"] == spec
        seen = bundle["flight"]["events_seen"]
        if SANITIZED:
            # The fault fired at source event 50: the ring saw exactly
            # the events up to (and including) the one that blew up.
            assert bundle["ring"] == "pipeline"
            assert seen == len(bundle["last_events"]) == 50
            return
        # Stage 0 is called at most once per event fed to its pipeline,
        # and the member's ring ends at the routed (non-source) event
        # that blew up.
        assert bundle["ring"] == "member"
        assert bundle["metrics"]["routed"] is True
        assert seen == bundle["metrics"]["source_events"] >= 50
        assert len(bundle["last_events"]) == min(seen, DEFAULT_CAPACITY)
        assert _stream_of(bundle["last_events"][-1]) != 0

        mq = MultiQueryRun(QUERIES, flight=True)
        [group] = mq.groups
        arm_stage_fault(group, stage=0, at=50)
        mq.run_xml(xmark_text)
        members = group.member_indices
        assert [i for i, s in enumerate(mq.statuses())
                if s == "quarantined"] == members
        for i in members:
            bundle = mq.error_reports()[i]["flight_bundle"]
            # The fault fired at source event 50: the prefix's ring saw
            # exactly the events up to (and including) the one that
            # blew up.
            assert bundle["ring"] == "prefix"
            assert "routed" not in bundle["metrics"]
            assert bundle["flight"]["events_seen"] == 50
            assert len(bundle["last_events"]) == 50
            assert _stream_of(bundle["last_events"][-1]) == 0
            assert bundle["run_index"] == i

    def test_no_flight_no_quarantine_bundle(self, xmark_text):
        smq = ShardedMultiQueryRun(
            QUERIES, workers=2, batch_events=64,
            fault_plan=FaultPlan.parse("raise:query=1,stage=0,at=50"))
        smq.run_xml(xmark_text)
        reports = smq.error_reports()
        assert 1 in reports
        assert "flight_bundle" not in reports[1]
