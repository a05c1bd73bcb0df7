"""Fault-injection and recovery tests (repro.fault + supervised shards).

The recovery machinery's whole contract is differential: a run under a
scripted fault plan must complete with every non-quarantined query's
output byte-identical to an uninterrupted run.  Each canonical failure
class — worker kill, frame corruption, frame drop/duplication, a stage
exception — is proved here against that oracle, and a hypothesis sweep
checks that *random* plans never change surviving output either.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import PAPER_QUERIES, Workloads
from repro.events import codec
from repro.fault import FaultAction, FaultPlan, InjectedFault, \
    arm_stage_fault
from repro.parallel import ShardError, ShardedMultiQueryRun
from repro.xquery.engine import MultiQueryRun, XFlux

SCALE = 0.02
NAMES = ["Q1", "Q2", "Q5", "Q7"]
QUERIES = [PAPER_QUERIES[n] for n in NAMES]
BATCH = 64


@pytest.fixture(scope="module")
def xmark_text():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE).text("X")


@pytest.fixture(scope="module")
def reference(xmark_text):
    """The uninterrupted run every faulted run is compared against."""
    smq = ShardedMultiQueryRun(QUERIES, workers=2, batch_events=BATCH)
    smq.run_xml(xmark_text)
    assert smq.statuses() == ["ok"] * len(QUERIES)
    return {"texts": smq.texts(), "frames": smq.stats()["frames"]}


def _faulted(xmark_text, spec, **kwargs):
    smq = ShardedMultiQueryRun(QUERIES, workers=2, batch_events=BATCH,
                               fault_plan=FaultPlan.parse(spec), **kwargs)
    smq.run_xml(xmark_text)
    return smq


class TestCanonicalPlans:
    def test_worker_kill_recovers_byte_identical(self, xmark_text,
                                                 reference):
        smq = _faulted(xmark_text, "kill:shard=0,after=3")
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        ft = smq.fault_stats()
        assert ft["restarts"] >= 1
        assert ft["replayed_frames"] > 0

    def test_frame_corruption_recovers_byte_identical(self, xmark_text,
                                                      reference):
        smq = _faulted(xmark_text, "corrupt:frame=5,shard=0;seed=3")
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        assert smq.fault_stats()["restarts"] >= 1

    def test_stage_exception_quarantines_one_query(self, xmark_text,
                                                   reference):
        smq = _faulted(xmark_text, "raise:query=1,stage=0,at=50")
        statuses = smq.statuses()
        assert statuses[1] == "quarantined"
        assert statuses.count("ok") == len(QUERIES) - 1
        for i, status in enumerate(statuses):
            if status == "ok":
                assert smq.texts()[i] == reference["texts"][i]
        assert smq.texts()[1] is None
        report = smq.error_reports()[1]
        assert report["error_type"] == "InjectedFault"
        assert smq.fault_stats()["quarantined_queries"] == 1

    def test_dropped_frame_recovers(self, xmark_text, reference):
        smq = _faulted(xmark_text, "drop:frame=4,shard=1")
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        assert smq.fault_stats()["restarts"] >= 1

    def test_dropped_tail_frame_recovers(self, xmark_text, reference):
        # The hardest drop: no gap is ever visible to the worker; only
        # the frames-applied shortfall at end-of-stream catches it.
        smq = _faulted(xmark_text,
                       "drop:frame={},shard=0".format(reference["frames"]))
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        assert smq.fault_stats()["restarts"] >= 1

    def test_duplicated_frame_is_dropped(self, xmark_text, reference):
        smq = _faulted(xmark_text, "dup:frame=2,shard=0")
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        assert smq.fault_stats()["duplicates_dropped"] >= 1

    def test_quarantine_off_raises_shard_error(self, xmark_text):
        with pytest.raises(ShardError):
            _faulted(xmark_text, "raise:query=0,stage=0,at=10",
                     quarantine=False, max_restarts=1)


class TestInlineState:
    """A shard's engine living in the supervisor: reached by the
    takeover rung, or from the start where nothing can be forked."""

    def test_takeover_succeeds_byte_identical(self, xmark_text, reference):
        # No restart budget: the killed worker's shard is adopted.
        smq = _faulted(xmark_text, "kill:shard=0,after=2", max_restarts=0)
        assert smq.statuses() == ["ok"] * len(QUERIES)
        assert smq.texts() == reference["texts"]
        ft = smq.fault_stats()
        assert ft["inline_takeovers"] == 1
        assert ft["restarts"] == 0 and ft["replayed_frames"] > 0
        assert [b["reason"] for b in smq.flight_bundles()] \
            == ["inline-takeover"]

    def test_no_fork_runs_every_shard_inline(self, xmark_text, reference,
                                             monkeypatch):
        import multiprocessing

        from repro.parallel import shard
        monkeypatch.setattr(shard, "_fork_context", lambda: None)
        before = multiprocessing.active_children()
        smq = ShardedMultiQueryRun(QUERIES, workers=2, batch_events=BATCH)
        assert multiprocessing.active_children() == before
        smq.run_xml(xmark_text)
        stats = smq.stats()
        assert stats["mode"] == "inline" and stats["workers"] == 2
        assert "inline" in repr(smq)
        assert stats["frames"] == reference["frames"]
        assert smq.statuses() == ["ok"] * len(QUERIES)
        mq = MultiQueryRun(QUERIES).run_xml(xmark_text)
        assert smq.texts() == mq.texts() == reference["texts"]

    def test_no_fork_still_quarantines_a_stage_fault(self, xmark_text,
                                                     reference,
                                                     monkeypatch):
        from repro.parallel import shard
        monkeypatch.setattr(shard, "_fork_context", lambda: None)
        smq = _faulted(xmark_text, "raise:query=1,stage=0,at=50")
        assert smq.statuses() == ["ok", "quarantined", "ok", "ok"]
        assert smq.error_reports()[1]["error_type"] == "InjectedFault"
        for i in (0, 2, 3):
            assert smq.texts()[i] == reference["texts"][i]

    @pytest.mark.parametrize("spec", ["kill:shard=0,after=2",
                                      "drop:frame=2,shard=1"])
    def test_no_fork_refuses_faults_that_need_a_worker(self, monkeypatch,
                                                       spec):
        from repro.parallel import shard
        monkeypatch.setattr(shard, "_fork_context", lambda: None)
        with pytest.raises(ValueError, match="worker process"):
            ShardedMultiQueryRun(QUERIES, workers=2,
                                 fault_plan=FaultPlan.parse(spec))


class _HeldOpen:
    """A result connection some descendant of a dead worker still holds
    (a checkpoint-pickling child, say): never readable, never EOF."""

    def poll(self, timeout=0):
        return False

    def close(self):
        pass


def test_worker_dying_silently_after_eos_is_recovered(xmark_text,
                                                      reference):
    # The worker takes end-of-stream and dies before reporting, and its
    # result pipe gives no EOF: only the liveness check in collect()
    # notices.  Restart + replay must still land on the same bytes.
    from repro.xmlio.tokenizer import tokenize
    smq = ShardedMultiQueryRun(QUERIES, workers=2, batch_events=BATCH)
    shard = smq._shards[0]

    def eos_then_die():
        del shard._send_eos             # one shot
        sent = shard._send_eos()
        shard.process.kill()
        shard.process.join(10)
        assert not shard.process.is_alive()
        shard.conn.close()
        shard.conn = _HeldOpen()
        return sent

    shard._send_eos = eos_then_die
    smq.feed_all(tokenize(xmark_text))
    smq.finish(timeout=60)
    assert smq.statuses() == ["ok"] * len(QUERIES)
    assert smq.texts() == reference["texts"]
    assert shard.restarts == 1
    [bundle] = smq.flight_bundles()
    assert bundle["reason"] == "worker-restart"
    assert "without a result" in bundle["error"]["message"]


class TestTeardown:
    """The forms benchmarks/e2e drives: nothing outlives the run."""

    @staticmethod
    def _children():
        import multiprocessing
        return multiprocessing.active_children()

    def test_with_block_finishes_and_reaps(self, xmark_text, reference):
        before = self._children()
        with ShardedMultiQueryRun(QUERIES, workers=2,
                                  batch_events=BATCH) as smq:
            assert len(self._children()) == len(before) + 2
            texts = smq.run_xml(xmark_text).texts()
        assert texts == reference["texts"]
        assert self._children() == before

    def test_with_block_finishes_on_clean_exit(self, xmark_text,
                                               reference):
        from repro.xmlio.tokenizer import tokenize
        before = self._children()
        with ShardedMultiQueryRun(QUERIES, workers=2,
                                  batch_events=BATCH) as smq:
            for event in tokenize(xmark_text, stream_id=smq.source_id,
                                  emit_oids=smq.needs_oids):
                smq.feed(event)
        assert smq.texts() == reference["texts"]
        assert smq.text(1) == reference["texts"][1]
        assert self._children() == before

    def test_with_block_aborts_on_error(self, xmark_text):
        before = self._children()
        with pytest.raises(KeyError):
            with ShardedMultiQueryRun(QUERIES, workers=2,
                                      batch_events=BATCH) as smq:
                raise KeyError("caller bug")
        assert self._children() == before
        with pytest.raises(RuntimeError):
            smq.texts()

    def test_abort_reaps_mid_stream(self, xmark_text):
        from repro.xmlio.tokenizer import tokenize
        before = self._children()
        smq = ShardedMultiQueryRun(QUERIES, workers=2, batch_events=BATCH)
        smq.feed_all(tokenize(xmark_text)[:4 * BATCH])
        smq.abort()
        assert self._children() == before
        assert smq.finish() is smq      # nothing left to collect


class TestRandomPlans:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_plans_never_change_surviving_output(
            self, data, xmark_text, reference):
        n_frames = reference["frames"]
        actions = []
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(
                ["kill", "corrupt", "drop", "dup", "raise"]))
            shard = data.draw(st.integers(0, 1))
            if kind == "kill":
                actions.append(FaultAction(
                    "kill", shard=shard,
                    after=data.draw(st.integers(1, n_frames))))
            elif kind == "raise":
                actions.append(FaultAction(
                    "raise", query=data.draw(st.integers(0, 3)),
                    stage=0, at=data.draw(st.integers(1, 200))))
            else:
                actions.append(FaultAction(
                    kind, shard=shard,
                    frame=data.draw(st.integers(1, n_frames))))
        plan = FaultPlan(actions, seed=data.draw(st.integers(0, 99)))
        smq = ShardedMultiQueryRun(QUERIES, workers=2,
                                   batch_events=BATCH, fault_plan=plan)
        smq.run_xml(xmark_text)
        for i, status in enumerate(smq.statuses()):
            if status == "ok":
                assert smq.texts()[i] == reference["texts"][i], \
                    "plan {!r} changed query {}".format(plan.to_spec(), i)
            else:
                assert smq.texts()[i] is None
                assert i in smq.error_reports()


class TestMultiQueryQuarantine:
    def test_single_process_quarantine(self, xmark_text):
        ref = MultiQueryRun(QUERIES)
        ref.run_xml(xmark_text)
        plan = FaultPlan.parse("raise:query=2,stage=0,at=25")
        mq = MultiQueryRun(QUERIES, fault_plan=plan)
        mq.run_xml(xmark_text)
        assert mq.statuses() == ["ok", "ok", "quarantined", "ok"]
        for i in (0, 1, 3):
            assert mq.texts()[i] == ref.texts()[i]
        assert mq.texts()[2] is None
        stats = mq.stats()
        assert stats["quarantined"] == 1
        assert stats["per_query"][2]["status"] == "quarantined"

    def test_quarantine_off_propagates(self, xmark_text):
        plan = FaultPlan.parse("raise:query=0,stage=0,at=10")
        mq = MultiQueryRun(QUERIES, fault_plan=plan, quarantine=False)
        with pytest.raises(InjectedFault):
            mq.run_xml(xmark_text)

    def test_arm_rejects_bad_stage(self):
        run = XFlux(QUERIES[0]).start()
        with pytest.raises(ValueError):
            arm_stage_fault(run, stage=99, at=1)


class TestFaultPlanSpec:
    @pytest.mark.parametrize("spec", [
        "kill:shard=0,after=3",
        "corrupt:frame=5,shard=1",
        "drop:frame=2,shard=0;dup:frame=7,shard=0",
        "raise:query=2,stage=1,at=100",
        "kill:shard=1,after=2;corrupt:frame=3,shard=0;seed=42",
    ])
    def test_parse_round_trip(self, spec):
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.to_spec()).to_spec() == plan.to_spec()

    def test_env_hook(self):
        assert FaultPlan.from_env({}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULTS": "kill:shard=0,after=1"})
        assert plan.kill_after(0) == 1 and plan.kill_after(1) is None

    @pytest.mark.parametrize("bad", [
        "explode:shard=0", "kill:shard=0", "corrupt:shard=0",
        "raise:query=1", "kill", "kill:after"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_stage_fault_shard_remapping(self):
        plan = FaultPlan.parse("raise:query=5,stage=1,at=9")
        assert plan.stage_faults() == [(5, 1, 9)]
        assert plan.stage_faults(queries=[4, 5, 6]) == [(1, 1, 9)]
        assert plan.stage_faults(queries=[0, 1]) == []

    def test_corruption_is_deterministic_and_detected(self):
        from repro.events.model import SE, Event
        frame = codec.encode_checked_frame(
            [Event(SE, 0, tag="a"), Event(SE, 0, tag="b")], seq=7)
        plan = FaultPlan(seed=5)
        bad = plan.corrupt_bytes(frame, 7)
        assert bad != frame and len(bad) == len(frame)
        assert bad == plan.corrupt_bytes(frame, 7)
        import io
        with pytest.raises(codec.CodecError) as info:
            codec.read_frame_ex(io.BytesIO(bad))
        assert info.value.reason in ("crc-mismatch", "truncated",
                                     "oversized")
