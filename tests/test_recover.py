"""Crash-point exhaustiveness: SIGKILL the engine mid-run, recover
from the write-ahead log, and require byte-identity with a run that
never crashed.

Children fork, lead their own process group, and kill themselves from
inside ``WriteAheadLog.log_frame`` (``crash_after_frames``) — the frame
is durable, the dispatch never happens, exactly the torn moment the
write-ahead invariant is designed for.  The parent sweeps the group
(a belt: shard workers exit by themselves once their supervisor is
gone, and ``test_sigkilled_supervisor_leaves_no_worker_behind`` holds
them to it), recovers with the original input re-supplied, and diffs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.data import DBLPGenerator, XMarkGenerator
from repro.data.stock import StockTicker
from repro.fault.inject import FaultPlan
from repro.fault.recover import recover
from repro.fault.wal import R_CKPT, iter_wal_records, scan_wal
from repro.xmlio import tokenize
from repro.xquery.engine import MultiQueryRun, XFlux

_CTX = multiprocessing.get_context("fork")
BATCH = 64
CKPT_EVERY = 3
STOCK_QUERY = 'stream()//quote[name="IBM"]/price'
#: The children crash within a second; this only bounds a hung one.
CRASH_TIMEOUT = 30


# ---------------------------------------------------------------- children

def _crash_multiquery(wal_dir, queries, text, crash_after,
                      mutable=False, fault=None):
    os.setpgrp()
    plan = FaultPlan.parse(fault) if fault else None
    mq = MultiQueryRun(queries, mutable_source=mutable, fault_plan=plan)
    mq.run_xml(text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0,
               crash_after_frames=crash_after)


def _crash_ticker(wal_dir, crash_after):
    os.setpgrp()
    events = StockTicker(n_updates=400).events()
    mq = MultiQueryRun([STOCK_QUERY], mutable_source=True)
    mq.run_durable(events, wal_dir, batch_events=BATCH,
                   checkpoint_every=CKPT_EVERY,
                   checkpoint_cost_factor=0.0,
                   crash_after_frames=crash_after)


def _crash_single(wal_dir, query, schema, text, crash_after):
    os.setpgrp()
    XFlux(query, schema=schema).run_xml(
        text, durable=wal_dir,
        durable_opts=dict(batch_events=BATCH, checkpoint_every=CKPT_EVERY,
                          checkpoint_cost_factor=0.0,
                          crash_after_frames=crash_after))


def _crash_sharded(wal_dir, queries, text, crash_after):
    os.setpgrp()
    from repro.parallel import ShardedMultiQueryRun
    smq = ShardedMultiQueryRun(
        queries, workers=3, batch_events=BATCH,
        checkpoint_interval=CKPT_EVERY, durable_dir=wal_dir,
        durable_opts={"crash_after_frames": crash_after})
    smq.run_xml(text)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass


def _crash(target, *args):
    """Fork, wait for the self-SIGKILL, sweep the process group."""
    proc = _CTX.Process(target=target, args=args)
    proc.start()
    proc.join(CRASH_TIMEOUT)
    # Read before the sweep: a child that hung must not pass for one
    # that crashed because this helper killed it.
    exitcode = proc.exitcode
    _kill_group(proc.pid)
    assert exitcode == -signal.SIGKILL, \
        "child survived its crash point (exit {})".format(exitcode)


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that are not zombies (Linux)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def xmark_text():
    return XMarkGenerator(scale=0.02, seed=7,
                          albania_fraction=0.25).text()


@pytest.fixture(scope="module")
def dblp_text():
    return DBLPGenerator(scale=0.02, seed=7, smith_fraction=0.15).text()


def _clean(queries, text, mutable=False):
    mq = MultiQueryRun(queries, mutable_source=mutable)
    mq.run_xml(text)
    return mq.texts(), mq.statuses()


@pytest.fixture(scope="module")
def q3_profile(xmark_text, tmp_path_factory):
    """One uninterrupted durable Q3 run: reference texts plus the exact
    frame/checkpoint layout every crash point is chosen from."""
    wal_dir = str(tmp_path_factory.mktemp("q3-ref") / "wal")
    queries = [PAPER_QUERIES["Q3"]]
    mq = MultiQueryRun(queries)
    mq.run_xml(xmark_text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0)
    state = scan_wal(wal_dir)
    ckpt_seqs = sorted({r.seq for r in iter_wal_records(wal_dir)
                        if r.rtype == R_CKPT})
    return {
        "queries": queries,
        "texts": mq.texts(),
        "statuses": mq.statuses(),
        "total_frames": state.last_frame,
        "ckpt_seqs": ckpt_seqs,
    }


def _boundary_crash_points(profile):
    """Every checkpoint boundary: the frame whose logging precedes the
    checkpoint, and the first frame after it — plus the stream's first
    and last frames."""
    total = profile["total_frames"]
    points = {1, total}
    for seq in profile["ckpt_seqs"]:
        if seq >= 1:
            points.add(seq)
        if seq + 1 <= total:
            points.add(seq + 1)
    return sorted(points)


# ------------------------------------------------------------------- tests

def test_q3_profile_has_multiple_checkpoints(q3_profile):
    # The exhaustive sweep below is only meaningful if the run actually
    # interleaves several checkpoint envelopes with the frames.
    assert q3_profile["total_frames"] >= 10
    assert len([s for s in q3_profile["ckpt_seqs"] if s > 0]) >= 3


def test_sigkill_at_every_checkpoint_boundary(q3_profile, xmark_text,
                                              tmp_path):
    points = _boundary_crash_points(q3_profile)
    for crash_after in points:
        wal_dir = str(tmp_path / "wal-{}".format(crash_after))
        _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
               xmark_text, crash_after)
        result = recover(wal_dir, text=xmark_text)
        assert result.complete
        assert result.texts == q3_profile["texts"], \
            "crash at frame {} changed Q3's answer".format(crash_after)
        assert result.statuses == q3_profile["statuses"]
        # The restored checkpoint never post-dates the crash point.
        floor = result.checkpoint_seqs.get(None, 0)
        assert 0 <= floor <= crash_after
        assert result.bundle is not None


def test_ticker_update_stream_recovers(tmp_path):
    events = StockTicker(n_updates=400).events()
    clean = MultiQueryRun([STOCK_QUERY], mutable_source=True)
    clean.feed_all(events)
    clean.finish()
    total_frames = -(-len(events) // BATCH)
    for crash_after in (2, total_frames // 2, total_frames - 1):
        wal_dir = str(tmp_path / "wal-{}".format(crash_after))
        _crash(_crash_ticker, wal_dir, crash_after)
        result = recover(wal_dir, events=events)
        assert result.complete
        assert result.texts == clean.texts(), \
            "crash at frame {} changed the ticker answer".format(
                crash_after)


@pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
def test_each_paper_query_survives_one_crash(name, xmark_text,
                                             dblp_text, tmp_path):
    text = dblp_text if QUERY_DATASET[name] == "D" else xmark_text
    queries = [PAPER_QUERIES[name]]
    clean_texts, clean_statuses = _clean(queries, text)
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, text, 5)
    result = recover(wal_dir, text=text)
    assert result.texts == clean_texts, name
    assert result.statuses == clean_statuses, name


def test_sharded_run_recovers_from_parent_wal(xmark_text, tmp_path):
    names = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
    queries = [PAPER_QUERIES[n] for n in names]
    clean_texts, clean_statuses = _clean(queries, xmark_text)
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_sharded, wal_dir, queries, xmark_text, 6)
    result = recover(wal_dir, text=xmark_text)
    assert result.kind == "sharded"
    assert result.texts == clean_texts
    assert result.statuses == clean_statuses


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process groups from /proc")
def test_sigkilled_supervisor_leaves_no_worker_behind(xmark_text,
                                                      tmp_path):
    # A worker that still holds the write end of its own frame pipe
    # never sees EOF when the supervisor dies: it blocks in read()
    # forever, holding the WAL segment open.  No group kill here — the
    # workers must go by themselves.
    queries = [PAPER_QUERIES[n] for n in
               ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]]
    proc = _CTX.Process(target=_crash_sharded,
                        args=(str(tmp_path / "wal"), queries,
                              xmark_text, 6))
    proc.start()
    try:
        # Poll the supervisor's own exit: join() waits on a sentinel
        # pipe that lingering workers would hold open as well.
        deadline = time.monotonic() + CRASH_TIMEOUT
        while proc.exitcode is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert proc.exitcode == -signal.SIGKILL
        deadline = time.monotonic() + 2.0
        while _live_group_members(proc.pid) \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _live_group_members(proc.pid) == []
    finally:
        _kill_group(proc.pid)


def test_quarantine_in_checkpoint_survives_recovery(xmark_text,
                                                    tmp_path):
    # The fault fires at event 25 — inside the first frame, so every
    # checkpoint after it carries the quarantined state.  Restoring the
    # checkpoint alone must keep the poison pinned, original report and
    # all.
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, xmark_text, 8,
           False, "raise:query=0,stage=0,at=25")
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    assert result.error_reports[0].get("error_type") == "InjectedFault"
    # The healthy co-resident query is unaffected.
    clean_texts, _ = _clean([PAPER_QUERIES["Q3"]], xmark_text)
    assert result.texts[1] == clean_texts[0]


def test_quarantine_in_replayed_suffix_survives_recovery(xmark_text,
                                                         tmp_path):
    # The fault fires at event 400 — past the newest checkpoint the
    # crash leaves behind (frame 6 of 8 at cadence 3), so it lives only
    # in the replayed suffix.  The fault plan is part of the pickled
    # engine state, so deterministic replay re-fires it; either way the
    # poison must stay pinned after recovery.
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_multiquery, wal_dir, queries, xmark_text, 8,
           False, "raise:query=0,stage=0,at=400")
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    assert result.error_reports[0].get("error_type") == "InjectedFault"
    # The healthy co-resident query is unaffected.
    clean_texts, _ = _clean([PAPER_QUERIES["Q3"]], xmark_text)
    assert result.texts[1] == clean_texts[0]


def test_status_record_wins_when_replay_cannot_reproduce(xmark_text,
                                                         tmp_path):
    # A quarantine caused by something environmental (OOM kill, a
    # one-off I/O error) leaves no trace in the replayable state — only
    # the STATUS record proves it happened.  Simulate one by appending
    # a STATUS record to an otherwise-clean completed log: recovery's
    # replay finds the query healthy, but the log must win.
    from repro.events import codec
    from repro.fault.wal import R_STATUS, list_segments
    queries = [PAPER_QUERIES["Q1"], PAPER_QUERIES["Q3"]]
    wal_dir = str(tmp_path / "wal")
    mq = MultiQueryRun(queries)
    mq.run_xml(xmark_text, durable=wal_dir, batch_events=BATCH,
               checkpoint_every=CKPT_EVERY, checkpoint_cost_factor=0.0)
    last_frame = scan_wal(wal_dir).last_frame
    note = {"query": 0, "error_type": "EnvironmentalFault",
            "message": "worker killed"}
    body = json.dumps(note, sort_keys=True).encode("utf-8")
    with open(list_segments(wal_dir)[-1], "ab") as fh:
        fh.write(codec.frame_checked(bytes([R_STATUS]) + body,
                                     last_frame))
    result = recover(wal_dir, text=xmark_text)
    assert result.statuses[0] == "quarantined"
    assert result.texts[0] is None
    report = result.error_reports[0]
    assert report.get("recovered_from_log") is True
    assert report.get("error_type") == "EnvironmentalFault"
    assert result.statuses[1] == "ok"


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_crash_offsets_never_change_the_answer(
        seed, q3_profile, xmark_text, tmp_path_factory):
    total = q3_profile["total_frames"]
    crash_after = 1 + (seed * 2654435761) % total
    wal_dir = str(tmp_path_factory.mktemp("rand") / "wal")
    _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
           xmark_text, crash_after)
    result = recover(wal_dir, text=xmark_text)
    assert result.texts == q3_profile["texts"]
    assert result.statuses == q3_profile["statuses"]


def test_recovery_without_input_restores_logged_prefix(q3_profile,
                                                       xmark_text,
                                                       tmp_path):
    # No text= re-supplied: recovery restores exactly the logged
    # position and reports the run incomplete rather than guessing.
    wal_dir = str(tmp_path / "wal")
    crash_after = q3_profile["total_frames"] // 2
    _crash(_crash_multiquery, wal_dir, q3_profile["queries"],
           xmark_text, crash_after)
    result = recover(wal_dir)
    assert not result.complete
    assert result.events_resumed == 0
    assert result.frames_replayed + result.checkpoint_seqs.get(None, 0) \
        == crash_after


# A durable single query is a one-member executor: same log, same
# recovery.  The schema-optimized plan (dead stages relayed, empty plans
# collapsed) is what the checkpoints hold, so recovery must not
# recompile without the schema — it restores the executor that ran.
DEAD_STAGE_QUERY = 'X//item[location="Albania"]/nosuchtag'
SINGLE_QUERIES = dict(PAPER_QUERIES, dead=DEAD_STAGE_QUERY)


def _single_case(name, xmark_text, dblp_text):
    if QUERY_DATASET.get(name, "X") == "D":
        return SINGLE_QUERIES[name], "dblp", dblp_text
    return SINGLE_QUERIES[name], "xmark", xmark_text


@pytest.mark.parametrize("name", sorted(SINGLE_QUERIES))
def test_single_query_with_schema_recovers_completed_log(
        name, xmark_text, dblp_text, tmp_path):
    query, schema, text = _single_case(name, xmark_text, dblp_text)
    wal_dir = str(tmp_path / "wal")
    run = XFlux(query, schema=schema).run_xml(
        text, durable=wal_dir,
        durable_opts=dict(batch_events=BATCH, checkpoint_every=CKPT_EVERY,
                          checkpoint_cost_factor=0.0))
    assert run.text() == XFlux(query).run_xml(text).text()
    result = recover(wal_dir)       # EOS logged: no tail needed
    assert result.kind == "multiquery"
    assert result.complete
    assert result.texts == [run.text()], name
    assert result.statuses == ["ok"]
    report = json.loads(json.dumps(result.to_dict()))
    assert report["texts"] == [run.text()]
    assert set(report["checkpoint_seqs"]) == {"*"}


@pytest.mark.parametrize("name", sorted(SINGLE_QUERIES))
def test_single_query_with_schema_survives_one_crash(
        name, xmark_text, dblp_text, tmp_path):
    query, schema, text = _single_case(name, xmark_text, dblp_text)
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_single, wal_dir, query, schema, text, 5)
    result = recover(wal_dir, text=text)
    assert result.complete and result.events_resumed > 0
    assert result.texts == [XFlux(query).run_xml(text).text()], name


def test_recovery_from_a_checkpoint_holding_an_item_root(xmark_text,
                                                        tmp_path):
    # Q4's join holds a candidate's root until it matches or ends; the
    # document root, a parent of no item, is held from first to last.
    query = PAPER_QUERIES["Q4"]
    wal_dir = str(tmp_path / "wal")
    _crash(_crash_single, wal_dir, query, None, xmark_text, 5)
    [(seq, _)] = scan_wal(wal_dir).checkpoints.values()
    run = XFlux(query).start()
    run.feed_all(tokenize(xmark_text, emit_oids=True)[:seq * BATCH])
    assert any(w.t.defers and w.t.holds(w.t.state)
               for w in run.pipeline.wrappers)
    result = recover(wal_dir, text=xmark_text)
    assert result.complete and result.events_resumed > 0
    assert result.texts == [XFlux(query).run_xml(xmark_text).text()]


def test_durable_refuses_what_only_a_bare_run_means(xmark_text, tmp_path):
    engine = XFlux(PAPER_QUERIES["Q1"])
    for kwargs in ({"trace": True}, {"track_snapshots": True},
                   {"reclaim_on_freeze": False}, {"on_change": print}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            engine.run_xml(xmark_text, durable=str(tmp_path / "wal"),
                           **kwargs)
    assert not (tmp_path / "wal").exists()


def test_log_cut_after_manifest_rebuilds_the_running_executor(tmp_path):
    # Nothing but the META record survives: no checkpoint to restore,
    # so recovery builds the executor from the manifest — which has to
    # say the source was mutable, or the ticker's updates are dropped.
    from repro.fault.wal import list_segments
    events = StockTicker(n_updates=200).events()
    wal_dir = str(tmp_path / "wal")
    run = XFlux(STOCK_QUERY, mutable_source=True).run_durable(
        events, wal_dir, batch_events=BATCH)
    second = list(iter_wal_records(wal_dir))[1]
    [segment] = list_segments(wal_dir)
    with open(segment, "r+b") as fh:
        fh.truncate(second.offset)
    assert scan_wal(wal_dir).checkpoints == {}
    result = recover(wal_dir, events=events)
    assert result.checkpoint_seqs == {}
    assert result.frames_replayed == 0
    assert result.events_resumed == len(events)
    assert result.texts == [run.text()]
    assert run.text() == XFlux(STOCK_QUERY, mutable_source=True).run(
        events).text()


def test_manifest_of_an_earlier_build_still_recovers(xmark_text, tmp_path,
                                                     monkeypatch):
    # Builds before PR 24 wrote the executor's ``fuse`` switch into a
    # sharded manifest, builds before stream projection was deleted its
    # ``projection`` and ``schema``, and a log cut before its first
    # checkpoint is rebuilt from exactly those keywords: the executor
    # has to take them.
    from repro.fault import wal
    from repro.parallel import ShardedMultiQueryRun
    current = wal.jsonable_kwargs
    monkeypatch.setattr(wal, "jsonable_kwargs", lambda kwargs: dict(
        current(kwargs), fuse=True, projection=False, schema=None))
    queries = [PAPER_QUERIES[n] for n in ["Q1", "Q2", "Q5", "Q7"]]
    wal_dir = str(tmp_path / "wal")
    with ShardedMultiQueryRun(queries, workers=2, batch_events=BATCH,
                              durable_dir=wal_dir) as smq:
        smq.run_xml(xmark_text)
    second = list(iter_wal_records(wal_dir))[1]
    [segment] = wal.list_segments(wal_dir)
    with open(segment, "r+b") as fh:
        fh.truncate(second.offset)
    state = scan_wal(wal_dir)
    assert state.manifest["engine"]["fuse"] is True
    assert state.manifest["engine"]["projection"] is False
    assert state.manifest["engine"]["schema"] is None
    assert state.checkpoints == {}
    result = recover(wal_dir, text=xmark_text)
    assert (result.texts, result.statuses) == _clean(queries, xmark_text)


def test_supervised_durable_run_restarts_from_the_log(xmark_text,
                                                      tmp_path):
    # A sharded durable run that lives: the killed worker is replayed
    # out of the write-ahead log (no in-memory journal), the workers'
    # checkpoints are mirrored into it, and the finished log recovers
    # to the same answers without the input.
    from repro.parallel import ShardedMultiQueryRun
    queries = [PAPER_QUERIES[n] for n in ["Q1", "Q2", "Q3", "Q5", "Q7"]]
    clean_texts, clean_statuses = _clean(queries, xmark_text)
    wal_dir = str(tmp_path / "wal")
    smq = ShardedMultiQueryRun(
        queries, workers=2, batch_events=BATCH,
        checkpoint_interval=CKPT_EVERY, durable_dir=wal_dir,
        fault_plan=FaultPlan.parse("kill:shard=0,after=5"))
    smq.run_xml(xmark_text)
    assert smq.texts() == clean_texts
    ft = smq.fault_stats()
    assert ft["restarts"] >= 1 and ft["replayed_frames"] > 0
    assert ft["journal"]["wal"] is True
    state = scan_wal(wal_dir)
    assert state.eos_seq == smq.stats()["frames"]
    assert set(state.checkpoints) == {0, 1}
    result = recover(wal_dir)
    assert result.kind == "sharded" and result.complete
    assert result.texts == clean_texts
    assert result.statuses == clean_statuses
    assert len(result.executors) == 2
