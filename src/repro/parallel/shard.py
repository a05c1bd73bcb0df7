"""Process-pool sharding of the multi-query executor, with supervision.

The single-process :class:`~repro.xquery.engine.MultiQueryRun` removes
the redundant tokenizer passes but still evaluates every pipeline on one
core; per-query transformer work is untouched and dominates.  Sharding
partitions the *query set* — not the stream — across worker processes:

* the parent tokenizes (or deserializes) the input exactly once;
* each event batch is encoded exactly once as a checked codec frame
  (sequence number + CRC32) and the same frame bytes are written to
  every worker's pipe (encoding cost is O(stream), independent of the
  worker count);
* each worker decodes the frames and drives an ordinary
  ``MultiQueryRun`` over its shard, so per-query semantics, results and
  accounting are identical to the single-process executor;
* at end-of-stream the parent collects per-query texts and stats over a
  result connection and reassembles them in submission order.

Fault tolerance (DESIGN.md section 9) is layered on top without
changing the data path:

* workers ship periodic checkpoints (pickled executor state, each
  naming the frame it covers) back over the result connection;
* the parent keeps a bounded journal of broadcast frames newer than the
  oldest live checkpoint.  A dead worker — crash, kill, codec failure
  from a corrupt frame, sequence gap from a dropped frame — is
  respawned from its last checkpoint and the journal suffix is
  replayed.  Replay is deterministic, so recovered output is
  byte-identical to an uninterrupted run (``tests/test_fault.py``);
* when the restart budget is exhausted the parent takes the shard over
  inline (restore + replay in-process); only if that also fails are the
  shard's queries quarantined with captured error reports — sibling
  shards are never aborted.  ``quarantine=False`` restores fail-fast
  :class:`ShardError` propagation instead.

Workers are forked (query texts and flags travel by memory inheritance,
not pickling).  On platforms without ``fork`` every shard starts in the
state the takeover rung produces — an in-process engine behind the same
codec round trip and sequence discipline — so answers are the same
everywhere; scripted kill and frame faults act on a worker process and
are refused there.

Shard assignment is round-robin: query *i* runs on shard *i* mod *k*,
which keeps shard sizes within one of each other.

A worker holds exactly two descriptors of the run: the read end of its
frame pipe and the send end of its result connection.  Everything the
supervisor has open at the fork (this pipe's write end, every sibling's
pipe and connection, the write-ahead-log segment) is closed first thing
in the child, so a supervisor that dies — SIGKILL included — is an EOF
on the frame pipe and the worker exits instead of waiting on a pipe it
holds open itself.
"""

from __future__ import annotations

import errno
import io
import os
import time
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..events import codec
from ..events.model import Event
from ..fault import FaultPlan, arm_stage_fault, error_report
from ..xquery.engine import (MultiQueryRun, _merge_executor_metrics,
                             _tokenize_shared, env_flag)

#: Base of the exponential worker-restart delay (seconds; the k-th
#: restart of a shard waits ``RESTART_BACKOFF * 2**(k-1)``).
RESTART_BACKOFF = 0.05
#: Broadcast frames the in-memory journal retains for replay.
JOURNAL_LIMIT = 1024


class ShardError(RuntimeError):
    """A shard failed past every recovery path (or quarantine is off)."""


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform supports it)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def _fork_context():
    try:
        import multiprocessing
        return multiprocessing.get_context("fork")
    except (ImportError, ValueError):
        return None


def shard_queries(n_queries: int, workers: int) -> List[List[int]]:
    """Partition query indices into at most ``workers`` balanced shards.

    Round-robin: query ``i`` goes to shard ``i % k``, so shard sizes
    differ by at most one and each shard keeps submission order.  Empty
    shards are dropped.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1, got {}".format(workers))
    k = min(workers, n_queries)
    return [list(range(shard, n_queries, k)) for shard in range(k)]


def reassemble(n_queries: int, parts) -> Tuple[list, list, dict]:
    """Per-shard answers back in submission order.

    ``parts`` yields ``(global indices, answers)`` per surviving shard,
    ``answers`` holding shard-local ``texts`` / ``statuses`` lists and
    an ``error_reports`` dict; queries no part covers stay
    ``None`` / ``"quarantined"``.  Used by the supervisor's ``finish``
    and by :func:`repro.fault.recover.recover`.
    """
    texts: List[Optional[str]] = [None] * n_queries
    statuses = ["quarantined"] * n_queries
    reports: Dict[int, dict] = {}
    for indices, answers in parts:
        for local, q in enumerate(indices):
            texts[q] = answers["texts"][local]
            statuses[q] = answers["statuses"][local]
        for local, report in answers["error_reports"].items():
            reports[indices[local]] = report
    return texts, statuses, reports


class _Journal:
    """Bounded in-memory log of broadcast frames, for worker replay.

    Frames arrive with contiguous 1-based sequence numbers.  The parent
    prunes up to the oldest checkpoint any live worker could restart
    from; beyond that the ``limit`` evicts oldest-first, and a recovery
    that would need an evicted frame raises (the shard is then
    quarantined — bounded memory is chosen over unbounded replay).
    """

    def __init__(self, limit: int = JOURNAL_LIMIT) -> None:
        if limit < 1:
            raise ValueError("journal limit must be >= 1")
        self.limit = limit
        self._frames: Dict[int, bytes] = {}
        self._lo = 1            # smallest retained sequence number
        self.evicted_to = 0     # sequence numbers <= this are gone

    def append(self, seq: int, frame: bytes) -> None:
        self._frames[seq] = frame
        while len(self._frames) > self.limit:
            del self._frames[self._lo]
            self.evicted_to = self._lo
            self._lo += 1

    def prune(self, upto: int) -> None:
        """Discard frames with seq <= ``upto`` (checkpoint-covered)."""
        while self._lo <= upto and self._frames:
            self._frames.pop(self._lo, None)
            self._lo += 1
        if upto > self.evicted_to:
            self.evicted_to = upto

    def frame(self, seq: int) -> bytes:
        try:
            return self._frames[seq]
        except KeyError:
            raise ShardError(
                "journal no longer holds frame {} (evicted up to {}, "
                "limit {})".format(seq, self.evicted_to, self.limit))

    def stats(self) -> dict:
        return {"frames": len(self._frames), "limit": self.limit,
                "evicted_to": self.evicted_to}


class _WalJournal:
    """Journal facade backed by the write-ahead log (durable runs).

    Durable mode logs every frame to disk *before* dispatch, so the
    in-memory journal is redundant: ``append`` and ``prune`` are no-ops
    (retention is governed by the WAL's checkpoint-gated truncation)
    and worker restarts replay the frame bytes straight out of the
    log — disk-authoritative, identical bytes by construction
    (:meth:`~repro.fault.wal.WriteAheadLog.frame_bytes`).
    """

    def __init__(self, wal) -> None:
        self.wal = wal

    def append(self, seq: int, frame: bytes) -> None:
        pass                    # logged ahead of dispatch in _flush

    def prune(self, upto: int) -> None:
        pass                    # WAL truncation is checkpoint-gated

    def frame(self, seq: int) -> bytes:
        from ..fault.wal import WalError
        try:
            return self.wal.frame_bytes(seq)
        except WalError as exc:
            raise ShardError(
                "write-ahead log cannot replay frame {}: {}".format(
                    seq, exc))

    def stats(self) -> dict:
        return {"frames": self.wal.frames, "limit": None,
                "evicted_to": self.wal.floor(), "wal": True}


class _ShardEngine:
    """Sequence-disciplined frame consumer driving one shard's executor.

    Shared by worker processes and the parent's inline paths so the
    recovery semantics are identical everywhere: duplicate frames
    (seq <= applied) are dropped, gaps raise a structured
    :class:`~repro.events.codec.CodecError`, and construction either
    starts fresh (arming any scripted stage faults) or restores a
    checkpoint (armed faults ride inside the blob).
    """

    def __init__(self, queries: List[str], engine_kwargs: Dict,
                 global_indices: List[int],
                 stage_faults: List[Tuple[int, int, int]],
                 ckpt_blob: Optional[bytes] = None,
                 start_seq: int = 0,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if ckpt_blob is not None:
            self.mq = MultiQueryRun.restore(ckpt_blob, queries=queries)
        else:
            self.mq = MultiQueryRun(queries, **engine_kwargs)
            for local_q, stage, at in stage_faults:
                arm_stage_fault(self.mq.query_run(local_q), stage, at,
                                query=global_indices[local_q])
        # Shard-layer faults are armed above with global indices, so
        # the plan is NOT passed to MultiQueryRun (it would re-arm with
        # local ones) — it is installed only for quarantine bundles.
        if fault_plan is not None:
            self.mq.mux.fault_plan = fault_plan
        self.applied = start_seq
        self.duplicates_dropped = 0

    def apply(self, seq: Optional[int], payload: bytes) -> bool:
        """Apply one frame; False if it was a duplicate.

        Raises :class:`~repro.events.codec.CodecError` on a sequence
        gap — the caller treats that exactly like a corrupt frame
        (restart + replay fills the hole from the journal).
        """
        if seq is None:
            seq = self.applied + 1      # legacy unchecked frame
        if seq <= self.applied:
            self.duplicates_dropped += 1
            return False
        if seq != self.applied + 1:
            raise codec.CodecError(
                "frame sequence gap: expected {}, got {}".format(
                    self.applied + 1, seq),
                reason="sequence-gap", expected=self.applied + 1, got=seq)
        self.mq.feed_all(codec.decode_batch(payload))
        self.applied = seq
        return True

    def apply_frame_bytes(self, frame: bytes) -> bool:
        """Decode one raw frame (either format) and apply it."""
        result = codec.read_frame_ex(io.BytesIO(frame))
        if result is None or not result[1]:
            return False
        return self.apply(result[0], result[1])

    def checkpoint(self) -> bytes:
        return self.mq.checkpoint()

    def result(self) -> Dict:
        mq = self.mq.finish()
        return {"ok": True, "texts": mq.texts(), "stats": mq.stats(),
                "statuses": mq.statuses(),
                "error_reports": mq.error_reports(),
                "frames_applied": self.applied,
                "duplicates_dropped": self.duplicates_dropped}


def _worker_main(rfd: int, result_conn, supervisor_fds: List[int],
                 queries: List[str],
                 engine_kwargs: Dict, global_indices: List[int],
                 stage_faults: List[Tuple[int, int, int]],
                 checkpoint_interval: int,
                 ckpt_blob: Optional[bytes], start_seq: int,
                 fault_plan: Optional[FaultPlan] = None) -> None:
    """Worker entry: decode frames from ``rfd``, run the shard, report.

    Protocol (worker -> parent over ``result_conn``)::

        ("ckpt", seq, blob)     checkpoint covering frames <= seq
        ("done", result)        end-of-stream result payload
        ("fail", report)        structured failure; the worker exits

    A restarted worker gets the last checkpoint (``ckpt_blob`` +
    ``start_seq``) and sees the missed frames again via journal replay.

    ``supervisor_fds`` are the supervisor's descriptors the fork copied
    into this process.  They are closed by number, not through the
    inherited file objects (whose ``close`` would flush the
    supervisor's buffers a second time): while this process holds the
    write end of its own frame pipe, a dead supervisor is never an EOF.
    """
    for fd in supervisor_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    applied = start_seq
    try:
        engine = _ShardEngine(queries, engine_kwargs, global_indices,
                              stage_faults, ckpt_blob=ckpt_blob,
                              start_seq=start_seq,
                              fault_plan=fault_plan)
        since_ckpt = 0
        with os.fdopen(rfd, "rb", buffering=1 << 16) as reader:
            for seq, payload in codec.iter_frames_ex(reader):
                if not engine.apply(seq, payload):
                    continue
                applied = engine.applied
                since_ckpt += 1
                if since_ckpt >= checkpoint_interval:
                    result_conn.send(("ckpt", applied,
                                      engine.checkpoint()))
                    since_ckpt = 0
        result_conn.send(("done", engine.result()))
    except BaseException as exc:  # report, don't hang the parent
        try:
            result_conn.send(("fail", error_report(
                exc, frames_applied=applied,
                shard_queries=list(queries))))
        except Exception:
            pass
    finally:
        try:
            result_conn.close()
        except Exception:
            pass


class _Shard:
    """Parent-side owner of one shard.

    Normally the supervisor of a forked worker: spawn, health checks on
    every delivery, restart-from-checkpoint with journal replay and
    exponential backoff, inline takeover when the restart budget runs
    out, quarantine as the last resort.  All file descriptors are
    closed and the child reaped on every exit path.

    ``self.inline`` — the shard's engine living in this process — is
    one state reached two ways: the takeover rung above, and
    construction without a fork context (``ctx is None``), where there
    is no worker to supervise in the first place.
    """

    def __init__(self, ctx, shard_no: int, indices: List[int],
                 queries: List[str], engine_kwargs: Dict,
                 fault_plan: Optional[FaultPlan], max_restarts: int,
                 checkpoint_interval: int,
                 supervisor_fds: Callable[[], List[int]]) -> None:
        self.ctx = ctx
        #: () -> descriptors the supervisor holds open besides this
        #: shard's own (sibling pipes and connections, the WAL segment).
        self.supervisor_fds = supervisor_fds
        self.no = shard_no
        self.indices = indices
        self.queries = queries
        self.engine_kwargs = engine_kwargs
        self.max_restarts = max_restarts
        self.checkpoint_interval = checkpoint_interval
        self.plan = fault_plan
        self.stage_faults = (fault_plan.stage_faults(indices)
                             if fault_plan else [])
        self.kill_after = (fault_plan.kill_after(shard_no)
                           if fault_plan else None)
        self._kill_fired = False
        self._fired: set = set()
        #: Post-mortem bundles, one per recovery action (see
        #: :mod:`repro.obs.flightrec`).  Parent-side state — recovery
        #: is rare, so building these is off every hot path.
        self.flight_bundles: List[dict] = []
        self.bytes_shipped = 0
        self.frames_delivered = 0   # fault-visible deliveries (kill clock)
        self.seq_target = 0         # newest broadcast seq (replay bound)
        self.last_ckpt_seq = 0
        self.ckpt_blob: Optional[bytes] = None
        self.checkpoints = 0
        self.restarts = 0
        self.replayed_frames = 0
        self.duplicates_dropped = 0
        self.inline: Optional[_ShardEngine] = None
        self.inline_takeover = 0
        self.quarantined = False
        self.quarantine_report: Optional[dict] = None
        self.process = None
        self.writer = None
        self.conn = None
        if ctx is None:
            self.inline = self._engine()
        else:
            self._spawn(None, 0)

    def _engine(self) -> _ShardEngine:
        """This shard's engine in this process, at its last checkpoint
        (a fresh one, stage faults armed, when there is none)."""
        return _ShardEngine(
            self.queries, self.engine_kwargs, self.indices,
            self.stage_faults, ckpt_blob=self.ckpt_blob,
            start_seq=self.last_ckpt_seq, fault_plan=self.plan)

    # -- scripted faults ------------------------------------------------------

    def _record_bundle(self, reason: str, report: dict) -> None:
        """Capture one recovery as a flight-recorder bundle."""
        from ..obs.flightrec import shard_bundle
        self.flight_bundles.append(shard_bundle(
            reason, shard=self.no, report=report,
            restarts=self.restarts,
            replayed_frames=self.replayed_frames,
            last_ckpt_seq=self.last_ckpt_seq,
            seq_target=self.seq_target,
            quarantined=self.quarantined,
            fault_plan=self.plan))

    def _frame_actions(self, seq: int) -> List[str]:
        """Unfired scripted actions for this frame; marks them fired.

        Each action fires at most once — replayed frames never re-fire
        a fault, which is what lets recovery converge.
        """
        if self.plan is None:
            return []
        out = []
        for kind in self.plan.frame_actions(self.no, seq):
            if (kind, seq) not in self._fired:
                self._fired.add((kind, seq))
                out.append(kind)
        return out

    def _kill_due(self) -> bool:
        if (self.kill_after is not None and not self._kill_fired
                and self.frames_delivered >= self.kill_after):
            self._kill_fired = True
            return True
        return False

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, ckpt_blob: Optional[bytes], start_seq: int) -> None:
        rfd, wfd = os.pipe()
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        try:
            self.process = self.ctx.Process(
                target=_worker_main,
                args=(rfd, send_conn,
                      [wfd, recv_conn.fileno()] + self.supervisor_fds(),
                      self.queries, self.engine_kwargs,
                      self.indices, self.stage_faults,
                      self.checkpoint_interval,
                      ckpt_blob, start_seq, self.plan),
                daemon=True)
            self.process.start()
        except BaseException:
            os.close(wfd)
            recv_conn.close()
            raise
        finally:
            os.close(rfd)
            send_conn.close()
        self.writer = os.fdopen(wfd, "wb", buffering=1 << 16)
        self.conn = recv_conn

    def open_fds(self) -> List[int]:
        """Supervisor-side descriptors of the live worker, if any."""
        return [f.fileno() for f in (self.writer, self.conn)
                if f is not None]

    def _reap(self) -> None:
        """Close this worker's fds and wait the child out (no zombies)."""
        if self.writer is not None:
            try:
                self.writer.close()
            except OSError:
                pass
            self.writer = None
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            self.process.join(1.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join()
            self.process = None

    def abort(self) -> None:
        self._reap()

    # -- supervision ----------------------------------------------------------

    def _pump(self) -> Optional[tuple]:
        """Drain pending worker messages; return a terminal one, if any."""
        if self.conn is None:
            return None
        try:
            while self.conn.poll(0):
                msg = self.conn.recv()
                if msg[0] != "ckpt":    # "done" / "fail"
                    return msg
                self.last_ckpt_seq, self.ckpt_blob = msg[1], msg[2]
                self.checkpoints += 1
        except (EOFError, OSError):
            pass
        return None

    def _recover(self, journal: _Journal, report: dict) -> bool:
        """Bring the shard back after a worker death.

        Restart budget first (respawn from the last checkpoint, replay
        the journal suffix), inline takeover second, quarantine last.
        Returns True when the shard can keep consuming frames.
        """
        while self.restarts < self.max_restarts:
            self._reap()
            if self.restarts:
                time.sleep(RESTART_BACKOFF * (2 ** (self.restarts - 1)))
            self.restarts += 1
            try:
                self._spawn(self.ckpt_blob, self.last_ckpt_seq)
                self._replay(journal)
            except ShardError:
                break           # journal evicted: restart cannot help
            except OSError:
                continue
            self._record_bundle("worker-restart", report)
            return True
        self._reap()
        if self._takeover(journal):
            self._record_bundle("inline-takeover", report)
            return True
        self.quarantined = True
        self.quarantine_report = report
        self._record_bundle("shard-quarantine", report)
        return False

    def _replay(self, journal: _Journal) -> None:
        """Re-ship the exact journal bytes the restarted worker missed.

        Replay bypasses fault actions and the kill clock: a fault fires
        once against the live stream, never again against its replay.
        """
        for seq in range(self.last_ckpt_seq + 1, self.seq_target + 1):
            frame = journal.frame(seq)
            self.writer.write(frame)
            self.bytes_shipped += len(frame)
            self.replayed_frames += 1
        self.writer.flush()

    def _takeover(self, journal: _Journal) -> bool:
        """Adopt the shard into the parent process (last-ditch recovery)."""
        try:
            engine = self._engine()
            for seq in range(self.last_ckpt_seq + 1, self.seq_target + 1):
                engine.apply_frame_bytes(journal.frame(seq))
                self.replayed_frames += 1
        except Exception:
            return False
        self.inline = engine
        self.inline_takeover = 1
        return True

    # -- data path ------------------------------------------------------------

    def deliver(self, seq: int, frame: bytes, journal: _Journal) -> None:
        """Ship one broadcast frame, applying any scripted faults."""
        self.seq_target = seq
        if self.quarantined:
            return
        if self.inline is not None:
            try:
                self.inline.apply_frame_bytes(frame)
            except Exception as exc:
                self.quarantined = True
                self.quarantine_report = error_report(
                    exc, shard=self.no, phase="inline")
                self._record_bundle("shard-quarantine",
                                    self.quarantine_report)
            return
        terminal = self._pump()
        if terminal is not None and terminal[0] == "fail":
            self._recover(journal, terminal[1])
            return              # _replay already covered this frame
        if self.process is not None and not self.process.is_alive():
            self._recover(journal, {
                "error_type": "WorkerDied",
                "message": "worker exited unexpectedly before "
                           "end-of-stream"})
            return
        actions = self._frame_actions(seq)
        if "drop" in actions:
            return              # the gap (or tail check) triggers recovery
        out = (self.plan.corrupt_bytes(frame, seq)
               if "corrupt" in actions else frame)
        for _ in range(2 if "dup" in actions else 1):
            if not self._write(out, journal):
                return
        self.frames_delivered += 1
        if self._kill_due():
            self.process.kill()

    def _write(self, data: bytes, journal: _Journal) -> bool:
        try:
            self.writer.write(data)
            self.writer.flush()
            self.bytes_shipped += len(data)
            return True
        except OSError as exc:
            if exc.errno not in (None, errno.EPIPE):
                raise
            return self._recover(journal, error_report(
                exc, shard=self.no, phase="ship"))

    # -- completion -----------------------------------------------------------

    def _send_eos(self) -> bool:
        try:
            codec.write_frame(self.writer, b"")
            self.writer.flush()
            return True
        except OSError:
            return False

    def collect(self, timeout: Optional[float], journal: _Journal,
                total_frames: int) -> Dict:
        """Signal end-of-stream and gather this shard's result.

        Every failure observed here — worker death, a ``fail`` message,
        a timeout, a frames-applied shortfall (a dropped tail frame
        leaves no gap for the worker to notice) — goes through the same
        :meth:`_recover` ladder before giving up.
        """
        if self.quarantined:
            return self._quarantine_result()
        if self.inline is None and not self._send_eos():
            self._recover_and_resend(journal, {
                "error_type": "WorkerDied",
                "message": "worker gone at end-of-stream"})
        if self.inline is not None:
            return self._inline_result()
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            if self.quarantined:
                return self._quarantine_result()
            if self.inline is not None:
                return self._inline_result()
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                self.restarts = self.max_restarts   # no respawn loop
                self._recover(journal, {
                    "error_type": "TimeoutError",
                    "message": "worker produced no result within {}s"
                    .format(timeout)})
                continue
            try:
                ready = self.conn.poll(
                    0.05 if remaining is None else min(remaining, 0.05))
            except (EOFError, OSError):
                ready = False
            if not ready:
                if self.process is not None and not self.process.is_alive():
                    if self._pump_terminal_after_death(journal):
                        continue
                continue
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                if self._recover_and_resend(journal, {
                        "error_type": "WorkerDied",
                        "message": "result connection closed"}):
                    if deadline is not None:
                        deadline = time.monotonic() + timeout
                continue
            kind = msg[0]
            if kind == "ckpt":
                self.last_ckpt_seq, self.ckpt_blob = msg[1], msg[2]
                self.checkpoints += 1
            elif kind == "fail":
                if self._recover_and_resend(journal, msg[1]) \
                        and deadline is not None:
                    deadline = time.monotonic() + timeout
            else:               # "done"
                result = msg[1]
                if result.get("frames_applied", total_frames) \
                        != total_frames:
                    if self._recover_and_resend(journal, {
                            "error_type": "FramesLost",
                            "message":
                                "worker applied {} of {} frames".format(
                                    result.get("frames_applied"),
                                    total_frames)}) \
                            and deadline is not None:
                        deadline = time.monotonic() + timeout
                    continue
                self.duplicates_dropped = result.get(
                    "duplicates_dropped", 0)
                self._reap()
                return result

    def _pump_terminal_after_death(self, journal: _Journal) -> bool:
        """A dead worker with nothing readable left: recover.

        Returns True so the collect loop re-evaluates shard state.
        """
        self._recover(journal, {
            "error_type": "WorkerDied",
            "message": "worker exited without a result"})
        if not self.quarantined and self.inline is None:
            self._send_eos()
        return True

    def _recover_and_resend(self, journal: _Journal,
                            report: dict) -> bool:
        if not self._recover(journal, report):
            return False
        if self.inline is None:
            self._send_eos()
        return True

    def _inline_result(self) -> Dict:
        try:
            result = self.inline.result()
        except Exception as exc:
            self.quarantined = True
            self.quarantine_report = error_report(
                exc, shard=self.no, phase="inline-finish")
            self._record_bundle("shard-quarantine",
                                self.quarantine_report)
            return self._quarantine_result()
        self.duplicates_dropped = result["duplicates_dropped"]
        return result

    def _quarantine_result(self) -> Dict:
        report = self.quarantine_report or {
            "error_type": "ShardError", "message": "shard quarantined"}
        return {"ok": False, "quarantined": True,
                "error": "{}: {}".format(report.get("error_type"),
                                         report.get("message")),
                "report": report}


class ShardedMultiQueryRun:
    """Evaluate N standing queries sharded across supervised workers.

    Mirrors the :class:`~repro.xquery.engine.MultiQueryRun` interface
    (``feed`` / ``feed_all`` / ``finish`` / ``run_xml`` / ``texts`` /
    ``stats`` / ``statuses`` / ``error_reports``); results are in
    submission order regardless of shard placement.

    Args:
        queries: query *texts* (workers compile their own plans; plans
            and engines are not shippable).
        workers: shard count; defaults to :func:`available_workers`.
        batch_events: events buffered per broadcast frame.
        mutable_source / ignore_updates / validate / always_active:
            forwarded to each worker's ``MultiQueryRun``.
        quarantine: with the default True, unrecoverable failures
            quarantine the affected queries (``texts()`` reports None
            for them) instead of raising; False restores fail-fast
            :class:`ShardError` propagation.
        fault_plan: a :class:`~repro.fault.FaultPlan` to inject
            scripted failures; defaults to the ``REPRO_FAULTS``
            environment hook.
        max_restarts: worker respawn budget per shard.
        checkpoint_interval: frames between shipped worker checkpoints.
        projection: enable plan-driven stream projection.  The parent's
            tokenizer prunes with the union projection (one pass, like
            the single-process executor); each worker's ``MultiQueryRun``
            builds the same per-query masks for its shard, so mask
            counters shipped home merge to the single-process totals.
        schema: optional DTD refinement for the projection matchers
            (name ``"xmark"``/``"dblp"`` or an ``ElementSchema``; must
            be picklable to cross the fork boundary).
        share_prefixes: forwarded to each worker's ``MultiQueryRun``,
            where sharing is on by default and ``False`` opts out
            (shared prefix tries are per-process — a shard's members
            can only share with co-resident queries, so a worker's
            groups, and its merged ``metrics()`` pipelines, differ from
            a single-process run's by design; answers do not).
        durable_dir: directory for a write-ahead log
            (:mod:`repro.fault.wal`).  The parent owns the WAL: every
            broadcast frame is durably logged *before* any worker sees
            it, worker checkpoints are mirrored into the log as
            per-shard CKPT records, and worker restarts replay from
            the log instead of the in-memory journal.  After SIGKILL
            of the whole parent, :func:`repro.fault.recover.recover`
            on the directory reproduces the run byte-identically.
            Not combinable with ``projection`` (the log must hold the
            full stream a recovery can resume from).
        durable_opts: passed to
            :class:`~repro.fault.wal.WriteAheadLog` (``segment_bytes``,
            ``fsync``, ``crash_after_frames``).
    """

    def __init__(self, queries: Sequence[str],
                 workers: Optional[int] = None,
                 batch_events: int = 4096,
                 mutable_source: bool = False,
                 ignore_updates: bool = False,
                 validate: bool = False,
                 always_active: bool = False,
                 metrics: Optional[bool] = None,
                 sample_interval: int = 256,
                 quarantine: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 max_restarts: int = 2,
                 checkpoint_interval: int = 16,
                 projection: bool = False,
                 schema=None,
                 share_prefixes: Optional[bool] = None,
                 flight: Optional[bool] = None,
                 durable_dir: Optional[str] = None,
                 durable_opts: Optional[Dict] = None) -> None:
        self.query_texts: List[str] = []
        for q in queries:
            if not isinstance(q, str):
                raise TypeError(
                    "sharded execution needs query texts, got {!r}"
                    .format(type(q).__name__))
            self.query_texts.append(q)
        if batch_events < 1:
            raise ValueError("batch_events must be >= 1")
        self.workers = workers if workers is not None else \
            available_workers()
        self.quarantine = quarantine
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        engine_kwargs = dict(mutable_source=mutable_source,
                             ignore_updates=ignore_updates,
                             validate=validate,
                             always_active=always_active,
                             metrics=metrics,
                             sample_interval=sample_interval,
                             quarantine=quarantine,
                             projection=projection,
                             schema=schema,
                             share_prefixes=share_prefixes,
                             flight=flight)
        # The parent resolves the telemetry default the same way the
        # forked workers will (same environment), so parent-side
        # executor state — the tokenizer chunk histogram — is recorded
        # exactly when the workers record.
        self._parent_metrics = env_flag("METRICS", metrics)
        # Compile in the parent first: fail fast on a bad query before
        # any process is forked, and learn the stream metadata the
        # tokenizer needs (oids, source stream number, projection).  The
        # probe never runs, so it records nothing.
        probe = MultiQueryRun(self.query_texts,
                              **dict(engine_kwargs, metrics=False))
        self.needs_oids = probe.needs_oids
        self.source_id = probe.source_id
        #: Union projection / tokenizer matcher, mirrored off the probe
        #: so the parent's run_xml prunes exactly like the
        #: single-process executor's would.
        self.projection = probe.projection
        self.projection_matcher = probe.projection_matcher
        self.projection_stats = None
        #: Parent-side tokenizer chunk-latency histogram (run_xml).
        self.chunk_latency = None
        self.shards_indices = shard_queries(len(self.query_texts),
                                            self.workers)
        ctx = _fork_context()
        self.mode = "fork" if ctx is not None else "inline"
        if ctx is None and fault_plan and any(
                a.kind != "raise" for a in fault_plan.actions):
            raise ValueError(
                "kill and frame faults act on a worker process and this "
                "platform cannot fork one; only raise: faults run inline "
                "(plan {!r})".format(fault_plan.to_spec()))
        self._journal = _Journal()
        self._wal = None
        self._wal_ckpt_logged: Dict[int, int] = {}
        if durable_dir is not None:
            if projection:
                raise ValueError("durable runs do not combine with "
                                 "tokenizer projection")
            from ..fault.wal import WriteAheadLog, jsonable_kwargs
            self._wal = WriteAheadLog(durable_dir,
                                      **(durable_opts or {}))
            self._wal.begin({
                "kind": "sharded",
                "queries": list(self.query_texts),
                "shards": [list(s) for s in self.shards_indices],
                "flags": [[mutable_source, ignore_updates]]
                * len(self.query_texts),
                "engine": jsonable_kwargs(engine_kwargs),
                "batch_events": batch_events,
                "needs_oids": self.needs_oids,
                "source_id": self.source_id,
                "workers": len(self.shards_indices),
            })
            self._wal.register_shards(range(len(self.shards_indices)))
            # Replay serves from the WAL, not the bounded in-memory
            # journal — durable frames are never evicted before their
            # checkpoint floor passes them.
            self._journal = _WalJournal(self._wal)
        self._shards = []
        for shard_no, indices in enumerate(self.shards_indices):
            self._shards.append(_Shard(
                ctx, shard_no, indices,
                [self.query_texts[i] for i in indices], engine_kwargs,
                fault_plan, max_restarts, checkpoint_interval,
                self._supervisor_fds))
        self._batch_events = batch_events
        self._buffer: List[Event] = []
        self.events_in = 0
        self.frames = 0
        self._results: Optional[List[Dict]] = None
        self._texts: Optional[List[Optional[str]]] = None
        self._statuses: Optional[List[str]] = None
        self._error_reports: Optional[Dict[int, dict]] = None

    def _supervisor_fds(self) -> List[int]:
        """What a worker forked now would inherit and must close."""
        fds = [fd for shard in self._shards for fd in shard.open_fds()]
        if self._wal is not None:
            fds.extend(self._wal.open_fds())
        return fds

    # -- feeding ---------------------------------------------------------------

    def feed(self, event: Event) -> None:
        self._buffer.append(event)
        if len(self._buffer) >= self._batch_events:
            self._flush()

    def feed_all(self, events: Iterable[Event]) -> None:
        buffer = self._buffer
        limit = self._batch_events
        for e in events:
            buffer.append(e)
            if len(buffer) >= limit:
                self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        # Encode once; every worker receives the identical frame bytes.
        seq = self.frames + 1
        payload = codec.encode_batch(self._buffer)
        frame = codec.frame_checked(payload, seq)
        self.events_in += len(self._buffer)
        self.frames = seq
        self._buffer.clear()
        if self._wal is not None:
            # Write-ahead: the frame is durably on disk before any
            # worker can see it, so a crash of this parent at any point
            # leaves a log that covers everything dispatched.
            self._wal.log_frame(seq, payload)
        journal = self._journal
        journal.append(seq, frame)
        for shard in self._shards:
            shard.deliver(seq, frame, journal)
        self._prune_journal()
        if self._wal is not None:
            self._log_worker_checkpoints()

    def _log_worker_checkpoints(self) -> None:
        """Mirror newly arrived worker checkpoints into the WAL.

        Each CKPT record advances that shard's replay floor; once every
        shard has a logged checkpoint the WAL can rotate and truncate
        (bounded log).
        """
        for shard in self._shards:
            blob = shard.ckpt_blob
            seq = shard.last_ckpt_seq
            if blob is None or seq <= self._wal_ckpt_logged.get(
                    shard.no, 0):
                continue
            self._wal.checkpoint(blob, seq, shard=shard.no)
            self._wal_ckpt_logged[shard.no] = seq

    def _prune_journal(self) -> None:
        """Drop frames every possible future replay is past."""
        floors = [s.last_ckpt_seq for s in self._shards
                  if not s.quarantined and s.inline is None]
        self._journal.prune(min(floors) if floors else self.frames)

    def finish(self, timeout: Optional[float] = 120.0
               ) -> "ShardedMultiQueryRun":
        """Flush, signal end-of-stream, and gather worker results."""
        if self._results is not None:
            return self
        self._flush()
        journal = self._journal
        self._results = [shard.collect(timeout, journal, self.frames)
                         for shard in self._shards]
        failures = [r["error"] for r in self._results if not r["ok"]]
        if failures and not self.quarantine:
            raise ShardError(
                "{} of {} shard workers failed: {}".format(
                    len(failures), len(self._shards), "; ".join(failures)))
        texts, statuses, reports = reassemble(
            len(self.query_texts),
            [(shard.indices, result) for shard, result
             in zip(self._shards, self._results) if result["ok"]])
        for shard, result in zip(self._shards, self._results):
            if not result["ok"]:
                reports.update(dict.fromkeys(shard.indices,
                                             result["report"]))
        self._texts = texts
        self._statuses = statuses
        self._error_reports = reports
        if self._wal is not None:
            self._log_worker_checkpoints()
            for i, status in enumerate(statuses):
                if status == "quarantined":
                    self._wal.status(i, reports.get(i, {}), self.frames)
            self._wal.eos()
            self._wal.close()
        return self

    def run(self, events: Iterable[Event]) -> "ShardedMultiQueryRun":
        self.feed_all(events)
        return self.finish()

    def run_xml(self, text: str) -> "ShardedMultiQueryRun":
        """Evaluate over an XML document: one parent-side tokenizer pass."""
        return self.run(_tokenize_shared(self, text,
                                         timed=self._parent_metrics))

    def abort(self) -> None:
        """Tear down workers without collecting results."""
        for shard in self._shards:
            shard.abort()
        if self._results is None:
            self._results = []

    def __enter__(self) -> "ShardedMultiQueryRun":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        elif self._results is None:
            self.finish()

    # -- results ---------------------------------------------------------------

    def texts(self) -> List[Optional[str]]:
        """Final answers in submission order (available after finish).

        Quarantined queries report ``None`` — see :meth:`statuses` and
        :meth:`error_reports` for what happened to them.
        """
        if self._texts is None:
            raise RuntimeError("results are available after finish()")
        return list(self._texts)

    def text(self, i: int) -> Optional[str]:
        return self.texts()[i]

    def statuses(self) -> List[str]:
        """Per-query health, submission order: ``"ok"``/``"quarantined"``."""
        if self._statuses is None:
            raise RuntimeError("statuses are available after finish()")
        return list(self._statuses)

    def error_reports(self) -> Dict[int, dict]:
        """Query index -> captured error report for quarantined queries."""
        if self._error_reports is None:
            raise RuntimeError("reports are available after finish()")
        return dict(self._error_reports)

    def stats(self) -> dict:
        """Aggregate executor metrics plus the per-query breakdown."""
        if self._results is None:
            raise RuntimeError("stats are available after finish()")
        per_query: List[Optional[dict]] = [None] * len(self.query_texts)
        calls = cells = 0
        for shard, result in zip(self._shards, self._results):
            if result["ok"]:
                shard_stats = result["stats"]
                calls += shard_stats["transformer_calls"]
                cells += shard_stats["state_cells"]
                for local_i, orig_i in enumerate(shard.indices):
                    per_query[orig_i] = shard_stats["per_query"][local_i]
            else:
                for orig_i in shard.indices:
                    per_query[orig_i] = {"status": "quarantined"}
        out = {
            "queries": len(self.query_texts),
            "workers": len(self._shards),
            "mode": self.mode,
            "shards": [list(s.indices) for s in self._shards],
            "events_in": self.events_in,
            "frames": self.frames,
            "bytes_shipped": sum(s.bytes_shipped for s in self._shards),
            "transformer_calls": calls,
            "state_cells": cells,
            "per_query": per_query,
            "statuses": self.statuses(),
            "fault_tolerance": self.fault_stats(),
        }
        if self.projection is not None:
            proj = {
                "union": self.projection.to_dict(),
                "tokenizer_pruning": self.projection_matcher is not None,
            }
            if self.projection_stats is not None:
                proj["tokenizer"] = self.projection_stats.to_dict()
            out["projection"] = proj
        merged = self.metrics()
        if merged is not None:
            out["metrics"] = merged
        return out

    def fault_stats(self) -> dict:
        """Supervision counters: what the fault-tolerance layer did."""
        shards = self._shards
        return {
            "restarts": sum(s.restarts for s in shards),
            "replayed_frames": sum(s.replayed_frames for s in shards),
            "inline_takeovers": sum(s.inline_takeover for s in shards),
            "duplicates_dropped": sum(s.duplicates_dropped
                                      for s in shards),
            "checkpoints": sum(s.checkpoints for s in shards),
            "quarantined_queries": (self._statuses or []).count(
                "quarantined"),
            "fault_plan": (self.fault_plan.to_spec()
                           if self.fault_plan else None),
            "journal": self._journal.stats(),
            "flight_bundles": sum(len(s.flight_bundles)
                                  for s in shards),
        }

    def flight_bundles(self) -> List[dict]:
        """Post-mortem bundles from every shard recovery, shard order.

        One bundle per recovery action (worker restart, inline
        takeover, quarantine); each records the cumulative
        ``replayed_frames`` counter as of that recovery, so the last
        bundle of a run agrees with :meth:`fault_stats`.  The chaos CLI
        writes these to its report directory.
        """
        return [b for s in self._shards for b in s.flight_bundles]

    def metrics(self) -> Optional[dict]:
        """Telemetry merged across shard workers (None when off).

        Worker recorders serialize to plain dicts, travel home on the
        result pipe inside each worker's stats payload, and are merged
        here — the totals equal what a single-process
        ``MultiQueryRun(..., metrics=True)`` over the same queries and
        stream reports.
        """
        if self._results is None:
            raise RuntimeError("metrics are available after finish()")
        return _merge_executor_metrics(
            self, [r["stats"]["metrics"] for r in self._results
                   if r.get("stats") and "metrics" in r["stats"]])

    def __repr__(self) -> str:
        return "ShardedMultiQueryRun({} queries, {} workers, {})".format(
            len(self.query_texts), len(self._shards), self.mode)
