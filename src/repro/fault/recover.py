"""Whole-process crash recovery from the write-ahead log.

Counterpart of :mod:`repro.fault.wal`: given a log directory produced
by a durable run (``MultiQueryRun.run_durable``, which is also what
``XFlux.run_xml(durable=...)`` runs, or a sharded run with
``durable_dir``),
:func:`recover` rebuilds the executor in a *fresh process* and brings
it to the exact pre-crash state:

1. scan the log (:func:`~repro.fault.wal.scan_wal` — torn tails are
   truncated at the last valid record, anything else raises
   :class:`~repro.fault.wal.WalError`),
2. restore the newest valid checkpoint envelope (for sharded logs, the
   newest per shard), or build a fresh executor from the manifest when
   a shard never checkpointed,
3. replay exactly the logged frame suffix past each checkpoint's
   cover point, in sequence order.

Soundness rests on the write-ahead invariant (a frame is on disk
before any pipeline sees its events) plus deterministic execution: the
recovered state equals the uninterrupted state after the last logged
frame, byte for byte.  When the original input is re-supplied
(``text=`` / ``events=``) the run then *resumes* — the already-covered
event prefix is skipped and the remainder is fed — so the final
displays and statuses are byte-identical to a run that never crashed.
Quarantines recorded in the log (STATUS records) are merged into the
recovered statuses, covering faults that are not replay-reproducible.

Every recovery attaches a flight-recorder bundle
(:mod:`repro.obs.flightrec`) describing what was restored, replayed,
and repaired.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from ..events import codec
from .wal import WalError, WalState, scan_wal


class RecoveryError(WalError):
    """The log is readable but the run cannot be reconstructed."""


class RecoveryResult:
    """Outcome of one :func:`recover` call.

    Attributes:
        kind: ``"multiquery"`` (a whole-process log — a durable single
            query is a one-member executor) or ``"sharded"``.
        queries: query texts, submission order.
        texts: recovered answers (``None`` for quarantined queries).
        statuses: per-query ``"ok"`` / ``"quarantined"`` / ``"empty"``.
        error_reports: query index -> error report.
        frames_replayed: logged frames fed past the checkpoint(s).
        events_resumed: events fed from the re-supplied input tail.
        checkpoint_seqs: shard key -> cover seq of the restored
            checkpoint (``None`` key: whole-process).
        complete: the recovered run reached end of stream (EOS logged,
            or the input tail was re-supplied and drained).
        truncated: torn-tail repair note from the scan, or ``None``.
        bundle: the attached flight-recorder bundle.
        executors: the live
            :class:`~repro.xquery.engine.MultiQueryRun` executors, one
            per shard (a whole-process log has one) — for callers that
            keep feeding.
    """

    def __init__(self) -> None:
        self.kind = None
        self.queries: List[str] = []
        self.texts: List[Optional[str]] = []
        self.statuses: List[str] = []
        self.error_reports: dict = {}
        self.frames_replayed = 0
        self.events_resumed = 0
        self.checkpoint_seqs: dict = {}
        self.complete = False
        self.truncated: Optional[dict] = None
        self.bundle: Optional[dict] = None
        self.executors = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "queries": self.queries,
            "texts": self.texts,
            "statuses": self.statuses,
            "error_reports": {str(k): v for k, v
                              in self.error_reports.items()},
            "frames_replayed": self.frames_replayed,
            "events_resumed": self.events_resumed,
            "checkpoint_seqs": {("*" if k is None else str(k)): v
                                for k, v in self.checkpoint_seqs.items()},
            "complete": self.complete,
            "truncated": self.truncated,
        }


def _replay_frames(state: WalState, mq, floor: int) -> int:
    """Feed the logged frames past ``floor`` into ``mq``, in order."""
    replayed = 0
    for seq in range(floor + 1, state.last_frame + 1):
        payload = state.frames.get(seq)
        if payload is None:
            raise RecoveryError(
                "frame {} is gone from the log but a checkpoint at {} "
                "still needs it".format(seq, floor),
                reason="missing-frame")
        mq.feed_all(codec.decode_batch(payload))
        replayed += 1
    return replayed


def _events_consumed(state: WalState, batch_events: int) -> int:
    """Source events covered by frames ``1..last``, pruned ones included.

    Only full frames are ever pruned mid-stream (a partial frame exists
    only at end of stream, after which EOS is logged and no resume
    happens), so missing sequence numbers each stand for exactly
    ``batch_events`` events.
    """
    consumed = sum(struct.unpack_from("<I", p)[0]
                   for p in state.frames.values())
    missing = state.last_frame - len(
        [s for s in state.frames if s <= state.last_frame])
    return consumed + missing * batch_events


def _tail_events(state: WalState, manifest: dict, text, events):
    """The not-yet-logged event suffix of the re-supplied input."""
    if text is None and events is None:
        return None
    if events is None:
        from ..xmlio.tokenizer import tokenize
        events = tokenize(text, stream_id=manifest["source_id"],
                          emit_oids=manifest["needs_oids"])
    return list(events)[_events_consumed(
        state, int(manifest["batch_events"])):]


def _merge_statuses(mq, notes, indices) -> None:
    """Force quarantines the log recorded but the replay did not.

    Deterministic replay normally reproduces them; this covers faults
    that fire once (injected faults, environmental failures) so the
    recovered statuses still match the interrupted run's.  ``indices``
    are the global positions of ``mq``'s queries (notes name those).
    """
    statuses = mq.statuses()
    for note in notes:
        if note.get("query") not in indices:
            continue
        local = indices.index(note["query"])
        if statuses[local] != "ok":
            continue
        mq.mux.quarantined[mq._slots[local]] = {
            "error_type": note.get("error_type"),
            "message": note.get("message"),
            "recovered_from_log": True,
            "at_seq": note.get("at_seq"),
        }


def recover(directory: str, text: Optional[str] = None,
            events=None, finish: Optional[bool] = None) -> RecoveryResult:
    """Recover a durable run from its write-ahead log directory.

    Args:
        directory: the WAL directory of the interrupted run.
        text: the original XML document, to *resume* past the logged
            position (optional; without it the run is restored exactly
            to the last logged frame).
        events: the original event stream (mutually exclusive
            alternative to ``text`` for update-stream runs).
        finish: force finishing (or not) the recovered pipelines;
            ``None`` finishes exactly when the stream is complete —
            EOS logged, or the input tail was re-supplied.

    Every log holds the frames of one stream and the checkpoints of
    one or more :class:`~repro.xquery.engine.MultiQueryRun` executors
    over it: the whole process under key ``None``, or one per shard
    (shard workers run plain executors over the broadcast frames, so
    rebuilding them in-process, no re-fork, yields the same bytes the
    supervised run would have).  One loop restores, replays and
    resumes each; the answers are reassembled in submission order.

    Returns a :class:`RecoveryResult` with a flight-recorder bundle
    attached; raises :class:`~repro.fault.wal.WalError` on mid-log
    corruption and :class:`RecoveryError` when the log is sound but
    insufficient (e.g. a needed frame was truncated away).
    """
    if text is not None and events is not None:
        raise ValueError("pass text= or events=, not both")
    from ..parallel.shard import reassemble
    from ..xquery.engine import MultiQueryRun, XFlux
    state = scan_wal(directory, repair=True)
    manifest = state.manifest or {}
    kind = manifest.get("kind")
    if kind == "multiquery":
        shards = [(None, list(range(len(manifest["queries"]))))]
    elif kind == "sharded":
        shards = list(enumerate(manifest["shards"]))
    else:
        raise RecoveryError(
            "manifest names no recoverable run kind: {!r}".format(kind),
            reason="bad-record")
    result = RecoveryResult()
    result.kind = kind
    result.truncated = state.truncated
    result.queries = queries = list(manifest["queries"])
    # One stream, so one input tail and one end for every executor.
    tail = _tail_events(state, manifest, text, events)
    result.complete = state.eos_seq is not None or tail is not None
    if finish is None:
        finish = result.complete
    result.executors = []
    parts = []
    for key, indices in shards:
        ckpt = state.checkpoints.get(key)
        if ckpt is not None:
            floor = result.checkpoint_seqs[key] = ckpt[0]
            mq = MultiQueryRun.restore(
                ckpt[1], queries=[queries[i] for i in indices])
        else:
            # Never checkpointed (the log was cut right after its
            # manifest): build what was running from the manifest.
            floor = 0
            mq = MultiQueryRun(
                [XFlux(queries[i], *manifest["flags"][i]) for i in indices],
                **manifest.get("engine", {}))
        result.frames_replayed += _replay_frames(state, mq, floor)
        if tail is not None:
            mq.feed_all(tail)
            result.events_resumed = len(tail)
        if finish:
            mq.finish()
        _merge_statuses(mq, state.statuses, indices)
        result.executors.append(mq)
        parts.append((indices, {"texts": mq.texts(),
                                "statuses": mq.statuses(),
                                "error_reports": mq.error_reports()}))
    result.texts, result.statuses, result.error_reports = reassemble(
        len(queries), parts)
    from ..obs.flightrec import build_bundle
    result.bundle = build_bundle(
        "recovery",
        wal_directory=directory,
        wal_records=state.records,
        last_frame=state.last_frame,
        eos_seq=state.eos_seq,
        torn_tail=state.truncated,
        checkpoint_seqs={("*" if k is None else k): v for k, v
                         in result.checkpoint_seqs.items()},
        frames_replayed=result.frames_replayed,
        events_resumed=result.events_resumed,
        statuses=result.statuses,
    )
    return result


__all__ = ["RecoveryError", "RecoveryResult", "recover"]
