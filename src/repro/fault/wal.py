"""Segmented write-ahead log for durable stream processing.

The shard supervisor (PR 5) made *worker* death survivable, but the
engine process itself was a single point of loss: SIGKILL it mid-stream
and every region table, checkpoint and pending update evaporated.  This
module closes that hole.  A :class:`WriteAheadLog` journals every
broadcast frame to disk *before* it is dispatched to any pipeline,
interleaved with periodic checkpoint envelopes
(:mod:`repro.fault.checkpoint`), so a fresh process can rebuild the
exact pre-crash state: restore the newest checkpoint, replay the logged
frame suffix (:mod:`repro.fault.recover`).

Record format — every record is a codec checked frame
(:func:`repro.events.codec.frame_checked`: flagged length word,
sequence number, payload, CRC32 trailer) whose payload is one record
type byte followed by the record body:

======== ===== ==================================================
record   seq   body
======== ===== ==================================================
META     0     JSON run manifest (kind, queries, engine flags)
FRAME    k     the encoded event batch of broadcast frame ``k``
CKPT     k     ``<i`` shard (-1: whole process) + checkpoint blob
               covering frames ``<= k``
STATUS   k     JSON quarantine note observed after frame ``k``
EOS      k     empty; the stream completed after ``k`` frames
======== ===== ==================================================

Reusing the checked-frame wire format means the log inherits the
codec's failure taxonomy for free: a torn write (the crash landed
mid-record) reads back as ``reason="truncated"`` and is repaired by
truncating the segment at the last valid record; bit rot fails its CRC
and surfaces as a structured :class:`WalError` — recovery never
unpickles garbage.

Segments and truncation: records append to ``wal-NNNNNNNN.seg`` files.
Rotation is *checkpoint-gated*: a new segment may only be opened once
every registered shard has shipped at least one checkpoint, because the
new segment is made self-sufficient — it starts with a fresh META
record, the newest checkpoint per shard, and copies of the frames past
the replay floor — and every older segment is then deleted.  The live
log is therefore bounded by one segment plus the replay tail between
the oldest live checkpoint and the write head.

Durability model: every record is flushed to the OS before the journal
reports it written, so the log survives SIGKILL of the process.  Pass
``fsync=True`` to also survive power loss (one ``os.fsync`` per
record; an order of magnitude slower).
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
from typing import Dict, List, Optional, Tuple

from ..events import codec

WAL_VERSION = 1

#: Record type bytes (first payload byte of every record).
R_META = 1
R_FRAME = 2
R_CKPT = 3
R_STATUS = 4
R_EOS = 5

_SHARD = struct.Struct("<i")
_COUNT = struct.Struct("<I")
_SEGMENT_RE = re.compile(r"wal-(\d{8})\.seg$")


def _segment_name(index: int) -> str:
    return "wal-{:08d}.seg".format(index)


class WalError(RuntimeError):
    """The log cannot be written or read back soundly.

    Attributes:
        reason: machine-readable failure class (``"corrupt"``,
            ``"torn-tail"``, ``"missing-frame"``, ``"not-a-log"``,
            ``"exists"``, ``"bad-record"``).
        segment: path of the segment file involved, if any.
        offset: byte offset inside that segment, if known.
    """

    def __init__(self, message: str, reason: Optional[str] = None,
                 segment: Optional[str] = None,
                 offset: Optional[int] = None) -> None:
        self.reason = reason
        self.segment = segment
        self.offset = offset
        details = []
        if reason is not None:
            details.append("reason={}".format(reason))
        if segment is not None:
            details.append("segment={}".format(segment))
        if offset is not None:
            details.append("offset={}".format(offset))
        if details:
            message = "{} [{}]".format(message, ", ".join(details))
        super().__init__(message)


def list_segments(directory: str) -> List[str]:
    """Segment file paths of ``directory``, oldest first."""
    out = []
    for name in os.listdir(directory):
        if _SEGMENT_RE.match(name):
            out.append(os.path.join(directory, name))
    return sorted(out)


class WriteAheadLog:
    """Append-only journal of frames, checkpoints and status notes.

    Args:
        directory: created if missing; must not already hold a log.
        segment_bytes: rotation is considered once the current segment
            exceeds this size (and every shard has checkpointed).
        fsync: fsync after every record (power-loss durability); the
            default flush-only already survives process SIGKILL.
        crash_after_frames: test/chaos hook — SIGKILL this process the
            moment that frame sequence number has been durably logged
            (before it is dispatched to any consumer).
    """

    def __init__(self, directory: str, segment_bytes: int = 4 << 20,
                 fsync: bool = False,
                 crash_after_frames: Optional[int] = None) -> None:
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.crash_after_frames = crash_after_frames
        os.makedirs(directory, exist_ok=True)
        if list_segments(directory):
            raise WalError(
                "directory already holds a write-ahead log; recover or "
                "remove it first: {}".format(directory), reason="exists")
        self.manifest: Optional[dict] = None
        self.frames = 0             # newest logged frame sequence
        self.records = 0
        self.rotations = 0
        self.bytes_written = 0
        #: frame seq -> batch payload, retained until checkpoint-pruned
        #: (serves shard replay and rotation tail copies).
        self._payloads: Dict[int, bytes] = {}
        #: shard key (None: whole process) -> newest covered frame seq.
        self._floors: Dict[Optional[int], int] = {}
        self._ckpts: Dict[Optional[int], Tuple[int, bytes]] = {}
        self._statuses: List[Tuple[int, bytes]] = []
        self._seg_index = 1
        self._seg_size = 0
        self._fh = open(os.path.join(directory,
                                     _segment_name(self._seg_index)), "wb")
        self._closed = False

    # -- record appends -------------------------------------------------------

    def _append(self, rtype: int, seq: int, body: bytes) -> None:
        if self._closed:
            raise WalError("log is closed", reason="closed")
        record = codec.frame_checked(bytes([rtype]) + body, seq)
        self._fh.write(record)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._seg_size += len(record)
        self.bytes_written += len(record)
        self.records += 1

    def begin(self, manifest: dict) -> None:
        """Write the run manifest; must be the first record logged."""
        manifest = dict(manifest, wal_version=WAL_VERSION)
        self.manifest = manifest
        self._append(R_META, 0, json.dumps(manifest,
                                           sort_keys=True).encode("utf-8"))

    def register_shards(self, shards) -> None:
        """Declare the shard keys whose checkpoints gate truncation.

        Until every registered shard has logged a checkpoint the replay
        floor stays at 0 and no frame is ever discarded.
        """
        for shard in shards:
            self._floors.setdefault(shard, 0)

    def log_frame(self, seq: int, payload: bytes) -> None:
        """Journal one broadcast frame ahead of dispatch.

        ``payload`` is the encoded event batch
        (:func:`repro.events.codec.encode_batch`); the on-wire frame
        bytes are reconstructible exactly via :meth:`frame_bytes`.
        Sequence numbers must be contiguous and 1-based.
        """
        if seq != self.frames + 1:
            raise WalError(
                "frame sequence jump: expected {}, got {}".format(
                    self.frames + 1, seq), reason="bad-record")
        self._append(R_FRAME, seq, payload)
        self._payloads[seq] = payload
        self.frames = seq
        if self.crash_after_frames is not None \
                and seq >= self.crash_after_frames:
            import signal
            os.kill(os.getpid(), signal.SIGKILL)

    def checkpoint(self, blob: bytes, covers_seq: int,
                   shard: Optional[int] = None) -> None:
        """Log a checkpoint envelope covering frames ``<= covers_seq``."""
        self._append(R_CKPT, covers_seq,
                     _SHARD.pack(-1 if shard is None else shard) + blob)
        self._ckpts[shard] = (covers_seq, blob)
        self._floors[shard] = covers_seq
        self._prune_payloads()
        self._maybe_rotate()

    def status(self, query: int, report: dict, seq: int) -> None:
        """Record a quarantine so recovery reproduces per-query statuses."""
        note = {"query": query,
                "error_type": report.get("error_type"),
                "message": report.get("message")}
        body = json.dumps(note, sort_keys=True).encode("utf-8")
        self._append(R_STATUS, seq, body)
        self._statuses.append((seq, body))

    def eos(self) -> None:
        """Mark the stream complete (all frames logged and dispatched)."""
        self._append(R_EOS, self.frames, b"")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()

    def open_fds(self) -> List[int]:
        """Descriptors held open (a forked worker closes its copies)."""
        return [] if self._closed else [self._fh.fileno()]

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- retention ------------------------------------------------------------

    def floor(self) -> int:
        """Newest frame seq every possible replay is past (0: keep all)."""
        return min(self._floors.values()) if self._floors else 0

    def _prune_payloads(self) -> None:
        floor = self.floor()
        for seq in [s for s in self._payloads if s <= floor]:
            del self._payloads[seq]

    def _maybe_rotate(self) -> None:
        """Checkpoint-gated segment rotation + old-segment truncation.

        The new segment is self-sufficient (manifest, newest checkpoint
        per shard, the replay tail past the floor), so every older
        segment can be deleted — this is what bounds the log.
        """
        if self._seg_size < self.segment_bytes or self.floor() < 1:
            return
        old = list_segments(self.directory)
        self._fh.close()
        self._seg_index += 1
        self._seg_size = 0
        self._fh = open(os.path.join(self.directory,
                                     _segment_name(self._seg_index)), "wb")
        self.rotations += 1
        self._append(R_META, 0, json.dumps(
            self.manifest or {}, sort_keys=True).encode("utf-8"))
        for shard, (covers_seq, blob) in sorted(
                self._ckpts.items(),
                key=lambda kv: -1 if kv[0] is None else kv[0]):
            self._append(R_CKPT, covers_seq,
                         _SHARD.pack(-1 if shard is None else shard) + blob)
        for seq in sorted(self._payloads):
            self._append(R_FRAME, seq, self._payloads[seq])
        for seq, body in self._statuses:
            self._append(R_STATUS, seq, body)
        for path in old:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- read-back ------------------------------------------------------------

    def frame_payload(self, seq: int) -> bytes:
        """The logged batch payload of frame ``seq`` (memory, then disk)."""
        payload = self._payloads.get(seq)
        if payload is not None:
            return payload
        self._fh.flush()
        for record in iter_wal_records(self.directory):
            if record.rtype == R_FRAME and record.seq == seq:
                return record.body
        raise WalError("log no longer holds frame {} (floor {})".format(
            seq, self.floor()), reason="missing-frame")

    def frame_bytes(self, seq: int) -> bytes:
        """Frame ``seq`` re-wrapped exactly as it went over the wire."""
        return codec.frame_checked(self.frame_payload(seq), seq)

    def stats(self) -> dict:
        return {
            "directory": self.directory,
            "frames": self.frames,
            "records": self.records,
            "rotations": self.rotations,
            "bytes_written": self.bytes_written,
            "segments": len(list_segments(self.directory)),
            "floor": self.floor(),
            "retained_payloads": len(self._payloads),
        }


class WalRecord:
    """One decoded log record (see the module docstring for the table)."""

    __slots__ = ("rtype", "seq", "body", "segment", "offset")

    def __init__(self, rtype: int, seq: int, body: bytes,
                 segment: str, offset: int) -> None:
        self.rtype = rtype
        self.seq = seq
        self.body = body
        self.segment = segment
        self.offset = offset

    def __repr__(self) -> str:
        return "WalRecord(type={}, seq={}, {} bytes)".format(
            self.rtype, self.seq, len(self.body))


def iter_wal_records(directory: str, repair: bool = False):
    """Yield :class:`WalRecord` objects across all segments, in order.

    Failure policy (the recovery soundness rule, DESIGN.md section 14):

    * ``reason="truncated"`` at the tail of the *last* segment is a torn
      write — the crash landed mid-record.  With ``repair=True`` the
      segment is physically truncated at the last valid record and the
      scan ends cleanly; otherwise a :class:`WalError`
      (``reason="torn-tail"``) is raised.
    * any other failure — a CRC mismatch anywhere, or truncation in a
      non-final segment — is mid-log corruption: the suffix cannot be
      trusted, so a :class:`WalError` (``reason="corrupt"``) is raised
      instead of replaying a wrong prefix silently.
    """
    segments = list_segments(directory)
    if not segments:
        raise WalError("no write-ahead log in {}".format(directory),
                       reason="not-a-log")
    for path in segments:
        last = path == segments[-1]
        with open(path, "rb") as fh:
            offset = 0
            while True:
                try:
                    result = codec.read_frame_ex(fh, offset=offset)
                except codec.CodecError as exc:
                    if last and exc.reason == "truncated":
                        if repair:
                            _truncate_segment(path, offset)
                            return
                        raise WalError(
                            "torn tail record (crash mid-write); "
                            "re-scan with repair to truncate at the "
                            "last valid record",
                            reason="torn-tail", segment=path,
                            offset=offset)
                    raise WalError(
                        "mid-log corruption: {}".format(exc),
                        reason="corrupt", segment=path,
                        offset=exc.offset)
                if result is None:
                    break
                seq, payload, next_offset = result
                if not payload:
                    raise WalError("empty record", reason="bad-record",
                                   segment=path, offset=offset)
                yield WalRecord(payload[0], seq, payload[1:],
                                path, offset)
                offset = next_offset


def _truncate_segment(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(offset)


class WalState:
    """Everything a recovery needs, scanned out of one log directory."""

    def __init__(self) -> None:
        self.manifest: Optional[dict] = None
        #: shard key (None: whole process) -> (covers_seq, blob).
        self.checkpoints: Dict[Optional[int], Tuple[int, bytes]] = {}
        self.frames: Dict[int, bytes] = {}
        self.statuses: List[dict] = []
        self.eos_seq: Optional[int] = None
        self.truncated: Optional[dict] = None
        self.records = 0

    @property
    def last_frame(self) -> int:
        return max(self.frames) if self.frames else 0

    def events_logged(self) -> int:
        """Total source events covered by the logged frames."""
        return sum(_COUNT.unpack_from(p)[0] for p in self.frames.values())


def scan_wal(directory: str, repair: bool = True) -> WalState:
    """Scan (and by default repair) a log directory into a `WalState`.

    Newest-wins for the manifest and per-shard checkpoints; duplicate
    frame records (a crash between rotation and old-segment deletion)
    collapse to the identical newest copy.
    """
    state = WalState()
    segments = list_segments(directory)
    try:
        for record in iter_wal_records(directory, repair=False):
            _absorb(state, record)
    except WalError as exc:
        if exc.reason != "torn-tail" or not repair:
            raise
        # Torn tail: truncate, then re-scan the records before the tear.
        state = WalState()
        dropped = os.path.getsize(exc.segment) - (exc.offset or 0)
        for record in iter_wal_records(directory, repair=True):
            _absorb(state, record)
        state.truncated = {"segment": exc.segment,
                           "offset": exc.offset,
                           "bytes_dropped": dropped}
    if state.manifest is None:
        raise WalError(
            "log holds no manifest record: {}".format(segments),
            reason="not-a-log")
    return state


def _absorb(state: WalState, record: WalRecord) -> None:
    state.records += 1
    if record.rtype == R_META:
        state.manifest = json.loads(record.body.decode("utf-8"))
    elif record.rtype == R_FRAME:
        state.frames[record.seq] = record.body
    elif record.rtype == R_CKPT:
        (shard,) = _SHARD.unpack_from(record.body)
        key = None if shard < 0 else shard
        prev = state.checkpoints.get(key)
        if prev is None or record.seq >= prev[0]:
            state.checkpoints[key] = (record.seq,
                                      record.body[_SHARD.size:])
    elif record.rtype == R_STATUS:
        note = json.loads(record.body.decode("utf-8"))
        note["at_seq"] = record.seq
        state.statuses.append(note)
    elif record.rtype == R_EOS:
        state.eos_seq = record.seq
    else:
        raise WalError("unknown record type {}".format(record.rtype),
                       reason="bad-record", segment=record.segment,
                       offset=record.offset)


# -- durable drive loop -------------------------------------------------------


def drive_durable(engine, events, wal: WriteAheadLog,
                  batch_events: int = 512,
                  checkpoint_every: int = 16,
                  checkpoint_cost_factor: float = 9.0) -> None:
    """Feed ``events`` through ``engine`` with write-ahead journaling.

    The loop invariant every recovery rests on: a frame is durably on
    disk *before* any pipeline sees its events, and a checkpoint record
    covering frames ``<= k`` is logged only after the engine has fully
    applied frame ``k``.  Quarantines observed between frames are
    logged as STATUS records so a recovery reproduces per-query
    statuses even when the triggering fault is not replayable.

    Checkpoints are *time-amortized*: ``checkpoint_every`` frames make a
    checkpoint eligible, but one is only taken once the engine has spent
    at least ``checkpoint_cost_factor`` times the previous checkpoint's
    duration doing real work since.  Snapshotting a blocking-heavy run
    pickles state proportional to the buffered stream, so a fixed frame
    cadence would cost an unbounded fraction of the run at scale; the
    amortization rule bounds steady-state checkpoint overhead to about
    ``1 / checkpoint_cost_factor`` by construction.  Pass ``0`` to
    disable the gate and checkpoint at the exact frame cadence (tests
    that need deterministic checkpoint placement do).

    ``engine`` is a :class:`~repro.xquery.engine.MultiQueryRun` — the
    one executor that is journalled.
    """
    import time as _time
    if batch_events < 1:
        raise ValueError("batch_events must be >= 1")
    logged_quarantines: set = set()

    def poll_statuses(seq: int) -> None:
        quarantined = engine.mux.quarantined
        for i, slot in enumerate(engine._slots):
            if slot in quarantined and i not in logged_quarantines:
                logged_quarantines.add(i)
                wal.status(i, quarantined[slot], seq)

    seq = 0
    since_ckpt = 0
    ckpt_cost = 0.0
    ckpt_done_at = _time.perf_counter()

    def dispatch(batch) -> None:
        nonlocal seq, since_ckpt, ckpt_cost, ckpt_done_at
        seq += 1
        wal.log_frame(seq, codec.encode_batch(batch))
        engine.feed_all(batch)
        poll_statuses(seq)
        since_ckpt += 1
        if since_ckpt >= checkpoint_every > 0:
            now = _time.perf_counter()
            if checkpoint_cost_factor <= 0 or \
                    now - ckpt_done_at >= ckpt_cost * checkpoint_cost_factor:
                wal.checkpoint(engine.checkpoint(), seq)
                ckpt_done_at = _time.perf_counter()
                ckpt_cost = ckpt_done_at - now
                since_ckpt = 0

    if isinstance(events, (list, tuple)):
        # Sequence fast path: frame boundaries fall out of slicing, so
        # the hot path carries no per-event accumulation loop.
        for start in range(0, len(events), batch_events):
            dispatch(events[start:start + batch_events])
    else:
        buffer = []
        for event in events:
            buffer.append(event)
            if len(buffer) == batch_events:
                dispatch(buffer)
                buffer = []
        if buffer:
            dispatch(buffer)
    wal.eos()
    engine.finish()
    poll_statuses(seq)
    wal.close()


def jsonable_kwargs(kwargs: dict) -> dict:
    """The JSON-safe subset of engine kwargs, for the manifest."""
    return {k: v for k, v in kwargs.items()
            if isinstance(v, (bool, int, float, str, type(None)))}


__all__ = [
    "WalError", "WalRecord", "WalState", "WriteAheadLog",
    "R_META", "R_FRAME", "R_CKPT", "R_STATUS", "R_EOS",
    "scan_wal", "iter_wal_records", "list_segments", "drive_durable",
    "jsonable_kwargs",
]
