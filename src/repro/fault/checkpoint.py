"""Versioned checkpoint envelopes for pipeline state snapshots.

A checkpoint is a self-describing byte string: a magic prefix, a format
version, a *kind* tag naming what was snapshotted (``"pipeline"``,
``"queryrun"``, ``"multiquery"``), a small schema dict used as a
structural guard at restore time, and the pickled state itself.  The
envelope exists so a restore can fail with a precise
:class:`CheckpointError` — wrong magic, unsupported version, kind
mismatch, schema mismatch — instead of unpickling garbage into a live
pipeline.

The payload is a pickle of the live runtime objects (wrappers, region
tables, display trees, shared context).  Pickle memoization preserves
the aliasing the runtime depends on — the display *is* the pipeline
sink, wrappers share one ``Context``, deduplicated queries share one
pipeline — so a restored graph has exactly the object identities of the
original.  Everything reachable from a run is plain Python by
construction (the one historic exception, the fused predicate's lambda
tests, was replaced by picklable callables for exactly this reason).

Checkpoints are process-local and version-locked: they are an IPC and
recovery format for workers of the same interpreter (see
:mod:`repro.parallel.shard`), not a durable cross-host archive format.
DESIGN.md §9 spells out what is and is not covered.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import struct
import sys
from typing import Tuple

MAGIC = b"XFCK"
#: 2: UpdateWrapper pickles its live nesting tree (``_parent`` plus the
#: ``_children`` inverse) and an ``_open`` bracket map where version 1
#: had ``_chain_cache``, ``_anchor_at_open`` and ``_bracket_stack``; a
#: version-1 blob restored into this code would lack the new fields.
#: 3: a pickled Pipeline (inside ``multiquery`` envelopes) carries a
#: ``_routing`` flag where version 2 had the ``_tables`` / ``_routes``
#: lists and the ``_drive`` / ``_fast_seg`` / ``_fast_emit`` slots.
#: 4: UpdateWrapper pickles one ``RegionRecord`` per tracked id (the
#: values of ``tracked``, each a 17-field tuple) where version 3 had
#: twenty maps keyed by region id and integer facets in ``tracked``;
#: RegionTree carries its running ``regions`` / ``events`` totals.
#: 5: a display ``Region`` pickles a ``parent`` link and a state tuple
#: (``Run`` likewise) where version 4 had a slot dict without it; the
#: cached text of neither is pickled — a restored display rebuilds it
#: at its first read.  ``Display._text_cache`` is gone.
#: 6: a ``DescendantStep`` state is ``(depth, levels, anchor)`` over a
#: tuple of copy ids (plus ``(roots, targets)`` for a step that picks
#: what it copies) where version 5 had ``(depth, levels)`` over
#: ``(copy id, region id)`` pairs, and the step pickles its ``reads``;
#: ``AncestorJoin.incoming_depth`` is a map by region, not an int.
#: 7: a pickled Pipeline has no ``_fusion_plan`` and its checkpoint
#: state no ``"fusion"`` key (stage fusion is deleted); a version-6 blob
#: of a fused run names a class of ``repro.compile.fusion``, which no
#: longer imports, and ``MultiQueryRun`` pickles ``_share_blockers``.
#: 8: a ``SharedGroup`` pickles the ``recorder`` of its prefix pipeline
#: and a ``MetricsRecorder`` its ``routed`` flag (sharing stays engaged
#: under metrics and the flight ring); a version-7 blob would lack both.
VERSION = 8

#: Kinds the current code base writes; decode rejects unknown kinds.
KNOWN_KINDS = ("pipeline", "queryrun", "multiquery")

#: Recursion headroom for (un)pickling run state.  Blocking stages
#: (sort, aggregation) retain linked structures whose pickle depth
#: grows with the buffered stream, and the interpreter default of
#: ~1000 frames is exceeded already at benchmark scale 0.1.
_PICKLE_RECURSION_LIMIT = 20000


@contextlib.contextmanager
def _deep_pickle():
    previous = sys.getrecursionlimit()
    if previous < _PICKLE_RECURSION_LIMIT:
        sys.setrecursionlimit(_PICKLE_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


class CheckpointError(ValueError):
    """A checkpoint blob cannot be restored (format or schema mismatch).

    Decode failures carry ``offset`` (the byte position in the blob
    where decoding failed) and ``field`` (which envelope field was
    being read: ``"magic"``, ``"version"``, ``"payload"``, ``"kind"``,
    ``"schema"``), and both appear in the message — a truncated or
    corrupted envelope names the exact spot instead of a generic
    complaint.
    """

    def __init__(self, message: str, offset=None, field=None) -> None:
        self.offset = offset
        self.field = field
        details = []
        if field is not None:
            details.append("field={}".format(field))
        if offset is not None:
            details.append("byte offset {}".format(offset))
        if details:
            message = "{} [{}]".format(message, ", ".join(details))
        super().__init__(message)


def _isolated_dumps(doc: dict) -> bytes:
    """Pickle ``doc`` in a forked child; return the pickle bytes.

    Pickling a live object graph is not free *after* it returns: the
    default ``__reduce_ex__`` reads each instance's ``__dict__``, which
    materializes it and permanently disables CPython's inline-values
    attribute representation on every touched object.  Snapshotting a
    running pipeline this way de-optimizes exactly its hottest objects
    (wrappers, transformers, buffered events) — measured at ~10%
    end-to-end on the query benchmark after a *single* checkpoint.

    A fork gives the child a copy-on-write snapshot of the precise
    state at call time; the de-optimization lands in the child's copy
    and dies with it, while the parent's attribute layout stays
    untouched.  The child streams ``status byte + pickle`` back over a
    pipe and ``os._exit``\\ s without running any inherited cleanup (so
    the parent's buffered file handles are never double-flushed).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        body = b"\x01unknown failure"
        try:
            os.close(read_fd)
            with _deep_pickle():
                body = b"\x00" + pickle.dumps(
                    doc, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            body = b"\x01" + "{}: {}".format(
                type(exc).__name__, exc).encode("utf-8", "replace")
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(struct.pack("<Q", len(body)))
                fh.write(body)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if len(data) < 9 or struct.unpack_from("<Q", data)[0] != len(data) - 8:
        raise CheckpointError(
            "checkpoint snapshot subprocess died mid-write ({} bytes "
            "received)".format(len(data)))
    if data[8] != 0:
        raise CheckpointError(
            "checkpoint state is not picklable: {}".format(
                data[9:].decode("utf-8", "replace")))
    return data[9:]


def _snapshot_in_process() -> bool:
    return not hasattr(os, "fork") \
        or os.environ.get("REPRO_CKPT_INPROC") == "1"


def encode_checkpoint(kind: str, schema: dict, state: object) -> bytes:
    """Wrap ``state`` in a versioned envelope.

    ``schema`` is a small dict of structural facts about the snapshotted
    object (stage class names, query texts, ...).  It is stored next to
    the state and compared by the restoring side before the state is
    touched.

    The pickle itself is taken in a forked child (see
    :func:`_isolated_dumps`) so snapshotting never perturbs the live
    run; set ``REPRO_CKPT_INPROC=1`` to force the in-process path
    (platforms without ``fork``, or debugging).
    """
    if kind not in KNOWN_KINDS:
        raise CheckpointError("unknown checkpoint kind {!r}".format(kind))
    doc = {"kind": kind, "schema": schema, "state": state}
    if not _snapshot_in_process():
        return MAGIC + bytes([VERSION]) + _isolated_dumps(doc)
    try:
        with _deep_pickle():
            payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            "checkpoint state is not picklable: {}: {}".format(
                type(exc).__name__, exc))
    return MAGIC + bytes([VERSION]) + payload


def decode_checkpoint(blob: bytes, kind: str) -> Tuple[dict, object]:
    """Unwrap an envelope; returns ``(schema, state)``.

    Raises :class:`CheckpointError` on anything that is not a valid
    checkpoint of the requested ``kind`` at the current version.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise CheckpointError("checkpoint must be bytes, got {}".format(
            type(blob).__name__), offset=0, field="magic")
    if len(blob) < len(MAGIC):
        raise CheckpointError(
            "not a checkpoint (truncated before the magic: {} of {} "
            "bytes)".format(len(blob), len(MAGIC)),
            offset=len(blob), field="magic")
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError(
            "not a checkpoint (bad magic {!r}, want {!r})".format(
                bytes(blob[:len(MAGIC)]), MAGIC),
            offset=0, field="magic")
    if len(blob) < len(MAGIC) + 1:
        raise CheckpointError(
            "truncated before the version byte",
            offset=len(blob), field="version")
    version = blob[len(MAGIC)]
    if version != VERSION:
        raise CheckpointError(
            "unsupported checkpoint version {} (this build reads {})"
            .format(version, VERSION),
            offset=len(MAGIC), field="version")
    payload_at = len(MAGIC) + 1
    if len(blob) == payload_at:
        raise CheckpointError("truncated before the payload",
                              offset=payload_at, field="payload")
    try:
        with _deep_pickle():
            doc = pickle.loads(bytes(blob[payload_at:]))
    except Exception as exc:
        raise CheckpointError(
            "corrupt checkpoint payload: {}: {}".format(
                type(exc).__name__, exc),
            offset=payload_at, field="payload")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CheckpointError("corrupt checkpoint payload (no kind)",
                              offset=payload_at, field="kind")
    if doc["kind"] != kind:
        raise CheckpointError(
            "checkpoint kind mismatch: blob holds {!r}, expected {!r}"
            .format(doc["kind"], kind),
            offset=payload_at, field="kind")
    return doc.get("schema") or {}, doc.get("state")


def require_schema(found: dict, expected: dict) -> None:
    """Raise :class:`CheckpointError` unless the schema dicts agree."""
    for key, want in expected.items():
        got = found.get(key)
        if got != want:
            raise CheckpointError(
                "checkpoint schema mismatch on {!r}: blob has {!r}, "
                "restore target has {!r}".format(key, got, want),
                field="schema")
