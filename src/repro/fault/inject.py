"""Seeded fault injection: the mechanism that proves recovery paths run.

A :class:`FaultPlan` is a small, deterministic script of failures —
kill a shard worker after N frames, corrupt/drop/duplicate the frame
with sequence number K, raise inside pipeline stage S of query Q at its
M-th event — threaded through
:class:`~repro.parallel.ShardedMultiQueryRun` (``fault_plan=...`` or the
``REPRO_FAULTS`` environment variable) and
:class:`~repro.xquery.engine.MultiQueryRun`.  The chaos CLI
(``python -m repro chaos``) and the differential tests in
``tests/test_fault.py`` drive recovery through plans, never through
hand-rolled monkey patching, so every path they prove is the path
production failures take.

Spec grammar (the ``REPRO_FAULTS`` / ``--fault-plan`` format)::

    spec    = action (';' action)*
    action  = kind ':' key '=' value (',' key '=' value)*

    kill:shard=0,after=3          SIGKILL shard 0's worker after 3 frames
    corrupt:frame=5[,shard=0]     flip one payload byte of frame 5
    drop:frame=5[,shard=0]        never deliver frame 5 to the shard
    dup:frame=5[,shard=0]         deliver frame 5 twice
    raise:query=2,stage=1,at=100  raise in stage 1 of query 2, 100th call
    seed=42                       corruption-site seed (optional)

``shard`` defaults to 0.  Frame sequence numbers are 1-based (the first
broadcast frame is 1); ``at`` counts the stage transformer's
``process()`` calls, also 1-based.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

_FRAME_KINDS = ("corrupt", "drop", "dup")
_KINDS = ("kill",) + _FRAME_KINDS + ("raise",)


class InjectedFault(RuntimeError):
    """Raised by an armed stage fault; carries where it was planted."""

    def __init__(self, query: Optional[int], stage: int, at: int) -> None:
        self.query = query
        self.stage = stage
        self.at = at
        super().__init__(
            "injected fault in stage {} at call {}{}".format(
                stage, at,
                "" if query is None else " (query {})".format(query)))


def error_report(exc: BaseException, **context) -> dict:
    """A picklable, JSON-able capture of an exception for quarantine.

    The runtime never re-raises quarantined exceptions; this dict is
    what surfaces in ``stats()``, worker result payloads, and the chaos
    CLI's artifact files instead.
    """
    import traceback
    report = {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
    }
    for key in ("rule", "stage", "stage_index", "reason", "offset",
                "query", "at"):
        value = getattr(exc, key, None)
        if value is not None:
            report[key] = value
    report.update(context)
    return report


class FaultAction:
    """One scripted failure.  ``kind`` decides which fields matter."""

    __slots__ = ("kind", "shard", "after", "frame", "query", "stage", "at")

    def __init__(self, kind: str, shard: int = 0,
                 after: Optional[int] = None, frame: Optional[int] = None,
                 query: Optional[int] = None, stage: Optional[int] = None,
                 at: Optional[int] = None) -> None:
        if kind not in _KINDS:
            raise ValueError("unknown fault kind {!r} (expected one of "
                             "{})".format(kind, ", ".join(_KINDS)))
        if kind == "kill" and after is None:
            raise ValueError("kill needs after=<frames>")
        if kind in _FRAME_KINDS and frame is None:
            raise ValueError("{} needs frame=<seq>".format(kind))
        if kind == "raise" and (query is None or stage is None
                                or at is None):
            raise ValueError("raise needs query=, stage= and at=")
        self.kind = kind
        self.shard = shard
        self.after = after
        self.frame = frame
        self.query = query
        self.stage = stage
        self.at = at

    def to_spec(self) -> str:
        if self.kind == "kill":
            return "kill:shard={},after={}".format(self.shard, self.after)
        if self.kind in _FRAME_KINDS:
            return "{}:frame={},shard={}".format(self.kind, self.frame,
                                                 self.shard)
        return "raise:query={},stage={},at={}".format(self.query,
                                                      self.stage, self.at)

    def __repr__(self) -> str:
        return "FaultAction({})".format(self.to_spec())


class FaultPlan:
    """An immutable script of :class:`FaultAction` entries plus a seed.

    The plan itself never mutates while running — the supervisor keeps
    its own fired/killed bookkeeping — so one plan object can drive the
    clean-versus-faulted comparison runs of the benchmark and tests.
    """

    def __init__(self, actions: Sequence[FaultAction] = (),
                 seed: int = 0) -> None:
        self.actions: Tuple[FaultAction, ...] = tuple(actions)
        self.seed = seed

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` / ``--fault-plan`` spec grammar."""
        actions: List[FaultAction] = []
        seed = 0
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("seed="):
                seed = int(raw[len("seed="):])
                continue
            if ":" not in raw:
                raise ValueError(
                    "bad fault action {!r} (expected kind:key=value,...)"
                    .format(raw))
            kind, _, rest = raw.partition(":")
            kwargs: Dict[str, int] = {}
            for pair in rest.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                if not value:
                    raise ValueError("bad fault parameter {!r} in {!r}"
                                     .format(pair, raw))
                kwargs[key.strip()] = int(value)
            actions.append(FaultAction(kind.strip(), **kwargs))
        return cls(actions, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The ``REPRO_FAULTS`` hook; ``None`` when the variable is unset."""
        spec = (environ if environ is not None else os.environ).get(
            "REPRO_FAULTS", "")
        return cls.parse(spec) if spec.strip() else None

    def to_spec(self) -> str:
        parts = [a.to_spec() for a in self.actions]
        if self.seed:
            parts.append("seed={}".format(self.seed))
        return ";".join(parts)

    # -- supervisor queries ---------------------------------------------------

    def kill_after(self, shard: int) -> Optional[int]:
        """Frames after which the shard's worker is killed (or None)."""
        for a in self.actions:
            if a.kind == "kill" and a.shard == shard:
                return a.after
        return None

    def frame_actions(self, shard: int, seq: int) -> List[str]:
        """Frame-level action kinds scripted for ``(shard, seq)``."""
        return [a.kind for a in self.actions
                if a.kind in _FRAME_KINDS and a.shard == shard
                and a.frame == seq]

    def stage_faults(self, queries: Optional[Sequence[int]] = None
                     ) -> List[Tuple[int, int, int]]:
        """``(query, stage, at)`` triples, optionally remapped to a shard.

        With ``queries`` (the shard's global query indices) the returned
        query positions are shard-local; faults on queries the shard does
        not own are omitted.
        """
        out = []
        for a in self.actions:
            if a.kind != "raise":
                continue
            if queries is None:
                out.append((a.query, a.stage, a.at))
            elif a.query in queries:
                out.append((list(queries).index(a.query), a.stage, a.at))
        return out

    def corrupt_bytes(self, frame: bytes, seq: int) -> bytes:
        """Deterministically flip one byte past the length header.

        The flip lands in the seq/payload/CRC region, so a checked frame
        always fails its CRC (or its gap check) rather than silently
        decoding; the 4-byte length word is left intact so framing never
        desynchronizes — exactly the corruption class the CRC trailer
        exists to catch.
        """
        header = 4
        if len(frame) <= header:
            return frame
        span = len(frame) - header
        pos = header + (seq * 2654435761 + self.seed * 40503) % span
        corrupted = bytearray(frame)
        corrupted[pos] ^= 0xFF
        return bytes(corrupted)

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __repr__(self) -> str:
        return "FaultPlan({!r})".format(self.to_spec())


class _RaisingProcess:
    """Wraps a transformer's ``process``; raises on the ``at``-th call.

    A module-level class rather than a closure so an armed pipeline
    stays picklable (checkpoints taken before the fault fires carry the
    armed fault, remaining count included).  Calls go through
    ``type(t).process`` explicitly: the instance attribute this object
    is stored under must never shadow the real implementation.
    """

    __slots__ = ("t", "remaining", "query", "stage", "at")

    def __init__(self, transformer, at: int, query: Optional[int],
                 stage: int) -> None:
        self.t = transformer
        self.remaining = at
        self.query = query
        self.stage = stage
        self.at = at

    def __call__(self, e, out):
        self.remaining -= 1
        if self.remaining <= 0:
            raise InjectedFault(self.query, self.stage, self.at)
        return type(self.t).process(self.t, e, out)


def arm_stage_fault(run, stage: int, at: int,
                    query: Optional[int] = None) -> None:
    """Plant an :class:`InjectedFault` in one stage of a live run.

    ``run`` is a :class:`~repro.xquery.engine.QueryRun`; the fault fires
    on the stage transformer's ``at``-th ``process()`` call and escapes
    through the pipeline exactly like an operator bug would.
    """
    wrappers = run.pipeline.wrappers
    if not 0 <= stage < len(wrappers):
        raise ValueError(
            "stage {} out of range for a {}-stage pipeline".format(
                stage, len(wrappers)))
    transformer = wrappers[stage].t
    transformer.process = _RaisingProcess(transformer, at, query, stage)
