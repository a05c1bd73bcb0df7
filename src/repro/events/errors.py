"""Structured stream-protocol errors.

The stream protocol has one checker,
:class:`~repro.events.wellformed.BoundaryChecker`, with two entry
points: the shared input of ``MultiQueryRun(validate=True)``
(:mod:`repro.core.multiplex`) and every stage boundary under the
sanitizer (:mod:`repro.analysis.sanitize`).  Every refusal is a
:class:`ProtocolViolation` carrying one of the checker's rule codes (the
producer contract, DESIGN.md section 7), so a violation always names
*where* it happened (stage or boundary), *what* event triggered it
(repr and position), and *which* substream it was on.
Tooling can catch :class:`ProtocolViolation` and read the fields instead
of parsing messages.
"""

from __future__ import annotations

from typing import Optional


class ProtocolViolation(ValueError):
    """An event sequence broke a stream-protocol invariant.

    Attributes:
        rule: short machine-readable name of the violated invariant
            (e.g. ``"element-nesting"``, ``"bracket-discipline"``).
        stage: the pipeline stage or boundary where the violation was
            observed (``None`` for standalone sequence checks).
        stage_index: 0-based index of the pipeline boundary — ``0`` is
            source -> stage 0, ``n`` is the last stage -> sink (``None``
            for standalone sequence checks).  Matches the ``index`` in
            the telemetry layer's
            :class:`~repro.obs.recorder.StageIdentity` labels, so a
            violation joins against metrics / trace / analyze JSON.
        event: repr of the offending event (``None`` for end-of-stream
            violations).
        index: 0-based position of the offending event in the checked
            sequence (``None`` when unknown).
        stream: the stream/substream number the violation concerns.
    """

    def __init__(self, message: str, rule: Optional[str] = None,
                 stage: Optional[str] = None,
                 event: Optional[object] = None,
                 index: Optional[int] = None,
                 stream: Optional[int] = None,
                 stage_index: Optional[int] = None) -> None:
        self.rule = rule
        self.stage = stage
        self.stage_index = stage_index
        self.event = None if event is None else repr(event)
        self.index = index
        self.stream = stream
        parts = [message]
        details = []
        if rule is not None:
            details.append("rule={}".format(rule))
        if stage is not None:
            details.append("at={}".format(stage))
        if stage_index is not None:
            details.append("boundary={}".format(stage_index))
        if self.event is not None:
            details.append("event={}".format(self.event))
        if index is not None:
            details.append("index={}".format(index))
        if stream is not None:
            details.append("stream={}".format(stream))
        if details:
            parts.append(" [{}]".format(", ".join(details)))
        super().__init__("".join(parts))
