"""Flight recorder: a bounded ring of recent events, dumped on failure.

When a pipeline is quarantined or a shard worker dies, the error report
says *what* broke but not what the stream looked like on the way in.
The flight recorder fills that gap: a ``collections.deque(maxlen=N)``
of the most recent source events, kept by reference (one append per
event, no rendering) by the recorder's source generator only — a
pipeline without a recorder never sees it (the interposition contract
of :mod:`repro.obs.recorder`).

On ``ProtocolViolation``, an injected fault, or any other quarantine,
:func:`build_bundle` renders the ring plus the stage identities
(``static_facts()``), the metrics + histogram snapshot, and the fault
plan (seed included) into one JSON-able post-mortem dict.  The shard
supervisor produces the parent-side analogue (:func:`shard_bundle`)
on every worker recovery — restart, inline takeover, or quarantine —
recording exactly how many journal frames the recovery replayed.  The
chaos CLI writes both kinds to its report directory, and CI uploads
them as artifacts.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import List, Optional

#: Default ring capacity: enough context to see the failing construct's
#: whole neighbourhood, small enough to render into every bundle.
DEFAULT_CAPACITY = 256

BUNDLE_KIND = "flight-recorder-bundle"
BUNDLE_VERSION = 1


class FlightRecorder:
    """Bounded ring buffer of the most recent source events."""

    __slots__ = ("capacity", "events_seen", "_ring")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got {}"
                             .format(capacity))
        self.capacity = capacity
        self.events_seen = 0
        self._ring: deque = deque(maxlen=capacity)

    def note(self, event) -> None:
        """Remember one event (by reference — no rendering here)."""
        self.events_seen += 1
        self._ring.append(event)

    def snapshot(self) -> List[str]:
        """Render the retained events oldest-first (repr form)."""
        return [repr(e) for e in self._ring]

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "events_seen": self.events_seen,
            "recorded": len(self._ring),
        }

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return "FlightRecorder({}/{}, {} seen)".format(
            len(self._ring), self.capacity, self.events_seen)


def merge_flight_dicts(dicts) -> dict:
    """Combine per-pipeline flight summaries into totals.

    Event *counts* add exactly (each pipeline fed the source observed
    the shared stream once; :func:`~repro.obs.merge_metrics` leaves out
    the rings of shared-prefix members, which note the prefix's routed
    output); the rendered rings themselves stay per-pipeline in the
    bundles and are not concatenated here.
    """
    merged = {"capacity": 0, "events_seen": 0, "recorded": 0,
              "pipelines": 0}
    for d in dicts:
        if not d:
            continue
        merged["pipelines"] += d.get("pipelines", 1)
        merged["capacity"] = max(merged["capacity"],
                                 d.get("capacity", 0))
        merged["events_seen"] += d.get("events_seen", 0)
        merged["recorded"] += d.get("recorded", 0)
    return merged


def _stage_facts(recorder) -> List[dict]:
    """Stage identities, update-protocol facts and shapes from an
    attached recorder."""
    facts = []
    for wrapper, sm in zip(recorder._wrappers, recorder.stages):
        entry = {"index": sm.identity.index,
                 "label": sm.identity.label}
        try:
            entry["static_facts"] = wrapper.t.static_facts()
            entry["shape"] = wrapper.t.shape().to_dict()
        except Exception:
            pass
        facts.append(entry)
    return facts


def build_bundle(reason: str, recorder=None, error: Optional[dict] = None,
                 fault_plan=None, **extra) -> dict:
    """Assemble one post-mortem bundle (plain JSON-able dict).

    Args:
        reason: what triggered the dump (``"quarantine"``,
            ``"protocol-violation"``, ...).
        recorder: the failed pipeline's
            :class:`~repro.obs.recorder.MetricsRecorder`, if any —
            contributes the event ring, each stage's identity,
            ``static_facts()`` and ``shape()``, and the metrics +
            histogram snapshot.
        error: a :func:`repro.fault.error_report` dict.
        fault_plan: the :class:`~repro.fault.FaultPlan` in force, if
            any — its spec and seed make the failure replayable.
    """
    bundle = {
        "bundle": BUNDLE_KIND,
        "version": BUNDLE_VERSION,
        "reason": reason,
        "created_unix": time.time(),
    }
    if error is not None:
        bundle["error"] = error
    if fault_plan is not None:
        bundle["fault_plan"] = fault_plan.to_spec()
        bundle["fault_seed"] = fault_plan.seed
    if recorder is not None:
        flight = recorder.flight
        if flight is not None:
            bundle["flight"] = flight.to_dict()
            bundle["last_events"] = flight.snapshot()
        bundle["stages"] = _stage_facts(recorder)
        bundle["metrics"] = recorder.to_dict()
        bundle["histograms"] = {
            name: h.summary()
            for name, h in recorder.histograms.items()}
    bundle.update(extra)
    return bundle


def shard_bundle(reason: str, shard: int, report: dict,
                 restarts: int, replayed_frames: int,
                 last_ckpt_seq: int, seq_target: int,
                 quarantined: bool, fault_plan=None) -> dict:
    """The supervisor-side bundle for one worker recovery.

    ``replayed_frames`` is the shard's cumulative replay counter *after*
    this recovery's journal replay — the differential tests hold it
    equal to the ``fault_tolerance`` counters the run reports.
    """
    bundle = build_bundle(reason, error=report, fault_plan=fault_plan,
                          shard=shard, restarts=restarts,
                          replayed_frames=replayed_frames,
                          last_checkpoint_seq=last_ckpt_seq,
                          replay_target_seq=seq_target,
                          quarantined=quarantined)
    return bundle


def write_bundle(bundle: dict, path: str) -> str:
    """Write one bundle as pretty-printed JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
