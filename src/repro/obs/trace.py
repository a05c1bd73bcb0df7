"""Update-provenance tracing: where does an update spend its time?

An update region born at the source (or inside an operator) travels the
pipeline as a bracket: each stage either forwards it, consumes it, or
*translates* it into a fresh output-space region
(:class:`~repro.core.wrapper.UpdateWrapper`'s policies).  The trace log
records one **hop** per observation of a bracket start:

* ``enter``  — the bracket arrived at a stage's wrapper;
* ``translate`` — the stage re-emitted it as a new region number
  (``to_region`` carries the output-space id, forming the provenance
  link old -> new);
* ``emit``  — a bracket start reached the display sink.

Every hop carries the region number, the update kind (``sM``/``sR``/
``sB``/``sA``), the stage index (``-1`` for the sink), a global
monotonically increasing sequence number, and a monotonic wall-clock
timestamp (``time.monotonic_ns``).  Hops of one region are therefore
totally ordered, and chains across translations can be reassembled from
the links — the JSON the ``python -m repro trace`` subcommand prints
groups both views.

Tracing rides on the recorder's handler-table shims (it implies metrics
recording) and obeys the same contract: with tracing off there is no per-event
cost, and with it on the output stream is untouched.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..events.model import Kind

#: Stage index used for sink ("emit") hops.
SINK_STAGE = -1

_KIND_ABBREV = {int(Kind.START_MUTABLE): "sM",
                int(Kind.START_REPLACE): "sR",
                int(Kind.START_INSERT_BEFORE): "sB",
                int(Kind.START_INSERT_AFTER): "sA"}


class Hop:
    """One observation of an update bracket at a pipeline station."""

    __slots__ = ("region", "kind", "stage", "action", "to_region",
                 "seq", "t_ns")

    def __init__(self, region: int, kind: int, stage: int, action: str,
                 seq: int, t_ns: int,
                 to_region: Optional[int] = None) -> None:
        self.region = region
        self.kind = kind
        self.stage = stage
        self.action = action
        self.to_region = to_region
        self.seq = seq
        self.t_ns = t_ns

    def to_dict(self) -> dict:
        d = {
            "region": self.region,
            "kind": _KIND_ABBREV.get(self.kind, str(self.kind)),
            "stage": self.stage,
            "action": self.action,
            "seq": self.seq,
            "t_ns": self.t_ns,
        }
        if self.to_region is not None:
            d["to_region"] = self.to_region
        return d

    def __repr__(self) -> str:
        extra = ("" if self.to_region is None
                 else " -> {}".format(self.to_region))
        return "Hop({} {} @stage {}{}, seq {})".format(
            _KIND_ABBREV.get(self.kind, self.kind), self.action,
            self.stage, extra, self.seq)


class TraceLog:
    """Append-only provenance log shared by one pipeline run.

    Hop timestamps are ``time.monotonic_ns`` readings, whose zero point
    is per-process: comparing raw ``t_ns`` values across shard workers
    is meaningless.  Each log therefore records a paired epoch at
    construction — one monotonic reading and one wall-clock reading
    taken back to back (a worker constructs its logs after fork, so
    the epoch is per-worker by construction).  :func:`merge_trace_dicts`
    uses the pair to rebase every log onto the shared wall clock, which
    preserves each log's internal ordering exactly (a constant offset)
    while making cross-process interleavings comparable.
    """

    def __init__(self) -> None:
        self.hops: List[Hop] = []
        self._seq = 0
        self.epoch_mono_ns = time.monotonic_ns()
        self.epoch_wall_ns = time.time_ns()

    def record(self, region: int, kind: int, stage: int, action: str,
               to_region: Optional[int] = None) -> None:
        seq = self._seq
        self._seq = seq + 1
        self.hops.append(Hop(region, kind, stage, action, seq,
                             time.monotonic_ns(), to_region))

    # -- views ------------------------------------------------------------

    def by_region(self) -> Dict[int, List[Hop]]:
        """Hops grouped by region number, each group in seq order."""
        groups: Dict[int, List[Hop]] = {}
        for hop in self.hops:
            groups.setdefault(hop.region, []).append(hop)
        return groups

    def links(self) -> List[dict]:
        """The translation edges: (from_region, to_region, stage)."""
        return [{"from_region": h.region, "to_region": h.to_region,
                 "stage": h.stage, "seq": h.seq}
                for h in self.hops if h.action == "translate"]

    def chains(self) -> List[List[int]]:
        """Region lineages, source-side first, following translations.

        A region translated at several stages (TEE fan-out) heads
        several chains; chains are returned in first-seen order.
        """
        succ: Dict[int, List[int]] = {}
        targets = set()
        for h in self.hops:
            if h.action == "translate" and h.to_region is not None:
                succ.setdefault(h.region, []).append(h.to_region)
                targets.add(h.to_region)
        roots = [r for r in self._first_seen_order() if r not in targets]
        chains: List[List[int]] = []

        def walk(region: int, prefix: List[int]) -> None:
            path = prefix + [region]
            nexts = succ.get(region)
            if not nexts:
                chains.append(path)
                return
            for nxt in nexts:
                if nxt in path:       # defensive: never cycle
                    chains.append(path)
                    continue
                walk(nxt, path)

        for root in roots:
            walk(root, [])
        return chains

    def _first_seen_order(self) -> List[int]:
        seen: Dict[int, None] = {}
        for h in self.hops:
            seen.setdefault(h.region, None)
            if h.to_region is not None:
                seen.setdefault(h.to_region, None)
        return list(seen)

    def to_dict(self) -> dict:
        return {
            "hops": [h.to_dict() for h in self.hops],
            "links": self.links(),
            "chains": self.chains(),
            "regions": len(self.by_region()),
            "epoch_mono_ns": self.epoch_mono_ns,
            "epoch_wall_ns": self.epoch_wall_ns,
        }


def merge_trace_dicts(trace_dicts) -> dict:
    """Merge per-pipeline trace dicts onto one comparable timeline.

    Each input log's hop timestamps are rebased from its private
    monotonic clock to the shared wall clock via the paired epoch the
    log captured at construction: ``t - epoch_mono + epoch_wall``,
    shifted so the earliest epoch is zero.  Rebasing adds a constant
    per log, so within any one log — and therefore within any one
    region, which lives entirely in one pipeline — the hop order is
    unchanged; across logs the interleaving becomes meaningful.

    Hops gain a ``log`` index (region numbers are per-pipeline and may
    collide across logs) and are returned sorted by rebased time.
    """
    dicts = [d for d in trace_dicts if d]
    epochs = [d.get("epoch_wall_ns") for d in dicts]
    known = [e for e in epochs if e is not None]
    base_wall = min(known) if known else 0
    hops: List[dict] = []
    links: List[dict] = []
    regions = 0
    for log_idx, d in enumerate(dicts):
        mono = d.get("epoch_mono_ns")
        wall = d.get("epoch_wall_ns")
        # Legacy dicts without epochs keep raw stamps (offset zero).
        offset = (wall - base_wall - mono
                  if mono is not None and wall is not None else 0)
        for hop in d.get("hops", ()):
            h = dict(hop)
            h["t_ns"] = h.get("t_ns", 0) + offset
            h["log"] = log_idx
            hops.append(h)
        for link in d.get("links", ()):
            ln = dict(link)
            ln["log"] = log_idx
            links.append(ln)
        regions += d.get("regions", 0)
    hops.sort(key=lambda h: (h["t_ns"], h["log"], h.get("seq", 0)))
    return {
        "logs": len(dicts),
        "hops": hops,
        "links": links,
        "regions": regions,
        "epoch_wall_ns": base_wall,
    }
