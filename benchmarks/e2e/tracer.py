"""The benchmark's own span tracer.

Spans are recorded from *outside* the engine, around the calls the
harness makes into each layer's public functions.  They are kept in
memory and written out when the benchmark ends.  A span's self time is
its duration minus the part of it its child spans cover.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence

#: Container spans: they group stage spans and hold only harness code,
#: so their self time is what the trace could not attribute to a layer.
CONTAINERS = ("pass", "query:")


class Tracer:
    """Records (id, parent, name, query, start_ns, end_ns) per span.

    ``with tracer.span(name):`` costs no allocation the collector has to
    track: the fields go to parallel lists and the tracer is its own
    context manager.  One list and one object per span made a pass of
    24 000 spans 5 % slower.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._parents: List[Optional[int]] = []
        self._names: List[str] = []
        self._queries: List[Optional[str]] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._stack: List[int] = []

    def span(self, name: str, query: Optional[str] = None) -> "Tracer":
        stack = self._stack
        self._parents.append(stack[-1] if stack else None)
        stack.append(len(self._names))
        self._names.append(name)
        self._queries.append(query)
        self._ends.append(0)
        self._starts.append(perf_counter_ns())
        return self

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """A finished child of the open span, timed by the caller: for
        loops where the ``with`` protocol would cost as much as the work."""
        self._parents.append(self._stack[-1])
        self._names.append(name)
        self._queries.append(self._queries[self._stack[-1]])
        self._starts.append(start_ns)
        self._ends.append(end_ns)

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc) -> None:
        self._ends[self._stack.pop()] = perf_counter_ns()

    @property
    def spans(self) -> List[tuple]:
        return list(zip(range(len(self._names)), self._parents, self._names,
                        self._queries, self._starts, self._ends))

    def self_ns(self) -> List[int]:
        """Per span, its duration minus what its child spans cover."""
        own = [end - start for _, _, _, _, start, end in self.spans]
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def problems(self) -> List[str]:
        """Why the spans are not a well-nested forest; empty when they are."""
        found = []
        spans = self.spans
        last_end: Dict[Optional[int], int] = {}
        for sid, parent, name, _, start, end in spans:
            if end < start:
                found.append("span {} ({}) ends before it starts".format(
                    sid, name))
            if parent is not None:
                if not 0 <= parent < sid:
                    found.append("span {} ({}) has unresolvable parent {}"
                                 .format(sid, name, parent))
                    continue
                p = spans[parent]
                if start < p[4] or end > p[5]:
                    found.append("span {} ({}) leaves its parent {}".format(
                        sid, name, parent))
            if start < last_end.get(parent, 0):
                found.append("span {} ({}) overlaps a sibling".format(
                    sid, name))
            last_end[parent] = end
        return found

    def pass_ns(self) -> int:
        return sum(s[5] - s[4] for s in self.spans if s[2] == "pass")

    def to_json(self) -> List[dict]:
        return [{"id": sid, "parent": parent, "name": name,
                 "start_ns": start, "end_ns": end,
                 "workload": self.workload, "query": query}
                for sid, parent, name, query, start, end in self.spans]


def self_times(tracers: Sequence[Tracer], in_pass_only: bool = False,
               stages_only: bool = False) -> Dict[str, float]:
    """Seconds of self time per span name.

    ``tracers`` hold traces of the same deterministic pass, so their
    spans line up one to one; span by span the shortest self time
    counts, which drops the host's one-sided bursts.  ``in_pass_only``
    keeps the spans under a ``pass`` span, ``stages_only`` leaves the
    container spans out.
    """
    first = tracers[0]
    if any([s[1:3] for s in t.spans] != [s[1:3] for s in first.spans]
           for t in tracers[1:]):
        raise ValueError("traces of one pass differ in shape")
    quiet = [min(own) for own in zip(*(t.self_ns() for t in tracers))]
    in_pass: List[bool] = []
    out: Dict[str, float] = {}
    for (_, parent, name, _, _, _), own in zip(first.spans, quiet):
        in_pass.append(name == "pass" if parent is None else in_pass[parent])
        if ((in_pass[-1] or not in_pass_only)
                and not (stages_only and name.startswith(CONTAINERS))):
            out[name] = out.get(name, 0.0) + own / 1e9
    return out
