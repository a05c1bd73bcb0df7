"""Stream-protocol sanitizer: check the protocol at every stage boundary.

Every pair of adjacent pipeline stages (plus the tokenizer->first-stage
and last-stage->display boundaries) speaks the update-stream protocol of
Sections II-III.  The sanitizer is opt-in (``run_xml(..., sanitize=True)``,
``REPRO_SANITIZE=1``, or ``python -m repro --sanitize``) and puts one
:class:`~repro.events.wellformed.BoundaryChecker` — the project's one
implementation of the protocol — at each boundary, so a violation names
the offending boundary, rule, event and substream.

The checker is deliberately per-boundary: each stage's output must be a
valid update stream *on its own*, which is exactly the compositionality
argument of the paper's pipeline construction.

The pipeline's event loop knows nothing about checking:
:func:`interpose_checkers` wraps the handler tables and the sink the
loop is bound over, so an event is validated by boundary ``i``'s checker
on its way into stage ``i`` (boundary ``n``: into the sink).  The shims
index the table they wrap at call time — handler tables keep their
identity across a wrapper's dormant -> active flip — and routing is off
under the sanitizer so that every boundary sees its complete stream.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from ..events.model import FREEZE, Event
from ..events.wellformed import BoundaryChecker


def boundary_checkers(stages: Sequence, sink) -> List[BoundaryChecker]:
    """One checker per pipeline boundary, with human-readable labels.

    Boundary ``0`` sits between the event source (tokenizer or caller)
    and the first stage; boundary ``n`` between the last stage and the
    display sink.
    """
    from ..obs.recorder import stage_identities
    names = [ident.label for ident in stage_identities(stages)]
    sink_name = type(sink).__name__.lower()
    endpoints = ["source"] + names + [sink_name]
    return [BoundaryChecker("{} -> {}".format(a, b), stage_index=i)
            for i, (a, b) in enumerate(zip(endpoints, endpoints[1:]))]


def interpose_checkers(checkers: Sequence[BoundaryChecker],
                       tables: Sequence[list], sink: Callable,
                       fix_freeze: Callable[[int], None]
                       ) -> Tuple[List[list], Callable]:
    """Wrap handler tables and the sink so each boundary is checked.

    ``checkers[i]`` sees every event entering ``tables[i]``, the last
    one every event entering ``sink``.  The fix-map write of ``freeze``
    — the one global side effect the routed loop performs itself, and
    which must precede the check of the event's next boundary — rides
    with the shim, since the sanitizer runs with routing off.
    """
    def checked(checker: BoundaryChecker, forward: Callable) -> Callable:
        feed = checker.feed

        def boundary(ev: Event) -> object:
            if ev.kind == FREEZE:
                fix_freeze(ev.id)
            feed(ev)
            return forward(ev)
        return boundary

    return ([[checked(checker, lambda ev, _t=table: _t[ev.kind](ev))]
             * len(table) for checker, table in zip(checkers, tables)],
            checked(checkers[-1], sink))
