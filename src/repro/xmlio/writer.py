"""Serialize event streams back to XML text.

Inverse of :mod:`repro.xmlio.tokenizer` for plain (update-free) streams:
``parse(write(events)) == events`` for well-formed input.  The writer is
also what the result display uses to render snapshots, so it tolerates
forests (multiple top-level nodes) and bare top-level text.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..events.model import CD, EE, SE, Event

_SE, _EE, _CD = int(SE), int(EE), int(CD)


def escape_text(text: str) -> str:
    """Escape character data for inclusion in XML text."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def event_xml(e: Event) -> str:
    """The XML text one plain event contributes to a rendering.

    The one place an event becomes text: :func:`write_events` and the
    cached text of the region tree (:mod:`repro.core.regions`) both
    call it, so the display and its reference cannot drift apart.
    Stream and tuple delimiters print nothing; update events are
    rejected.
    """
    kind = e.kind
    if kind == _CD:
        return escape_text(e.text or "")
    if kind == _SE:
        return f"<{e.tag}>"
    if kind == _EE:
        return f"</{e.tag}>"
    if kind > _CD:
        raise ValueError(
            "cannot render update event {}; apply the updates first "
            "(repro.core.regions.apply_updates)".format(e))
    return ""


def write_events(events: Iterable[Event], stream_id: Optional[int] = None,
                 indent: Optional[str] = None) -> str:
    """Render the plain events of one stream as XML text.

    Args:
        events: the event sequence (update events are rejected).
        stream_id: when given, only events with this id are rendered;
            otherwise all regular data events are rendered.
        indent: optional indentation unit for pretty printing.

    Returns:
        the XML text (a forest is rendered as sibling elements).
    """
    if stream_id is None and indent is None:
        return "".join(map(event_xml, events))
    parts: List[str] = []
    depth = 0
    for e in events:
        piece = event_xml(e)
        kind = e.kind
        if kind < _SE or (stream_id is not None and e.id != stream_id):
            continue
        if indent is None:
            parts.append(piece)
        elif kind == _SE:
            parts.append("\n" + indent * depth if parts else indent * depth)
            parts.append(piece)
            depth += 1
        elif kind == _EE:
            depth -= 1
            parts.append(piece)
            if depth == 0:
                parts.append("\n")
        else:
            parts.append(piece)
    return "".join(parts)
