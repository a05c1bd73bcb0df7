"""Event model for XML update streams.

The paper (Section II) models an XML stream as a possibly infinite sequence
of events.  Every event carries a *stream number* (``id``) so that several
virtual substreams can be interleaved in one global stream.  Regular events::

    sS: startStream(id)          eS: endStream(id)
    sT: startTuple(id)           eT: endTuple(id)
    sE: startElement(id, tag)    eE: endElement(id, tag)
    cD: cData(id, text)

Update events (Section III) extend the vocabulary.  ``sU(i, j) .. eU(i, j)``
brackets a substream numbered ``j`` that targets the region numbered ``i``::

    sM/eM: startMutable/endMutable(i, j)          -- declare mutable region j
    sR/eR: startReplace/endReplace(i, j)          -- replace content of i by j
    sB/eB: startInsertBefore/endInsertBefore(i,j) -- insert j before region i
    sA/eA: startInsertAfter/endInsertAfter(i, j)  -- insert j after region i
    freeze(i)  -- close region i to further updates
    hide(i)    -- temporarily suppress the content of region i
    show(i)    -- undo a hide(i)

Events are immutable value objects.  ``oid`` is the optional node identity
set at the stream source; the paper uses it for backward axes (Section VI-E)
where two copies of the same source event must compare equal by identity.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional


class Kind(enum.IntEnum):
    """Event discriminator.  IntEnum so dispatch tables can index by value."""

    START_STREAM = 0
    END_STREAM = 1
    START_TUPLE = 2
    END_TUPLE = 3
    START_ELEMENT = 4
    END_ELEMENT = 5
    CDATA = 6
    START_MUTABLE = 7
    END_MUTABLE = 8
    START_REPLACE = 9
    END_REPLACE = 10
    START_INSERT_BEFORE = 11
    END_INSERT_BEFORE = 12
    START_INSERT_AFTER = 13
    END_INSERT_AFTER = 14
    FREEZE = 15
    HIDE = 16
    SHOW = 17


# Short aliases matching the paper's abbreviations.
SS = Kind.START_STREAM
ES = Kind.END_STREAM
ST = Kind.START_TUPLE
ET = Kind.END_TUPLE
SE = Kind.START_ELEMENT
EE = Kind.END_ELEMENT
CD = Kind.CDATA
SM = Kind.START_MUTABLE
EM = Kind.END_MUTABLE
SR = Kind.START_REPLACE
ER = Kind.END_REPLACE
SB = Kind.START_INSERT_BEFORE
EB = Kind.END_INSERT_BEFORE
SA = Kind.START_INSERT_AFTER
EA = Kind.END_INSERT_AFTER
FREEZE = Kind.FREEZE
HIDE = Kind.HIDE
SHOW = Kind.SHOW

#: Kinds that open an update region: sM, sR, sB, sA.
UPDATE_STARTS = frozenset((SM, SR, SB, SA))
#: Kinds that close an update region: eM, eR, eB, eA.
UPDATE_ENDS = frozenset((EM, ER, EB, EA))
#: All update-control kinds (everything that is not a regular stream event).
UPDATE_KINDS = UPDATE_STARTS | UPDATE_ENDS | {FREEZE, HIDE, SHOW}
#: Regular data kinds.
DATA_KINDS = frozenset((SS, ES, ST, ET, SE, EE, CD))

_END_FOR_START = {SM: EM, SR: ER, SB: EB, SA: EA}
_START_FOR_END = {v: k for k, v in _END_FOR_START.items()}

_ABBREV = {
    SS: "sS", ES: "eS", ST: "sT", ET: "eT", SE: "sE", EE: "eE", CD: "cD",
    SM: "sM", EM: "eM", SR: "sR", ER: "eR", SB: "sB", EB: "eB",
    SA: "sA", EA: "eA", FREEZE: "freeze", HIDE: "hide", SHOW: "show",
}
ABBREV_TO_KIND = {v: k for k, v in _ABBREV.items()}


class Event:
    """A single stream event.

    Attributes:
        kind: the event discriminator (a :class:`Kind`).
        id:   the stream number for regular events; the *target* region
              number for update events.
        sub:  the new substream/region number introduced by an update
              bracket (``None`` for regular events and freeze/hide/show).
        tag:  element tag for sE/eE, else ``None``.
        text: character data for cD, else ``None``.
        oid:  optional node identity assigned at the stream source.
    """

    __slots__ = ("kind", "id", "sub", "tag", "text", "oid")

    def __init__(self, kind: Kind, id: int, sub: Optional[int] = None,
                 tag: Optional[str] = None, text: Optional[str] = None,
                 oid: Optional[int] = None) -> None:
        self.kind = kind
        self.id = id
        self.sub = sub
        self.tag = tag
        self.text = text
        self.oid = oid

    # -- classification helpers -------------------------------------------

    @property
    def is_update(self) -> bool:
        """True for every update-control event (sU/eU/freeze/hide/show)."""
        return self.kind in UPDATE_KINDS

    @property
    def is_update_start(self) -> bool:
        return self.kind in UPDATE_STARTS

    @property
    def is_update_end(self) -> bool:
        return self.kind in UPDATE_ENDS

    @property
    def abbrev(self) -> str:
        return _ABBREV[self.kind]

    # -- value semantics ---------------------------------------------------

    def key(self) -> tuple:
        return (self.kind, self.id, self.sub, self.tag, self.text)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def same_node(self, other: "Event") -> bool:
        """Node identity comparison used by backward axes (OID equality)."""
        return (self.oid is not None and other is not None
                and other.oid == self.oid)

    def relabel(self, new_id: int) -> "Event":
        """Copy of this event carried on a different stream number."""
        # Hot path: bypass __init__ (one fewer Python-level call) — this
        # runs once per stage per passing event, region content included:
        # the update wrapper names the id an operator emits on before the
        # call, so nothing relabels an event twice.
        ev = Event.__new__(Event)
        ev.kind = self.kind
        ev.id = new_id
        ev.sub = self.sub
        ev.tag = self.tag
        ev.text = self.text
        ev.oid = self.oid
        return ev

    def __repr__(self) -> str:
        parts = [str(self.id)]
        if self.sub is not None:
            parts.append(str(self.sub))
        if self.tag is not None:
            parts.append(repr(self.tag))
        if self.text is not None:
            parts.append(repr(self.text))
        return "{}({})".format(self.abbrev, ",".join(parts))


# ---------------------------------------------------------------------------
# Constructors, named after the paper's event forms.
# ---------------------------------------------------------------------------

def start_stream(id: int) -> Event:
    return Event(SS, id)


def end_stream(id: int) -> Event:
    return Event(ES, id)


def start_tuple(id: int) -> Event:
    return Event(ST, id)


def end_tuple(id: int) -> Event:
    return Event(ET, id)


def start_element(id: int, tag: str, oid: Optional[int] = None) -> Event:
    return Event(SE, id, tag=tag, oid=oid)


def end_element(id: int, tag: str, oid: Optional[int] = None) -> Event:
    return Event(EE, id, tag=tag, oid=oid)


def cdata(id: int, text: str, oid: Optional[int] = None) -> Event:
    return Event(CD, id, text=text, oid=oid)


def start_mutable(id: int, sub: int) -> Event:
    return Event(SM, id, sub=sub)


def end_mutable(id: int, sub: int) -> Event:
    return Event(EM, id, sub=sub)


def start_replace(id: int, sub: int) -> Event:
    return Event(SR, id, sub=sub)


def end_replace(id: int, sub: int) -> Event:
    return Event(ER, id, sub=sub)


def start_insert_before(id: int, sub: int) -> Event:
    return Event(SB, id, sub=sub)


def end_insert_before(id: int, sub: int) -> Event:
    return Event(EB, id, sub=sub)


def start_insert_after(id: int, sub: int) -> Event:
    return Event(SA, id, sub=sub)


def end_insert_after(id: int, sub: int) -> Event:
    return Event(EA, id, sub=sub)


def freeze(id: int) -> Event:
    return Event(FREEZE, id)


def hide(id: int) -> Event:
    return Event(HIDE, id)


def show(id: int) -> Event:
    return Event(SHOW, id)


def matching_end(start_kind: Kind) -> Kind:
    """The eU kind matching an sU kind (sM -> eM etc.)."""
    return _END_FOR_START[start_kind]


def matching_start(end_kind: Kind) -> Kind:
    """The sU kind matching an eU kind (eM -> sM etc.)."""
    return _START_FOR_END[end_kind]


class IdGenerator:
    """Allocator of fresh stream / update-region numbers.

    The paper requires "new ids that have not been used before"; every
    pipeline shares one generator so ids are globally unique.  Data streams
    usually claim low numbers explicitly; generated ids start high.
    """

    def __init__(self, first: int = 1000) -> None:
        self._next = first

    def fresh(self) -> int:
        nid = self._next
        self._next += 1
        return nid

    def reserve(self, id: int) -> int:
        """Mark an externally chosen id as used (keeps fresh() above it)."""
        if id >= self._next:
            self._next = id + 1
        return id


def events_of(stream: Iterable[Event], id: int) -> Iterator[Event]:
    """The subsequence of ``stream`` carried on stream number ``id``."""
    return (e for e in stream if e.id == id)


class UpdateStripper:
    """Consumer-side opt-out (paper Section V): ignore incoming updates.

    "We would like the stream consumer to be able to choose which updates
    to accept and which ones to ignore.  Ignoring updates over an update
    region is the same as making the region immutable."  Feeding events
    through a stripper erases the update structure at the source: mutable
    regions dissolve into plain content (relabeled onto their stream),
    and replace/insert updates — together with their content — vanish.
    """

    def __init__(self) -> None:
        self._alias = {}    # region id -> stream id its content becomes
        self._dropped = set()

    def feed(self, e: "Event"):
        kind = e.kind
        if not e.is_update:
            if e.id in self._alias:
                return [e.relabel(self._alias[e.id])]
            if e.id in self._dropped:
                return []
            return [e]
        if kind == Kind.START_MUTABLE:
            if e.id in self._dropped:
                self._dropped.add(e.sub)
            else:
                self._alias[e.sub] = self._alias.get(e.id, e.id)
            return []
        if kind in (Kind.START_REPLACE, Kind.START_INSERT_BEFORE,
                    Kind.START_INSERT_AFTER):
            self._dropped.add(e.sub)
            return []
        return []  # bracket ends and freeze/hide/show disappear

    def feed_all(self, events):
        for e in events:
            yield from self.feed(e)


def strip_updates(events):
    """One-shot: erase all update structure from an event sequence."""
    return list(UpdateStripper().feed_all(events))
