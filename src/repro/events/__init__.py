"""Event model for XML update streams (paper Sections II and III)."""

from .model import (ABBREV_TO_KIND, UpdateStripper, strip_updates, CD, DATA_KINDS, EA, EB, EE, EM, ER, ES,
                    ET, FREEZE, HIDE, SA, SB, SE, SHOW, SM, SR, SS, ST,
                    UPDATE_ENDS, UPDATE_KINDS, UPDATE_STARTS, Event,
                    IdGenerator, Kind, cdata, end_element, end_insert_after,
                    end_insert_before, end_mutable, end_replace, end_stream,
                    end_tuple, events_of, freeze, hide, matching_end,
                    matching_start, show, start_element, start_insert_after,
                    start_insert_before, start_mutable, start_replace,
                    start_stream, start_tuple)
from .errors import ProtocolViolation
from .serialize import (EventSyntaxError, dumps, event_to_text, iter_loads,
                        loads)
from .wellformed import BoundaryChecker, check_stream, is_well_formed

__all__ = [
    "Event", "Kind", "IdGenerator",
    "UpdateStripper", "strip_updates",
    "SS", "ES", "ST", "ET", "SE", "EE", "CD",
    "SM", "EM", "SR", "ER", "SB", "EB", "SA", "EA",
    "FREEZE", "HIDE", "SHOW",
    "DATA_KINDS", "UPDATE_KINDS", "UPDATE_STARTS", "UPDATE_ENDS",
    "ABBREV_TO_KIND",
    "start_stream", "end_stream", "start_tuple", "end_tuple",
    "start_element", "end_element", "cdata",
    "start_mutable", "end_mutable", "start_replace", "end_replace",
    "start_insert_before", "end_insert_before",
    "start_insert_after", "end_insert_after",
    "freeze", "hide", "show",
    "matching_end", "matching_start", "events_of",
    "dumps", "loads", "iter_loads", "event_to_text", "EventSyntaxError",
    "is_well_formed", "BoundaryChecker", "check_stream",
    "ProtocolViolation",
]
