"""Differential-testing helpers shared across test modules."""

from __future__ import annotations

from repro import XFlux, parse_xml
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core.wrapper import PER_REGION_MAPS
from repro.xquery.parser import parse as parse_query


def flux_result(query: str, xml: str, **kwargs) -> str:
    """Run a query through the streaming engine; return the final text."""
    return XFlux(query, **kwargs).run_xml(xml).text()


def naive_result(query: str, xml: str) -> str:
    """Run a query through the blocking baseline; return its text."""
    return evaluate_to_xml(parse_query(query), parse_xml(xml))


def assert_query_matches_naive(query: str, xml: str) -> str:
    """The central oracle: streaming display == naive evaluation."""
    expected = naive_result(query, xml)
    actual = flux_result(query, xml)
    assert actual == expected, (
        "query {!r}\n  naive: {!r}\n  flux : {!r}".format(query, expected,
                                                          actual))
    return actual


# -- reclamation invariants (DESIGN.md, wrapper deviations) -------------------

#: Wrapper maps whose *values* are transformer states, timestamps or
#: routing facets — never region ids.
KEYED_MAPS = ("start", "end", "shadow", "order", "tracked")


def stage_containers(run) -> dict:
    """``{label: container}`` over every wrapper, operator and the sink.

    Wrappers contribute their per-region maps (those of KEYED_MAPS by
    key only); operators and the display contribute every dict, set and
    list they hold.
    """
    def held_by(obj):
        return {name: value for name, value in vars(obj).items()
                if isinstance(value, (dict, set, list))}
    out = {}
    for k, w in enumerate(run.pipeline.wrappers):
        for name in PER_REGION_MAPS:
            held = getattr(w, name)
            if name in KEYED_MAPS:
                held = set(held)
            out["w{}.{}".format(k, name)] = held
        for name, held in held_by(w.t).items():
            out["t{}:{}.{}".format(k, type(w.t).__name__, name)] = held
    for name, held in held_by(run.display).items():
        out["display." + name] = held
    return out


def ids_in(value, depth=2):
    """Every int a container mentions: keys, members, and (one level
    down) the ints and collections its values hold."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        yield value
    elif depth and isinstance(value, dict):
        for key, held in value.items():
            yield from ids_in(key, 0)
            yield from ids_in(held, depth - 1)
    elif depth and isinstance(value, (set, frozenset, list, tuple)):
        for held in value:
            yield from ids_in(held, depth - 1)


def assert_nothing_mentions(run, frozen: set) -> None:
    """No container reachable from a stage names a frozen region."""
    for label, held in stage_containers(run).items():
        stale = frozen.intersection(ids_in(held))
        assert not stale, "{} mentions frozen {}".format(
            label, sorted(stale)[:5])


def live_depth(wrapper) -> int:
    """Longest parent path among the wrapper's live regions."""
    deepest = 0
    for region in wrapper._regions:
        depth, seen = 0, set()
        while region is not None:
            assert region not in seen, "cycle in the nesting tree"
            seen.add(region)
            depth += 1
            region = wrapper._parent.get(region)
        deepest = max(deepest, depth)
    return deepest


def assert_nesting_tree_consistent(wrapper) -> None:
    """The live nesting tree: one node per live region, ``_children`` the
    exact inverse of ``_parent``, and every cached chain current."""
    assert set(wrapper._parent) == wrapper._regions
    up = {(p, c) for c, p in wrapper._parent.items() if p is not None}
    down = {(p, c) for p, kids in wrapper._children.items() for c in kids}
    assert up == down
    assert all(wrapper._children.values()), "empty child set kept"
    live_depth(wrapper)  # walks every parent path: fails on a cycle
    for region, cfg in wrapper._rcfg.items():
        assert cfg[1] == wrapper._region_chain(region)
