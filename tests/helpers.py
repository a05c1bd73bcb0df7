"""Differential-testing helpers shared across test modules."""

from __future__ import annotations

from repro import XFlux, parse_xml
from repro.baselines.dom_eval import evaluate_to_xml
from repro.core.regions import Region
from repro.data.stock import StockTicker
from repro.events.model import SR
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


def reachable_records(wrapper) -> list:
    """Every region record reachable from a wrapper: the values of
    ``tracked``, the loaded record, and whatever their ``parent`` /
    ``children`` links lead to."""
    seen = {}
    todo = list(wrapper.tracked.values()) + [wrapper._loaded]
    while todo:
        rec = todo.pop()
        if id(rec) not in seen:
            seen[id(rec)] = rec
            if rec.parent is not None:
                todo.append(rec.parent)
            todo.extend(rec.children or ())
    return list(seen.values())


def record_mentions(rec) -> list:
    """Everything a record's fields name, its state copies aside: its id
    and root, the output-space ids of the bracket translation (``info``
    holds the relabel triple), the chain tuple, the inner containers,
    and its place in the nesting tree."""
    return [rec.id, rec.root, rec.out, rec.target, rec.info, rec.chain,
            rec.inner, rec.parent.id if rec.parent is not None else None,
            [kid.id for kid in rec.children or ()]]


def ticker_stream(symbols, n_updates, seed=7):
    """A stock-ticker update stream (10 % name updates, source region ids
    clear of the engine's own) as its snapshot prefix and one event list
    — ``sR .. eR freeze``, six events — per update."""
    events = StockTicker(symbols, n_updates=n_updates,
                         name_update_fraction=0.1, seed=seed,
                         first_region=10_000_000).events()
    first = next(i for i, e in enumerate(events) if e.kind == SR)
    body = events[first:-2]
    assert len(body) == 6 * n_updates
    return events[:first], [body[i:i + 6] for i in range(0, len(body), 6)]


# -- the display's region tree ------------------------------------------------


def chain_nodes(region):
    """The runs and child regions of a region's content chain.  A region
    out of the tree (a stepping stone someone still links to) has a
    chain that no longer ends at its own tail: stop where it ends."""
    node = region.head.next
    while node is not None and node is not region.tail:
        yield node
        node = node.next


def reachable_regions(tree) -> list:
    """Every display region reachable from a region tree: the roots, the
    values of ``registry`` and ``open``, and whatever their content
    chains and ``parent`` links (the walk an edit takes to invalidate
    cached text) lead to."""
    seen = {}
    todo = (list(tree.roots.values()) + list(tree.registry.values())
            + list(tree.open.values()))
    while todo:
        region = todo.pop()
        if id(region) not in seen:
            seen[id(region)] = region
            if region.parent is not None:
                todo.append(region.parent)
            todo.extend(node for node in chain_nodes(region)
                        if isinstance(node, Region))
    return list(seen.values())


def stage_containers(run) -> dict:
    """``{label: container}`` over every wrapper, operator and the sink.

    A wrapper contributes the keys of ``tracked`` and the ids its
    reachable records mention (one flat list); operators and the
    display contribute every dict, set and list they hold; the
    display's region tree contributes its ``registry`` and ``open`` maps
    and the ids of its reachable regions (one flat list).
    """
    def held_by(obj):
        return {name: value for name, value in vars(obj).items()
                if isinstance(value, (dict, set, list))}
    out = {}
    for k, w in enumerate(run.pipeline.wrappers):
        out["w{}.tracked".format(k)] = set(w.tracked)
        out["w{}.records".format(k)] = [
            i for rec in reachable_records(w)
            for i in ids_in(record_mentions(rec), 3)]
        for name, held in held_by(w.t).items():
            out["t{}:{}.{}".format(k, type(w.t).__name__, name)] = held
    for name, held in held_by(run.display).items():
        out["display." + name] = held
    tree = run.display.tree
    out["display.tree.registry"] = tree.registry
    out["display.tree.open"] = tree.open
    out["display.tree.regions"] = [r.id for r in reachable_regions(tree)]
    return out


def ids_in(value, depth=2):
    """Every int a container mentions: keys, members, and (``depth`` - 1
    levels down) the ints and collections its values hold."""
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
    """Longest parent path among the wrapper's region records."""
    deepest = 0
    for rec in wrapper.tracked.values():
        depth, seen = 0, set()
        while rec is not None and rec.facet == 2:
            assert id(rec) not in seen, "cycle in the nesting tree"
            seen.add(id(rec))
            depth += 1
            rec = rec.parent
        deepest = max(deepest, depth)
    return deepest


def assert_nesting_tree_consistent(wrapper) -> None:
    """One handle per region and a consistent live nesting tree.

    Every reachable record is the value of ``tracked[its id]`` (nothing
    hangs on a link or the loaded slot alone); only live region records
    sit in the tree; ``children`` is the exact inverse of ``parent``;
    every cached chain is current; the order mirror, once built, holds
    exactly the regions' timestamps; and the wrapper's own counts agree.
    """
    records = reachable_records(wrapper)
    for rec in records:
        if rec is wrapper._live:
            assert rec.id is None and rec.facet == 0
        else:
            assert wrapper.tracked.get(rec.id) is rec, rec
    regions = [rec for rec in records if rec.facet == 2]
    assert wrapper.live_regions() == len(regions)
    for rec in records:
        if rec.facet != 2 or rec.kept:
            assert rec.parent is None and rec.children is None, rec
            assert not rec.open
        assert rec.children is None or rec.children, "empty child set kept"
    up = {(id(rec.parent), id(rec)) for rec in records
          if rec.parent is not None}
    down = {(id(rec), id(kid)) for rec in records
            for kid in rec.children or ()}
    assert up == down
    live_depth(wrapper)  # walks every parent path: fails on a cycle
    for rec in regions:
        if rec.chain is not None:
            assert rec.chain == wrapper._region_chain(rec)
    mirror = wrapper._mirror
    if mirror is not None:
        assert mirror == sorted(rec.order for rec in regions)
    assert wrapper.region_entries() == len(records) + len(mirror or ())
