"""Update-application semantics: the region tree.

Section III of the paper defines update streams operationally ("after the
updates are applied, the result is equivalent to ...").  This module makes
that semantics executable.  A :class:`RegionTree` consumes a global event
stream one event at a time and maintains the *materialized* document as a
tree of regions:

* a **region** is a container introduced by ``sU(i, j) .. eU(i, j)``
  (mutable/replace/insert-before/insert-after) or by the start of a stream;
* content events with number ``j`` are appended to the open region ``j``;
* ``sR(i, j)`` replaces the content of the latest region numbered ``i`` with
  the new region ``j`` (region ``i`` keeps its place, so later inserts that
  target ``i`` still anchor correctly — the paper's "w" example);
* ``sB``/``sA`` splice the new region just before/after the target region;
* ``hide``/``show`` toggle a region's visibility;
* ``freeze`` closes a region: a hidden frozen region is discarded outright,
  a visible one is dissolved into its parent (Section V's irrevocable,
  buffer-free decision).

An update id may be reused; only the latest region with that id is active
(``registry`` is latest-wins).  Updates that target unknown or frozen ids
are ignored, which also ignores their bracketed content.

Region content is a doubly-linked chain of *runs* (consecutive plain
events) and child regions, so appends and region-anchored splices are O(1).

Every run and every region also caches the text it denotes, so that
reading the document (:meth:`RegionTree.text`) costs what changed since
the last read, not the document.  A region's cached text is valid iff
nothing a read can see below it changed since it was built: an edit
forgets the cache of the region it lands in and of the enclosing regions
up to the first one that is hidden or already stale (:meth:`Region.touch`);
an edit a read cannot see — a new empty region, a bracket end, a visible
region dissolving in place, anything under a hidden region — forgets
nothing.  :meth:`RegionTree.flatten` followed by ``write_events`` is the
reference the cached text is tested against.

The same machinery serves three roles: the engine's result display, the
eager oracle ``apply_updates`` used by tests, and the memory accounting
(live regions / buffered events) reported by the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..events.model import (ET, FREEZE, HIDE, SB, SE, SM, SR, SS, ST, Event)
from ..xmlio import writer

# Kind's integer layout: data kinds, then sU/eU pairs (starts odd), then
# freeze / hide / show — the classification the wrapper and the drain use.
_FIRST_UPDATE = int(SM)
_FREEZE = int(FREEZE)
_SE, _ST = int(SE), int(ST)


class _Link:
    """A node of the intrusive doubly-linked content chain."""

    __slots__ = ("prev", "next")

    def __init__(self) -> None:
        self.prev: Optional["_Link"] = None
        self.next: Optional["_Link"] = None


class Run(_Link):
    """A maximal run of consecutive plain events inside one region.

    ``text`` is the rendering of the first ``rendered`` events: a run
    only ever grows at its end, so each event is serialised once.
    """

    __slots__ = ("events", "text", "rendered")

    #: Runs are always shown; lets a read treat chain nodes alike.
    hidden = False

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Event] = []
        self.text = ""
        self.rendered = 0

    def render(self) -> str:
        events = self.events
        if self.rendered != len(events):
            self.text += "".join(map(writer.event_xml,
                                     events[self.rendered:]))
            self.rendered = len(events)
        return self.text

    # Cached text is derived state: a checkpoint leaves it out and a
    # restored run rebuilds it at the first read.
    def __getstate__(self) -> tuple:
        return self.prev, self.next, self.events

    def __setstate__(self, state: tuple) -> None:
        self.prev, self.next, self.events = state
        self.text = ""
        self.rendered = 0


class Region(_Link):
    """A container in the region tree (stream root or update region).

    ``parent`` is the region whose chain this one sits in (None for a
    stream root).  ``text`` is the cached rendering of the visible
    content, None when stale; a stale visible region always has a stale
    parent, which is what lets :meth:`touch` stop at the first stale
    region it meets.
    """

    __slots__ = ("id", "hidden", "frozen", "head", "tail", "parent", "text")

    def __init__(self, id: int) -> None:
        super().__init__()
        self.id = id
        self.hidden = False
        self.frozen = False
        self.head = _Link()
        self.tail = _Link()
        self.head.next = self.tail
        self.tail.prev = self.head
        self.parent: Optional[Region] = None
        self.text: Optional[str] = ""

    # -- cached text --------------------------------------------------------

    def touch(self) -> None:
        """The visible content of this region changed: forget its cached
        text and that of every enclosing region a read sees it through —
        up to a hidden region (nothing above shows the change) or one
        that is stale already (so is everything above it)."""
        region: Optional[Region] = self
        while region is not None and region.text is not None:
            region.text = None
            if region.hidden:
                break
            region = region.parent

    def render(self) -> str:
        """The text the visible content denotes: cached pieces joined,
        re-reading only the nodes whose own cache is stale."""
        text = self.text
        if text is None:
            parts = []
            node = self.head.next
            tail = self.tail
            while node is not tail:
                if not node.hidden:  # type: ignore[union-attr]
                    parts.append(node.render())  # type: ignore[union-attr]
                node = node.next
            text = self.text = "".join(parts)
        return text

    def set_hidden(self, hidden: bool) -> None:
        """Hide or show; enclosing text changes unless nothing does here."""
        if hidden != self.hidden:
            self.hidden = hidden
            if self.text != "" and self.parent is not None:
                self.parent.touch()

    # Cached text is derived state: a checkpoint leaves it out and a
    # restored run rebuilds it at the first read.
    def __getstate__(self) -> tuple:
        return (self.prev, self.next, self.id, self.hidden, self.frozen,
                self.head, self.tail, self.parent)

    def __setstate__(self, state: tuple) -> None:
        (self.prev, self.next, self.id, self.hidden, self.frozen,
         self.head, self.tail, self.parent) = state
        self.text = None

    # -- chain editing ------------------------------------------------------

    def append_event(self, e: Event) -> None:
        last = self.tail.prev
        if isinstance(last, Run):
            last.events.append(e)
        else:
            run = Run()
            run.events.append(e)
            _insert_before(self.tail, run)
        if self.text is not None:
            self.touch()

    def append_child(self, child: "Region") -> None:
        child.parent = self
        _insert_before(self.tail, child)
        if child.text != "" and not child.hidden:
            self.touch()

    def clear_content(self) -> Tuple[List["Region"], int]:
        """Detach all content; return the regions that were dropped with
        it and the number of events they and this region's runs held."""
        dropped: List[Region] = []
        events = self._contents(dropped)
        self.head.next = self.tail
        self.tail.prev = self.head
        if self.text != "":
            self.touch()
            self.text = ""
        return dropped, events

    def _contents(self, regions: List["Region"]) -> int:
        """Append every region strictly inside this one to ``regions``
        (preorder); return the number of events inside, hidden or not."""
        events = 0
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Run):
                events += len(node.events)
            elif isinstance(node, Region):
                regions.append(node)
                events += node._contents(regions)
            node = node.next
        return events

    def iter_events(self) -> Iterator[Event]:
        """Flatten visible content into the event sequence it denotes."""
        node = self.head.next
        while node is not self.tail:
            if isinstance(node, Run):
                yield from node.events
            elif isinstance(node, Region):
                if not node.hidden:
                    yield from node.iter_events()
            node = node.next

    def dissolve(self) -> None:
        """Splice this region's content into its place in the parent chain.

        After dissolving, the region object itself is unlinked; its content
        chain takes its position and its child regions become the parent's
        (no link keeps a dissolved region reachable).  The region is
        visible, so the parent denotes what it did and keeps its cached
        text.  O(nodes in this region's own chain).
        """
        first = self.head.next
        last = self.tail.prev
        if first is self.tail:
            _unlink(self)
            return
        parent, node = self.parent, first
        while node is not self.tail:
            if isinstance(node, Region):
                node.parent = parent
            node = node.next
        prev, nxt = self.prev, self.next
        assert prev is not None and nxt is not None
        prev.next = first
        first.prev = prev
        nxt.prev = last
        last.next = nxt
        self.prev = self.next = None

    def counts(self) -> Dict[str, int]:
        """(regions, events) contained in this region, recursively."""
        regions: List[Region] = []
        events = self._contents(regions)
        return {"regions": len(regions), "events": events}

    def __repr__(self) -> str:
        return "Region(id={}, hidden={}, frozen={})".format(
            self.id, self.hidden, self.frozen)


def _insert_before(anchor: _Link, node: _Link) -> None:
    prev = anchor.prev
    assert prev is not None
    prev.next = node
    node.prev = prev
    node.next = anchor
    anchor.prev = node


def _insert_after(anchor: _Link, node: _Link) -> None:
    nxt = anchor.next
    assert nxt is not None
    nxt.prev = node
    node.next = nxt
    node.prev = anchor
    anchor.next = node


def _unlink(node: _Link) -> None:
    prev, nxt = node.prev, node.next
    if prev is not None:
        prev.next = nxt
    if nxt is not None:
        nxt.prev = prev
    node.prev = node.next = None


class RegionTree:
    """Materializes an update stream into its denoted document.

    Args:
        result_ids: stream numbers whose content is materialized.  When
            None, every stream opened with sS (plus tuple streams appearing
            via bare sT) is tracked — the mode used by the eager oracle.
        keep_tuples: keep sT/eT markers in flattened output (default they
            are erased, as the display prints tuple contents only).
    """

    def __init__(self, result_ids: Optional[Sequence[int]] = None,
                 keep_tuples: bool = False) -> None:
        self._track_all = result_ids is None
        self._wanted = set(result_ids or ())
        self.keep_tuples = keep_tuples
        self.roots: Dict[int, Region] = {}
        self.root_order: List[int] = []
        self.registry: Dict[int, Region] = {}
        self.open: Dict[int, Region] = {}
        self.ignored_updates = 0
        #: Running totals of what :meth:`stats` recounts — regions in the
        #: tree (roots included) and buffered events, hidden or not —
        #: kept current by every edit so that sampling them is O(1).
        self.regions = 0
        self.events = 0
        for rid in self._wanted:
            self._open_root(rid)

    # -- event intake --------------------------------------------------------

    def _open_root(self, rid: int) -> Region:
        root = Region(rid)
        self.regions += 1
        self.roots[rid] = root
        self.root_order.append(rid)
        self.registry[rid] = root
        self.open[rid] = root
        return root

    def process(self, e: Event) -> None:
        """Consume one event, updating the materialized document."""
        kind = e.kind
        if kind < _FIRST_UPDATE:
            if kind >= _SE:  # sE, eE, cD
                region = self.open.get(e.id)
                if region is not None:
                    region.append_event(e)
                    self.events += 1
            elif kind >= _ST:  # sT, eT
                region = self.open.get(e.id)
                if region is None and self._track_all and kind == ST:
                    # A tuple stream created on the fly (e.g. concatenation
                    # output) has no sS; auto-track it in oracle mode.
                    region = self._open_root(e.id)
                if region is not None and self.keep_tuples:
                    region.append_event(e)
                    self.events += 1
            elif kind == SS:
                if e.id not in self.roots and (self._track_all
                                               or e.id in self._wanted):
                    self._open_root(e.id)
        elif kind >= _FREEZE:
            if kind == FREEZE:
                self._freeze(e.id)
            else:
                region = self.registry.get(e.id)
                if region is not None and not region.frozen:
                    region.set_hidden(kind == HIDE)
        elif kind & 1:  # sM, sR, sB, sA
            self._open_region(kind, e.id, e.sub)  # type: ignore[arg-type]
        else:  # eM, eR, eB, eA
            self.open.pop(e.sub, None)

    def _open_region(self, kind: int, target_id: int, rid: int) -> None:
        """Link the region an sU bracket introduces, or ignore the update:
        sM needs an open target, the others a registered, unfrozen one,
        and nothing can be inserted beside a stream root."""
        if kind == SM:
            target = self.open.get(target_id)
        else:
            target = self.registry.get(target_id)
            if target is not None and (
                    target.frozen or (kind != SR and target.parent is None)):
                target = None
        if target is None:
            self.ignored_updates += 1
            return
        region = Region(rid)
        self.regions += 1
        if kind == SM:
            target.append_child(region)
        elif kind == SR:
            self._drop_content(target)
            target.append_child(region)
        else:
            region.parent = target.parent
            if kind == SB:
                _insert_before(target, region)
            else:
                _insert_after(target, region)
        self.registry[rid] = region
        self.open[rid] = region

    def process_all(self, events: Sequence[Event]) -> None:
        for e in events:
            self.process(e)

    # -- freezing / pruning ---------------------------------------------------

    def _freeze(self, rid: int) -> None:
        region = self.registry.get(rid)
        if region is None or region.frozen:
            return
        region.frozen = True
        if rid in self.roots:
            return  # stream roots are never dissolved
        del self.registry[rid]
        self.open.pop(rid, None)
        self.regions -= 1  # unlinked or dissolved: gone either way
        if region.hidden:
            # Nothing of it was showing: no enclosing text changes.
            self._drop_content(region)
            _unlink(region)
        else:
            # Frozen subregions inside keep their registry entries only if
            # still reachable; dissolving preserves flattened output.
            region.dissolve()

    def _drop_content(self, region: Region) -> None:
        """Discard everything inside ``region``: off the running totals
        and, the regions among it, out of the registries."""
        dropped, events = region.clear_content()
        self.regions -= len(dropped)
        self.events -= events
        for gone in dropped:
            self._purge(gone)

    def _purge(self, region: Region) -> None:
        """Remove a discarded region from the registries."""
        if self.registry.get(region.id) is region:
            del self.registry[region.id]
        if self.open.get(region.id) is region:
            del self.open[region.id]

    # -- output ----------------------------------------------------------------

    def flatten(self, relabel: bool = True) -> List[Event]:
        """The plain event sequence the update stream denotes.

        Events are relabeled to their root stream's number (the paper's
        worked example: applying the updates yields cD(0, ...) events).
        """
        out: List[Event] = []
        for rid in self.root_order:
            root = self.roots[rid]
            if root.hidden:
                continue
            for e in root.iter_events():
                if not self.keep_tuples and e.kind in (ST, ET):
                    continue
                out.append(e.relabel(rid) if relabel and e.id != rid else e)
        return out

    def text(self) -> str:
        """The denoted document as XML text: ``write_events(flatten())``,
        from cached pieces.

        Costs the regions whose visible content changed since the last
        read plus their siblings along the chain of enclosing regions
        (one ``join`` each); with nothing changed, one probe per root.
        """
        parts = []
        for root in self.roots.values():  # insertion order: root_order
            if not root.hidden:
                parts.append(root.render())
        return "".join(parts)

    def stats(self) -> Dict[str, int]:
        """Buffering metrics: live regions and buffered events.

        A full recount — the reference the running ``regions`` /
        ``events`` totals are tested against.
        """
        regions = 0
        events = 0
        for root in self.roots.values():
            c = root.counts()
            regions += 1 + c["regions"]
            events += c["events"]
        return {"regions": regions, "events": events,
                "registry": len(self.registry), "open": len(self.open)}


def apply_updates(events: Sequence[Event],
                  result_ids: Optional[Sequence[int]] = None,
                  keep_tuples: bool = False) -> List[Event]:
    """Eagerly apply every update in ``events``; return the plain stream.

    This is the oracle for the paper's lazy-propagation machinery: the
    final display of any pipeline must equal ``apply_updates`` of its
    output stream.
    """
    tree = RegionTree(result_ids=result_ids, keep_tuples=keep_tuples)
    tree.process_all(events)
    return tree.flatten()
