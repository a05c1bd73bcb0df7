"""The generic update-handling wrapper ``W`` (paper Section IV).

Given a state transformer that understands plain stream data, the wrapper
makes it update-aware without any operator-specific code:

* it keeps one copy of the transformer state per update region
  (``start``/``end``/``shadow`` maps), creating them when an update bracket
  opens inside a tracked stream;
* content events of a region are processed against that region's own state
  copy (necessary so e.g. a counter counts a replacement's content and the
  delta becomes visible at the bracket's end);
* when an update completes (eR/eA/eB) or flips visibility (hide/show), the
  states of all *later* regions — ordered by rational ``order`` timestamps —
  and the live state are fixed up through the transformer's pure
  :meth:`~repro.core.transformer.StateTransformer.adjust` function;
* the mutability analysis of Section V prunes state: regions whose id is
  *fixed* get no state copies at all, and ``freeze`` drops existing ones.

**Update-bracket translation.**  The paper's pseudo-code leaves implicit
how an update travels through a stage whose output is a different virtual
stream: the content a stage emits while processing a region must itself be
bracketed, in the *stage's own output space* ("every top-level element from
e1 has its own substream id").  The wrapper implements this generically via
a per-input-stream :class:`UpdatePolicy`:

* ``TRANSLATE`` (default): re-emit the bracket with a fresh output-side
  region id; events the transformer emits on its output stream while the
  region is loaded are relabeled into that region.  hide/show/freeze are
  forwarded retargeted at the output-side region.
* ``TRANSPARENT``: forward the bracket verbatim (operators like
  concatenation whose output carries the input stream numbers).
* ``CONSUME``: emit no bracket — the stream feeds only the operator's
  state (e.g. a predicate's condition stream); visible effects happen
  through ``on_transition`` (retroactive show/hide) instead.
* ``TEE``: forward the original bracket *and* a translated one (stream
  duplication for predicates and backward axes).

Other deviations from the paper's pseudo-code are listed in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import gcd
from typing import Dict, List, Optional

from ..events.model import (EA, EB, EM, ER, FREEZE, HIDE, SA, SB, SHOW, SM,
                            SR, UPDATE_ENDS, UPDATE_STARTS, Event, freeze as
                            freeze_event, hide as hide_event,
                            matching_end, show as show_event)
from .transformer import State, StateTransformer, UpdatePolicy

#: State-map key for the live (main stream) state.
LIVE = "live"

#: Every Kind below START_MUTABLE is plain stream data (see events.model;
#: the enum is laid out so one integer compare classifies an event).
_FIRST_UPDATE = int(SM)
_N_KINDS = int(SHOW) + 1


class _Rat:
    """Exact rational order timestamp (the paper's ``order`` values).

    ``fractions.Fraction`` spends most of its comparison time in ABC
    instance checks and normalization; order timestamps only ever meet
    other order timestamps, and the two operations that create them
    (±1 and midpoint) keep denominators as powers of two, so a slotted
    cross-multiplying rational is sufficient — and several times faster
    on the bisect-heavy paths (:meth:`UpdateWrapper._between_below`,
    ``_adjust_later``).
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1) -> None:
        self.n = n
        self.d = d

    def __lt__(self, other: "_Rat") -> bool:
        return self.n * other.d < other.n * self.d

    def __le__(self, other: "_Rat") -> bool:
        return self.n * other.d <= other.n * self.d

    def __gt__(self, other: "_Rat") -> bool:
        return self.n * other.d > other.n * self.d

    def __ge__(self, other: "_Rat") -> bool:
        return self.n * other.d >= other.n * self.d

    def __eq__(self, other: object) -> bool:
        if type(other) is not _Rat:
            return NotImplemented
        return self.n * other.d == other.n * self.d

    def __hash__(self) -> int:
        g = gcd(self.n, self.d)
        return hash((self.n // g, self.d // g))

    def __bool__(self) -> bool:
        return self.n != 0

    def __repr__(self) -> str:
        return "{}/{}".format(self.n, self.d)


def _rat_mid(a: _Rat, b: _Rat) -> _Rat:
    """(a + b) / 2, stripping common powers of two (cheap gcd)."""
    n = a.n * b.d + b.n * a.d
    d = 2 * a.d * b.d
    while not (n & 1 or d & 1):
        n >>= 1
        d >>= 1
    return _Rat(n, d)


#: Every :class:`UpdateWrapper` container keyed (or filled) by region id.
#: ``freeze`` must leave none of them mentioning the frozen region.
PER_REGION_MAPS = (
    "start", "end", "shadow", "order", "_order_sorted", "tracked",
    "_regions", "_alias_live", "_raw", "_shared", "_frozen_kept",
    "_root", "_rpolicy", "_out_region", "_region_info", "_inner",
    "_parent", "_children", "_open", "_rcfg")


class UpdateWrapper:
    """Wrap a :class:`StateTransformer`, handling update events generically.

    The wrapper starts *dormant*: until the first update-kind event
    (sM/sR/sB/sA/eU/freeze/hide/show) reaches it, :meth:`dispatch` is a
    straight pass-through to the transformer — no region tracking, no
    state residency management, no per-event bookkeeping beyond the call
    counter.  Pure-query streams never pay for the Section-IV machinery.
    The first update event permanently activates the full path; the
    transition is lossless because the dormant path maintains exactly the
    invariants the active path expects (live state loaded, ``start[LIVE]``
    holding the construction-time snapshot).  ``always_active=True``
    disables the fast path (used by differential tests).
    """

    #: Optional telemetry sink (a :class:`repro.obs.StageMetrics`),
    #: attached by the recorder; ``None`` keeps every hook branch cold.
    obs = None

    def __init__(self, transformer: StateTransformer,
                 always_active: bool = False,
                 reclaim_on_freeze: bool = True) -> None:
        self.t = transformer
        self.ctx = transformer.ctx
        self.input_ids = frozenset(transformer.input_ids)
        # Per-region state copies (region id -> state snapshot).
        self.start: Dict[object, State] = {}
        self.end: Dict[object, State] = {}
        self.shadow: Dict[object, State] = {}
        self.order: Dict[object, Optional[_Rat]] = {}
        self.start[LIVE] = transformer.get_state()
        self.end[LIVE] = self.start[LIVE]
        self.order[LIVE] = None  # None = +infinity: always adjusted
        self._regions: set = set()
        self._alias_live: set = set()  # fixed sM regions: plain content
        self._raw: set = set()         # RAW-policy regions: fed to process
        self._shared: set = set()      # SHARED-policy regions: live state
        self._root: Dict[int, int] = {}        # region -> root input stream
        self._out_region: Dict[int, int] = {}  # region -> output-space id
        # region -> (j_out, (output_id, anchor), translate?) — everything
        # _relabel_out needs, precomputed once at bracket open.
        self._region_info: Dict[int, tuple] = {}
        self._inner: Dict[int, set] = {}  # region -> subs opened within it
        # Positional nesting of the *live* regions: region -> nearest live
        # enclosing region (None = top level), and its inverse.  Freeze
        # splices a region out of both (see _unlink), so every ancestor
        # walk is bounded by live nesting depth, not stream position.
        self._parent: Dict[int, Optional[int]] = {}
        self._children: Dict[int, set] = {}
        # Open tracked bracket -> its target in output space (None when
        # the bracket is not re-emitted there), so that the bracket's end
        # names the target its start did even if that froze in between.
        self._open: Dict[int, Optional[int]] = {}
        self._policy_cache: Dict[int, UpdatePolicy] = {}
        # region/alias id -> its policy, recorded once at bracket open so
        # the close / freeze / hide / show paths skip the root lookup.
        self._rpolicy: Dict[int, UpdatePolicy] = {}
        self._loaded: object = LIVE
        self._resident: Optional[State] = None
        self._tick = 1
        self.calls = 0
        self.peak_states = 1
        self._dormant = not always_active
        #: Section V reclamation switch: with ``reclaim_on_freeze=False``
        #: a freeze still forwards, still fixes the mutability map, but
        #: keeps the region's state copies resident (the bench memory
        #: ablation measures exactly this difference).
        self._reclaim = reclaim_on_freeze
        self._frozen_kept: set = set()
        # Sorted mirror of the non-None values in self.order, so the
        # between-timestamp searches are O(log n) instead of a full scan.
        self._order_sorted: List[_Rat] = []
        # Per-region (input_root, region_chain, region_info) triples for
        # the data hot path, filled on a region's first data event so one
        # dict probe replaces three.  An entry dies with its region, and
        # with any enclosing region its chain mentions (see _unlink).
        self._rcfg: Dict[int, tuple] = {}
        # Every stream id whose *data* events this stage processes (rather
        # than passes through), mapped to its facet: 0 = live (input or
        # fixed-sM alias), 1 = raw/shared, 2 = region with own state copy.
        # One dict probe classifies an event completely (the facets are
        # disjoint by construction — update-region ids are fresh).  The
        # pipeline's event loop consults the key set to skip stages an
        # event would traverse unchanged (see pipeline.bind_drain for how
        # update events are keyed).
        self.tracked: Dict[int, int] = dict.fromkeys(self.input_ids, 0)
        #: Kind-indexed handler list; fixed identity, mutated in place on
        #: the dormant -> active transition (see _activate_on).
        self.handlers: List = self._build_handler_table()

    @property
    def dormant(self) -> bool:
        """True while the update-free fast path is in effect."""
        return self._dormant

    # -- policy ---------------------------------------------------------------

    def _policy(self, region: int) -> UpdatePolicy:
        root = self._root.get(region)
        if root is None:
            return UpdatePolicy.TRANSLATE
        cached = self._policy_cache.get(root)
        if cached is None:
            cached = self.t.update_policy(root)
            self._policy_cache[root] = cached
        return cached

    # -- state residency --------------------------------------------------------
    #
    # ``_resident`` caches the snapshot known to equal the transformer's
    # in-object state (None = unknown/dirty; every process() call dirties
    # it).  In the ubiquitous non-interleaved bracket lifecycle
    # (sU -> content -> eU -> freeze) this elides *all* redundant
    # get_state/set_state round-trips: the open's snapshot is reused at
    # the first load, and the commit restores a state the transformer
    # already holds.

    def _save(self) -> None:
        """Flush the transformer's in-object state into the end map."""
        r = self._resident
        if r is None:
            r = self.t.get_state()
            self._resident = r
        self.end[self._loaded] = r

    def _load(self, key: object) -> None:
        if key is self._loaded or key == self._loaded:
            return
        # _save(), inlined: this runs a couple hundred thousand times per
        # query on region-interleaved streams.
        r = self._resident
        if r is None:
            r = self.t.get_state()
            self._resident = r
        self.end[self._loaded] = r
        s = self.end[key]
        if s is not r:
            self.t.set_state(s)
            self._resident = s
        self._loaded = key

    def _load_live(self) -> None:
        """Make LIVE the loaded key (caller has already saved)."""
        s = self.end[LIVE]
        if s is not self._resident:
            self.t.set_state(s)
            self._resident = s
        self._loaded = LIVE

    # -- dispatch -----------------------------------------------------------------
    #
    # Dispatch is a fixed list of handlers indexed by ``int(e.kind)`` (the
    # Kind enum is laid out for exactly this).  The pipeline's event loop
    # calls ``wrapper.handlers[e.kind](e)`` directly, skipping even the
    # dispatch shim; each handler keeps its own ``calls`` accounting.  The
    # list object never changes identity — the dormant -> active transition
    # mutates it in place — which is what lets the loop bind it once and
    # lets observers wrap it (their shims index it at call time).

    def dispatch(self, e: Event) -> List[Event]:
        """The effective state transformer ``f'`` extended with updates."""
        return self.handlers[e.kind](e)

    def _build_handler_table(self) -> List:
        """Kind-indexed handler list (one entry per ``Kind`` value)."""
        if self._dormant:
            return ([self._dormant_data] * _FIRST_UPDATE
                    + [self._activate_on] * (_N_KINDS - _FIRST_UPDATE))
        h: List = [self._active_data] * _FIRST_UPDATE
        h += [None] * (_N_KINDS - _FIRST_UPDATE)
        for k in UPDATE_STARTS:
            h[k] = self._on_update_start
        for k in UPDATE_ENDS:
            h[k] = self._on_update_end
        h[FREEZE] = self._on_freeze
        h[HIDE] = self._on_hide
        h[SHOW] = self._on_show
        return h

    def _activate_on(self, e: Event) -> List[Event]:
        """First update-kind event: leave the dormant fast path for good.

        The transition is lossless because the dormant path maintains the
        invariants the active path expects (live state loaded, its snapshot
        in ``start``/``end``).  The table is mutated *in place* so cached
        references see the active handlers immediately.
        """
        self._dormant = False
        self.handlers[:] = self._build_handler_table()
        obs = self.obs
        if obs is not None:
            obs.on_activated()
        return self.handlers[e.kind](e)

    def _dormant_data(self, e: Event) -> List[Event]:
        # Update-free fast path: no update has ever reached this stage, so
        # there are no regions, no aliases, and the live state is the one
        # loaded in the transformer.  region_mutable / current_region keep
        # their class defaults (False / None).
        self.calls += 1
        t = self.t
        if e.id in self.input_ids:
            t.current_input_root = e.id
            return t.process(e)
        return t.on_other(e)

    def _active_data(self, e: Event) -> List[Event]:
        self.calls += 1
        eid = e.id
        t = self.t
        facet = self.tracked.get(eid)
        if facet is None:
            return t.on_other(e)
        if facet == 0:  # input stream or fixed-sM alias: live state
            loaded = self._loaded
            if loaded is not LIVE:
                # _load(LIVE), inlined; the final resident write is folded
                # into the pre-process() invalidation below.
                r = self._resident
                if r is None:
                    r = t.get_state()
                self.end[loaded] = r
                s = self.end[LIVE]
                if s is not r:
                    t.set_state(s)
                self._loaded = LIVE
            t.region_mutable = False
            t.current_input_root = eid
            t.current_region = None
            self._resident = None
            return t.process(e)
        if facet == 2:  # region with its own state copy
            loaded = self._loaded
            if eid != loaded:
                r = self._resident
                if r is None:
                    r = t.get_state()
                self.end[loaded] = r
                s = self.end[eid]
                if s is not r:
                    t.set_state(s)
                self._loaded = eid
            t.region_mutable = True
            cfg = self._rcfg.get(eid)
            if cfg is None:
                cfg = self._rcfg[eid] = (self._root.get(eid),
                                         self._region_chain(eid),
                                         self._region_info.get(eid))
            t.current_input_root, t.current_region_chain, info = cfg
            t.current_region = eid
            self._resident = None
            out = t.process(e)
            if not out or t.suppress_region_output:
                return []
            if info is None:
                return out
            # _relabel_out, specialized for the dominant shape: exactly
            # one data event emitted while replaying region content.
            if len(out) == 1:
                ev = out[0]
                if ev.kind < _FIRST_UPDATE:
                    inner = self._inner.get(eid)
                    if inner is not None and ev.id in inner:
                        return out
                    if info[2] or ev.id in info[1]:  # translate / own
                        return [ev.relabel(info[0])]
                    return out
            return self._relabel_out(out, eid)
        # facet == 1: RAW / SHARED region content against the live state
        if self._loaded is not LIVE:
            self._load(LIVE)
        t.region_mutable = True
        t.current_input_root = self._root.get(eid)
        t.current_region = eid
        self._resident = None
        return t.process(e)

    def on_end(self) -> List[Event]:
        self._load(LIVE)
        self._resident = None
        return self.t.on_end()

    def _relabel_out(self, out: List[Event], region: int) -> List[Event]:
        """Route events emitted during region processing into the bracket.

        Non-update events the transformer emits on its output stream (or
        into its current output-side container) are relabeled to the
        translated region id; update events *targeting* those ids are
        retargeted the same way, so operator-generated sub-brackets nest
        inside the translated bracket.
        """
        info = self._region_info.get(region)
        if info is None:
            return out
        j_out, own, translate = info
        inner = self._inner.get(region)
        result: List[Event] = []
        append = result.append
        for ev in out:
            if ev.kind >= _FIRST_UPDATE:
                if ev.id in own:
                    # Operator-generated sub-bracket anchored at the
                    # operator's own output: nest it inside the bracket.
                    append(Event(ev.kind, j_out, sub=ev.sub))
                else:
                    append(ev)
                if ev.kind in UPDATE_STARTS and ev.sub is not None:
                    if inner is None:
                        inner = self._inner[region] = set()
                    inner.add(ev.sub)
            elif inner is not None and ev.id in inner:
                # Content of a container the operator opened inside this
                # very bracket (e.g. a predicate's per-element region):
                # already correctly placed.
                append(ev)
            elif translate:
                # Everything else the operator emits while replaying this
                # region is the bracket's content — including events
                # labeled with a container opened in an *earlier* scope
                # (e.g. a replacement for a long-closed element).
                append(ev.relabel(j_out))
            elif ev.id in own:
                append(ev.relabel(j_out))
            else:
                append(ev)
        return result

    # -- update bookkeeping ----------------------------------------------------------

    def _tracks(self, i: int) -> bool:
        return (i in self.input_ids or i in self._regions
                or i in self._alias_live or i in self._raw
                or i in self._shared)

    def _untrack(self, i: int) -> None:
        """Drop ``i`` from the routing map unless some facet still uses it."""
        if not self._tracks(i):
            self.tracked.pop(i, None)

    def _key_of(self, i: int) -> object:
        return LIVE if (i in self.input_ids or i in self._alias_live) else i

    def _order_of(self, i: int) -> _Rat:
        key = self._key_of(i)
        if key is LIVE:
            return _Rat(1)  # the paper: order of sS(stream, i) is 1
        return self.order[key] or _Rat(1)

    def _on_update_start(self, e: Event) -> List[Event]:
        self.calls += 1
        i, j = e.id, e.sub
        if i not in self.tracked:  # == _tracks(i); one set probe
            return self.t.on_other(e)
        fix = self.ctx.fix
        if e.kind == SM:
            fix.declare_mutable(j)
        else:
            fix.inherit(i, j)
        root = self._root.get(i, i if i in self.input_ids else None)
        if root is not None:
            self._root[j] = root
        policy = (self._policy_cache.get(self._root.get(j))
                  or self._policy(j))
        self._rpolicy[j] = policy
        if policy == UpdatePolicy.RAW:
            self._raw.add(j)
            self.tracked[j] = 1
            self._load(LIVE)
            self.t.current_input_root = root
            self.t.current_region = None
            self._resident = None
            return self.t.process(e)
        if policy == UpdatePolicy.SHARED:
            self._shared.add(j)
            self.tracked[j] = 1
            return []
        if fix.is_fixed(j):
            if e.kind == SM:
                # The consumer ignores updates here: the content is ordinary
                # stream data, processed against the live state, no copies,
                # and the bracket disappears from the output.
                self._alias_live.add(j)
                self.tracked[j] = 0
                if policy in (UpdatePolicy.TRANSPARENT, UpdatePolicy.TEE):
                    return [e]
                return []
            # A fixed sR/sB/sA target means the update is void: its content
            # stays untracked and is ignored downstream.
            self._rpolicy.pop(j, None)
            return []
        self._save()
        if e.kind == SM:
            base = self.end[self._key_of(i)]
            self._order_insert(j, self._next_tick())
        elif e.kind == SA:
            base = self.end[self._key_of(i)]
            self._order_insert(j, self._between_above(self._order_of(i)))
        elif e.kind == SR:
            base = self.start[self._key_of(i)]
            self._order_insert(j, self._order_of(i))
        else:  # SB
            base = self.start[self._key_of(i)]
            self._order_insert(j, self._between_below(self._order_of(i)))
        self.start[j] = base
        self.end[j] = base
        self._regions.add(j)
        self.tracked[j] = 2
        # Positional containment, not temporal nesting: a mutable region
        # lives inside its target; replace/insert content occupies a spot
        # inside the target's own container (brackets may interleave).
        if i not in self._regions:
            parent = None
        elif e.kind in (SM, SR):
            parent = i
        else:
            parent = self._parent.get(i)
        self._parent[j] = parent
        if parent is not None:
            kids = self._children.get(parent)
            if kids is None:
                self._children[parent] = {j}
            else:
                kids.add(j)
        self._open[j] = None
        self.peak_states = max(self.peak_states, len(self._regions) + 1)
        # Bracket emission per policy.
        if policy == UpdatePolicy.TRANSPARENT:
            return [e]
        if policy == UpdatePolicy.CONSUME:
            return []
        j_out = self.ctx.fresh_id()
        self._out_region[j] = j_out
        anchor = self.t.bracket_anchor()
        self._region_info[j] = (j_out, (self.t.output_id, anchor),
                                policy == UpdatePolicy.TRANSLATE)
        if i in self.input_ids or i in self._alias_live:
            target = anchor
        else:
            target = self._out_region.get(i, self.t.output_id)
        self._open[j] = target
        if e.kind == SM:
            fix.declare_mutable(j_out)
        else:
            fix.inherit(target, j_out)
        translated = Event(e.kind, target, sub=j_out)
        if policy == UpdatePolicy.TEE:
            return [e, translated]
        return [translated]

    def _on_update_end(self, e: Event) -> List[Event]:
        self.calls += 1
        i, j = e.id, e.sub
        if j in self._raw:
            self._load(LIVE)
            self.t.current_input_root = self._root.get(j)
            self.t.current_region = None
            self._resident = None
            return self.t.process(e)
        if j in self._shared:
            return []
        if j in self._alias_live:
            self._alias_live.discard(j)
            self._untrack(j)
            policy = (self._rpolicy.pop(j, None)
                      or self._policy_cache.get(self._root.get(j))
                      or self._policy(j))
            if policy in (UpdatePolicy.TRANSPARENT, UpdatePolicy.TEE):
                return [e]
            return []
        if j not in self._regions:
            return self.t.on_other(e)
        target = self._open.pop(j, None)
        self._save()
        out: List[Event] = []
        policy = (self._rpolicy.get(j)
                  or self._policy_cache.get(self._root.get(j))
                  or self._policy(j))
        j_out = self._out_region.get(j)
        if policy == UpdatePolicy.TRANSPARENT:
            out.append(e)
        elif policy == UpdatePolicy.TEE:
            if j_out is not None:
                out.append(Event(e.kind, target, sub=j_out))
            out.append(e)
        elif policy == UpdatePolicy.TRANSLATE and j_out is not None:
            out.append(Event(e.kind, target, sub=j_out))
        kind = e.kind
        key_i = self._key_of(i)
        if key_i not in self.end or j not in self.end:
            # The target's state was already pruned (frozen mid-bracket):
            # nothing to commit.
            self._load_live()
            return out
        # An update completing inside a *hidden* region contributes to
        # that region's shadow (revealed by a later show), never to the
        # live state: hidden content has no visible effect.
        anchor = self._hidden_anchor(key_i)
        if anchor is not None and kind in (EM, ER):
            if kind == ER:
                if key_i == anchor:
                    # Wholesale replacement of the hidden region itself.
                    self.shadow[anchor] = self.end[j]
                else:
                    self.shadow[anchor] = self.t.adjust(
                        self.shadow[anchor], self.end[key_i], self.end[j])
                if key_i is not LIVE:
                    self.end[key_i] = self.end[j]
            else:  # EM nested below a hidden region: plain commit
                self.end[key_i] = self.t.adjust(
                    self.end[key_i], self.start[j], self.end[j]) \
                    if not self.t.inert else (
                        self.end[j] if self.end[key_i] == self.start[j]
                        else self.end[key_i])
            self._load_live()
            return out
        if kind == EM:
            # The paper's "end[id] <- end[uid]", generalized to a delta
            # adjustment: content of sibling regions may have interleaved
            # with this bracket, so the enclosing state absorbs the
            # region's *transition* rather than its absolute snapshot.
            # (Linear case: end-of(i) == start[j], so the adjust laws give
            # exactly end[j] — the paper's rule.)
            old_enc = self.end[key_i]
            becomes = self.t.adjust(old_enc, self.start[j], self.end[j])
            if self.t.inert:
                becomes = self.end[j] if old_enc == self.start[j] \
                    else old_enc
            self.end[key_i] = becomes
            if key_i is LIVE:
                # Make the in-object state current *before* asking the
                # transformer to re-emit its visible value.
                self._load_live()
            if (self.t.suppress_region_output and not self.t.inert
                    and key_i is LIVE and old_enc != becomes):
                out.extend(self.t.on_live_adjusted(old_enc, becomes))
                self._resident = None
        elif kind == ER:
            s1, s2 = self.end[key_i], self.end[j]
            if not self.t.inert:
                out.extend(self.t.on_transition(j, s1, s2))
                self._resident = None
                self._adjust_later(j, s1, s2, out)
            if key_i is not LIVE:
                # The replaced region's own end state is now the
                # replacement's; the live state was already fixed up by
                # the adjustment above.
                self.end[key_i] = self.end[j]
            elif self.t.inert:
                self.end[key_i] = self.end[j]
        else:  # EA / EB
            s1, s2 = self.start[j], self.end[j]
            if not self.t.inert:
                out.extend(self.t.on_transition(j, s1, s2))
                self._resident = None
                self._adjust_later(j, s1, s2, out)
        self._load_live()
        return out

    def _on_hide(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        if uid in self._raw:
            self._load(LIVE)
            self.t.current_input_root = self._root.get(uid)
            self.t.current_region = None
            self._resident = None
            return self.t.process(e)
        if uid in self._shared:
            self._resident = None
            return list(self.t.on_region_hidden(uid))
        if uid not in self._regions or self.ctx.fix.is_fixed(uid):
            return self.t.on_other(e)
        if uid in self.shadow:
            # Already hidden: hide is idempotent (a second hide must not
            # overwrite the shadow with the already-hidden state).
            return self._forward_toggle(e, uid)
        self._save()
        out = self._forward_toggle(e, uid)
        s_end, s_start = self.end[uid], self.start[uid]
        anchor = self._hidden_anchor(self._parent.get(uid))
        if anchor is not None:
            # Hiding inside an already-hidden region only shifts shadows.
            self.shadow[anchor] = self.t.adjust(self.shadow[anchor],
                                                s_end, s_start)
        elif not self.t.inert:
            out.extend(self.t.on_transition(uid, s_end, s_start))
            self._resident = None
            self._adjust_later(uid, s_end, s_start, out)
        self.shadow[uid] = s_end
        self.end[uid] = s_start
        if anchor is None and not self.t.inert:
            out.extend(self.t.on_region_hidden(uid))
            self._resident = None
        self._reload()
        return out

    def _on_show(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        if uid in self._raw:
            self._load(LIVE)
            self.t.current_input_root = self._root.get(uid)
            self.t.current_region = None
            self._resident = None
            return self.t.process(e)
        if uid in self._shared:
            self._resident = None
            return list(self.t.on_region_shown(uid))
        if uid not in self._regions or self.ctx.fix.is_fixed(uid):
            return self.t.on_other(e)
        if uid not in self.shadow:
            return self._forward_toggle(e, uid)  # show without hide: no-op
        self._save()
        out = self._forward_toggle(e, uid)
        s_end, s_shadow = self.end[uid], self.shadow.pop(uid)
        anchor = self._hidden_anchor(self._parent.get(uid))
        if anchor is not None:
            self.shadow[anchor] = self.t.adjust(self.shadow[anchor],
                                                s_end, s_shadow)
        elif not self.t.inert:
            out.extend(self.t.on_transition(uid, s_end, s_shadow))
            self._resident = None
            self._adjust_later(uid, s_end, s_shadow, out)
        self.end[uid] = s_shadow
        if anchor is None and not self.t.inert:
            out.extend(self.t.on_region_shown(uid))
            self._resident = None
        self._reload()
        return out

    def _forward_toggle(self, e: Event, uid: int) -> List[Event]:
        """Forward hide/show/freeze per the region's policy."""
        policy = (self._rpolicy.get(uid)
                  or self._policy_cache.get(self._root.get(uid))
                  or self._policy(uid))
        if policy == UpdatePolicy.CONSUME:
            return []
        if policy == UpdatePolicy.TRANSPARENT:
            return [e]
        j_out = self._out_region.get(uid)
        translated = [] if j_out is None else [Event(e.kind, j_out)]
        if policy == UpdatePolicy.TEE:
            return [e] + translated
        return translated

    def _on_freeze(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        self.ctx.fix.freeze(uid)
        if uid in self._raw:
            self._load(LIVE)
            self.t.current_input_root = self._root.get(uid)
            self.t.current_region = None
            self._raw.discard(uid)
            self._untrack(uid)
            self._root.pop(uid, None)
            self._rpolicy.pop(uid, None)
            return self.t.process(e)
        if uid in self._shared:
            self._shared.discard(uid)
            self._untrack(uid)
            self._root.pop(uid, None)
            self._rpolicy.pop(uid, None)
            return []
        out: List[Event] = []
        if uid in self._regions or uid in self._alias_live:
            if uid in self._frozen_kept:
                # Ablation mode only: the region's state was kept, but a
                # repeated freeze must behave exactly like the reclaiming
                # path (the region is long gone there): plain forward.
                return self.t.on_other(e)
            out = self._forward_toggle(e, uid)
            if not self.t.inert:
                out.extend(self.t.on_region_frozen(uid))
                self._resident = None
            j_out = self._out_region.pop(uid, None)
            if j_out is not None:
                self.ctx.fix.freeze(j_out)
            # Section V: a fixed id's states are removed immediately.
            self._save()
            if self._loaded == uid:
                self._load_live()
            obs = self.obs
            if obs is not None:
                reclaimed = 0
                cells = self.t.state_cells
                for m in (self.start, self.end, self.shadow):
                    s = m.get(uid)
                    if s is not None:
                        reclaimed += cells(s)
                obs.on_freeze(reclaimed)
            # A frozen region is closed to everything: it leaves the
            # nesting tree and the open brackets in either mode.
            self._unlink(uid)
            self._open.pop(uid, None)
            t = self.t
            if uid in t.current_region_chain:
                # Rewritten before every read, so only a stale mention.
                t.current_region_chain = ()
            if t.current_region == uid:
                t.current_region = None
            if not self._reclaim:
                # Freeze ablation: identical event output and mutability
                # bookkeeping, but the state copies stay resident — the
                # footprint a system without Section V's pruning pays.
                self._frozen_kept.add(uid)
                return out
            self._regions.discard(uid)
            self._alias_live.discard(uid)
            self._untrack(uid)
            self.start.pop(uid, None)
            self.end.pop(uid, None)
            self.shadow.pop(uid, None)
            self._order_discard(self.order.pop(uid, None))
            self._root.pop(uid, None)
            self._rpolicy.pop(uid, None)
            self._region_info.pop(uid, None)
            self._inner.pop(uid, None)
            return out
        return self.t.on_other(e)

    def _reload(self) -> None:
        s = self.end[self._loaded]
        if s is not self._resident:
            self.t.set_state(s)
            self._resident = s

    # -- adjustment --------------------------------------------------------------------

    def _region_chain(self, eid: int) -> tuple:
        """``eid`` and its live enclosing regions, innermost first.

        Computed on an ``_rcfg`` miss only; :meth:`_unlink` drops the
        cached copy of every region whose chain a freeze shortens.
        """
        parts = [eid]
        parent = self._parent.get
        k = parent(eid)
        while k is not None:
            parts.append(k)
            k = parent(k)
        return tuple(parts)

    def _unlink(self, uid: int) -> None:
        """Splice a frozen region out of the nesting tree.

        Its still-live children move up to its nearest live ancestor, and
        the cached chain of everything live below it is dropped.  A
        frozen region is never hidden, shown or an open bracket again
        (its shadow goes with it), so no ancestor walk could have stopped
        at it: skipping it changes no answer.  Cost: O(1) for a leaf,
        O(live descendants) otherwise.
        """
        rcfg = self._rcfg
        rcfg.pop(uid, None)
        children = self._children
        parent = self._parent.pop(uid, None)
        kids = children.pop(uid, None)
        if parent is not None:
            siblings = children[parent]
            siblings.discard(uid)
            if kids:
                siblings |= kids
            elif not siblings:
                del children[parent]
        if kids:
            parents = self._parent
            for k in kids:
                parents[k] = parent
            below = list(kids)
            while below:
                k = below.pop()
                rcfg.pop(k, None)
                sub = children.get(k)
                if sub:
                    below.extend(sub)

    def _hidden_anchor(self, key: object) -> Optional[int]:
        """The nearest positionally-enclosing hidden region (or None)."""
        k = key if key is not LIVE else None
        while k is not None:
            if k in self.shadow:
                return k
            k = self._parent.get(k)
        return None

    def _nearest_open(self, uid: int) -> Optional[int]:
        """The innermost still-open bracket enclosing ``uid`` (None=live)."""
        p = self._parent.get(uid)
        while p is not None and p not in self._open:
            p = self._parent.get(p)
        return p

    def _adjust_later(self, uid: int, s1: State, s2: State,
                      out: List[Event]) -> None:
        """The paper's ``adj``, causally scoped.

        An update's delta is visible only within the innermost bracket
        that is still open around it (its accumulated ``end`` state), plus
        the sibling regions inside that bracket that come after the update
        in display order; everything outside receives the delta when that
        bracket itself commits.  When no enclosing bracket is open, this
        degenerates to the paper's flat rule: adjust every later region
        and the live state.
        """
        if s1 == s2:
            return
        enclosing = self._nearest_open(uid)
        pivot = self.order[uid]
        adjust = self.t.adjust
        for k in self._regions:
            if k == uid or k == enclosing:
                continue
            if self._nearest_open(k) != enclosing:
                continue
            o = self.order[k]
            if o is not None and pivot is not None and o <= pivot:
                continue
            self.start[k] = adjust(self.start[k], s1, s2)
            self.end[k] = adjust(self.end[k], s1, s2)
            if k in self.shadow:
                self.shadow[k] = adjust(self.shadow[k], s1, s2)
        if enclosing is None:
            old = self.end[LIVE]
            new = adjust(old, s1, s2)
            if new != old:
                self.end[LIVE] = new
                # Materialize the adjusted live state before the emission
                # hook: transformers re-emit from their in-object fields.
                self._loaded = LIVE
                self.t.set_state(new)
                self._resident = new
                out.extend(self.t.on_live_adjusted(old, new))
                self._resident = None
        else:
            self.end[enclosing] = adjust(self.end[enclosing], s1, s2)
            if self._loaded == enclosing:
                self.t.set_state(self.end[enclosing])
                self._resident = self.end[enclosing]

    # -- order timestamps ------------------------------------------------------------------

    def _next_tick(self) -> _Rat:
        self._tick += 1
        return _Rat(self._tick)

    def _order_insert(self, j: int, o: _Rat) -> _Rat:
        """Record region ``j``'s timestamp in both the map and the mirror."""
        self.order[j] = o
        mirror = self._order_sorted
        # sM timestamps are monotone ticks, so appends dominate; one
        # comparison beats an O(log n) insort of Python-level __lt__ calls.
        if not mirror or not (o < mirror[-1]):
            mirror.append(o)
        else:
            insort(mirror, o)
        return o

    def _order_discard(self, o: Optional[_Rat]) -> None:
        if o is None:
            return
        mirror = self._order_sorted
        if mirror and mirror[-1] == o:  # LIFO discard: freeze after close
            mirror.pop()
            return
        idx = bisect_left(mirror, o)
        if idx < len(mirror) and mirror[idx] == o:
            del mirror[idx]

    def _between_above(self, o: _Rat) -> _Rat:
        """Smallest recorded timestamp above ``o``, halved towards it."""
        mirror = self._order_sorted
        idx = bisect_right(mirror, o)
        if idx < len(mirror):
            return _rat_mid(o, mirror[idx])
        return _Rat(o.n + o.d, o.d)

    def _between_below(self, o: _Rat) -> _Rat:
        """Largest recorded timestamp below ``o``, halved towards it."""
        mirror = self._order_sorted
        idx = bisect_left(mirror, o)
        if idx > 0:
            return _rat_mid(o, mirror[idx - 1])
        return _Rat(o.n - o.d, o.d)

    # -- accounting ----------------------------------------------------------------------------

    def state_cells(self) -> int:
        """Retained state size (cells) across all live copies."""
        self._save()
        total = 0
        for m in (self.start, self.end, self.shadow):
            for state in m.values():
                total += self.t.state_cells(state)
        return total

    def live_regions(self) -> int:
        return len(self._regions)

    def region_entries(self) -> int:
        """Entries across every per-region container of this wrapper.

        State copies are what ``state_cells`` sizes; this counts the
        bookkeeping around them, which must also be bounded by the
        regions still addressable rather than by stream position.
        """
        return sum(len(getattr(self, name)) for name in PER_REGION_MAPS)

    def account(self) -> tuple:
        """``(state_cells, live_regions, region_entries)`` in one call.

        The single accounting walk every consumer shares — pipeline
        totals, per-stage stats, and metrics samples all read state
        through here, so the numbers can never disagree.
        """
        return (self.state_cells(), self.live_regions(),
                self.region_entries())

    def __repr__(self) -> str:
        return "UpdateWrapper({!r})".format(self.t)
