"""The generic update-handling wrapper ``W`` (paper Section IV).

Given a state transformer that understands plain stream data, the wrapper
makes it update-aware without any operator-specific code:

* it keeps one copy of the transformer state per update region — the
  paper's ``start``/``end``/``shadow``/``order``, here four fields of the
  region's :class:`RegionRecord` — creating the record when an update
  bracket opens inside a tracked stream;
* content events of a region are processed against that region's own state
  object (necessary so e.g. a counter counts a replacement's content and
  the delta becomes visible at the bracket's end): the transformer's
  ``state`` is pointed at the record's ``end``, and ``process`` mutates it
  in place;
* when an update completes (eR/eA/eB) or flips visibility (hide/show), the
  states of all *later* regions — ordered by rational ``order`` timestamps —
  and the live state are fixed up through the transformer's pure
  :meth:`~repro.core.transformer.StateTransformer.adjust` function;
* the mutability analysis of Section V prunes state: regions whose id is
  *fixed* get no record at all, and ``freeze`` drops an existing one.

**One record, one handle.**  Everything a stage keeps about a tracked
stream id — state objects, routing facet, bracket translation, positional
nesting, the cached region chain — lives in its :class:`RegionRecord`,
and the record is reachable only as the value of ``tracked[id]`` (plus
the ``parent``/``children`` links between live records).  Deleting that
one entry at ``freeze`` therefore reclaims everything: what is kept is
exactly what can still be addressed.

**Update-bracket translation.**  The paper's pseudo-code leaves implicit
how an update travels through a stage whose output is a different virtual
stream: the content a stage emits while processing a region must itself be
bracketed, in the *stage's own output space* ("every top-level element from
e1 has its own substream id").  The wrapper implements this generically via
a per-input-stream :class:`UpdatePolicy`:

* ``TRANSLATE`` (default): re-emit the bracket with a fresh output-side
  region id, and hand that id to ``process`` as the id to emit on while
  it replays the region's content, so the operator's one relabel puts
  the content into the translated region.  hide/show/freeze are
  forwarded retargeted at the output-side region.
* ``TRANSPARENT``: forward the bracket verbatim (operators like
  concatenation whose output carries the input stream numbers).
* ``CONSUME``: emit no bracket — the stream feeds only the operator's
  state (e.g. a predicate's condition stream); visible effects happen
  through ``on_transition`` (retroactive show/hide) instead.
* ``TEE``: forward the original bracket *and* a translated one (stream
  duplication for predicates and backward axes); the copy of the content
  goes on the translated id, as under ``TRANSLATE``.

Other deviations from the paper's pseudo-code are listed in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import gcd
from typing import Any, Dict, Iterable, List, Optional, Set

from ..events.model import (EM, ER, FREEZE, HIDE, SA, SHOW, SM, SR,
                            UPDATE_ENDS, UPDATE_STARTS, Event)
from .transformer import State, StateTransformer, UpdatePolicy

#: Every Kind below START_MUTABLE is plain stream data (see events.model;
#: the enum is laid out so one integer compare classifies an event).
_FIRST_UPDATE = int(SM)
_N_KINDS = int(SHOW) + 1

#: A region's policy is one of these six objects, recorded once at bracket
#: open; every later test is an identity compare.
_TRANSLATE = UpdatePolicy.TRANSLATE
_TRANSPARENT = UpdatePolicy.TRANSPARENT
_CONSUME = UpdatePolicy.CONSUME
_TEE = UpdatePolicy.TEE
_RAW = UpdatePolicy.RAW
_SHARED = UpdatePolicy.SHARED


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


_ONE = _Rat(1)  # the paper: order of sS(stream, i) is 1


class RegionRecord:
    """Everything one stage keeps about one tracked stream id.

    The value of ``UpdateWrapper.tracked[id]`` and the only handle on what
    it holds.  ``facet`` says how the id's *data* events are processed:

    * 0 — against the live state: the one record shared by every input
      stream id (``id`` None; its ``start`` is the construction-time
      snapshot, its ``end`` the live state, its ``order`` None =
      +infinity: always adjusted), or a fixed-``sM`` alias, which holds
      no state at all;
    * 1 — RAW / SHARED region content, live state as well;
    * 2 — an update region with its own state objects: the paper's
      ``start``/``end``/``shadow`` (``shadow`` None while visible) and
      ``order``.

    ``end`` is the state ``process`` mutates while the record is loaded;
    ``owned`` says that no other field anywhere refers to that object.
    A record whose ``end`` is shared (with its own ``start`` when it
    opens, with another record's ``end`` after a commit, with a
    ``shadow``) copies it before its content runs: at most one copy
    per region per stage on the paths the workloads take (see
    :meth:`UpdateWrapper._load`).  ``start`` and ``shadow`` are
    snapshots, never mutated.

    Every record knows its ``root`` input stream and that stream's
    ``policy``.  A facet-2 record also carries the bracket translation
    (``out``: the output-space region id, the id its content is emitted
    on; None under CONSUME/TRANSPARENT), the
    positional nesting among live regions (``parent``: nearest enclosing
    region not yet frozen, ``children`` its exact inverse, None when
    empty), the open bracket (``open``, and ``target``: what the re-emitted
    bracket names in output space, so that its end names the target its
    start did even if that froze in between), the cached region ``chain``
    (None = recompute), and ``kept``: frozen under the ablation, state
    copies retained.
    """

    __slots__ = ("id", "facet", "root", "policy", "start", "end", "owned",
                 "shadow", "order", "out", "parent", "children", "open",
                 "target", "chain", "kept")

    def __init__(self, id: Optional[int], facet: int, root: Optional[int],
                 policy: Optional[UpdatePolicy], state: Optional[State] = None,
                 order: Optional[_Rat] = None,
                 parent: Optional["RegionRecord"] = None) -> None:
        self.id = id
        self.facet = facet
        self.root = root
        self.policy = policy
        self.start: Optional[State] = state
        self.end: Optional[State] = state
        self.owned = False
        self.shadow: Optional[State] = None
        self.order = order
        self.out: Optional[int] = None
        self.parent = parent
        self.children: Optional[Set[RegionRecord]] = None
        self.open = facet == 2
        self.target: Optional[int] = None
        self.chain: Optional[tuple] = None
        self.kept = False

    # One tuple per record instead of the default per-object slot dict:
    # a checkpoint holds one record per live region per stage.
    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:
        return "RegionRecord({}, facet={})".format(self.id, self.facet)


class UpdateWrapper:
    """Wrap a :class:`StateTransformer`, handling update events generically.

    The wrapper starts *dormant*: until the first update-kind event
    (sM/sR/sB/sA/eU/freeze/hide/show) reaches it, :meth:`dispatch` is a
    straight pass-through to the transformer — no region tracking, no
    state swapping, no per-event bookkeeping beyond the call counter.
    Pure-query streams never pay for the Section-IV machinery.
    The first update event permanently activates the full path; the
    transition is lossless because the dormant path maintains exactly the
    invariants the active path expects (the live record loaded, its
    ``start`` holding the construction-time snapshot).
    ``always_active=True`` disables the fast path (used by differential
    tests).

    All per-region bookkeeping is in the :class:`RegionRecord` values of
    ``tracked``; besides that map the wrapper holds only the lazily built
    order mirror and scalars.
    """

    #: Optional telemetry sink (a :class:`repro.obs.StageMetrics`),
    #: attached by the recorder; ``None`` keeps every hook branch cold.
    obs: Any = None

    def __init__(self, transformer: StateTransformer,
                 always_active: bool = False,
                 reclaim_on_freeze: bool = True) -> None:
        self.t = transformer
        self.ctx = transformer.ctx
        self.input_ids = frozenset(transformer.input_ids)
        state = transformer.state
        live = self._live = RegionRecord(None, 0, None, None, state)
        live.start = state.copy()
        live.owned = True
        # Every stream id whose *data* events this stage processes (rather
        # than passes through), mapped to its record; every input stream
        # id maps to the one live record.  One dict probe classifies an
        # event completely and hands the handler all it keeps about the
        # region (an id has one record, hence one facet: update-region ids
        # are fresh, and one that an operator opens again keeps its
        # record — see _on_update_start).  The pipeline's event loop
        # consults the key set to skip stages an event would traverse
        # unchanged (see pipeline.bind_drain for how update events are
        # keyed).
        self.tracked: Dict[int, RegionRecord] = dict.fromkeys(
            self.input_ids, live)
        self._policy_cache: Dict[int, UpdatePolicy] = {}
        #: The record whose ``end`` is the transformer's ``state``; it
        #: always owns that object (see :meth:`_load`).
        self._loaded = live
        self._tick = 1
        self._n_regions = 0
        self.calls = 0
        self.peak_states = 1
        self._dormant = not always_active
        #: Section V reclamation switch: with ``reclaim_on_freeze=False``
        #: a freeze still forwards, still fixes the mutability map, but
        #: keeps the region's state copies (the bench memory
        #: ablation measures exactly this difference).
        self._reclaim = reclaim_on_freeze
        # Sorted mirror of the region records' ``order`` values, so the
        # between-timestamp searches of sA/sB are O(log n).  Nothing else
        # reads it: it is built at the first sA/sB (see _order_mirror)
        # and maintained only from then on.
        self._mirror: Optional[List[_Rat]] = None
        #: Kind-indexed handler list; fixed identity, mutated in place on
        #: the dormant -> active transition (see _activate_on).
        self.handlers: List = self._build_handler_table()

    def region(self, uid: int) -> Optional[RegionRecord]:
        """The record of tracked id ``uid`` (the shared live record for
        an input stream id); None when this stage does not track it."""
        return self.tracked.get(uid)

    # -- state swapping ---------------------------------------------------------
    #
    # The transformer's ``state`` is the loaded record's ``end``, one
    # object, so nothing is ever saved back: a swap is one reference
    # assignment.  A record's ``end`` is mutated only while the record
    # owns it; the loaded record always does.

    def _load(self, rec: RegionRecord) -> None:
        """Make ``rec`` the loaded record, copying its ``end`` first if
        the object is shared."""
        if not rec.owned:
            rec.end = rec.end.copy()
            rec.owned = True
        self.t.state = rec.end
        self._loaded = rec

    @staticmethod
    def _share(dst: RegionRecord, src: RegionRecord) -> None:
        """``dst.end <- src.end``: from now on two records name it."""
        dst.end = src.end
        dst.owned = src.owned = False

    @staticmethod
    def _adjusted(rec: RegionRecord, new: State) -> None:
        """``rec.end <- new``, an :meth:`adjust` result: ``rec.end`` itself
        or a new object that may share parts with its arguments, so the
        record copies it before its content runs against it (most
        adjusted regions are closed and never do)."""
        if new is not rec.end:
            rec.end = new
            rec.owned = False

    def _live_process(self, e: Event, root: Optional[int]) -> List[Event]:
        """``process(e)`` against the live state, outside any region: how
        RAW-policy update events reach the transformer."""
        if self._loaded is not self._live:
            self._load(self._live)
        t = self.t
        t.current_input_root = root
        t.current_region = None
        return t.process(e, t.output_id)

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
        in the live record).  The table is mutated *in place* so cached
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
            return t.process(e, t.output_id)
        return t.on_other(e)

    def _active_data(self, e: Event) -> List[Event]:
        self.calls += 1
        eid = e.id
        t = self.t
        rec = self.tracked.get(eid)
        if rec is None:
            return t.on_other(e)
        facet = rec.facet
        if facet == 2:  # region with its own state object
            if rec is not self._loaded:  # the swap: _load, written out
                s = rec.end
                if not rec.owned:
                    s = rec.end = s.copy()
                    rec.owned = True
                t.state = s
                self._loaded = rec
            chain = rec.chain
            if chain is None:
                chain = rec.chain = ((eid,) if rec.parent is None
                                     else self._region_chain(rec))
            t.region_mutable = True
            t.current_input_root = rec.root
            t.current_region_chain = chain
            t.current_region = eid
            out = rec.out
            emitted = t.process(e, t.output_id if out is None else out)
            return [] if t.suppress_region_output else emitted
        live = self._live
        if live is not self._loaded:
            self._load(live)
        if facet == 0:  # input stream or fixed-sM alias: live state
            t.region_mutable = False
            t.current_input_root = eid
            t.current_region = None
        else:  # RAW / SHARED region content against the live state
            t.region_mutable = True
            t.current_input_root = rec.root
            t.current_region = eid
        return t.process(e, t.output_id)

    def on_end(self) -> List[Event]:
        if self._loaded is not self._live:
            self._load(self._live)
        return self.t.on_end()

    # -- update bookkeeping ----------------------------------------------------------

    def _on_update_start(self, e: Event) -> List[Event]:
        self.calls += 1
        i, j = e.id, e.sub
        target = self.tracked.get(i)
        if target is None:
            return self.t.on_other(e)
        kind = e.kind
        fix = self.ctx.fix
        # ``inherit`` and ``is_fixed`` are membership tests on the
        # registry's not-fixed set (see MutabilityRegistry), written out
        # here: this handler runs once per region per stage.
        not_fixed = fix._not_fixed
        if kind == SM:
            fix.declare_mutable(j)
        elif i in not_fixed:
            not_fixed.add(j)
        # The target's record names the root input stream and its policy;
        # the shared live record stands for every input stream, so there
        # the event's own id is the root.
        root = target.root
        if root is None:
            root = i
            policy = self._policy_cache.get(i)
            if policy is None:
                policy = self._policy_cache[i] = self.t.update_policy(i)
        else:
            policy = target.policy
        if policy is _RAW:
            self.tracked[j] = RegionRecord(j, 1, root, policy)
            return self._live_process(e, root)
        if policy is _SHARED:
            self.tracked[j] = RegionRecord(j, 1, root, policy)
            return []
        if j not in not_fixed:
            if kind == SM:
                # The consumer ignores updates here: the content is ordinary
                # stream data, processed against the live state, no copies,
                # and the bracket disappears from the output.
                self.tracked[j] = RegionRecord(j, 0, root, policy)
                if policy is _TRANSPARENT or policy is _TEE:
                    return [e]
            # A fixed sR/sB/sA target means the update is void: its content
            # stays untracked and is ignored downstream, and nothing is
            # registered for it.
            return []
        # The state the new region starts from is its target's: the
        # region's own state, or the live state for an input stream or
        # an alias.  Positional containment, not temporal nesting: a
        # mutable region lives inside its target; replace/insert content
        # occupies a spot inside the target's own container (brackets may
        # interleave).
        if target.facet == 2:
            src = target
            parent = target if kind == SM or kind == SR else target.parent
        else:
            src = self._live
            parent = None
        t = self.t
        held: Optional[List[Event]] = None
        if (t.defers and (kind == SM or kind == SA) and policy is not
                _CONSUME and policy is not _TRANSPARENT
                and t.holds(src.end)):
            # The bracket opens inside an item whose root is held: the
            # item's region opens first, and the bracket nests in it.
            self._load(src)
            held = t.open_held(t.output_id if src.out is None else src.out)
        if kind == SM:
            base = src.end
            self._tick += 1
            order = _Rat(self._tick)
        elif kind == SR:
            base = src.start
            order = src.order or _ONE
        elif kind == SA:
            base = src.end
            order = self._between_above(src.order or _ONE)
        else:  # SB
            base = src.start
            order = self._between_below(src.order or _ONE)
        if base is src.end:
            # The target's working state becomes the new region's start
            # snapshot: the target copies before its next event (now, if
            # it is the loaded one).
            src.owned = False
            if src is self._loaded:
                self._load(src)
        mirror = self._mirror
        rec = self.tracked.get(j)
        if rec is None or rec.facet != 2:
            rec = self.tracked[j] = RegionRecord(j, 2, root, policy, base,
                                                 order, parent)
            n = self._n_regions = self._n_regions + 1
            if n >= self.peak_states:
                self.peak_states = n + 1
        else:
            # The id is opened again: sorting and concatenation move an
            # item by inserting its region anew.  It stays the one record
            # of that id — what hangs on the id (children, shadow, inner
            # containers) stays with it — in a new place, with new state.
            was = rec.parent
            if was is not None:
                was.children.discard(rec)
                if not was.children:
                    was.children = None
            self._drop_chains([rec])
            if mirror is not None:
                self._order_discard(rec.order)
            rec.root, rec.policy, rec.order, rec.parent = (root, policy,
                                                           order, parent)
            rec.start = rec.end = base
            rec.owned = False
            rec.open = True
            if rec is self._loaded:
                self._load(rec)
        if mirror is not None:
            # sM timestamps are monotone ticks, so appends dominate; one
            # comparison beats an O(log n) insort of Python-level __lt__
            # calls.
            if mirror and order < mirror[-1]:
                insort(mirror, order)
            else:
                mirror.append(order)
        if parent is not None:
            kids = parent.children
            if kids is None:
                parent.children = {rec}
            else:
                kids.add(rec)
        # Bracket emission per policy.
        if policy is _TRANSPARENT:
            return [e]
        if policy is _CONSUME:
            return []
        j_out = rec.out = self.ctx.ids.fresh()
        if target.facet == 0:
            out_target = t.bracket_anchor(j)
        else:
            out_target = target.out
            if out_target is None:
                out_target = t.output_id
        rec.target = out_target
        if kind == SM:
            fix.declare_mutable(j_out)
        elif out_target in not_fixed:
            not_fixed.add(j_out)
        translated = Event(kind, out_target, sub=j_out)
        emitted = [e, translated] if policy is _TEE else [translated]
        return emitted if held is None else held + emitted

    def _on_update_end(self, e: Event) -> List[Event]:
        self.calls += 1
        j = e.sub
        rec = self.tracked.get(j)
        live = self._live
        if rec is None or rec is live:
            return self.t.on_other(e)
        policy = rec.policy
        if rec.facet == 1:
            if policy is _RAW:
                return self._live_process(e, rec.root)
            return []
        if rec.facet == 0:
            # A fixed-sM alias closes: its content was plain stream data.
            del self.tracked[j]
            if policy is _TRANSPARENT or policy is _TEE:
                return [e]
            return []
        target = rec.target
        rec.open = False
        rec.target = None
        kind = e.kind
        out: List[Event] = []
        j_out = rec.out
        if policy is _TRANSPARENT:
            out.append(e)
        elif policy is _TEE:
            if j_out is not None:
                out.append(Event(kind, target, sub=j_out))
            out.append(e)
        elif policy is _TRANSLATE and j_out is not None:
            out.append(Event(kind, target, sub=j_out))
        enc = self.tracked.get(e.id)
        if enc is None or enc.facet == 1:
            # The target's state was already pruned (frozen mid-bracket):
            # nothing to commit.
            self._load(live)
            return out
        if enc.facet == 0:
            enc = live
        t = self.t
        inert = t.inert
        # An update completing inside a *hidden* region contributes to
        # that region's shadow (revealed by a later show), never to the
        # live state: hidden content has no visible effect.
        anchor = self._hidden_anchor(enc)
        if anchor is not None and (kind == EM or kind == ER):
            if kind == ER:
                if enc is anchor:
                    # Wholesale replacement of the hidden region itself.
                    anchor.shadow = rec.end
                    rec.owned = False
                else:
                    anchor.shadow = t.adjust(anchor.shadow, enc.end, rec.end)
                self._share(enc, rec)
            elif not inert:  # EM nested below a hidden region: plain commit
                self._adjusted(enc, t.adjust(enc.end, rec.start, rec.end))
            elif rec.end is not rec.start and enc.end == rec.start:
                self._share(enc, rec)
            self._load(live)
            return out
        if kind == EM:
            # The paper's "end[id] <- end[uid]", generalized to a delta
            # adjustment: content of sibling regions may have interleaved
            # with this bracket, so the enclosing state absorbs the
            # region's *transition* rather than its absolute snapshot.
            # (Linear case: end-of(i) == start[j], so the adjust laws give
            # exactly end[j] — the paper's rule.)  An inert region whose
            # state was never touched (``end is start``) changes nothing.
            old_enc = enc.end
            if inert:
                if rec.end is not rec.start and old_enc == rec.start:
                    self._share(enc, rec)
            else:
                self._adjusted(enc, t.adjust(old_enc, rec.start, rec.end))
            if enc is live:
                # Make the transformer's state current *before* asking
                # it to re-emit its visible value.
                self._load(live)
                becomes = live.end
                if (t.suppress_region_output and not inert
                        and old_enc != becomes):
                    out.extend(t.on_live_adjusted(old_enc, becomes))
        elif kind == ER:
            s1, s2 = enc.end, rec.end
            if not inert:
                out.extend(t.on_transition(j, s1, s2))
                self._adjust_later(rec, s1, s2, out)
            if inert or enc is not live:
                # The replaced region's own end state is now the
                # replacement's; a non-inert live state was already fixed
                # up by the adjustment above.  (_share, written out.)
                enc.end = s2
                enc.owned = rec.owned = False
        elif not inert:  # EA / EB
            s1, s2 = rec.start, rec.end
            out.extend(t.on_transition(j, s1, s2))
            self._adjust_later(rec, s1, s2, out)
        if live.owned:  # _load(live), written out
            t.state = live.end
            self._loaded = live
        else:
            self._load(live)
        return out

    def _on_hide(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        t = self.t
        rec = self.tracked.get(uid)
        if rec is None:
            return t.on_other(e)
        if rec.facet == 1:
            if rec.policy is _RAW:
                return self._live_process(e, rec.root)
            return list(t.on_region_hidden(uid))
        if rec.facet == 0 or self.ctx.fix.is_fixed(uid):
            return t.on_other(e)
        if rec.shadow is not None:
            # Already hidden: hide is idempotent (a second hide must not
            # overwrite the shadow with the already-hidden state).
            return self._forward_toggle(e, rec)
        out = self._forward_toggle(e, rec)
        s_end, s_start = rec.end, rec.start
        anchor = self._hidden_anchor(rec.parent)
        if anchor is not None:
            # Hiding inside an already-hidden region only shifts shadows.
            anchor.shadow = t.adjust(anchor.shadow, s_end, s_start)
        elif not t.inert:
            out.extend(t.on_transition(uid, s_end, s_start))
            self._adjust_later(rec, s_end, s_start, out)
        rec.shadow = s_end
        rec.end = s_start
        rec.owned = False
        if anchor is None and not t.inert:
            out.extend(t.on_region_hidden(uid))
        self._load(self._loaded)
        return out

    def _on_show(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        t = self.t
        rec = self.tracked.get(uid)
        if rec is None:
            return t.on_other(e)
        if rec.facet == 1:
            if rec.policy is _RAW:
                return self._live_process(e, rec.root)
            return list(t.on_region_shown(uid))
        if rec.facet == 0 or self.ctx.fix.is_fixed(uid):
            return t.on_other(e)
        if rec.shadow is None:
            return self._forward_toggle(e, rec)  # show without hide: no-op
        out = self._forward_toggle(e, rec)
        s_end, s_shadow = rec.end, rec.shadow
        rec.shadow = None
        anchor = self._hidden_anchor(rec.parent)
        if anchor is not None:
            anchor.shadow = t.adjust(anchor.shadow, s_end, s_shadow)
        elif not t.inert:
            out.extend(t.on_transition(uid, s_end, s_shadow))
            self._adjust_later(rec, s_end, s_shadow, out)
        rec.end = s_shadow
        rec.owned = False
        if anchor is None and not t.inert:
            out.extend(t.on_region_shown(uid))
        self._load(self._loaded)
        return out

    def _forward_toggle(self, e: Event, rec: RegionRecord) -> List[Event]:
        """Forward hide/show/freeze per the region's policy."""
        policy = rec.policy
        if policy is _CONSUME:
            return []
        if policy is _TRANSPARENT:
            return [e]
        j_out = rec.out
        translated = [] if j_out is None else [Event(e.kind, j_out)]
        if policy is _TEE:
            return [e] + translated
        return translated

    def _on_freeze(self, e: Event) -> List[Event]:
        self.calls += 1
        uid = e.id
        fix = self.ctx.fix
        fix.freeze(uid)
        rec = self.tracked.get(uid)
        t = self.t
        if rec is None or rec is self._live or rec.kept:
            # Untracked, an input stream id, or — ablation mode only — a
            # region whose state was kept: a repeated freeze must behave
            # exactly like the reclaiming path (the region is long gone
            # there): plain forward.
            return t.on_other(e)
        if rec.facet == 1:
            del self.tracked[uid]
            if rec.policy is _RAW:
                return self._live_process(e, rec.root)
            return []
        out = self._forward_toggle(e, rec)
        if not t.inert:
            out.extend(t.on_region_frozen(uid))
        if rec.out is not None:
            fix.freeze(rec.out)
            rec.out = None
        # Section V: a fixed id's states are removed immediately.
        if self._loaded is rec:
            self._load(self._live)
        obs = self.obs
        if obs is not None:
            obs.on_freeze(sum(s.cells()
                              for s in (rec.start, rec.end, rec.shadow)
                              if s is not None))
        # A frozen region is closed to everything: it leaves the nesting
        # tree and the open brackets in either mode.
        self._unlink(rec)
        rec.open = False
        rec.target = None
        if uid in t.current_region_chain:
            # Rewritten before every read, so only a stale mention.
            t.current_region_chain = ()
        if t.current_region == uid:
            t.current_region = None
        if not self._reclaim:
            # Freeze ablation: identical event output and mutability
            # bookkeeping, but the record and its state copies stay — the
            # footprint a system without Section V's pruning pays.
            rec.kept = True
            return out
        del self.tracked[uid]
        if rec.facet == 2:
            self._n_regions -= 1
            if self._mirror is not None:
                self._order_discard(rec.order)
        return out

    # -- adjustment --------------------------------------------------------------------

    @staticmethod
    def _region_chain(rec: RegionRecord) -> tuple:
        """The region's id and its live enclosing regions', innermost
        first.

        Computed when ``rec.chain`` is None only; :meth:`_unlink` resets
        the cached copy of every region whose chain a freeze shortens.
        """
        parts = []
        while rec is not None:
            parts.append(rec.id)
            rec = rec.parent
        return tuple(parts)

    @staticmethod
    def _unlink(rec: RegionRecord) -> None:
        """Splice a frozen region out of the nesting tree.

        Its still-live children move up to its nearest live ancestor, and
        the cached chain of everything live below it is dropped.  A
        frozen region is never hidden, shown or an open bracket again
        (its shadow goes with it), so no ancestor walk could have stopped
        at it: skipping it changes no answer.  Cost: O(1) for a leaf,
        O(live descendants) otherwise.
        """
        parent, kids = rec.parent, rec.children
        rec.parent = rec.children = rec.chain = None
        if parent is not None:
            siblings = parent.children
            siblings.discard(rec)
            if kids:
                siblings |= kids
            elif not siblings:
                parent.children = None
        if kids:
            for k in kids:
                k.parent = parent
            UpdateWrapper._drop_chains(kids)

    @staticmethod
    def _drop_chains(recs: Iterable[RegionRecord]) -> None:
        """Reset the cached chain of ``recs`` and of every region below."""
        below = list(recs)
        while below:
            k = below.pop()
            k.chain = None
            if k.children:
                below.extend(k.children)

    @staticmethod
    def _hidden_anchor(rec: Optional[RegionRecord]
                       ) -> Optional[RegionRecord]:
        """The nearest positionally-enclosing hidden region, ``rec``
        itself included (None for the live record, which has neither a
        shadow nor a parent)."""
        while rec is not None and rec.shadow is None:
            rec = rec.parent
        return rec

    @staticmethod
    def _nearest_open(rec: RegionRecord) -> Optional[RegionRecord]:
        """The innermost still-open bracket enclosing ``rec`` (None=live)."""
        p = rec.parent
        while p is not None and not p.open:
            p = p.parent
        return p

    def _adjust_later(self, rec: RegionRecord, s1: State, s2: State,
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
        if s1 is s2 or s1 == s2:
            return
        nearest_open = self._nearest_open
        enclosing = nearest_open(rec)
        pivot = rec.order
        t = self.t
        adjust = t.adjust
        for k in self.tracked.values():
            if (k.facet != 2 or k is rec or k is enclosing
                    or nearest_open(k) is not enclosing
                    or k.order <= pivot):
                continue
            k.start = adjust(k.start, s1, s2)
            end = adjust(k.end, s1, s2)
            if end is not k.end:  # _adjusted, written out
                k.end = end
                k.owned = False
            if k.shadow is not None:
                k.shadow = adjust(k.shadow, s1, s2)
        if enclosing is None:
            live = self._live
            old = live.end
            new = adjust(old, s1, s2)
            if new != old:
                self._adjusted(live, new)
                # Load the adjusted live state before the emission hook:
                # transformers re-emit from their ``state``.
                self._load(live)
                out.extend(t.on_live_adjusted(old, new))
        else:
            self._adjusted(enclosing, adjust(enclosing.end, s1, s2))
            if self._loaded is enclosing:
                self._load(enclosing)

    # -- order timestamps ------------------------------------------------------------------

    def _order_mirror(self) -> List[_Rat]:
        """The sorted ``order`` values of every region record.

        Only the midpoint searches of sA/sB read it, so it is built at the
        first of those and kept current (``_on_update_start`` inserts,
        ``_on_freeze`` discards) only from then on: a stage fed nothing
        but sM/sR brackets — the ticker's, most of the paper queries' —
        never pays for it.
        """
        mirror = self._mirror
        if mirror is None:
            mirror = self._mirror = sorted(
                r.order for r in self.tracked.values() if r.facet == 2)
        return mirror

    def _order_discard(self, o: _Rat) -> None:
        mirror = self._mirror
        if mirror and mirror[-1] == o:  # LIFO discard: freeze after close
            mirror.pop()
            return
        idx = bisect_left(mirror, o)
        if idx < len(mirror) and mirror[idx] == o:
            del mirror[idx]

    def _between_above(self, o: _Rat) -> _Rat:
        """Smallest recorded timestamp above ``o``, halved towards it."""
        mirror = self._order_mirror()
        idx = bisect_right(mirror, o)
        if idx < len(mirror):
            return _rat_mid(o, mirror[idx])
        return _Rat(o.n + o.d, o.d)

    def _between_below(self, o: _Rat) -> _Rat:
        """Largest recorded timestamp below ``o``, halved towards it."""
        mirror = self._order_mirror()
        idx = bisect_left(mirror, o)
        if idx > 0:
            return _rat_mid(o, mirror[idx - 1])
        return _Rat(o.n - o.d, o.d)

    # -- accounting ----------------------------------------------------------------------------

    def state_cells(self) -> int:
        """Retained state size (cells) across all live copies (a shared
        object counts once per field that names it)."""
        live = self._live
        total = live.start.cells() + live.end.cells()
        for r in self.tracked.values():
            if r.facet == 2:
                total += r.start.cells() + r.end.cells()
                if r.shadow is not None:
                    total += r.shadow.cells()
        return total

    def live_regions(self) -> int:
        return self._n_regions

    def region_entries(self) -> int:
        """Records reachable from ``tracked``, plus order-mirror entries.

        State copies are what ``state_cells`` sizes; this counts the
        bookkeeping around them, which must also be bounded by the
        regions still addressable rather than by stream position.  A
        record that is only reachable through a ``parent``/``children``
        link, or as the loaded one, is counted too: it would be a leak.
        """
        seen = set()
        todo = list(self.tracked.values())
        todo.append(self._loaded)
        while todo:
            r = todo.pop()
            if r not in seen:
                seen.add(r)
                if r.parent is not None:
                    todo.append(r.parent)
                if r.children:
                    todo.extend(r.children)
        return len(seen) + len(self._mirror or ())

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
