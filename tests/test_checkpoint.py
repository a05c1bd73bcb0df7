"""Checkpoint/restore round trips (repro.fault.checkpoint).

The contract under test: snapshotting a live run mid-stream and
restoring the blob — into the same object or a freshly compiled twin —
then feeding the remaining events produces output *byte-identical* to
the uninterrupted run.  This determinism is what the shard supervisor's
restart-and-replay recovery rests on, so it is proved here for every
paper query, at every batch boundary, for plain documents and for
update-bearing streams.
"""

import os
import pickle

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.data.stock import StockTicker
from repro.fault import CheckpointError, decode_checkpoint, \
    encode_checkpoint
from repro.xquery.engine import MultiQueryRun, QueryRun, XFlux

SCALE = 0.02
BOUNDARIES = 5      # checkpoints taken per stream


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


def _events_for(workloads, query):
    plan = XFlux(query).compile()
    dataset = None
    for name, text in PAPER_QUERIES.items():
        if text == query:
            dataset = QUERY_DATASET[name]
    return list(workloads.events(dataset, oids=plan.needs_oids))


def held_roots(run):
    """``(stage, root)`` of every stage holding an item's root."""
    return [(k, w.t.state.held)
            for k, w in enumerate(run.pipeline.wrappers)
            if w.t.defers and w.t.holds(w.t.state)]


def _boundaries(n_events):
    step = max(1, n_events // BOUNDARIES)
    return list(range(step, n_events, step))


class TestQueryRunRoundTrip:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_restore_at_every_boundary_is_byte_identical(self, workloads,
                                                         name):
        query = PAPER_QUERIES[name]
        events = _events_for(workloads, query)
        expected = XFlux(query).run(events).text()

        primary = XFlux(query).start()
        cut = 0
        for boundary in _boundaries(len(events)):
            primary.feed_all(events[cut:boundary])
            cut = boundary
            blob = primary.checkpoint()
            resumed = XFlux(query).start().restore(blob)
            resumed.feed_all(events[boundary:])
            assert resumed.finish().text() == expected, \
                "{} diverged after restore at event {}".format(
                    name, boundary)
            assert resumed.display is resumed.pipeline.sink
        # Checkpointing must be non-destructive: the primary run,
        # snapshotted at every boundary, still finishes correctly.
        primary.feed_all(events[cut:])
        assert primary.finish().text() == expected

    def test_update_stream_round_trip(self):
        query = 'stream()//quote[name="IBM"]/price'
        events = StockTicker(n_updates=60, mutable_names=True,
                             name_update_fraction=0.4, seed=11).events()
        engine = XFlux(query, mutable_source=True)
        expected = engine.run(events).text()
        half = len(events) // 2
        first = engine.start()
        first.feed_all(events[:half])
        resumed = engine.start().restore(first.checkpoint())
        resumed.feed_all(events[half:])
        assert resumed.finish().text() == expected

    def test_sanitize_and_metrics_survive(self, workloads):
        query = PAPER_QUERIES["Q1"]
        events = _events_for(workloads, query)
        expected = XFlux(query).run(events).text()
        half = len(events) // 2
        run = XFlux(query).start(sanitize=True, metrics=True)
        run.feed_all(events[:half])
        resumed = XFlux(query).start(sanitize=True, metrics=True)
        resumed.restore(run.checkpoint())
        resumed.feed_all(events[half:])
        assert resumed.finish().text() == expected
        assert resumed.metrics() is not None

    def test_restored_run_takes_the_checkpointed_recorder(self, workloads):
        # The run is adopted whole, observers included: a receiver
        # started without a recorder reports the checkpointed run's,
        # which has counted the whole stream, not just the tail.
        query = PAPER_QUERIES["Q1"]
        events = _events_for(workloads, query)
        half = len(events) // 2
        run = XFlux(query).start(metrics=True)
        run.feed_all(events[:half])
        resumed = XFlux(query).start(metrics=False)
        assert resumed.metrics() is None
        resumed.restore(run.checkpoint())
        resumed.feed_all(events[half:])
        resumed.finish()
        assert resumed.metrics()["source_events"] == len(events)
        assert resumed.display is resumed.pipeline.sink

    def test_round_trip_while_an_item_root_is_held(self, workloads):
        # Q4's join holds each candidate's root until a match or its
        # end; its predicate holds each item's until location decides.
        query = PAPER_QUERIES["Q4"]
        events = _events_for(workloads, query)
        whole = XFlux(query).run(events)
        expected = whole.text()
        run = XFlux(query).start()
        cut = 0
        for cut, event in enumerate(events, 1):
            run.feed(event)
            if cut > len(events) // 2 and len(held_roots(run)) == 2:
                break
        assert len(held_roots(run)) == 2
        resumed = XFlux(query).start().restore(run.checkpoint())
        assert held_roots(resumed) == held_roots(run)
        resumed.feed_all(events[cut:])
        assert resumed.finish().text() == expected
        # The plan's stages are the restored transformers, so the gate
        # counters cover the whole stream.
        assert [k.get("gate") for k in resumed.stats()["per_stage"]] == \
            [k.get("gate") for k in whole.stats()["per_stage"]]

    def test_wrong_query_rejected(self, workloads):
        events = _events_for(workloads, PAPER_QUERIES["Q1"])
        run = XFlux(PAPER_QUERIES["Q1"]).start()
        run.feed_all(events[:100])
        blob = run.checkpoint()
        other = XFlux(PAPER_QUERIES["Q5"]).start()
        with pytest.raises(CheckpointError):
            other.restore(blob)


class TestRegionRecordsRoundTrip:
    """A wrapper's region records through ``pickle`` — what every
    checkpoint does to the pipeline it snapshots — cut where every kind
    of field is in use: a bracket still open inside a nested region, a
    hidden region (shadow), the order mirror (built by the sA), a loaded
    region."""

    HEAD = ('sS(0) sM(0,1) sE(1,"a") sM(1,2) sE(2,"b") eE(2,"b") eM(1,2) '
            'sA(2,3) sE(3,"c") eE(3,"c") eA(2,3) hide(3) '
            'sR(2,4) sE(4,"d") ')
    TAIL = ('eE(4,"d") sE(4,"e") eE(4,"e") eR(2,4) show(3) eE(1,"a") '
            'eM(0,1) freeze(2) eS(0)')

    @staticmethod
    def pipeline(ctx):
        from repro.core import Collector, Pipeline
        from repro.operators import ChildStep, CountItems
        mid, out_id = ctx.ids.reserve(800), ctx.ids.reserve(900)
        return Pipeline(ctx, [ChildStep(ctx, 0, mid, "a"),
                              CountItems(ctx, mid, out_id)], Collector())

    @staticmethod
    def plain(rec):
        """A record with its links spelled as ids."""
        fields = dict(zip(type(rec).__slots__, rec.__getstate__()))
        fields["parent"] = rec.parent and rec.parent.id
        fields["children"] = rec.children and {k.id for k in rec.children}
        fields["order"] = repr(rec.order)
        return fields

    def test_records_links_and_identities_survive(self):
        from repro.core import Context
        from repro.events import loads
        from tests.helpers import assert_nesting_tree_consistent
        primary = self.pipeline(Context())
        primary.feed_batch(loads(self.HEAD))
        resumed = pickle.loads(pickle.dumps(primary))
        for before, after in zip(primary.wrappers, resumed.wrappers):
            assert set(after.tracked) == set(before.tracked)
            for uid, rec in before.tracked.items():
                assert self.plain(after.tracked[uid]) == self.plain(rec)
            assert all(after.tracked[i] is after._live
                       for i in after.input_ids)
            assert after._loaded is (after._live
                                     if before._loaded is before._live
                                     else after.region(before._loaded.id))
            assert [repr(o) for o in after._mirror or ()] == \
                [repr(o) for o in before._mirror or ()]
            assert_nesting_tree_consistent(after)
        first = primary.wrappers[0]
        assert first.region(4).open and first.region(4).parent.id == 2
        assert first.region(3).shadow is not None and first._mirror
        primary.run(loads(self.TAIL))
        resumed.run(loads(self.TAIL))
        assert [e.key() for e in resumed.sink.events] == \
            [e.key() for e in primary.sink.events]
        assert resumed.state_cells() == primary.state_cells()


class TestMultiQueryRunRoundTrip:
    def test_executor_round_trip_with_dedup(self, workloads):
        names = ["Q1", "Q2", "Q5"]
        queries = [PAPER_QUERIES[n] for n in names]
        queries.append(PAPER_QUERIES["Q1"])       # deduped duplicate
        mq_ref = MultiQueryRun(queries)
        mq_ref.run_xml(workloads.text("X"))
        from repro.xmlio.tokenizer import tokenize
        mq = MultiQueryRun(queries)
        events = list(tokenize(workloads.text("X"),
                               stream_id=mq.source_id,
                               emit_oids=mq.needs_oids))
        half = len(events) // 2
        mq.feed_all(events[:half])
        restored = MultiQueryRun.restore(mq.checkpoint(),
                                         queries=queries)
        restored.feed_all(events[half:])
        restored.finish()
        assert restored.texts() == mq_ref.texts()
        # Dedup aliasing survives the pickle: the duplicate query is
        # still served by the very same pipeline object.
        assert restored.query_run(3) is restored.query_run(0)

    def test_validating_executor_round_trip_with_an_element_open(self):
        # The shared input checker is executor state like any other: a
        # restore in the middle of <b> still knows <b> and <r> are open.
        from repro.events import EE, Event, ProtocolViolation
        from repro.xmlio.tokenizer import tokenize
        queries = ["count(X//a)", "X//b/a"]
        events = tokenize("<r><a>x</a><b><a>y</a></b></r>")
        expected = MultiQueryRun(queries).run(events).texts()
        cut = [e.tag for e in events].index("b") + 1
        mq = MultiQueryRun(queries, validate=True)
        mq.feed_all(events[:cut])
        blob = mq.checkpoint()

        broken = MultiQueryRun.restore(blob, queries=queries)
        with pytest.raises(ProtocolViolation) as info:
            broken.feed_all([Event(EE, mq.source_id, tag="r")])
        assert info.value.rule == "element-nesting"
        assert info.value.index == cut

        clean = MultiQueryRun.restore(blob, queries=queries)
        clean.feed_all(events[cut:])
        assert clean.finish().texts() == expected
        assert clean.stats()["validated_events"] == len(events)

    def test_query_guard(self, workloads):
        mq = MultiQueryRun([PAPER_QUERIES["Q1"]])
        blob = mq.checkpoint()
        with pytest.raises(CheckpointError):
            MultiQueryRun.restore(blob, queries=[PAPER_QUERIES["Q2"]])
        assert MultiQueryRun.restore(blob) is not None

    @pytest.mark.skipif(os.environ.get("REPRO_SANITIZE") == "1",
                        reason="sharing disengages under the "
                               "sanitizer (transparency covered in "
                               "test_sharing.py)")
    @pytest.mark.parametrize("dataset", ["X", "D"])
    def test_shared_round_trip_at_every_boundary(self, workloads, dataset):
        """Prefix-sharing state survives the envelope.

        The shared prefix pipeline and its routing sink (open-bracket
        depth, adopted region routes, partially filled feeds) are
        mid-stream state; restoring at any frame boundary and replaying
        the rest must land on the unshared executor's bytes.
        """
        names = [n for n in PAPER_QUERIES
                 if QUERY_DATASET[n] == dataset]
        queries = [PAPER_QUERIES[n] for n in names]
        expected = MultiQueryRun(queries).run_xml(
            workloads.text(dataset)).texts()

        from repro.xmlio.tokenizer import tokenize
        probe = MultiQueryRun(queries, share_prefixes=True)
        assert probe.groups, "workload should form a shared group"
        events = list(tokenize(workloads.text(dataset),
                               stream_id=probe.source_id,
                               emit_oids=probe.needs_oids))
        primary = MultiQueryRun(queries, share_prefixes=True)
        cut = 0
        for boundary in _boundaries(len(events)):
            primary.feed_all(events[cut:boundary])
            cut = boundary
            restored = MultiQueryRun.restore(primary.checkpoint(),
                                             queries=queries)
            assert restored.groups and restored.share_prefixes
            restored.feed_all(events[boundary:])
            restored.finish()
            assert restored.texts() == expected, \
                "{} diverged after restore at event {}".format(
                    dataset, boundary)
        # Checkpointing must be non-destructive for the primary too.
        primary.feed_all(events[cut:])
        assert primary.finish().texts() == expected


class TestEnvelope:
    def test_round_trip(self):
        blob = encode_checkpoint("queryrun", {"a": 1}, {"x": [1, 2]})
        schema, state = decode_checkpoint(blob, "queryrun")
        assert schema == {"a": 1} and state == {"x": [1, 2]}

    def test_bad_magic(self):
        blob = encode_checkpoint("queryrun", {}, {})
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(b"XXXX" + blob[4:], "queryrun")
        assert "magic" in str(info.value)

    def test_wrong_kind(self):
        blob = encode_checkpoint("queryrun", {}, {})
        with pytest.raises(CheckpointError):
            decode_checkpoint(blob, "multiquery")

    def test_unknown_version(self):
        blob = encode_checkpoint("queryrun", {}, {})
        bumped = blob[:4] + bytes([blob[4] + 1]) + blob[5:]
        with pytest.raises(CheckpointError):
            decode_checkpoint(bumped, "queryrun")

    def test_truncated_payload(self):
        blob = encode_checkpoint("queryrun", {}, {"k": "v"})
        with pytest.raises(CheckpointError):
            decode_checkpoint(blob[:8], "queryrun")

    def test_unpicklable_state(self):
        with pytest.raises(CheckpointError):
            encode_checkpoint("queryrun", {}, {"f": lambda: None})

    def test_in_process_snapshot_without_fork(self, monkeypatch):
        # Platforms without fork pickle in-process: same envelope, same
        # refusal of unpicklable state.
        monkeypatch.delattr(os, "fork")
        blob = encode_checkpoint("queryrun", {"a": 1}, {"x": [1, 2]})
        assert decode_checkpoint(blob, "queryrun") == ({"a": 1},
                                                      {"x": [1, 2]})
        with pytest.raises(CheckpointError):
            encode_checkpoint("queryrun", {}, {"f": lambda: None})


class TestEnvelopeDiagnostics:
    """Decode failures name the failing field and byte offset — a
    corrupted envelope points at the exact spot, not a generic error."""

    FIELDS = ("magic", "version", "payload", "kind", "schema")

    def test_bad_magic_reports_offset_zero(self):
        blob = encode_checkpoint("queryrun", {}, {})
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(b"YYYY" + blob[4:], "queryrun")
        assert info.value.field == "magic"
        assert info.value.offset == 0
        assert "[field=magic, byte offset 0]" in str(info.value)

    def test_short_magic_reports_blob_length(self):
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(b"XF", "queryrun")
        assert info.value.field == "magic"
        assert info.value.offset == 2

    def test_bad_version_reports_version_offset(self):
        blob = encode_checkpoint("queryrun", {}, {})
        bumped = blob[:4] + bytes([blob[4] + 7]) + blob[5:]
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(bumped, "queryrun")
        assert info.value.field == "version"
        assert info.value.offset == 4

    def test_previous_version_is_refused(self):
        # A version-6 blob of a fused run pickled its partition, an
        # instance of a class in ``repro.compile.fusion``; the module
        # is gone, and the refusal must come from the version byte,
        # before pickle goes looking for it.  A version-7 shared group
        # has no prefix recorder and is refused the same way, as is a
        # version-8 blob, whose records and transformers hold tuples,
        # a version-9 one, whose predicate and join states cannot
        # hold an item's root, a version-10 one, whose executor
        # pickles a ``NestingGuard`` (that class is gone), and a
        # version-11 one, whose executor may pickle projection masks,
        # and a version-12 one, whose ``"queryrun"`` state is a dict.
        blob = encode_checkpoint("queryrun", {}, {})
        assert blob[4] == 13
        gone = b"\x80\x02crepro.compile.fusion\nPlan\n."
        with pytest.raises(ImportError):
            pickle.loads(gone)
        for old in (blob[:4] + b"\x05" + blob[5:], blob[:4] + b"\x06" + gone,
                    blob[:4] + b"\x07" + blob[5:],
                    blob[:4] + b"\x08" + blob[5:],
                    blob[:4] + b"\x09" + blob[5:],
                    blob[:4] + b"\x0a" + blob[5:],
                    blob[:4] + b"\x0b" + blob[5:],
                    blob[:4] + b"\x0c" + blob[5:]):
            with pytest.raises(CheckpointError) as info:
                decode_checkpoint(old, "queryrun")
            assert info.value.field == "version"

    def test_version_12_queryrun_is_refused_on_its_version_byte(self):
        # Version 12 wrapped a QueryRun's fields in a dict; restoring
        # one into this code must fail on the version byte, before the
        # dict could be adopted as a run.
        run = XFlux(PAPER_QUERIES["Q1"]).start()
        schema = run._schema()
        old = b"XFCK" + b"\x0c" + pickle.dumps(
            {"kind": "queryrun", "schema": schema,
             "state": {"pipeline": {}, "stripper": None}})
        with pytest.raises(CheckpointError) as info:
            XFlux(PAPER_QUERIES["Q1"]).start().restore(old)
        assert info.value.field == "version"
        assert info.value.offset == 4

    def test_corrupt_payload_reports_payload_offset(self):
        blob = encode_checkpoint("queryrun", {}, {"k": "v"})
        mangled = blob[:5] + b"\x00" + blob[6:]
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(mangled, "queryrun")
        assert info.value.field == "payload"
        assert info.value.offset == 5

    def test_kind_mismatch_reports_kind_field(self):
        blob = encode_checkpoint("queryrun", {}, {})
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint(blob, "multiquery")
        assert info.value.field == "kind"
        assert info.value.offset == 5

    def test_non_bytes_blob(self):
        with pytest.raises(CheckpointError) as info:
            decode_checkpoint("not bytes", "queryrun")
        assert info.value.field == "magic"
        assert info.value.offset == 0

    def test_truncation_at_every_byte_stays_diagnosable(self):
        # Exhaustive: chopping the envelope at ANY byte must produce a
        # CheckpointError (never a bare pickle/struct exception) whose
        # offset and field point inside the blob.
        blob = encode_checkpoint("queryrun", {"q": "Q1"},
                                 {"state": [1, 2, 3]})
        for cut in range(len(blob)):
            with pytest.raises(CheckpointError) as info:
                decode_checkpoint(blob[:cut], "queryrun")
            assert info.value.field in self.FIELDS, cut
            assert info.value.offset is not None, cut
            assert 0 <= info.value.offset <= cut, cut

    def test_random_corruption_stays_diagnosable(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        blob = encode_checkpoint("queryrun", {"q": "Q1"},
                                 {"state": list(range(16))})

        @settings(max_examples=80, deadline=None)
        @given(pos=st.integers(min_value=0, max_value=len(blob) - 1),
               flip=st.integers(min_value=1, max_value=255))
        def check(pos, flip):
            mangled = (blob[:pos] + bytes([blob[pos] ^ flip])
                       + blob[pos + 1:])
            try:
                schema, state = decode_checkpoint(mangled, "queryrun")
            except CheckpointError as exc:
                assert exc.field in self.FIELDS
            else:
                # A flip deep in the pickle stream can decode to
                # *different* values without tripping the format guard
                # — pickle has no integrity check; that is the WAL
                # CRC's job, not the envelope's.
                assert isinstance(schema, dict)

        check()
