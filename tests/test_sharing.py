"""Differential suite for multi-query prefix sharing (repro.compile).

The contract: *byte-identical* answers to the unshared pipelines, over
every paper query, with and without the protocol sanitizer, under
sharding, and over update-bearing streams.  Where sharing engages, the
total transformer-call count must *drop* (the shared prefix evaluates
once instead of once per member); where it is switched off, ``stats()``
says by what; where a fault strikes, quarantine must detach exactly the
right queries.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.compile import describe_sharing, sharing
from repro.data.stock import StockTicker
from repro.fault import arm_stage_fault
from repro.parallel import ShardedMultiQueryRun
from repro.xquery.engine import ENV_FLAGS, MultiQueryRun, XFlux

SCALE = 0.02

# Under an ambient sanitizer sharing disengages by design
# (BoundaryChecker interposition observes stage boundaries): the byte-
# identity halves of these tests still run, but assertions that the
# layer *engaged* cannot hold and are gated or skipped.
SANITIZED = os.environ.get("REPRO_SANITIZE") == "1"

FLAG_MATRIX = [False, True]
FLAG_IDS = ["plain", "share"]


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


@pytest.fixture(scope="module")
def reference(workloads):
    return {name: XFlux(query).run_xml(
                workloads.text(QUERY_DATASET[name])).text()
            for name, query in PAPER_QUERIES.items()}


def _dataset_queries(dataset):
    return [(n, PAPER_QUERIES[n]) for n in PAPER_QUERIES
            if QUERY_DATASET[n] == dataset]


def _run_matrix(workloads, dataset, share, **kwargs):
    named = _dataset_queries(dataset)
    mq = MultiQueryRun([q for _, q in named], share_prefixes=share,
                       **kwargs)
    mq.run_xml(workloads.text(dataset))
    return named, mq


class TestMultiQueryMatrix:
    @pytest.mark.parametrize("dataset", ["X", "D"])
    @pytest.mark.parametrize("share", FLAG_MATRIX, ids=FLAG_IDS)
    def test_byte_identical(self, workloads, reference, dataset, share):
        named, mq = _run_matrix(workloads, dataset, share)
        for (name, _), text in zip(named, mq.texts()):
            assert text == reference[name], name

    @pytest.mark.skipif(SANITIZED, reason="sharing disengages")
    @pytest.mark.parametrize("dataset", ["X", "D"])
    def test_sharing_reduces_transformer_calls(self, workloads, dataset):
        _, plain = _run_matrix(workloads, dataset, False)
        _, shared = _run_matrix(workloads, dataset, True)
        assert shared.groups, "expected a shared group on {}".format(
            dataset)
        # The aggregate includes the shared prefix's own calls; the
        # deduplicated leading steps must still win overall.
        assert shared.stats()["transformer_calls"] < \
            plain.stats()["transformer_calls"]

    @pytest.mark.skipif(SANITIZED, reason="sharing disengages")
    def test_expected_groups_form(self, workloads):
        _, mq = _run_matrix(workloads, "X", True)
        [group] = mq.groups
        slots = sorted(s for s in group.member_indices)
        names = [_dataset_queries("X")[s][0] for s in slots]
        assert names == ["Q2", "Q4", "Q5", "Q6", "Q7"]
        _, mq = _run_matrix(workloads, "D", True)
        [group] = mq.groups
        assert len(group.member_indices) == 2    # Q8 and Q9

    @pytest.mark.parametrize("share", FLAG_MATRIX, ids=FLAG_IDS)
    def test_sanitize_env_still_byte_identical(self, workloads,
                                               reference, monkeypatch,
                                               share):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        named, mq = _run_matrix(workloads, "X", share)
        # Sharing is defined over un-observed stage boundaries; under
        # the sanitizer it must disengage rather than misbehave.
        assert not mq.groups
        for (name, _), text in zip(named, mq.texts()):
            assert text == reference[name], name


def _sixteen_queries():
    """The e2e ``multi_query`` set: long common prefixes, cheap tails."""
    from repro.data.xmark import LOCATIONS, PAYMENTS, REGIONS
    return (['X//item[location="{}"]/quantity'.format(loc)
             for loc in LOCATIONS[:6]]
            + ['X//item[location="Albania"][payment="{}"]/location'
               .format(pay) for pay in PAYMENTS]
            + ['X//{}//item[location="Albania"]/quantity'.format(reg)
               for reg in REGIONS])


class TestChunkCuts:
    """The prefix runs a whole chunk ahead of its members, so a region
    opened in one chunk and retracted in the next is the case sharing
    must survive; the other tests' documents fit in one default chunk.
    """

    @pytest.mark.parametrize("chunk", [7, 512])
    @pytest.mark.parametrize("dataset", ["X", "D"])
    def test_byte_identical_across_chunk_cuts(self, workloads, reference,
                                              monkeypatch, dataset, chunk):
        monkeypatch.setattr(sharing, "CHUNK_EVENTS", chunk)
        named, mq = _run_matrix(workloads, dataset, True)
        assert SANITIZED or mq.groups
        for (name, _), text in zip(named, mq.texts()):
            assert text == reference[name], name

    @pytest.mark.parametrize("chunk", [None, 1000, 512, 7])
    def test_sixteen_queries_past_one_chunk(self, monkeypatch, chunk):
        # 5 587 events: the default 4096-event chunk cuts the document
        # once, which is all it took to retract the wrong region.
        from repro.data import XMarkGenerator
        from repro.xmlio.tokenizer import tokenize
        if chunk is not None:
            monkeypatch.setattr(sharing, "CHUNK_EVENTS", chunk)
        text = XMarkGenerator(scale=0.1, seed=42).text()
        assert len(tokenize(text)) > sharing.CHUNK_EVENTS
        queries = _sixteen_queries()
        plain = MultiQueryRun(queries, share_prefixes=False).run_xml(text)
        shared = MultiQueryRun(queries, share_prefixes=True).run_xml(text)
        assert SANITIZED or shared.groups
        wrong = [i for i, (a, b) in enumerate(zip(shared.texts(),
                                                  plain.texts())) if a != b]
        assert wrong == []


class TestSharded:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_shards_byte_identical(self, workloads, reference,
                                          workers):
        named = _dataset_queries("X")
        smq = ShardedMultiQueryRun([q for _, q in named],
                                   workers=workers, share_prefixes=True)
        smq.run_xml(workloads.text("X"))
        for (name, _), text in zip(named, smq.texts()):
            assert text == reference[name], name


class TestUpdateStreams:
    QUERIES = ['S//quote[name="IBM"]/price',
               'S//quote[name="IBM"]/name',
               'count(S//quote[name="IBM"])',
               'S//quote/price']

    @pytest.fixture(scope="class")
    def events(self):
        return StockTicker(n_updates=300, mutable_names=True,
                           name_update_fraction=0.3, seed=7).events()

    @pytest.fixture(scope="class")
    def ticker_reference(self, events):
        return [XFlux(q, mutable_source=True).run(events).text()
                for q in self.QUERIES]

    @pytest.mark.parametrize("share", FLAG_MATRIX, ids=FLAG_IDS)
    def test_matrix_byte_identical(self, events, ticker_reference, share):
        mq = MultiQueryRun(self.QUERIES, mutable_source=True,
                           share_prefixes=share)
        mq.run(events)
        if share and not SANITIZED:
            assert mq.groups     # the //quote chain is shared
        assert mq.texts() == ticker_reference


@pytest.mark.skipif(SANITIZED,
                    reason="quarantine scope is defined over an "
                           "engaged shared group")
class TestQuarantineIsolation:
    def _shared(self, workloads):
        named = _dataset_queries("X")
        mq = MultiQueryRun([q for _, q in named], share_prefixes=True)
        assert mq.groups
        return named, mq

    def test_member_fault_detaches_only_that_query(self, workloads,
                                                   reference):
        named, mq = self._shared(workloads)
        [group] = mq.groups
        victim_slot, victim_run = group.members[0]
        arm_stage_fault(victim_run, stage=0, at=5, query=victim_slot)
        mq.run_xml(workloads.text("X"))
        statuses = mq.statuses()
        assert statuses[victim_slot] == "quarantined"
        for slot, ((name, _), text) in enumerate(zip(named, mq.texts())):
            if slot == victim_slot:
                assert text is None
            else:
                assert statuses[slot] == "ok"
                assert text == reference[name], name
        assert victim_slot not in group.live

    def test_prefix_fault_detaches_exactly_the_members(self, workloads,
                                                       reference):
        named, mq = self._shared(workloads)
        [group] = mq.groups

        def explode(events):
            raise RuntimeError("injected prefix fault")
        group.pipeline.feed_batch = explode

        mq.run_xml(workloads.text("X"))
        statuses = mq.statuses()
        members = set(group.member_indices)
        for slot, ((name, _), text) in enumerate(zip(named, mq.texts())):
            if slot in members:
                assert statuses[slot] == "quarantined"
                assert text is None
            else:
                assert statuses[slot] == "ok"
                assert text == reference[name], name
        assert group.dead


class TestDisengagement:
    """Sharing that is switched off says so."""

    QUERIES = ["X//item/quantity", "X//item/location"]

    @pytest.fixture(autouse=True)
    def no_ambient_flags(self, monkeypatch):
        for name in ENV_FLAGS:
            monkeypatch.delenv("REPRO_" + name, raising=False)

    @pytest.mark.parametrize("flag", ["always_active", "sanitize"])
    def test_stats_name_the_flag_that_switched_it_off(self, workloads,
                                                      flag):
        mq = MultiQueryRun(self.QUERIES, **{flag: True})
        assert not mq.share_prefixes and not mq.groups
        assert mq.stats()["sharing"] == {
            "requested": True, "engaged": False, "disengaged_by": [flag]}
        text = workloads.text("X")
        assert mq.run_xml(text).texts() == MultiQueryRun(
            self.QUERIES, share_prefixes=False).run_xml(text).texts()

    def test_not_requested_has_no_key_and_engaged_keeps_its_keys(self):
        assert "sharing" not in MultiQueryRun(
            self.QUERIES, share_prefixes=False, metrics=True).stats()
        stats = MultiQueryRun(self.QUERIES).stats()["sharing"]  # default
        assert stats["requested"] is True and stats["engaged"] is True
        assert len(stats["groups"]) == 1 and stats["shared_queries"] == 2
        assert "disengaged_by" not in stats


@pytest.mark.skipif(SANITIZED, reason="sharing disengages")
class TestObservedSharing:
    """A recorder or a flight ring observes the shared executor — the
    one that runs unobserved — instead of switching sharing off."""

    @pytest.fixture(scope="class")
    def sixteen(self, workloads):
        text = workloads.text("X")
        queries = _sixteen_queries()
        return queries, text, [XFlux(q).run_xml(text).text()
                               for q in queries]

    @pytest.mark.parametrize("flag", ["metrics", "flight"])
    def test_observer_keeps_sharing_and_counts_the_prefix(self, sixteen,
                                                          flag):
        queries, text, expected = sixteen
        mq = MultiQueryRun(queries, **{flag: True}).run_xml(text)
        stats = mq.stats()
        assert mq.groups and stats["sharing"]["engaged"] is True
        assert mq.texts() == expected
        m = mq.metrics()
        members = sum(len(g.member_indices) for g in mq.groups)
        solos = len(mq.runs) - members
        assert m["pipelines"] == members + solos + len(mq.groups)
        # Every dispatch performed, prefix stages included, once.
        assert sum(sum(s["events_in"].values())
                   for s in m["stages"]) == stats["transformer_calls"]
        unshared = MultiQueryRun(queries, share_prefixes=False,
                                 **{flag: True}).run_xml(text)
        assert unshared.texts() == expected
        assert m["peak_cells_total"] <= \
            unshared.metrics()["peak_cells_total"]


class TestDescribeSharing:
    def test_paper_query_trie(self):
        report = describe_sharing(list(PAPER_QUERIES.items()))
        assert report["queries"] == len(PAPER_QUERIES)
        shared = {p["prefix"]: set(p["queries"])
                  for p in report["prefixes"] if p["shared"]}
        assert {"Q2", "Q4", "Q5", "Q6", "Q7"} <= \
            set().union(*shared.values())
        assert any(set(q) == {"Q8", "Q9"} for q in shared.values())


# -- property: a forced common prefix never changes answers ----------------

_SUFFIX_TAGS = ["quantity", "location", "payment", "description",
                "name", "nonexistent"]
_reference_cache = {}


def _cached_reference(query, text):
    if query not in _reference_cache:
        _reference_cache[query] = XFlux(query).run_xml(text).text()
    return _reference_cache[query]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suffixes=st.tuples(
    st.lists(st.sampled_from(_SUFFIX_TAGS), min_size=1, max_size=2),
    st.lists(st.sampled_from(_SUFFIX_TAGS), min_size=1, max_size=2)),
    predicate=st.booleans(),
    chunk=st.sampled_from([7, 512, sharing.CHUNK_EVENTS]))
def test_forced_common_prefix_is_transparent(workloads, suffixes,
                                             predicate, chunk):
    base = ('X//item[location="Albania"]' if predicate else "X//item")
    queries = [base + "/" + "/".join(suffix) for suffix in suffixes]
    text = workloads.text("X")
    expected = [_cached_reference(q, text) for q in queries]
    default, sharing.CHUNK_EVENTS = sharing.CHUNK_EVENTS, chunk
    try:
        mq = MultiQueryRun(queries, share_prefixes=True)
        mq.run_xml(text)
    finally:
        sharing.CHUNK_EVENTS = default
    assert mq.texts() == expected
    if queries[0] != queries[1] and not SANITIZED:
        # Distinct suffixes over one forced prefix must actually share.
        assert mq.groups
