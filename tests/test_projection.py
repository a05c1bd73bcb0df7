"""The ``projection`` keyword, accepted and ignored.

Stream projection (a tokenizer skip mode driven by each plan's path
set) was deleted because no workload showed a saving (DESIGN.md section
10).  ``benchmarks/e2e`` still passes ``projection=True, schema=...`` to
``XFlux.run_xml`` and ``MultiQueryRun`` and reads
``MultiQueryRun.projection_summary()``, and WAL manifests written
before the deletion carry the keyword, so the names stay: the answers
must be those of a plain run, on documents and on update streams, with
the protocol sanitizer interposed too, and every byte of the input is
validated whatever the keyword says.
"""

import pytest

from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET, Workloads
from repro.data.stock import StockTicker
from repro.xmlio import XMLSyntaxError
from repro.xquery.engine import MultiQueryRun, XFlux

SCALE = 0.02
DATASET_SCHEMA = {"X": "xmark", "D": "dblp"}

XMARK_NAMES = [n for n in PAPER_QUERIES if QUERY_DATASET[n] == "X"]
DBLP_NAMES = [n for n in PAPER_QUERIES if QUERY_DATASET[n] == "D"]

#: A bad entity in a subtree ``X/regions/europe/item/quantity`` never
#: reads: the deleted skip mode did not decode it and answered.
BOGUS_DOC = ("<site><regions><europe><item><quantity>1</quantity></item>"
             "</europe></regions>"
             "<people><person>&bogus;</person></people></site>")


@pytest.fixture(scope="module")
def workloads():
    return Workloads(xmark_scale=SCALE, dblp_scale=SCALE)


@pytest.fixture(scope="module")
def reference(workloads):
    """Answers of plain runs, one independent run per query."""
    return {name: XFlux(query).run_xml(
                workloads.text(QUERY_DATASET[name])).text()
            for name, query in PAPER_QUERIES.items()}


class TestSingleRunDifferential:
    @pytest.mark.parametrize("name", list(PAPER_QUERIES))
    def test_projection_on_equals_off(self, name, workloads, reference):
        dataset = QUERY_DATASET[name]
        run = XFlux(PAPER_QUERIES[name]).run_xml(
            workloads.text(dataset), projection=True,
            schema=DATASET_SCHEMA[dataset])
        assert run.text() == reference[name], name
        assert "projection" not in run.stats()

    def test_child_axis_from_root_not_pruned(self):
        # The first child step matches children of the root element,
        # whatever the root is called; skip mode once pruned the whole
        # document for a root not named like that step.
        doc = "<c><book><title>U</title></book><other><x/></other></c>"
        plain = XFlux("X/book/title").run_xml(doc)
        assert plain.text() == "<title>U</title>"
        projected = XFlux("X/book/title").run_xml(doc, projection=True)
        assert projected.text() == plain.text()

    def test_descendant_step_never_matches_root(self):
        # Descendant steps match strictly below the root element.
        assert XFlux("X//c").run_xml("<c><d>x</d></c>").text() == ""

    def test_sanitized_run_identical(self, workloads, reference,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        for name in ("Q1", "Q7", "Q8"):
            dataset = QUERY_DATASET[name]
            run = XFlux(PAPER_QUERIES[name]).run_xml(
                workloads.text(dataset), projection=True,
                schema=DATASET_SCHEMA[dataset])
            assert run.text() == reference[name], name


class TestMultiQueryDifferential:
    @pytest.mark.parametrize("dataset,names", [("X", XMARK_NAMES),
                                               ("D", DBLP_NAMES)])
    def test_multiplex_projection_identical(self, dataset, names,
                                            workloads, reference):
        for share in (False, None):
            mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                               projection=True, share_prefixes=share,
                               schema=DATASET_SCHEMA[dataset])
            mq.run_xml(workloads.text(dataset))
            assert mq.texts() == [reference[n] for n in names], share
            assert mq.projection_summary() is None
            assert "projection" not in mq.stats()

    def test_sanitized_multiplex_identical(self, workloads, reference,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        names = ["Q1", "Q2", "Q3"]
        mq = MultiQueryRun([PAPER_QUERIES[n] for n in names],
                           projection=True, schema="xmark")
        mq.run_xml(workloads.text("X"))
        assert mq.texts() == [reference[n] for n in names]


class TestUpdateStreams:
    QUERIES = ['stream()//quote[name="IBM"]/price',
               'count(stream()//quote[name="IBM"])']

    def test_multiplex_projection_is_a_noop(self):
        events = StockTicker(n_updates=40, mutable_names=True,
                             name_update_fraction=0.4, seed=7).events()
        plain = MultiQueryRun(self.QUERIES, mutable_source=True)
        plain.run(events)
        projected = MultiQueryRun(self.QUERIES, mutable_source=True,
                                  projection=True)
        projected.run(events)
        assert projected.texts() == plain.texts()
        assert projected.projection_summary() is None


class TestEveryByteValidated:
    QUERY = "X/regions/europe/item/quantity"

    @pytest.mark.parametrize("projection", [False, True])
    def test_single_run_rejects_a_bad_entity_it_never_reads(
            self, projection):
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            XFlux(self.QUERY).run_xml(BOGUS_DOC, projection=projection,
                                      schema="xmark")

    @pytest.mark.parametrize("projection", [False, True])
    def test_multiplex_rejects_a_bad_entity_it_never_reads(
            self, projection):
        mq = MultiQueryRun([self.QUERY, "count(X//item)"],
                           projection=projection, schema="xmark")
        with pytest.raises(XMLSyntaxError, match="unknown entity"):
            mq.run_xml(BOGUS_DOC)

    def test_the_document_without_it_answers(self):
        good = BOGUS_DOC.replace("&bogus;", "&amp;")
        assert XFlux(self.QUERY).run_xml(
            good, projection=True).text() == "<quantity>1</quantity>"
