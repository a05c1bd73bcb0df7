"""Tests for the schema layer and the static type & effect checker.

Covers the DTD parser round-trips (the ``examples/*.dtd`` fixtures are
the source of truth for the bundled generators), type inference over the
paper queries, static emptiness with byte-identical dead-stage
elimination, the update-effect lints, the multi-query short-circuit, and
the CLI surfaces.
"""

from __future__ import annotations

import json
from io import StringIO
from pathlib import Path

import pytest

from repro import XFlux
from repro.analysis import (ElementSchema, SchemaError, TypeCheckError,
                            infer_types, known_schema, optimize_plan,
                            verify_types_against_runtime)
from repro.analysis.projection import ProjectionMatcher, derive_projection
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.cli import main as cli_main
from repro.core.transformer import StructuralRelay
from repro.data import dblp, xmark
from repro.xquery.engine import MultiQueryRun, QueryRun

from tests.conftest import AUCTION_XML, BIB_XML

REPO_ROOT = Path(__file__).resolve().parents[1]
XMARK_DTD_PATH = REPO_ROOT / "examples" / "xmark.dtd"
DBLP_DTD_PATH = REPO_ROOT / "examples" / "dblp.dtd"

#: Adversarial never-match queries with the schema that refutes them.
EMPTY_QUERIES = [
    ("X//nosuchtag/quantity", "xmark", AUCTION_XML),
    ("X/regions/europe/itm", "xmark", AUCTION_XML),
    ('X//item[nosuch="x"]/quantity', "xmark", AUCTION_XML),
    ("X//quantity//item", "xmark", AUCTION_XML),
    ("D//article/booktitle", "dblp", BIB_XML),
]


def _schema_for(name: str) -> str:
    return "dblp" if QUERY_DATASET[name] == "D" else "xmark"


def _doc_for(name: str) -> str:
    return BIB_XML if QUERY_DATASET[name] == "D" else AUCTION_XML


class TestDTDParser:
    def test_fixture_files_match_module_schemas(self):
        """S1: the examples/*.dtd fixtures parse to the exact schemas
        the data modules expose (the modules embed the same DTD)."""
        for path, module in ((XMARK_DTD_PATH, xmark),
                             (DBLP_DTD_PATH, dblp)):
            parsed = ElementSchema.from_dtd(path)
            built_in = module.document_schema()
            assert parsed.children_map() == built_in.children_map()
            assert parsed.root == built_in.root
            assert parsed.closed and built_in.closed
            assert parsed.tags == built_in.tags
            for parent in parsed.tags:
                assert (parsed.repeatable_under(parent)
                        == built_in.repeatable_under(parent))
                assert (parsed.allows_text(parent)
                        == built_in.allows_text(parent))

    def test_element_children_round_trip(self):
        """The legacy hand-coded maps are now DTD-derived."""
        kids = xmark.element_children()
        assert kids["site"] == ("regions",)
        assert "item" in kids["europe"]
        assert dblp.element_children()["dblp"] == ("article",
                                                   "inproceedings")

    def test_inline_text_and_empty_model(self):
        schema = ElementSchema.from_dtd(
            "<!ELEMENT r (a, b*)> <!ELEMENT a (#PCDATA)> "
            "<!ELEMENT b EMPTY>")
        assert schema.root == "r"
        assert schema.closed
        assert schema.children("r") == frozenset({"a", "b"})
        assert schema.is_repeatable("r", "b")
        assert not schema.is_repeatable("r", "a")
        assert schema.allows_text("a")
        assert not schema.allows_text("b")

    def test_attlist_and_comments_skipped(self):
        schema = ElementSchema.from_dtd(
            "<!-- doc --> <!ELEMENT r (a)> "
            "<!ATTLIST r id CDATA #IMPLIED> <!ELEMENT a (#PCDATA)>")
        assert schema.children("r") == frozenset({"a"})

    def test_any_model_rejected(self):
        with pytest.raises(SchemaError):
            ElementSchema.from_dtd("<!ELEMENT r ANY>")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(SchemaError):
            ElementSchema.from_dtd("<!ELEMENT r (a)> <!ELEMENT r (b)>")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SchemaError):
            ElementSchema.from_dtd("<!ELEMENT r (a)> wat")

    def test_missing_file_rejected(self):
        with pytest.raises(SchemaError):
            ElementSchema.from_dtd("/no/such/place.dtd")

    def test_repeatable_and_rigid_regions(self):
        schema = known_schema("xmark")
        # Each region holds item* — the schema's mutable region.
        assert schema.is_repeatable("europe", "item")
        assert "item" in schema.repeatable_under("europe")
        # regions' children have fixed cardinality: rigid positions.
        assert schema.rigid_parents("europe") == frozenset({"regions"})
        assert "europe" in schema.rigid_under("regions")
        # dblp's top level is (inproceedings|article)*: no rigidity.
        assert not known_schema("dblp").rigid_parents("inproceedings")

    def test_descendant_closure(self):
        schema = known_schema("xmark")
        assert "quantity" in schema.descendants("site")
        assert "parlist" in schema.descendants("item")
        # Recursive content models close properly.
        assert "parlist" in schema.descendants("parlist")
        assert schema.descendants("quantity") == frozenset()


class TestKnownSchema:
    def test_names_paths_and_passthrough(self):
        assert known_schema(None) is None
        assert known_schema("xmark").root == "site"
        assert known_schema("dblp").root == "dblp"
        by_path = known_schema(str(XMARK_DTD_PATH))
        assert by_path.closed and by_path.root == "site"
        schema = ElementSchema({"r": ("a",)})
        assert known_schema(schema) is schema

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            known_schema("no-such-schema")


class TestInference:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_queries_infer_clean(self, name):
        plan = XFlux(PAPER_QUERIES[name]).compile()
        report = infer_types(plan, schema=_schema_for(name))
        assert not report.statically_empty
        assert not report.dead_stages
        assert len(report.stages) == len(plan.stages)
        errors = [lint for lint in report.effect_lints
                  if lint["severity"] == "error"]
        assert errors == [], errors

    def test_specific_result_types(self):
        plan = XFlux(PAPER_QUERIES["Q1"]).compile()
        report = infer_types(plan, schema="xmark")
        assert report.source_type.describe() == "(site)*"
        assert report.result_type.describe() == "(quantity)*"

    def test_without_schema_everything_unknown(self):
        plan = XFlux("X//europe//item/quantity").compile()
        report = infer_types(plan)
        assert report.source_type.top
        assert not report.statically_empty

    def test_mutable_source_refused(self):
        plan = XFlux("stream()//a/b", mutable_source=True).compile()
        with pytest.raises(TypeCheckError):
            infer_types(plan, schema="xmark")

    def test_report_serializes(self):
        plan = XFlux(PAPER_QUERIES["Q1"]).compile()
        report = infer_types(plan, schema="xmark")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == "xmark"
        assert payload["statically_empty"] is False
        assert payload["stages"][0]["output"]["labels"] == ["europe"]
        assert "type report" in report.render()


class TestEmptiness:
    @pytest.mark.parametrize("query,schema,doc", EMPTY_QUERIES)
    def test_proven_empty_with_proofs(self, query, schema, doc):
        plan = XFlux(query).compile()
        report = infer_types(plan, schema=schema)
        assert report.statically_empty
        assert report.proofs  # a human-readable reason exists

    @pytest.mark.parametrize("query,schema,doc", EMPTY_QUERIES)
    def test_optimized_byte_identical(self, query, schema, doc):
        raw = XFlux(query).run_xml(doc).text()
        opt_engine = XFlux(query, schema=schema)
        assert raw == opt_engine.run_xml(doc).text() == ""
        # The whole chain collapsed to one structural relay.
        plan = opt_engine.compile()
        assert len(plan.stages) == 1
        assert isinstance(plan.stages[0], StructuralRelay)

    def test_empty_queries_on_generated_datasets(self):
        docs = {"xmark": xmark.XMarkGenerator(scale=0.01).text(),
                "dblp": dblp.DBLPGenerator(scale=0.01).text()}
        for query, schema, _ in EMPTY_QUERIES:
            doc = docs[schema]
            assert (XFlux(query, schema=schema).run_xml(doc).text()
                    == XFlux(query).run_xml(doc).text())

    def test_dead_stage_inside_live_plan(self):
        """count() of a provably-empty path is '0', not empty — only
        the dead step is relayed, the aggregate survives."""
        query = "count(X//nosuchtag)"
        report = infer_types(XFlux(query).compile(), schema="xmark")
        assert not report.statically_empty
        assert report.dead_stages == [0]
        engine = XFlux(query, schema="xmark")
        plan = engine.compile()
        assert isinstance(plan.stages[0], StructuralRelay)
        assert engine.run_xml(AUCTION_XML).text() == "0"
        assert XFlux(query).run_xml(AUCTION_XML).text() == "0"

    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_emptiness_never_contradicts_runtime_paper(self, name):
        plan = XFlux(PAPER_QUERIES[name]).compile()
        report = infer_types(plan, schema=_schema_for(name))
        run = QueryRun(plan, metrics=True)
        from repro.xmlio.tokenizer import tokenize
        run.feed_all(tokenize(_doc_for(name),
                              emit_oids=plan.needs_oids))
        run.finish()
        assert verify_types_against_runtime(report, run.recorder) == []

    @pytest.mark.parametrize("query,schema,doc", EMPTY_QUERIES)
    def test_emptiness_never_contradicts_runtime_empty(self, query,
                                                       schema, doc):
        plan = XFlux(query).compile()
        report = infer_types(plan, schema=schema)
        run = QueryRun(plan, metrics=True)
        from repro.xmlio.tokenizer import tokenize
        run.feed_all(tokenize(doc, emit_oids=plan.needs_oids))
        run.finish()
        assert verify_types_against_runtime(report, run.recorder) == []


class TestOptimizePlan:
    def test_nothing_provable_returns_same_plan(self):
        plan = XFlux(PAPER_QUERIES["Q1"]).compile()
        assert optimize_plan(plan, schema="xmark") is plan

    def test_mutable_source_untouched(self):
        plan = XFlux("stream()//a/b", mutable_source=True).compile()
        assert optimize_plan(plan, schema="xmark") is plan

    def test_relay_chain_merges(self):
        plan = optimize_plan(XFlux("X//nosuchtag/quantity").compile(),
                             schema="xmark")
        assert [type(s).__name__ for s in plan.stages] \
            == ["StructuralRelay"]

    def test_dtd_path_as_schema(self):
        engine = XFlux("X//nosuchtag/quantity",
                       schema=str(XMARK_DTD_PATH))
        assert len(engine.compile().stages) == 1
        assert engine.run_xml(AUCTION_XML).text() == ""

    def test_compile_escape_hatch(self):
        engine = XFlux("X//nosuchtag/quantity", schema="xmark")
        assert len(engine.compile(optimize=False).stages) == 2


class TestEffectChecks:
    def test_rigid_insert_note_on_fixed_position(self):
        """Q1 navigates into europe — fixed under regions, so a
        document insert at that anchor would break the schema."""
        report = infer_types(XFlux(PAPER_QUERIES["Q1"]).compile(),
                             schema="xmark")
        notes = [lint for lint in report.effect_lints
                 if lint["severity"] == "note"]
        assert any("rigid content-model position" in n["message"]
                   for n in notes)

    def test_no_rigid_note_in_repeatable_region(self):
        """Q8 anchors at inproceedings — repeatable under dblp, a
        legitimate mutable region."""
        report = infer_types(XFlux(PAPER_QUERIES["Q8"]).compile(),
                             schema="dblp")
        assert report.effect_lints == []

    def test_malformed_specs_flagged_as_errors(self):
        plan = XFlux("X/a").compile()
        stage = plan.stages[0]
        watermark = plan.first_runtime_id

        def bogus_facts():
            return {"brackets": (
                {"kind": "sZ", "target": 0, "sub": "dynamic",
                 "freeze": "never", "per": "item"},
                {"kind": "sM", "target": watermark + 7, "sub": "oops",
                 "freeze": "sometimes", "per": "widget"},
                {"kind": "sA", "target": "dynamic", "sub": "dynamic",
                 "freeze": "never", "per": "tuple", "parent": 9},
            )}

        stage.static_facts = bogus_facts
        report = infer_types(plan, schema=None)
        messages = [lint["message"] for lint in report.effect_lints
                    if lint["severity"] == "error"]
        assert any("unknown bracket kind" in m for m in messages)
        assert any("not a compile-time id" in m for m in messages)
        assert any("invalid freeze mode" in m for m in messages)
        assert any("invalid cardinality" in m for m in messages)
        assert any("stream number or 'dynamic'" in m for m in messages)
        assert any("parent must reference" in m for m in messages)

    def test_dead_effect_note_on_empty_stream(self):
        plan = XFlux("X//nosuchtag/quantity").compile()
        dead_stream = plan.stages[0].output_id
        stage = plan.stages[1]

        def facts_with_dead_target():
            return {"brackets": (
                {"kind": "sM", "target": dead_stream, "sub": "dynamic",
                 "freeze": "never", "per": "item"},
            )}

        stage.static_facts = facts_with_dead_target
        report = infer_types(plan, schema="xmark")
        assert any("can never fire" in lint["message"]
                   for lint in report.effect_lints)


class TestMultiQueryTypecheck:
    QUERIES = ["X//europe//item/quantity", "X//nosuchtag/quantity",
               "count(X//item)", "X/regions/europe/itm"]

    def test_statuses_and_byte_identity(self):
        mq = MultiQueryRun(self.QUERIES, schema="xmark", typecheck=True)
        mq.run_xml(AUCTION_XML)
        base = MultiQueryRun(self.QUERIES)
        base.run_xml(AUCTION_XML)
        assert mq.statuses() == ["ok", "empty", "ok", "empty"]
        assert mq.texts() == base.texts()

    def test_empty_members_never_fed(self):
        mq = MultiQueryRun(self.QUERIES, schema="xmark", typecheck=True)
        mq.run_xml(AUCTION_XML)
        for i, status in enumerate(mq.statuses()):
            calls = mq.query_run(i).stats()["transformer_calls"]
            if status == "empty":
                assert calls == 0
            else:
                assert calls > 0
        stats = mq.stats()
        assert stats["static_empty"] == 2
        assert stats["fanout"]["static_empty_pipelines"] == 2
        assert [e["status"] for e in stats["per_query"]] \
            == mq.statuses()

    def test_typecheck_with_projection(self):
        mq = MultiQueryRun(self.QUERIES, schema="xmark", typecheck=True,
                           projection=True)
        mq.run_xml(AUCTION_XML)
        base = MultiQueryRun(self.QUERIES)
        base.run_xml(AUCTION_XML)
        assert mq.texts() == base.texts()

    def test_mutable_member_runs_normally(self):
        engines = [XFlux("X//europe//item/quantity"),
                   XFlux("X//nosuchtag/quantity"),
                   XFlux("X//item/quantity", mutable_source=True)]
        mq = MultiQueryRun(engines, schema="xmark", typecheck=True)
        mq.run_xml(AUCTION_XML)
        assert mq.statuses() == ["ok", "empty", "ok"]
        assert mq.texts()[2]  # the mutable query still produced output

    def test_type_reports_exposed(self):
        mq = MultiQueryRun(self.QUERIES, schema="xmark", typecheck=True)
        assert mq.type_reports[1].statically_empty
        assert not mq.type_reports[0].statically_empty


class TestTypedProjectionClosure:
    def test_descendant_query_prunable_from_dtd(self):
        """A descendant-led query is prunable purely from a parsed DTD
        (no hand-coded map involved)."""
        plan = XFlux(PAPER_QUERIES["Q1"]).compile()
        proj = derive_projection(plan)
        assert not ProjectionMatcher(proj).prunable
        assert ProjectionMatcher(
            proj, schema=str(XMARK_DTD_PATH)).prunable


class TestCLI:
    def _run(self, argv):
        out, err = StringIO(), StringIO()
        rc = cli_main(argv, out=out, err=err)
        return rc, out.getvalue(), err.getvalue()

    def test_types_text_mode(self):
        rc, out, _ = self._run(["analyze", "Q1", "--types",
                                "--schema", "xmark"])
        assert rc == 0
        assert "type report (schema: xmark)" in out
        assert "(quantity)*" in out
        assert "statically empty: no" in out

    def test_types_with_dtd_path(self):
        rc, out, _ = self._run(["analyze", "Q1", "--types",
                                "--schema", str(XMARK_DTD_PATH)])
        assert rc == 0
        assert "(quantity)*" in out

    def test_json_always_has_types_and_sharing_on_request(self):
        rc, out, _ = self._run(["analyze", "Q3", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert "fusion" not in payload and "sharing" not in payload
        assert payload["types"]["statically_empty"] is False
        rc, out, _ = self._run(["analyze", "Q3", "--json", "--sharing"])
        assert rc == 0
        trie = json.loads(out)["sharing"]
        rc, out, _ = self._run(["analyze", "--json", "--sharing"])
        assert rc == 0 and json.loads(out) == {"sharing": trie}
        assert trie["queries"] == 9 and trie["shared"] >= 7

    def test_json_empty_query(self):
        rc, out, _ = self._run(["analyze", "X//nosuchtag/quantity",
                                "--json", "--schema", "xmark"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["types"]["statically_empty"] is True
        assert payload["types"]["proofs"]

    def test_runtime_cross_check(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text(AUCTION_XML)
        rc, out, _ = self._run(["analyze", "Q1", "--types",
                                "--schema", "xmark",
                                "--input", str(doc)])
        assert rc == 0
        assert "runtime events agree with the inferred types." in out

    def test_unknown_query_name_fails(self):
        for argv in (["analyze", "Q12", "--types"],
                     ["stats", "Q99"]):
            rc, _, err = self._run(argv)
            assert rc == 2
            assert "unknown paper query name" in err

    def test_missing_dtd_fails(self):
        rc, _, err = self._run(["analyze", "Q1", "--types",
                                "--schema", "/no/such/file.dtd"])
        assert rc == 2
        assert "cannot read DTD" in err

    def test_malformed_dtd_fails(self, tmp_path):
        bad = tmp_path / "bad.dtd"
        bad.write_text("<!ELEMENT broken")
        rc, _, err = self._run(["analyze", "Q1", "--types",
                                "--schema", str(bad)])
        assert rc == 2
        assert "error" in err

    def test_types_on_mutable_source_fails(self):
        rc, _, err = self._run(["analyze", "stream()//quote/price",
                                "--mutable-source", "--types"])
        assert rc == 2
        assert "unsound for mutable update sources" in err

    def test_json_mutable_source_records_skip(self):
        rc, out, _ = self._run(["analyze", "stream()//quote/price",
                                "--mutable-source", "--json"])
        assert rc == 0
        payload = json.loads(out)
        assert "skipped" in payload["types"]
