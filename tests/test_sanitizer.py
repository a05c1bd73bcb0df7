"""Stream-protocol sanitizer: boundary checking on real and broken streams.

Three parts: (a) the full paper-query suite and the update-stream e2e
paths run clean with checkers interposed at every stage boundary and
produce byte-identical results; (b) each protocol rule fires on a
minimal hand-built violation, with the structured error naming the rule;
(c) those rules are exactly the producer contract DESIGN.md lists.
"""

import inspect
import pathlib
import re

import pytest

from repro import tokenize
from repro.bench.harness import PAPER_QUERIES, QUERY_DATASET
from repro.data import DBLPGenerator, XMarkGenerator
from repro.data.stock import StockTicker
from repro.events import BoundaryChecker, check_stream
from repro.events.errors import ProtocolViolation
from repro.events.model import (CD, EE, ES, ET, SE, SS, ST, Event,
                                end_mutable, freeze, hide, show,
                                start_mutable)
from repro.xquery.engine import MultiQueryRun, QueryRun, XFlux


@pytest.fixture(scope="module")
def xmark_text():
    return XMarkGenerator(scale=0.03, seed=13,
                          albania_fraction=0.2).text()


@pytest.fixture(scope="module")
def dblp_text():
    return DBLPGenerator(scale=0.02, seed=13, smith_fraction=0.15).text()


class TestSanitizedRuns:
    @pytest.mark.parametrize("name", sorted(PAPER_QUERIES))
    def test_paper_query_clean_and_identical(self, name, xmark_text,
                                             dblp_text):
        text = (dblp_text if QUERY_DATASET[name] == "D" else xmark_text)
        query = PAPER_QUERIES[name]
        plain = XFlux(query).run_xml(text).text()
        sanitized = XFlux(query).run_xml(text, sanitize=True).text()
        assert sanitized == plain

    @pytest.mark.parametrize("seed", [1, 5, 7])
    def test_update_stream_clean(self, seed):
        events = StockTicker(n_updates=30, mutable_names=True,
                             name_update_fraction=0.4,
                             seed=seed).events()
        query = 'stream()//quote[name="IBM"]/price'
        engine = XFlux(query, mutable_source=True)
        plain = engine.run(events).text()
        run = engine.start(sanitize=True)
        run.feed_all(events)
        run.finish()
        assert run.text() == plain

    def test_multiquery_sanitized(self, xmark_text):
        mq = MultiQueryRun(["X//item/quantity", "count(X//item)"],
                           sanitize=True)
        mq.run_xml(xmark_text)
        ref = MultiQueryRun(["X//item/quantity", "count(X//item)"])
        ref.run_xml(xmark_text)
        assert mq.texts() == ref.texts()

    def test_env_variable_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        run = XFlux("X//a").run_xml("<X><a>1</a></X>")
        assert run.pipeline._checkers is not None
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        run = XFlux("X//a").run_xml("<X><a>1</a></X>")
        assert run.pipeline._checkers is None

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        run = XFlux("X//a").run_xml("<X><a>1</a></X>", sanitize=False)
        assert run.pipeline._checkers is None

    def test_violation_names_boundary(self):
        plan = XFlux("X//a").compile()
        run = QueryRun(plan, sanitize=True)
        with pytest.raises(ProtocolViolation) as info:
            # eS for a stream that was never opened.
            run.feed(Event(ES, plan.source_id))
        assert "source ->" in str(info.value)
        assert info.value.stage.startswith("source ->")
        # Structured stage identity: index 0 is source -> stage 0, and
        # the message reprints both the boundary and the event.
        assert info.value.stage_index == 0
        assert "boundary=0" in str(info.value)
        assert "event=" in str(info.value)

    def test_boundary_labels_use_stage_identities(self):
        from repro.analysis import boundary_checkers
        from repro.obs import stage_identities
        plan = XFlux('X//item[location="x"]/name').compile()
        checkers = boundary_checkers(plan.stages, sink=object())
        labels = [ident.label for ident in
                  stage_identities(plan.stages)]
        assert len(checkers) == len(plan.stages) + 1
        for i, checker in enumerate(checkers):
            assert checker.stage_index == i
            if i < len(labels):
                assert checker.label.endswith(labels[i])
            if i > 0:
                assert checker.label.startswith(labels[i - 1])


def _violation(events, rule):
    with pytest.raises(ProtocolViolation) as info:
        check_stream(events)
    assert info.value.rule == rule
    return info.value



class TestProtocolRules:
    def test_clean_minimal_stream(self):
        checker = check_stream(tokenize("<a><b>x</b></a>"))
        assert checker.count > 0

    def test_stream_opened_twice(self):
        _violation([Event(SS, 0), Event(SS, 0)], "stream-discipline")

    def test_stream_reopened_after_close(self):
        _violation([Event(SS, 0), Event(ES, 0), Event(SS, 0)],
                   "stream-discipline")

    def test_data_on_unknown_substream(self):
        _violation([Event(SS, 0), Event(CD, 7, text="x")],
                   "stream-discipline")

    def test_close_with_dangling_element(self):
        _violation([Event(SS, 0), Event(SE, 0, tag="a"), Event(ES, 0)],
                   "element-nesting")

    def test_tag_mismatch(self):
        _violation([Event(SS, 0), Event(SE, 0, tag="a"),
                    Event(EE, 0, tag="b")], "element-nesting")

    def test_dropped_end_element(self):
        _violation([Event(SS, 0), Event(SE, 0, tag="a"),
                    Event(SE, 0, tag="b"), Event(EE, 0, tag="b"),
                    Event(ES, 0)], "element-nesting")

    def test_end_tuple_without_start(self):
        _violation([Event(SS, 0), Event(ET, 0)], "tuple-nesting")

    def test_close_with_open_tuple(self):
        _violation([Event(SS, 0), Event(ST, 0), Event(ES, 0)],
                   "tuple-nesting")

    def test_oid_mismatch(self):
        _violation([Event(SS, 0), Event(SE, 0, tag="a", oid=5),
                    Event(EE, 0, tag="a", oid=6)], "oid-discipline")

    def test_unmatched_bracket_end(self):
        _violation([Event(SS, 0), end_mutable(0, 9)],
                   "bracket-discipline")

    def test_bracket_kind_mismatch(self):
        from repro.events.model import ER
        _violation([Event(SS, 0), start_mutable(0, 9),
                    Event(ER, 0, sub=9)], "bracket-discipline")

    def test_bracket_target_mismatch(self):
        _violation([Event(SS, 0), Event(SS, 1), start_mutable(0, 9),
                    end_mutable(1, 9)], "bracket-discipline")

    def test_bracket_sub_reused_while_open(self):
        _violation([Event(SS, 0), start_mutable(0, 9),
                    start_mutable(0, 9)], "bracket-discipline")

    def test_bracket_left_open(self):
        _violation([Event(SS, 0), start_mutable(0, 9), Event(ES, 0)],
                   "bracket-discipline")

    def test_unknown_target(self):
        _violation([Event(SS, 0), start_mutable(42, 9)],
                   "unknown-target")

    def test_data_into_frozen_region(self):
        _violation([Event(SS, 0), start_mutable(0, 9),
                    end_mutable(0, 9), freeze(9),
                    Event(CD, 9, text="x")], "frozen-region-data")

    def test_region_reuse_after_freeze(self):
        _violation([Event(SS, 0), start_mutable(0, 9),
                    end_mutable(0, 9), freeze(9),
                    start_mutable(0, 9)], "region-reuse-after-freeze")

    def test_hide_after_freeze(self):
        _violation([Event(SS, 0), start_mutable(0, 9),
                    end_mutable(0, 9), freeze(9), hide(9)],
                   "toggle-after-freeze")

    def test_show_after_freeze(self):
        _violation([Event(SS, 0), start_mutable(0, 9),
                    end_mutable(0, 9), freeze(9), show(9)],
                   "toggle-after-freeze")

    def test_freeze_while_bracket_open(self):
        _violation([Event(SS, 0), start_mutable(0, 9), freeze(9)],
                   "freeze-ordering")

    def test_void_update_on_frozen_target_is_legal(self):
        # Section V: updates targeting an already-frozen region are void
        # downstream but remain protocol-legal on the wire.
        check_stream([Event(SS, 0), start_mutable(0, 9),
                      end_mutable(0, 9), freeze(9),
                      start_mutable(9, 10), end_mutable(9, 10),
                      Event(ES, 0)])

    def test_double_freeze_is_idempotent(self):
        check_stream([Event(SS, 0), start_mutable(0, 9),
                      end_mutable(0, 9), freeze(9), freeze(9),
                      Event(ES, 0)])

    def test_non_lifo_bracket_close_is_legal(self):
        # Regions interleave by design (e.g. Concat's halves).
        check_stream([Event(SS, 0), start_mutable(0, 8),
                      start_mutable(0, 9), end_mutable(0, 8),
                      end_mutable(0, 9), Event(ES, 0)])

    def test_structured_fields(self):
        err = _violation([Event(SS, 0), Event(SS, 0)],
                         "stream-discipline")
        assert err.index == 1
        assert err.stream == 0
        assert err.event is not None and "sS" in err.event

    def test_finish_reports_unclosed_stream(self):
        checker = BoundaryChecker("test")
        checker.feed(Event(SS, 0))
        with pytest.raises(ProtocolViolation) as info:
            checker.finish()
        assert info.value.rule == "stream-discipline"


def contract_codes():
    """The rule codes of DESIGN.md's producer contract, in order."""
    design = pathlib.Path(__file__).resolve().parents[1] / "DESIGN.md"
    text = design.read_text().split("**The producer contract.**")[1]
    listing = text.split("\n\n")[1]   # after the lead paragraph
    return re.findall(r"^\* `([a-z-]+)` — ", listing, re.M)


class TestProducerContract:
    def test_contract_names_every_code_the_checker_raises(self):
        raised = re.findall(r'"([a-z]+(?:-[a-z]+)+)",\s*(?:e|None)\b',
                            inspect.getsource(BoundaryChecker))
        assert sorted(contract_codes()) == sorted(set(raised))

    def test_every_contract_code_is_raised_here(self, monkeypatch):
        # Run every rule case, recording the rule each one raised.
        raised = set()
        real = _violation

        def recording(events, rule):
            err = real(events, rule)
            raised.add(err.rule)
            return err
        monkeypatch.setitem(globals(), "_violation", recording)
        cases = TestProtocolRules()
        for name in dir(cases):
            if name.startswith("test_"):
                getattr(cases, name)()
        assert set(contract_codes()) <= raised
