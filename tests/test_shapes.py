"""Operator shapes and the analyses derived from them.

``tests/data/analysis_verdicts.json`` records, for a fixed query set,
every verdict the static analyses reach: the ``repro analyze --json
--types`` payload (fix map, lints, projection paths, ``//`` step reads,
inferred types and proofs), the per-stage ``reads`` of
``QueryRun.stats()``, and the stages ``optimize_plan`` leaves.  A change
to how operators are declared or how the analyses are driven must leave
all of it identical.  Regenerate the file only for a change that means
to move a verdict, and say which moved::

    PYTHONPATH=src python tests/test_shapes.py --write
"""

from __future__ import annotations

import json
import sys
from io import StringIO
from pathlib import Path

import pytest

import repro.core.transformer as transformer
import repro.operators as operators
from repro import XFlux
from repro.analysis import infer_types, optimize_plan
from repro.analysis.projection import (ROOT_ONLY, Reads, derive_projection,
                                       stage_reads)
from repro.bench.harness import PAPER_QUERIES
from repro.cli import main as cli_main
from repro.core import Context
from repro.core.transformer import (OPAQUE, Drop, Identity, Relabel, Shape,
                                    StateTransformer, StructuralRelay)
from repro.data.xmark import LOCATIONS, PAYMENTS, REGIONS
from repro.operators import (AncestorJoin, ChildStep, CompareLiteral,
                             Concat, ContainsLiteral, CountItems,
                             DescendantStep, ExistsFlag, ForTuples,
                             LiteralText, MinMaxAggregate,
                             NumericAggregate, Predicate, SelfStep,
                             SortTuples, StreamConstruct, StringValue, Tee,
                             TextStep, TupleConstruct, TupleStrip,
                             make_condition)
from repro.xquery.compiler import Plan

SNAPSHOT = Path(__file__).resolve().parent / "data" / "analysis_verdicts.json"

#: The sixteen standing queries of the ``multi_query`` workload.
MULTI_QUERIES = (
    ['X//item[location="{}"]/quantity'.format(loc) for loc in LOCATIONS[:6]]
    + ['X//item[location="Albania"][payment="{}"]/location'.format(pay)
       for pay in PAYMENTS]
    + ['X//{}//item[location="Albania"]/quantity'.format(reg)
       for reg in REGIONS])

#: The three standing displays of the ``ticker`` workload.
TICKER_QUERIES = ('stream()//quote[name="IBM"]/price',
                  'count(stream()//quote[name="IBM"])',
                  'stream()//quote/price')

#: Queries that reach the operators the paper queries do not, and plans
#: the schema proves (partly) empty.
COVERAGE_QUERIES = (
    "X//nosuchtag/quantity",
    "X/regions/europe/itm",
    'X//item[nosuch="x"]/quantity',
    "X//quantity//item",
    "count(X//nosuchtag)",
    "sum(X//item/quantity)",
    "max(X//item/quantity)",
    "X//item/location/text()",
    "<r>{ X//item/quantity }</r>",
    "X//item[payment]/quantity",
    'X//item[contains(location, "Alb")]/quantity',
    'X//item[location="Albania" or payment="Cash"]/quantity',
    "X//item/../name",
    'for $i in X//item order by $i/quantity return <q>{ $i/location }</q>',
    'for $i in X//item return ($i/quantity, "-")',
)


def _schema(query: str) -> str:
    return "dblp" if query.startswith("D") else "xmark"


def cases():
    """``(key, query, schema, mutable)`` for every snapshotted plan."""
    queries = [PAPER_QUERIES[name] for name in sorted(PAPER_QUERIES)]
    for query in queries + MULTI_QUERIES + list(COVERAGE_QUERIES):
        for schema in (None, _schema(query)):
            yield "{} | {}".format(query, schema), query, schema, False
    for query in TICKER_QUERIES:
        yield "{} | mutable".format(query), query, None, True


def verdicts(query: str, schema, mutable: bool) -> dict:
    """Everything the static analyses decide about one compiled query."""
    argv = ["analyze", query, "--json"]
    argv += ["--mutable-source"] if mutable else ["--types"]
    if schema is not None:
        argv += ["--schema", schema]
    out, err = StringIO(), StringIO()
    assert cli_main(argv, out=out, err=err) == 0, err.getvalue()
    analyze = json.loads(out.getvalue())
    for stage in analyze["types"].get("stages", ()):
        del stage["kind"]  # the declaration's label, not a verdict
    run = XFlux(query, mutable_source=mutable, schema=schema).start()
    reads = {str(k): stage["reads"]
             for k, stage in enumerate(run.stats()["per_stage"])
             if "reads" in stage}
    plan = XFlux(query, mutable_source=mutable).compile(optimize=False)
    optimized = [repr(stage) for stage in optimize_plan(plan, schema)
                 .stages]
    return {"analyze": analyze, "stats_reads": reads,
            "optimized_stages": optimized}


def all_verdicts() -> dict:
    return {key: verdicts(query, schema, mutable)
            for key, query, schema, mutable in cases()}


def test_verdicts_unchanged():
    expected = json.loads(SNAPSHOT.read_text())
    got = json.loads(json.dumps(all_verdicts()))
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key


# -- one declaration per operator, three rules per kind ------------------------

#: Concrete operators that declare no shape and are opaque on purpose.
INHERITS_OPAQUE: frozenset = frozenset()


def _concrete_operators():
    seen, todo = [], list(StateTransformer.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ == transformer.__name__ or \
                cls.__module__.startswith(operators.__name__ + "."):
            seen.append(cls)
    return sorted(set(seen), key=lambda c: c.__name__)


def test_every_operator_declares_its_shape():
    classes = _concrete_operators()
    assert len(classes) == 25
    undeclared = {c.__name__ for c in classes if "shape" not in vars(c)}
    assert undeclared == INHERITS_OPAQUE
    assert StateTransformer.shape(None) is OPAQUE


class Opaque(Identity):
    def shape(self):
        return OPAQUE


def _condition(ctx):
    """``[q]``: a fused existence test of a ``q`` child."""
    return make_condition([ChildStep(ctx, 10, 11, "q"),
                           ExistsFlag(ctx, 11, 12)], 10, 12)


#: ``(id, stage over streams 1 and 5 writing 2, projection anchors or
#: universal reason, reads of each input given OUT, type of the output
#: over (<a>)*, over the empty language)``.
ALL = "ALL"
OUT = Reads(("x",), 3, False)
ANCHOR = ["/a", "/a/b"]
PASS = ["/a/b"]
TEXT = "(#text)*"
KINDS = [
    ("step-child", lambda c: ChildStep(c, 1, 2, "x"), ["/a/x/b"],
     [Reads(("x",), 4, False)], "(<x>)*", "()"),
    ("step-descendant", lambda c: DescendantStep(c, 1, 2, "x"),
     ["/a//x/b"], [Reads(None, None, False)], "(<x>)*", "()"),
    ("step-self", lambda c: SelfStep(c, 1, 2), PASS, [ALL],
     "(<a>)*", "()"),
    ("copy", lambda c: Tee(c, 1, 2), PASS, [OUT], "(<a>)*", "()"),
    ("filter", lambda c: Predicate(c, 1, 2, [_condition(c)]), ANCHOR,
     [Reads(("q", "x"), 3, False)], "(<a>)*", "()"),
    ("text", lambda c: TextStep(c, 1, 2), ANCHOR, [ALL], TEXT, "()"),
    ("flag", lambda c: ExistsFlag(c, 1, 2), ANCHOR, [ALL], TEXT, "()"),
    ("literal", lambda c: LiteralText(c, 1, 2, ": "), ANCHOR,
     [ROOT_ONLY], TEXT, "()"),
    ("concat", lambda c: Concat(c, 1, 5, 2), PASS, [OUT, OUT],
     "(<a>)*", "()"),
    ("construct-per-tuple", lambda c: TupleConstruct(c, 1, 2, "w"), PASS,
     [Reads(None, 2, False)], "(<w>)*", "()"),
    ("construct-per-stream", lambda c: StreamConstruct(c, 1, 2, "w"),
     ANCHOR, [Reads(None, 2, False)], "(<w>)*", "(<w>)*"),
    ("aggregate-count", lambda c: CountItems(c, 1, 2), ANCHOR,
     [ROOT_ONLY], TEXT, TEXT),
    ("aggregate-items", lambda c: NumericAggregate(c, 1, 2), ANCHOR,
     [ALL], TEXT, TEXT),
    ("join", lambda c: AncestorJoin(c, 1, 5, 2), "join shape",
     [Reads(None, None, False), ROOT_ONLY], "(<a>)*", "()"),
    ("sort", lambda c: SortTuples(c, 1, 5, 2), PASS, [OUT, ALL],
     "(<a>)*", "()"),
    ("empty", lambda c: StructuralRelay(c, (1,), 2), PASS, [ALL],
     "()", "()"),
    ("opaque", lambda c: Opaque(c, (1,), 2), "opaque shape", [ALL],
     "any*", "any*"),
]


def _plan(stage, first_tag="a"):
    """``X/a``, a tee of it onto stream 5, ``stage``, then ``/b``."""
    ctx = stage.ctx
    stages = [ChildStep(ctx, 0, 1, first_tag), Tee(ctx, 1, 5), stage,
              ChildStep(ctx, 2, 3, "b")]
    return Plan(stages, 0, 3, ctx, needs_oids=False)


@pytest.mark.parametrize("kind,make,paths,reads,typed,typed_empty", KINDS,
                         ids=[row[0] for row in KINDS])
def test_kind_rules(kind, make, paths, reads, typed, typed_empty):
    stage = make(Context())
    assert stage.shape().kind == kind.split("-")[0]
    proj = derive_projection(_plan(stage))
    if isinstance(paths, list):
        assert proj.describe() == paths
    else:
        assert proj.universal and paths in proj.reason
    for input_id, expected in zip(stage.input_ids, reads):
        got = stage_reads(stage, input_id, OUT)
        if expected == ALL:
            assert got.is_all and got.by == repr(stage)
        else:
            assert got == expected
    report = infer_types(_plan(stage))
    assert report.stages[2].kind == kind.split("-")[0]
    assert report.stages[2].output.describe() == typed
    empty = infer_types(_plan(make(Context()), "nosuch"), schema="xmark")
    assert empty.stages[2].output.describe() == typed_empty


def test_unknown_kind():
    """A kind no analysis knows is each analysis's top, like ``opaque``."""
    class Odd(Identity):
        def shape(self):
            return Shape("telepathy")
    stage = Odd(Context(), (1,), 2)
    assert stage_reads(stage, 1, ROOT_ONLY).is_all
    proj = derive_projection(_plan(stage))
    assert proj.universal and "telepathy shape" in proj.reason
    assert infer_types(_plan(stage)).stages[2].output.describe() == "any*"


@pytest.mark.parametrize("make", [
    lambda c: ChildStep(c, 1, 2, "x"), lambda c: Tee(c, 1, 2),
    lambda c: ForTuples(c, 1, 2), lambda c: TupleStrip(c, 1, 2),
    lambda c: Identity(c, (1,), 2), lambda c: Relabel(c, (1,), 2),
    lambda c: Drop(c, (1,), 2), lambda c: StringValue(c, 1, 2),
    lambda c: CompareLiteral(c, 1, 2, "=", "1"),
    lambda c: ContainsLiteral(c, 1, 2, "1"),
    lambda c: MinMaxAggregate(c, 1, 2),
], ids=lambda make: type(make(Context())).__name__)
def test_operators_of_a_kind_share_its_rules(make):
    """The operators the kind rows above do not construct."""
    stage = make(Context())
    row = {"ChildStep": "step-child", "Tee": "copy", "ForTuples": "copy",
           "TupleStrip": "copy", "Identity": "copy", "Relabel": "copy",
           "Drop": "empty", "StringValue": "text",
           "CompareLiteral": "flag", "ContainsLiteral": "flag",
           "MinMaxAggregate": "aggregate-items"}[type(stage).__name__]
    model = dict((r[0], r[1]) for r in KINDS)[row](Context())
    assert stage.shape().kind == model.shape().kind
    assert stage.shape().reads_items == model.shape().reads_items
    assert derive_projection(_plan(stage)).describe() == \
        derive_projection(_plan(model)).describe()


def test_shape_is_json_able():
    ctx = Context()
    assert Predicate(ctx, 1, 2, [_condition(ctx)]).shape().to_dict() == {
        "kind": "filter",
        "conditions": ["FusedCondition(/q exists, 10 -> 12)"]}
    assert AncestorJoin(ctx, 1, 5, 2, direct_only=True).shape().to_dict() \
        == {"kind": "join", "candidates": 1, "direct_only": True}
    assert json.loads(json.dumps(OPAQUE.to_dict())) == {"kind": "opaque"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_shapes.py --write")
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(all_verdicts(), indent=1,
                                   sort_keys=True) + "\n")
