"""Compositional XQuery-to-pipeline compiler.

Each AST node compiles to a handful of state transformers appended to one
global pipeline, exactly in the paper's style: "we translate XQuery
one-step-at-a-time, so that our XQuery translation is compositional and
general".  Virtual substream numbers glue the stages together; the shared
:class:`~repro.core.transformer.Context` allocates them.

Layout decisions (each discussed in DESIGN.md):

* predicates and where-clauses embed their condition as an inline (inert)
  sub-pipeline of the Predicate operator, so the wrapper's region state
  copies extend into the condition evaluation;
* backward axes tee the source into a clone branch expanded by ``//``;
  the clone branch stages are appended *after* the main branch so the
  incoming result's events reach the join before their clone copies;
* ``order by`` keys are teed off the tuple stream *before* the where
  filter (every tuple gets a key) and the sort runs *after* the return
  construction, which is equivalent because the key is extracted
  independently of the return clause;
* multi-way concatenation in return clauses is chained right-
  associatively so each insert-before bracket opens before the content
  that must land inside it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.transformer import Context, StateTransformer
from ..operators import (AncestorJoin, ChildStep, CompareLiteral, Concat,
                         ContainsLiteral, CountItems, DescendantStep,
                         ExistsFlag, ForTuples, InlinePipeline, LiteralText,
                         make_condition,
                         MinMaxAggregate, NumericAggregate, Predicate,
                         SCOPE_TUPLE, StreamConstruct, StringValue, Tee,
                         TextStep, TupleConstruct, TupleStrip)
from . import ast


class CompileError(ValueError):
    """Raised when a query is outside the supported subset."""


class Plan:
    """A compiled query: the stage list plus stream metadata."""

    def __init__(self, stages: List[StateTransformer], source_id: int,
                 result_id: int, ctx: Context, needs_oids: bool,
                 mutable_source: bool = False) -> None:
        self.stages = stages
        self.source_id = source_id
        self.result_id = result_id
        self.ctx = ctx
        self.needs_oids = needs_oids
        #: Whether the plan was compiled for a source that embeds updates
        #: (predicate decisions revocable, Section V pruning off).
        self.mutable_source = mutable_source
        #: Ids below this were allocated at compile time (stream numbers
        #: and operator-owned region ids); ids at or above it are allocated
        #: while events flow.  The static analyzer uses this watermark to
        #: compare its fix-map prediction with the runtime registry.
        self.first_runtime_id = ctx.ids._next

    def __repr__(self) -> str:
        return "Plan({} stages, source={}, result={})".format(
            len(self.stages), self.source_id, self.result_id)


class Compiler:
    """Compile one query AST into a :class:`Plan`.

    Args:
        ctx: shared context; a fresh one is created when omitted.
        source_id: the stream number the engine feeds the input on.
        mutable_source: when True the source may embed updates; predicate
            decisions stay revocable and backward joins keep their state
            (Section V pruning off).
        clone_source: a pre-teed copy of the source stream to feed backward
            joins from, instead of inserting a Tee at the front of this
            plan.  The prefix-sharing layer passes the shared clone stream
            here so every suffix with one backward step reads the same
            copy.  A plan may consume it at most once (the clone branch's
            DescendantStep destroys the stream), so sharing excludes
            queries with more than one backward step.
    """

    def __init__(self, ctx: Optional[Context] = None, source_id: int = 0,
                 mutable_source: bool = False,
                 clone_source: Optional[int] = None) -> None:
        self.ctx = ctx if ctx is not None else Context()
        self.ctx.ids.reserve(source_id)
        self.source_id = source_id
        self.mutable_source = mutable_source
        self.clone_source = clone_source
        self.stages: List[StateTransformer] = []
        self.needs_oids = False
        self._env: dict = {}

    def fresh(self) -> int:
        return self.ctx.fresh_id()

    def compile(self, expr: ast.Expr) -> Plan:
        result_id = self._compile(expr, per_tuple=False)
        return Plan(self.stages, self.source_id, result_id, self.ctx,
                    self.needs_oids, mutable_source=self.mutable_source)

    # -- dispatch -------------------------------------------------------------

    def _compile(self, expr: ast.Expr, per_tuple: bool) -> int:
        if isinstance(expr, ast.Source):
            if self._env:
                raise CompileError(
                    "a document path inside a FLWOR return is not "
                    "supported (per-tuple alignment would be lost): "
                    "{!r}".format(expr))
            return self.source_id
        if isinstance(expr, ast.Prebound):
            return expr.stream_id
        if isinstance(expr, ast.VarRef):
            return self._compile_var(expr)
        if isinstance(expr, ast.Step):
            return self._compile_step(expr, per_tuple)
        if isinstance(expr, ast.Filter):
            return self._compile_filter(expr, per_tuple)
        if isinstance(expr, ast.FLWOR):
            return self._compile_flwor(expr, per_tuple)
        if isinstance(expr, ast.ElementCtor):
            return self._compile_ctor(expr, per_tuple)
        if isinstance(expr, ast.SequenceExpr):
            return self._compile_sequence(expr, per_tuple)
        if isinstance(expr, ast.FunCall):
            return self._compile_funcall(expr, per_tuple)
        if isinstance(expr, ast.StringLit):
            return self._compile_literal(expr, per_tuple)
        if isinstance(expr, ast.Compare):
            raise CompileError(
                "comparisons are only supported inside predicates and "
                "where clauses: {!r}".format(expr))
        raise CompileError("unsupported expression {!r}".format(expr))

    # -- variables ----------------------------------------------------------------

    def _compile_var(self, expr: ast.VarRef) -> int:
        if expr.name not in self._env:
            raise CompileError("unbound variable ${}".format(expr.name))
        bound = self._env[expr.name]
        copy = self.fresh()
        self.stages.append(Tee(self.ctx, bound, copy))
        return copy

    # -- steps ---------------------------------------------------------------------

    def _compile_step(self, expr: ast.Step, per_tuple: bool) -> int:
        if expr.axis in (ast.PARENT, ast.ANCESTOR):
            return self._compile_backward(expr, per_tuple)
        base = self._compile(expr.base, per_tuple)
        out = self.fresh()
        if expr.axis == ast.CHILD:
            self.stages.append(ChildStep(self.ctx, base, out, expr.tag))
        elif expr.axis == ast.DESCENDANT:
            self.stages.append(DescendantStep(self.ctx, base, out,
                                              expr.tag))
        elif expr.axis == ast.TEXT:
            self.stages.append(TextStep(self.ctx, base, out))
        else:
            raise CompileError("unsupported axis {!r}".format(expr.axis))
        return out

    def _compile_backward(self, expr: ast.Step, per_tuple: bool) -> int:
        incoming = self._compile(expr.base, per_tuple)
        self.needs_oids = True
        if self.clone_source is not None:
            clone = self.clone_source
        else:
            clone = self.fresh()
            # Clone immediately after the source (prepended before all
            # other stages, paper Section VI-E).
            self.stages.insert(0, Tee(self.ctx, self.source_id, clone))
        # The clone branch is appended here — after every stage that
        # produces the incoming stream — so an incoming element's events
        # always reach the join before their clone copies.
        candidates = self.fresh()
        self.stages.append(
            DescendantStep(self.ctx, clone, candidates, expr.tag))
        out = self.fresh()
        self.stages.append(
            AncestorJoin(self.ctx, candidates, incoming, out,
                         direct_only=expr.axis == ast.PARENT,
                         freeze_decisions=not self.mutable_source))
        return out

    # -- predicates -------------------------------------------------------------------

    def _compile_filter(self, expr: ast.Filter, per_tuple: bool) -> int:
        base = self._compile(expr.base, per_tuple)
        out = self.fresh()
        conditions, combine = self._compile_conditions(expr.cond)
        self.stages.append(Predicate(self.ctx, base, out, conditions,
                                     combine=combine,
                                     assume_fixed=not self.mutable_source))
        return out

    def _compile_conditions(self, cond: ast.Expr):
        """One inline pipeline per conjunct/disjunct."""
        if isinstance(cond, ast.BoolExpr):
            return ([self._compile_condition(item) for item in cond.items],
                    cond.op)
        return [self._compile_condition(cond)], "and"

    def _compile_condition(self, cond: ast.Expr):
        """Build the inert inline pipeline evaluating a condition.

        The condition is a relative path, optionally wrapped in a
        comparison or contains(); it emits one flag cD per condition item
        (non-empty = true), the shape the predicate's F2 expects.
        """
        c_in = self.fresh()
        stages: List[StateTransformer] = []
        if isinstance(cond, ast.Compare):
            path_out = self._compile_condition_path(cond.left, c_in,
                                                    stages)
            sval = self.fresh()
            stages.append(StringValue(self.ctx, path_out, sval))
            c_out = self.fresh()
            stages.append(CompareLiteral(self.ctx, sval, c_out, cond.op,
                                         cond.literal))
        elif isinstance(cond, ast.FunCall) and cond.name == "contains":
            path_out = self._compile_condition_path(cond.args[0], c_in,
                                                    stages)
            sval = self.fresh()
            stages.append(StringValue(self.ctx, path_out, sval))
            c_out = self.fresh()
            stages.append(ContainsLiteral(self.ctx, sval, c_out,
                                          cond.literal or ""))
        else:
            path_out = self._compile_condition_path(cond, c_in, stages)
            c_out = self.fresh()
            stages.append(ExistsFlag(self.ctx, path_out, c_out))
        return make_condition(stages, c_in, c_out)

    def _compile_condition_path(self, expr: ast.Expr, input_id: int,
                                stages: List[StateTransformer]) -> int:
        """Relative path steps inside a condition (inert only)."""
        if isinstance(expr, ast.VarRef):
            # $x inside its own where clause: the context item itself.
            return input_id
        if isinstance(expr, ast.Source):
            # Inside a condition a bare leading name is a *relative* child
            # step (the paper's [location="Albania"]), not a dataset.
            out = self.fresh()
            stages.append(ChildStep(self.ctx, input_id, out, expr.name))
            return out
        if isinstance(expr, ast.Step):
            base = self._compile_condition_path(expr.base, input_id,
                                                stages)
            out = self.fresh()
            if expr.axis == ast.CHILD:
                stages.append(ChildStep(self.ctx, base, out, expr.tag))
            elif expr.axis == ast.DESCENDANT:
                stages.append(DescendantStep(self.ctx, base, out, expr.tag,
                                             freeze_regions=False))
            elif expr.axis == ast.TEXT:
                stages.append(TextStep(self.ctx, base, out))
            else:
                raise CompileError(
                    "backward axes are not supported inside predicate "
                    "conditions: {!r}".format(expr))
            return out
        raise CompileError(
            "unsupported condition expression {!r}".format(expr))

    # -- FLWOR -------------------------------------------------------------------------

    def _compile_flwor(self, expr: ast.FLWOR, per_tuple: bool) -> int:
        if per_tuple:
            # A FLWOR nested in another's return clause re-tuples the
            # stream: its *sequence* may iterate over the outer variable
            # (the flattening pattern), but its where/order/return parts
            # run per inner tuple and cannot reach outer content.
            bound = {f.var for f in expr.walk()
                     if isinstance(f, ast.FLWOR)}
            inner_parts = [expr.ret]
            if expr.where is not None:
                inner_parts.append(expr.where)
            if expr.order_key is not None:
                inner_parts.append(expr.order_key)
            for part in inner_parts:
                for node in part.walk():
                    if isinstance(node, ast.VarRef) \
                            and node.name not in bound:
                        raise CompileError(
                            "a nested FLWOR may not reference the outer "
                            "variable ${} in its where/order/return "
                            "(per-tuple alignment would be lost)"
                            .format(node.name))
        seq = self._compile(expr.seq, per_tuple=False)
        tuples = self.fresh()
        self.stages.append(ForTuples(self.ctx, seq, tuples))
        key_id = None
        if expr.order_key is not None:
            # Keys are extracted before the where filter so *every* tuple
            # has one (hidden tuples occupy their slot invisibly).
            key_copy = self.fresh()
            self.stages.append(Tee(self.ctx, tuples, key_copy))
            key_path = self._compile_relative(expr.order_key, key_copy,
                                              expr.var)
            key_id = self.fresh()
            self.stages.append(StringValue(self.ctx, key_path, key_id))
        if expr.where is not None:
            filtered = self.fresh()
            conditions, combine = self._compile_conditions(
                self._strip_var(expr.where, expr.var))
            self.stages.append(Predicate(
                self.ctx, tuples, filtered, conditions, combine=combine,
                scope=SCOPE_TUPLE,
                assume_fixed=not self.mutable_source))
            tuples = filtered
        # Return clause, per tuple, with the variable and lets bound.
        saved = {name: self._env.get(name)
                 for name in [expr.var] + [n for n, _ in expr.lets]}
        self._env[expr.var] = tuples
        for name, let_expr in expr.lets:
            # A let binds a per-tuple sequence: compile its path over a
            # tee of the tuple stream (or of an earlier binding).
            self._env[name] = self._compile(let_expr, per_tuple=True)
        ret = self._compile(expr.ret, per_tuple=True)
        for name, old_binding in saved.items():
            if old_binding is None:
                self._env.pop(name, None)
            else:
                self._env[name] = old_binding
        if key_id is not None:
            from ..operators import SortTuples
            sorted_id = self.fresh()
            self.stages.append(SortTuples(self.ctx, ret, key_id, sorted_id,
                                          descending=expr.descending))
            ret = sorted_id
        return ret

    def _compile_relative(self, expr: ast.Expr, base_id: int,
                          var: str) -> int:
        """Compile a path relative to the loop variable (e.g. a sort key)."""
        if isinstance(expr, ast.VarRef):
            if expr.name != var:
                raise CompileError(
                    "only the loop variable may appear here: ${}"
                    .format(expr.name))
            return base_id
        if isinstance(expr, ast.Step):
            base = self._compile_relative(expr.base, base_id, var)
            out = self.fresh()
            if expr.axis == ast.CHILD:
                self.stages.append(ChildStep(self.ctx, base, out, expr.tag))
            elif expr.axis == ast.DESCENDANT:
                self.stages.append(DescendantStep(self.ctx, base, out,
                                                  expr.tag))
            elif expr.axis == ast.TEXT:
                self.stages.append(TextStep(self.ctx, base, out))
            else:
                raise CompileError("unsupported key axis {!r}".format(expr))
            return out
        raise CompileError("unsupported sort key {!r}".format(expr))

    @staticmethod
    def _strip_var(cond: ast.Expr, var: str) -> ast.Expr:
        """Check the where clause references only the loop variable."""
        for node in cond.walk():
            if isinstance(node, ast.VarRef) and node.name != var:
                raise CompileError(
                    "where clause may only use ${}".format(var))
        return cond

    # -- construction / sequences / literals ------------------------------------------------

    def _compile_ctor(self, expr: ast.ElementCtor, per_tuple: bool) -> int:
        inner = self._compile_ctor_content(expr.content, per_tuple)
        out = self.fresh()
        if per_tuple:
            self.stages.append(TupleConstruct(
                self.ctx, inner, out, expr.tag,
                seal=not self.mutable_source))
        else:
            self.stages.append(StreamConstruct(self.ctx, inner, out,
                                               expr.tag))
        return out

    def _compile_ctor_content(self, content: List[ast.Expr],
                              per_tuple: bool) -> int:
        if not content:
            raise CompileError("empty element constructors are not "
                               "supported")
        if per_tuple and any(isinstance(item, ast.FLWOR)
                             for item in content):
            raise CompileError(
                "a FLWOR inside a per-tuple constructor is not supported "
                "(the constructor would wrap each inner tuple, not the "
                "inner sequence); lift it to its own query")
        if len(content) == 1:
            return self._compile(content[0], per_tuple)
        return self._compile_sequence(ast.SequenceExpr(content), per_tuple)

    def _compile_sequence(self, expr: ast.SequenceExpr,
                          per_tuple: bool) -> int:
        if not per_tuple:
            raise CompileError(
                "sequence concatenation is supported inside FLWOR return "
                "clauses and constructors only")
        if any(isinstance(item, ast.FLWOR) for item in expr.items):
            raise CompileError(
                "a FLWOR cannot be one item of a per-tuple sequence "
                "(tuple alignment would be lost)")
        # Chain right-associatively: (a, (b, (c, d))).
        ids = [self._compile(item, per_tuple=True) for item in expr.items]
        right = ids[-1]
        for left in reversed(ids[:-1]):
            out = self.fresh()
            self.stages.append(Concat(self.ctx, left, right, out))
            right = out
        return right

    def _compile_literal(self, expr: ast.StringLit, per_tuple: bool) -> int:
        if not per_tuple:
            raise CompileError("string literals are only supported inside "
                               "FLWOR return clauses")
        # Pace the literal off the current loop variable's tuple stream.
        if not self._env:
            raise CompileError("a string literal needs an enclosing FLWOR")
        pacing = next(reversed(self._env.values()))
        copy = self.fresh()
        self.stages.append(Tee(self.ctx, pacing, copy))
        out = self.fresh()
        self.stages.append(LiteralText(self.ctx, copy, out, expr.value,
                                       seal=not self.mutable_source))
        return out

    # -- aggregates -------------------------------------------------------------------------------

    def _compile_funcall(self, expr: ast.FunCall, per_tuple: bool) -> int:
        if expr.name == "count":
            base = self._compile(expr.args[0], per_tuple=False)
            out = self.fresh()
            self.stages.append(CountItems(self.ctx, base, out))
            return out
        if expr.name in ("sum", "avg"):
            base = self._compile(expr.args[0], per_tuple=False)
            out = self.fresh()
            self.stages.append(NumericAggregate(self.ctx, base, out,
                                                op=expr.name))
            return out
        if expr.name in ("min", "max"):
            base = self._compile(expr.args[0], per_tuple=False)
            out = self.fresh()
            self.stages.append(MinMaxAggregate(self.ctx, base, out,
                                               op=expr.name))
            return out
        if expr.name == "contains":
            raise CompileError(
                "contains() is supported inside predicates and where "
                "clauses only")
        raise CompileError("unsupported function {!r}".format(expr.name))


def compile_query(expr: ast.Expr, source_id: int = 0,
                  mutable_source: bool = False,
                  ctx: Optional[Context] = None) -> Plan:
    """Compile an AST into an executable :class:`Plan`."""
    return Compiler(ctx=ctx, source_id=source_id,
                    mutable_source=mutable_source).compile(expr)
