"""Static plan analysis and stream-protocol sanitation.

Two complementary checkers for compiled pipelines:

* :mod:`~repro.analysis.static_plan` — analyze a compiled plan *without
  running it*: derive which update brackets each stage will track and
  declare, precompute the fix map (which region numbers stay mutable
  after end-of-stream), classify per-stage memory behaviour, and lint
  the plan (dormant fast paths, no-op stages, undeclared terminal
  regions).
* :mod:`~repro.analysis.sanitize` — validate the event protocol at every
  stage boundary at run time (``sanitize=True`` / ``REPRO_SANITIZE=1``).
* :mod:`~repro.analysis.types` — schema-aware regular-expression type
  inference over compiled plans: per-stage element languages, static
  emptiness proofs, dead-stage elimination, and update-effect checks
  against an :class:`~repro.analysis.schema.ElementSchema` (built by
  hand or parsed from a DTD).
"""

from importlib import import_module

#: Public name -> submodule.  Resolved on first use (PEP 562): every
#: compile reaches into ``analysis.projection`` for the reads pass, and
#: must not pay for the type checker and the telemetry it pulls in.
_EXPORTS = {
    "BoundaryChecker": "sanitize",
    "boundary_checkers": "sanitize",
    "check_stream": "sanitize",
    "BracketFamily": "static_plan",
    "PlanReport": "static_plan",
    "StageReport": "static_plan",
    "analyze_plan": "static_plan",
    "analyze_query": "static_plan",
    "render_report": "static_plan",
    "report_to_dict": "static_plan",
    "verify_against_runtime": "static_plan",
    "ElementSchema": "schema",
    "SchemaError": "schema",
    "known_schema": "schema",
    "StreamType": "types",
    "StageTypeReport": "types",
    "TypeReport": "types",
    "TypeCheckError": "types",
    "infer_types": "types",
    "optimize_plan": "types",
    "constant_empty_plan": "types",
    "verify_types_against_runtime": "types",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module {!r} has no attribute {!r}".format(
            __name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value
