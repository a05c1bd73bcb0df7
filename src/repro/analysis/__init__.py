"""Static plan analysis and stream-protocol sanitation.

* :mod:`~repro.analysis.static_plan` — analyze a compiled plan *without
  running it*, from each stage's ``static_facts()``: which update
  brackets each stage tracks and declares, the fix map (which region
  numbers stay mutable after end-of-stream), per-stage memory classes,
  and lints (dormant fast paths, no-op stages, undeclared regions).
* :mod:`~repro.analysis.sanitize` — check the event protocol at every
  stage boundary at run time (``sanitize=True`` / ``REPRO_SANITIZE=1``)
  with the checker of :mod:`repro.events.wellformed`.
* Two dataflow analyses read each stage's ``shape()`` through one
  table of rules each, driven by :mod:`~repro.analysis.dataflow`
  (DESIGN.md section 16): the reads pass, what each ``//`` step,
  item-scope predicate and ancestor join's consumers read
  (:mod:`~repro.analysis.projection`), and schema-aware type
  inference with emptiness proofs, dead-stage elimination and effect
  checks (:mod:`~repro.analysis.types`, over an
  :class:`~repro.analysis.schema.ElementSchema`).
"""

from importlib import import_module

#: Public name -> submodule.  Resolved on first use (PEP 562): every
#: compile reaches into ``analysis.projection`` for the reads pass, and
#: must not pay for the type checker and the telemetry it pulls in.
_EXPORTS = {
    "boundary_checkers": "sanitize",
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
