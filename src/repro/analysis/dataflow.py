"""The one dataflow driver behind the plan analyses.

A plan is a list of stages, each reading ``input_ids`` and writing
``output_id``; an analysis attaches one lattice value to every stream.
:func:`forward` runs from the source towards the result (path
projection, type inference), :func:`backward` from the result towards
the source (the reads pass).  The transfer function is the analysis's
own table of rules keyed on the stage's
:meth:`~repro.core.transformer.StateTransformer.shape` kind.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, TypeVar

from ..core.transformer import StateTransformer

V = TypeVar("V")


def forward(stages: Sequence[StateTransformer], seed: Mapping[int, V],
            transfer: Callable[[StateTransformer, List[V]], V],
            bottom: V) -> Dict[int, V]:
    """Every stream's value, iterated to a fixpoint from ``seed``.

    ``transfer(stage, ins)`` is the stage's output value given its
    inputs' values (``bottom`` for a stream nothing has written yet).
    """
    values = dict(seed)
    for _ in range(len(stages) + 1):
        changed = False
        for stage in stages:
            out = transfer(stage, [values.get(i, bottom)
                                   for i in stage.input_ids])
            changed = changed or values.get(stage.output_id) != out
            values[stage.output_id] = out
        if not changed:
            break
    return values


def backward(stages: Sequence[StateTransformer], sink: Mapping[int, V],
             transfer: Callable[[StateTransformer, int, V, V], V],
             bottom: V) -> Dict[int, V]:
    """What is needed of every stream, in one pass from the last stage.

    ``transfer(stage, input_id, out, later)`` is the new need of
    ``input_id`` given the need of the stage's output and what later
    stages need of that input (``bottom`` where nothing is needed).
    """
    need = dict(sink)
    for stage in reversed(stages):
        out = need.get(stage.output_id, bottom)
        for i in stage.input_ids:
            need[i] = transfer(stage, i, out, need.get(i, bottom))
    return need
