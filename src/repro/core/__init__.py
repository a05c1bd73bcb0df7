"""Core framework: state transformers, update wrapper, regions, display."""

from .display import Display
from .multiplex import EventMultiplexer
from .pipeline import (Collector, Filter, Pipeline, SinkFilter,
                       build_filter_chain, run_stages)
from .regions import Region, RegionTree, apply_updates
from .transformer import (Context, Drop, Identity, MutabilityRegistry,
                          Relabel, StateTransformer, run_sequence)
from .wrapper import UpdateWrapper

__all__ = [
    "StateTransformer", "Context", "MutabilityRegistry",
    "Identity", "Relabel", "Drop", "run_sequence",
    "UpdateWrapper",
    "Pipeline", "Filter", "SinkFilter", "build_filter_chain", "Collector",
    "run_stages",
    "Region", "RegionTree", "apply_updates",
    "Display",
    "EventMultiplexer",
]
