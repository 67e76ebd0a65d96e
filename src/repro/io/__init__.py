"""Serialisation of analysis artefacts (JSON, DOT, traces).

Conflict graphs, allocation decisions, reports and whole experiment
results are the hand-off points of the pipeline; persisting them lets
users profile once and experiment with allocators offline, diff
decisions across runs, and ship results over the ``repro serve`` wire
(:mod:`repro.serve.schema` embeds these payloads).  The JSON helpers
live in :mod:`repro.io.serde`.
"""

from repro.io.serde import (
    FORMAT_VERSION,
    allocation_from_dict,
    allocation_to_dict,
    conflict_graph_from_dict,
    conflict_graph_to_dict,
    energy_breakdown_from_dict,
    energy_breakdown_to_dict,
    energy_model_from_dict,
    energy_model_to_dict,
    experiment_result_from_dict,
    experiment_result_to_dict,
    load_allocation,
    load_conflict_graph,
    report_from_dict,
    report_to_dict,
    save_allocation,
    save_conflict_graph,
)
from repro.io.tracefile import load_trace, save_trace

__all__ = [
    "FORMAT_VERSION",
    "allocation_from_dict",
    "allocation_to_dict",
    "conflict_graph_from_dict",
    "conflict_graph_to_dict",
    "energy_breakdown_from_dict",
    "energy_breakdown_to_dict",
    "energy_model_from_dict",
    "energy_model_to_dict",
    "experiment_result_from_dict",
    "experiment_result_to_dict",
    "load_allocation",
    "load_conflict_graph",
    "report_from_dict",
    "report_to_dict",
    "save_allocation",
    "save_conflict_graph",
    "load_trace",
    "save_trace",
]
