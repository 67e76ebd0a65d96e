"""One JSON (de)serialisation module for every pipeline artefact.

Conflict graphs, allocation decisions, simulation reports, energy
models/breakdowns and whole :class:`~repro.core.pipeline.ExperimentResult`
bundles all round-trip through here — the same payload shapes the
``repro serve`` wire schemas (:mod:`repro.serve.schema`) embed, which
makes these dicts the canonical public representation of the
pipeline's outputs.  Every payload carries a ``format`` version tag
and a ``kind`` discriminator; ``*_from_dict`` validates the kind and
tolerates missing optional fields from older payloads.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.core.allocation import Allocation
from repro.core.conflict_graph import ConflictGraph, ConflictNode
from repro.core.pipeline import ExperimentResult
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.errors import ConfigurationError
from repro.memory.config import LoopRegion
from repro.memory.stats import MemoryObjectStats, SimulationReport
from repro.traces.layout import Placement

if TYPE_CHECKING:
    from repro.engine.artifacts import ConflictGraphArtifact

#: Format tag written into every payload for forward compatibility.
FORMAT_VERSION = 1


def _check_kind(data: dict[str, Any], kind: str) -> None:
    """Reject payloads whose ``kind`` discriminator does not match."""
    if data.get("kind") != kind:
        raise ConfigurationError(
            f"not a {kind} payload: kind={data.get('kind')!r}"
        )


# ----------------------------------------------------------------------
# Conflict graphs
# ----------------------------------------------------------------------


def conflict_graph_to_dict(graph: ConflictGraph) -> dict[str, Any]:
    """Serialise a conflict graph to plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "conflict_graph",
        "nodes": [
            {
                "name": node.name,
                "fetches": node.fetches,
                "size": node.size,
                "compulsory_misses": node.compulsory_misses,
                "self_misses": node.self_misses,
            }
            for node in graph.nodes()
        ],
        "edges": [
            {"victim": victim, "evictor": evictor, "misses": weight}
            for victim, evictor, weight in graph.edges()
        ],
    }


def conflict_graph_payload(artifact: ConflictGraphArtifact
                           ) -> dict[str, Any]:
    """:func:`conflict_graph_to_dict` of a stored graph, built once.

    The payload is memoised on the store entry (*artifact*), not on
    the graph: a :class:`ConflictGraph` is mutable, but the artifact
    that holds it is what the store shares, and it is freed, payload
    and all, when the store evicts it.  Read the payload, never mutate
    it.
    """
    payload = artifact._payload
    if payload is None:
        payload = conflict_graph_to_dict(artifact.graph)
        object.__setattr__(artifact, "_payload", payload)
    return payload


def conflict_graph_from_dict(data: dict[str, Any]) -> ConflictGraph:
    """Rebuild a conflict graph serialised by
    :func:`conflict_graph_to_dict`."""
    _check_kind(data, "conflict_graph")
    graph = ConflictGraph()
    for node in data["nodes"]:
        graph.add_node(ConflictNode(
            name=node["name"],
            fetches=node["fetches"],
            size=node["size"],
            compulsory_misses=node.get("compulsory_misses", 0),
            self_misses=node.get("self_misses", 0),
        ))
    for edge in data["edges"]:
        graph.add_edge(edge["victim"], edge["evictor"], edge["misses"])
    return graph


def save_conflict_graph(graph: ConflictGraph, path) -> None:
    """Write a conflict graph as JSON."""
    payload = conflict_graph_to_dict(graph)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_conflict_graph(path) -> ConflictGraph:
    """Read a conflict graph written by :func:`save_conflict_graph`."""
    data = json.loads(pathlib.Path(path).read_text())
    return conflict_graph_from_dict(data)


# ----------------------------------------------------------------------
# Allocations
# ----------------------------------------------------------------------


def allocation_to_dict(allocation: Allocation) -> dict[str, Any]:
    """Serialise an allocation decision to plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "allocation",
        "algorithm": allocation.algorithm,
        "spm_resident": sorted(allocation.spm_resident),
        "loop_regions": [
            {"name": r.name, "start": r.start, "size": r.size}
            for r in allocation.loop_regions
        ],
        "placement": allocation.placement.value,
        "predicted_energy": allocation.predicted_energy,
        "solver_nodes": allocation.solver_nodes,
        "solver_status": allocation.solver_status,
        "solver_gap": allocation.solver_gap,
        "capacity": allocation.capacity,
        "used_bytes": allocation.used_bytes,
    }


def allocation_from_dict(data: dict[str, Any]) -> Allocation:
    """Rebuild an allocation serialised by
    :func:`allocation_to_dict`."""
    _check_kind(data, "allocation")
    return Allocation(
        algorithm=data["algorithm"],
        spm_resident=frozenset(data["spm_resident"]),
        loop_regions=tuple(
            LoopRegion(name=r["name"], start=r["start"], size=r["size"])
            for r in data["loop_regions"]
        ),
        placement=Placement(data["placement"]),
        predicted_energy=data.get("predicted_energy"),
        solver_nodes=data.get("solver_nodes", 0),
        solver_status=data.get("solver_status", ""),
        solver_gap=data.get("solver_gap"),
        capacity=data.get("capacity", 0),
        used_bytes=data.get("used_bytes", 0),
    )


def save_allocation(allocation: Allocation, path) -> None:
    """Write an allocation as JSON."""
    payload = allocation_to_dict(allocation)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def load_allocation(path) -> Allocation:
    """Read an allocation written by :func:`save_allocation`."""
    data = json.loads(pathlib.Path(path).read_text())
    return allocation_from_dict(data)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def report_to_dict(report: SimulationReport) -> dict[str, Any]:
    """Serialise a simulation report's counters to plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "simulation_report",
        "totals": {
            "fetches": report.total_fetches,
            "spm_accesses": report.spm_accesses,
            "lc_accesses": report.lc_accesses,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "compulsory_misses": report.compulsory_misses,
            "conflict_misses": report.conflict_miss_total,
            "main_memory_words": report.main_memory_words,
            "lc_controller_checks": report.lc_controller_checks,
            "overlay_copy_words": report.overlay_copy_words,
            "num_block_executions": report.num_block_executions,
            "l2_hits": report.l2_hits,
            "l2_misses": report.l2_misses,
        },
        "objects": {
            name: {
                "fetches": stats.fetches,
                "spm_accesses": stats.spm_accesses,
                "lc_accesses": stats.lc_accesses,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "compulsory_misses": stats.compulsory_misses,
            }
            for name, stats in sorted(report.mo_stats.items())
        },
        "conflicts": [
            {"victim": victim, "evictor": evictor, "misses": count}
            for (victim, evictor), count in
            sorted(report.conflict_misses.items())
        ],
    }


def report_from_dict(data: dict[str, Any]) -> SimulationReport:
    """Rebuild a simulation report serialised by :func:`report_to_dict`.

    Per-object counters and conflict edges reconstruct exactly; the
    aggregate properties (``total_fetches`` etc.) are re-derived from
    them.  Phase-resolved overlay statistics are not part of the wire
    format and come back empty.  Older payloads without the
    ``num_block_executions``/``l2_*`` totals load with those at zero.
    """
    _check_kind(data, "simulation_report")
    totals = data.get("totals", {})
    report = SimulationReport(
        lc_controller_checks=totals.get("lc_controller_checks", 0),
        main_memory_words=totals.get("main_memory_words", 0),
        num_block_executions=totals.get("num_block_executions", 0),
        overlay_copy_words=totals.get("overlay_copy_words", 0),
        l2_hits=totals.get("l2_hits", 0),
        l2_misses=totals.get("l2_misses", 0),
    )
    for name, stats in data.get("objects", {}).items():
        report.mo_stats[name] = MemoryObjectStats(
            name=name,
            fetches=stats["fetches"],
            spm_accesses=stats["spm_accesses"],
            lc_accesses=stats["lc_accesses"],
            cache_hits=stats["cache_hits"],
            cache_misses=stats["cache_misses"],
            compulsory_misses=stats.get("compulsory_misses", 0),
        )
    report.conflict_misses = Counter({
        (edge["victim"], edge["evictor"]): edge["misses"]
        for edge in data.get("conflicts", [])
    })
    return report


# ----------------------------------------------------------------------
# Energy models and breakdowns
# ----------------------------------------------------------------------


def energy_model_to_dict(model: EnergyModel) -> dict[str, Any]:
    """Serialise a per-event energy table to plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "energy_model",
        "cache_hit": model.cache_hit,
        "cache_miss": model.cache_miss,
        "spm_access": model.spm_access,
        "lc_access": model.lc_access,
        "lc_controller_check": model.lc_controller_check,
        "main_word": model.main_word,
        "l2_hit": model.l2_hit,
        "l2_miss": model.l2_miss,
    }


def energy_model_from_dict(data: dict[str, Any]) -> EnergyModel:
    """Rebuild an energy model serialised by
    :func:`energy_model_to_dict`."""
    _check_kind(data, "energy_model")
    return EnergyModel(
        cache_hit=data["cache_hit"],
        cache_miss=data["cache_miss"],
        spm_access=data["spm_access"],
        lc_access=data["lc_access"],
        lc_controller_check=data["lc_controller_check"],
        main_word=data["main_word"],
        l2_hit=data.get("l2_hit", 0.0),
        l2_miss=data.get("l2_miss", 0.0),
    )


def energy_breakdown_to_dict(energy: EnergyBreakdown) -> dict[str, Any]:
    """Serialise an energy breakdown to plain data."""
    return {
        "format": FORMAT_VERSION,
        "kind": "energy_breakdown",
        "spm": energy.spm,
        "loop_cache": energy.loop_cache,
        "lc_controller": energy.lc_controller,
        "cache_hits": energy.cache_hits,
        "cache_misses": energy.cache_misses,
        "overlay_copies": energy.overlay_copies,
        "l2": energy.l2,
        "total": energy.total,
    }


def energy_breakdown_from_dict(data: dict[str, Any]) -> EnergyBreakdown:
    """Rebuild an energy breakdown serialised by
    :func:`energy_breakdown_to_dict` (``total`` is re-derived)."""
    _check_kind(data, "energy_breakdown")
    return EnergyBreakdown(
        spm=data["spm"],
        loop_cache=data["loop_cache"],
        lc_controller=data["lc_controller"],
        cache_hits=data["cache_hits"],
        cache_misses=data["cache_misses"],
        overlay_copies=data.get("overlay_copies", 0.0),
        l2=data.get("l2", 0.0),
    )


# ----------------------------------------------------------------------
# Experiment results
# ----------------------------------------------------------------------


def experiment_result_to_dict(result: ExperimentResult) -> dict[str, Any]:
    """Serialise a whole experiment result (the serve-layer payload)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "experiment_result",
        "allocation": allocation_to_dict(result.allocation),
        "report": report_to_dict(result.report),
        "energy": energy_breakdown_to_dict(result.energy),
        "model": energy_model_to_dict(result.model),
    }


def experiment_result_payload(result: ExperimentResult) -> dict[str, Any]:
    """:func:`experiment_result_to_dict` of *result*, built once per object.

    The payload is memoised on *result* itself, so it lives exactly as
    long as the result (a store entry's result is freed, payload and
    all, when the store evicts it) and is never pickled with it.  It is
    shared by every caller: read it, never mutate it — a caller that
    needs its own copy calls :func:`experiment_result_to_dict`.
    """
    payload = result._payload
    if payload is None:
        payload = result._payload = experiment_result_to_dict(result)
    return payload


def experiment_result_from_dict(data: dict[str, Any]) -> ExperimentResult:
    """Rebuild an experiment result serialised by
    :func:`experiment_result_to_dict`."""
    _check_kind(data, "experiment_result")
    return ExperimentResult(
        allocation=allocation_from_dict(data["allocation"]),
        report=report_from_dict(data["report"]),
        energy=energy_breakdown_from_dict(data["energy"]),
        model=energy_model_from_dict(data["model"]),
    )
