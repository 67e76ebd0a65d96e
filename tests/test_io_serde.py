"""Round-trips of the consolidated serde module."""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.api import Session
from repro.energy.model import EnergyModel
from repro.engine.artifacts import AllocationArtifact
from repro.engine.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.io.serde import (
    allocation_from_dict,
    allocation_to_dict,
    energy_breakdown_from_dict,
    energy_breakdown_to_dict,
    energy_model_from_dict,
    energy_model_to_dict,
    experiment_result_from_dict,
    experiment_result_payload,
    experiment_result_to_dict,
    report_from_dict,
    report_to_dict,
)


@pytest.fixture(scope="module")
def tiny_result():
    """One evaluated design point of the tiny workload."""
    return Session("tiny", scale=0.2, seed=0).evaluate(spm_size=64)


def test_report_roundtrip(tiny_result):
    first = report_to_dict(tiny_result.report)
    rebuilt = report_from_dict(first)
    second = report_to_dict(rebuilt)
    assert second["totals"] == first["totals"]
    assert second["objects"] == first["objects"]
    assert second["conflicts"] == first["conflicts"]


def test_report_rederives_aggregates(tiny_result):
    report = tiny_result.report
    rebuilt = report_from_dict(report_to_dict(report))
    assert rebuilt.total_fetches == report.total_fetches
    assert rebuilt.cache_misses == report.cache_misses
    assert rebuilt.conflict_miss_total == report.conflict_miss_total


def test_report_tolerates_old_payload(tiny_result):
    data = report_to_dict(tiny_result.report)
    for key in ("num_block_executions", "l2_hits", "l2_misses"):
        del data["totals"][key]
    rebuilt = report_from_dict(data)
    assert rebuilt.l2_hits == 0
    assert rebuilt.num_block_executions == 0


def test_energy_model_roundtrip():
    model = EnergyModel()
    assert energy_model_from_dict(energy_model_to_dict(model)) == model


def test_energy_breakdown_roundtrip(tiny_result):
    energy = tiny_result.energy
    rebuilt = energy_breakdown_from_dict(
        energy_breakdown_to_dict(energy))
    assert rebuilt == energy
    assert rebuilt.total == pytest.approx(energy.total)


def test_allocation_roundtrip(tiny_result):
    allocation = tiny_result.allocation
    rebuilt = allocation_from_dict(allocation_to_dict(allocation))
    assert rebuilt.algorithm == allocation.algorithm
    assert rebuilt.spm_resident == allocation.spm_resident
    assert rebuilt.capacity == allocation.capacity


def test_experiment_result_roundtrip(tiny_result):
    data = experiment_result_to_dict(tiny_result)
    rebuilt = experiment_result_from_dict(data)
    assert rebuilt.energy.total == pytest.approx(
        tiny_result.energy.total)
    assert rebuilt.allocation.spm_resident == \
        tiny_result.allocation.spm_resident
    assert experiment_result_to_dict(rebuilt) == data


def test_experiment_result_payload_is_built_once(tiny_result):
    result = experiment_result_from_dict(
        experiment_result_to_dict(tiny_result))
    payload = experiment_result_payload(result)
    assert payload == experiment_result_to_dict(result)
    assert experiment_result_payload(result) is payload


def test_payload_memo_is_never_pickled(tiny_result, tmp_path):
    result = experiment_result_from_dict(
        experiment_result_to_dict(tiny_result))
    unmemoised = pickle.dumps(result)
    experiment_result_payload(result)
    assert pickle.dumps(result) == unmemoised
    store = ArtifactStore(cache_dir=tmp_path)
    store.put("result", "d1", AllocationArtifact("d1", result))
    reloaded = ArtifactStore(cache_dir=tmp_path).get("result", "d1")
    assert reloaded.result._payload is None
    assert experiment_result_payload(reloaded.result) \
        == experiment_result_payload(result)


def test_payload_memo_is_released_with_its_store_entry(tiny_result):
    store = ArtifactStore(memory_items=1)
    result = experiment_result_from_dict(
        experiment_result_to_dict(tiny_result))
    store.put("result", "d1", AllocationArtifact("d1", result))
    experiment_result_payload(store.get("result", "d1").result)
    alive = weakref.ref(result)
    del result
    gc.collect()
    assert alive() is not None
    store.put("result", "d2", AllocationArtifact("d2", None))
    gc.collect()
    assert alive() is None


def test_kind_mismatch_is_rejected(tiny_result):
    data = report_to_dict(tiny_result.report)
    data["kind"] = "allocation"
    with pytest.raises(ConfigurationError):
        report_from_dict(data)
