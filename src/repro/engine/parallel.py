"""Work-unit execution for the CLI exhibits: a strict executor view.

:func:`map_points` evaluates :class:`~repro.engine.grid.GridChunk`
work units on the engine's one executor — the self-healing loop of
:mod:`repro.resilience.healing` under the default
:class:`~repro.resilience.healing.RetryPolicy` — and returns plain
results in input order, so parallel output is indistinguishable from
serial output.  Transient faults and worker crashes heal; a unit that
still fails after its retries raises.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.engine.grid import GridChunk
from repro.engine.runner import RunRecord

if TYPE_CHECKING:
    from repro.core.pipeline import ExperimentResult


def map_points(
    points: list[GridChunk] | tuple[GridChunk, ...],
    jobs: int = 1,
    record: RunRecord | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> list[list["ExperimentResult"]]:
    """Evaluate *points*, optionally across a process pool.

    Args:
        points: :class:`~repro.engine.grid.GridChunk` work units in
            the order results are wanted.
        jobs: worker processes; ``<= 1`` runs serially in-process.
        record: run record that receives the merged per-stage counters
            from every worker (or the serial runner).
        cache_dir: on-disk cache directory shared with the workers;
            defaults to the process-wide store's directory.

    Returns:
        One list of :class:`~repro.core.pipeline.ExperimentResult` per
        chunk (one entry per capacity), in input order — byte-for-byte
        identical to a serial run.

    Raises:
        ConfigurationError: for an unknown algorithm.
        Exception: the last error of the first unit that still failed
            after its retries.
    """
    # Imported here: the healing layer imports the engine package.
    from repro.resilience.healing import RetryPolicy, _run

    run = _run(points, jobs, RetryPolicy(), record, cache_dir)
    for outcome in run.outcomes:
        if outcome.exception is not None:  # only failed units keep one
            raise outcome.exception
    return [outcome.result for outcome in run.outcomes]
