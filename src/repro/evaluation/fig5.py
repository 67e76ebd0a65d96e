"""Figure 5 — CASA scratchpad vs. Ross's preloaded loop cache.

The paper plots, for the same cache and sizes as figure 4, the
scratchpad system (allocated by CASA) as a percentage of the loop-cache
system (allocated by Ross's heuristic, = 100 %):

* at small sizes the loop cache serves *more* accesses than the
  scratchpad (four whole regions fit);
* as the size grows the loop cache saturates at its fixed number of
  preloadable regions while the scratchpad keeps accepting objects, so
  scratchpad accesses overtake it and I-cache misses drop well below;
* energy ends up ~26 % lower on average in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import ExperimentResult
from repro.evaluation.reporting import series_table
from repro.evaluation.sweep import run_sweep

#: Sizes shown in the paper's figure.
DEFAULT_SIZES = (128, 256, 512, 1024)


@dataclass
class Fig5Row:
    """Scratchpad-as-percent-of-loop-cache at one size."""

    size: int
    casa: ExperimentResult
    ross: ExperimentResult

    @staticmethod
    def _pct(value: float, base: float) -> float:
        return 100.0 if base == 0 else 100.0 * value / base

    @property
    def local_access_pct(self) -> float:
        """Scratchpad accesses as % of loop-cache accesses."""
        return self._pct(self.casa.report.spm_accesses,
                         self.ross.report.lc_accesses)

    @property
    def icache_access_pct(self) -> float:
        """I-cache accesses, scratchpad system as % of loop-cache system."""
        return self._pct(self.casa.report.cache_accesses,
                         self.ross.report.cache_accesses)

    @property
    def icache_miss_pct(self) -> float:
        """I-cache misses, scratchpad system as % of loop-cache system."""
        return self._pct(self.casa.report.cache_misses,
                         self.ross.report.cache_misses)

    @property
    def energy_pct(self) -> float:
        """Energy, scratchpad system as % of loop-cache system."""
        return self._pct(self.casa.energy.total, self.ross.energy.total)


@dataclass
class Fig5Result:
    """The full figure: one row per size."""

    workload: str
    rows: list[Fig5Row]

    @property
    def sizes(self) -> tuple[int, ...]:
        """Scratchpad / loop-cache sizes, ascending."""
        return tuple(row.size for row in self.rows)

    @property
    def average_energy_improvement(self) -> float:
        """Mean energy reduction of the scratchpad system in percent."""
        return sum(100.0 - row.energy_pct for row in self.rows) / len(
            self.rows
        )

    def _series(self) -> dict[str, list[float]]:
        return {
            "SPM accesses (vs LC)": [r.local_access_pct
                                     for r in self.rows],
            "I-cache accesses": [r.icache_access_pct for r in self.rows],
            "I-cache misses": [r.icache_miss_pct for r in self.rows],
            "Energy": [r.energy_pct for r in self.rows],
        }

    def render(self) -> str:
        """Text rendering of the figure's series."""
        return series_table(
            f"Figure 5 - scratchpad (CASA) vs. loop cache (Ross) on "
            f"{self.workload} (loop cache = 100%)",
            "metric (% of loop cache)",
            self.sizes,
            self._series(),
        )

    def render_chart(self) -> str:
        """Grouped-bar rendering (the paper's visual form)."""
        from repro.utils.barchart import horizontal_bars
        return horizontal_bars(
            [f"{size}B" for size in self.sizes], self._series()
        )


def run_fig5(
    workload: str = "mpeg",
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    record=None,
    backend: str | None = None,
) -> Fig5Result:
    """Reproduce figure 5 (optionally on another workload or scale).

    ``jobs`` fans the sweep's work units across worker processes;
    ``record`` (a :class:`~repro.engine.runner.RunRecord`) collects the
    engine's per-stage hit/compute counters; ``backend`` picks the
    simulation backend.
    """
    points = run_sweep(
        workload, sizes, algorithms=("casa", "ross"),
        scale=scale, seed=seed, jobs=jobs, record=record,
        backend=backend,
    )
    rows = [
        Fig5Row(
            size=point.spm_size,
            casa=point.result("casa"),
            ross=point.result("ross"),
        )
        for point in points
    ]
    return Fig5Result(workload=workload, rows=rows)
