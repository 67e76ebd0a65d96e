"""Figure 4 — CASA vs. Steinke's algorithm on the MPEG benchmark.

The paper plots, for a 2 kB direct-mapped I-cache and scratchpad sizes
128-1024 bytes, four quantities of the CASA-allocated system as a
percentage of the Steinke-allocated system (= 100 %):

* scratchpad accesses   (CASA's are *lower* — it does not chase the
  cheapest memory),
* I-cache accesses      (CASA's are *higher*, for the same reason),
* I-cache misses        (CASA's are much lower — the whole point),
* energy                (lower, up to 60 % in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import ExperimentResult
from repro.evaluation.reporting import series_table
from repro.evaluation.sweep import run_sweep

#: Scratchpad sizes shown in the paper's figure.
DEFAULT_SIZES = (128, 256, 512, 1024)


@dataclass
class Fig4Row:
    """CASA-as-percent-of-Steinke at one scratchpad size."""

    spm_size: int
    casa: ExperimentResult
    steinke: ExperimentResult

    @staticmethod
    def _pct(value: float, base: float) -> float:
        return 100.0 if base == 0 else 100.0 * value / base

    @property
    def spm_access_pct(self) -> float:
        """CASA scratchpad accesses as % of Steinke's."""
        return self._pct(self.casa.report.spm_accesses,
                         self.steinke.report.spm_accesses)

    @property
    def icache_access_pct(self) -> float:
        """CASA I-cache accesses as % of Steinke's."""
        return self._pct(self.casa.report.cache_accesses,
                         self.steinke.report.cache_accesses)

    @property
    def icache_miss_pct(self) -> float:
        """CASA I-cache misses as % of Steinke's."""
        return self._pct(self.casa.report.cache_misses,
                         self.steinke.report.cache_misses)

    @property
    def energy_pct(self) -> float:
        """CASA energy as % of Steinke's."""
        return self._pct(self.casa.energy.total,
                         self.steinke.energy.total)


@dataclass
class Fig4Result:
    """The full figure: one row per scratchpad size."""

    workload: str
    rows: list[Fig4Row]

    @property
    def sizes(self) -> tuple[int, ...]:
        """Scratchpad sizes, ascending."""
        return tuple(row.spm_size for row in self.rows)

    @property
    def average_energy_improvement(self) -> float:
        """Mean energy reduction of CASA vs. Steinke in percent."""
        return sum(100.0 - row.energy_pct for row in self.rows) / len(
            self.rows
        )

    def _series(self) -> dict[str, list[float]]:
        return {
            "SPM accesses": [r.spm_access_pct for r in self.rows],
            "I-cache accesses": [r.icache_access_pct for r in self.rows],
            "I-cache misses": [r.icache_miss_pct for r in self.rows],
            "Energy": [r.energy_pct for r in self.rows],
        }

    def render(self) -> str:
        """Text rendering of the figure's series."""
        return series_table(
            f"Figure 4 - CASA vs. Steinke on {self.workload} "
            "(Steinke = 100%)",
            "metric (% of Steinke)",
            self.sizes,
            self._series(),
        )

    def render_chart(self) -> str:
        """Grouped-bar rendering (the paper's visual form)."""
        from repro.utils.barchart import horizontal_bars
        return horizontal_bars(
            [f"{size}B" for size in self.sizes], self._series()
        )


def run_fig4(
    workload: str = "mpeg",
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    record=None,
    backend: str | None = None,
) -> Fig4Result:
    """Reproduce figure 4 (optionally on another workload or scale).

    ``jobs`` fans the sweep's work units across worker processes;
    ``record`` (a :class:`~repro.engine.runner.RunRecord`) collects the
    engine's per-stage hit/compute counters; ``backend`` picks the
    simulation backend.
    """
    points = run_sweep(
        workload, sizes, algorithms=("casa", "steinke"),
        scale=scale, seed=seed, jobs=jobs, record=record,
        backend=backend,
    )
    rows = [
        Fig4Row(
            spm_size=point.spm_size,
            casa=point.result("casa"),
            steinke=point.result("steinke"),
        )
        for point in points
    ]
    return Fig4Result(workload=workload, rows=rows)
