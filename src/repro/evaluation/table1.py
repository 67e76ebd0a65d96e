"""Table 1 — overall energy savings across the benchmark suite.

For each benchmark (adpcm, g721, mpeg) and each scratchpad / loop-cache
size, the paper reports the absolute instruction-memory energy of

* the scratchpad allocated by CASA,
* the scratchpad allocated by Steinke et al.,
* the loop cache preloaded by Ross's heuristic,

plus the percentage improvements "CASA vs. Steinke" and "SP (CASA) vs.
LC", with per-benchmark averages (paper: 29.0/8.2/28.0 % vs. Steinke and
44.1/19.7/26.0 % vs. the loop cache for adpcm/g721/mpeg).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.reporting import microjoules, percent
from repro.evaluation.sweep import run_sweep
from repro.utils.tables import format_table
from repro.workloads.registry import get_workload

#: Benchmarks in the paper's table.
DEFAULT_BENCHMARKS = ("adpcm", "g721", "mpeg")


@dataclass
class Table1Row:
    """One (benchmark, size) line of the table."""

    benchmark: str
    size: int
    casa_energy: float      # nJ
    steinke_energy: float   # nJ
    ross_energy: float      # nJ

    @property
    def casa_vs_steinke(self) -> float:
        """Energy improvement of CASA over Steinke, percent."""
        return (1.0 - self.casa_energy / self.steinke_energy) * 100.0

    @property
    def casa_vs_loop_cache(self) -> float:
        """Energy improvement of CASA's scratchpad over the loop cache."""
        return (1.0 - self.casa_energy / self.ross_energy) * 100.0


@dataclass
class Table1Benchmark:
    """All sizes of one benchmark plus its averages."""

    benchmark: str
    code_size: int
    rows: list[Table1Row]

    @property
    def average_vs_steinke(self) -> float:
        """Per-benchmark average improvement vs. Steinke (percent)."""
        return sum(r.casa_vs_steinke for r in self.rows) / len(self.rows)

    @property
    def average_vs_loop_cache(self) -> float:
        """Per-benchmark average improvement vs. the loop cache."""
        return sum(r.casa_vs_loop_cache for r in self.rows) / len(self.rows)


@dataclass
class Table1Result:
    """The full table."""

    benchmarks: list[Table1Benchmark]

    @property
    def overall_vs_steinke(self) -> float:
        """Grand average improvement vs. Steinke (paper: 21.1 %)."""
        rows = [r for b in self.benchmarks for r in b.rows]
        return sum(r.casa_vs_steinke for r in rows) / len(rows)

    @property
    def overall_vs_loop_cache(self) -> float:
        """Grand average improvement vs. the loop cache (paper: 28.6 %)."""
        rows = [r for b in self.benchmarks for r in b.rows]
        return sum(r.casa_vs_loop_cache for r in rows) / len(rows)

    def benchmark(self, name: str) -> Table1Benchmark:
        """Result block of one benchmark."""
        for block in self.benchmarks:
            if block.benchmark == name:
                return block
        raise KeyError(name)

    def render(self) -> str:
        """Text rendering in the paper's layout."""
        headers = [
            "Benchmark", "Mem Size (B)",
            "SP (CASA) uJ", "SP (Steinke) uJ", "LC (Ross) uJ",
            "CASA vs. Steinke %", "SP (CASA) vs. LC %",
        ]
        rows: list[list[str]] = []
        for block in self.benchmarks:
            label = f"{block.benchmark} ({block.code_size}B)"
            for index, row in enumerate(block.rows):
                rows.append([
                    label if index == 0 else "",
                    str(row.size),
                    microjoules(row.casa_energy),
                    microjoules(row.steinke_energy),
                    microjoules(row.ross_energy),
                    percent(row.casa_vs_steinke),
                    percent(row.casa_vs_loop_cache),
                ])
            rows.append([
                "", "avg", "", "", "",
                percent(block.average_vs_steinke),
                percent(block.average_vs_loop_cache),
            ])
        rows.append([
            "overall", "", "", "", "",
            percent(self.overall_vs_steinke),
            percent(self.overall_vs_loop_cache),
        ])
        return format_table(headers, rows,
                            title="Table 1 - overall energy savings")


def run_table1(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    record=None,
    backend: str | None = None,
) -> Table1Result:
    """Reproduce table 1 over the registered benchmarks.

    ``jobs`` fans each benchmark's work units across worker
    processes; ``record`` (a
    :class:`~repro.engine.runner.RunRecord`) collects the engine's
    per-stage hit/compute counters; ``backend`` picks the simulation
    backend.
    """
    blocks: list[Table1Benchmark] = []
    for name in benchmarks:
        workload = get_workload(name, scale=scale)
        points = run_sweep(
            name, algorithms=("casa", "steinke", "ross"),
            scale=scale, seed=seed, jobs=jobs, record=record,
            backend=backend,
        )
        rows = [
            Table1Row(
                benchmark=name,
                size=point.spm_size,
                casa_energy=point.energy("casa"),
                steinke_energy=point.energy("steinke"),
                ross_energy=point.energy("ross"),
            )
            for point in points
        ]
        blocks.append(
            Table1Benchmark(
                benchmark=name,
                code_size=workload.program.size,
                rows=rows,
            )
        )
    return Table1Result(benchmarks=blocks)
