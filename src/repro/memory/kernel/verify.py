"""Differential verification of the vector kernel.

The kernel's contract is *bit-identical* reports — not just equal
totals, but the same per-object counters, the same ``mo_stats``
insertion order and the same conflict-Counter key order as the
reference simulator.  This module checks that contract from four
independent directions:

1. **Randomized probe-level replay** — random cache geometries
   (power-of-two line size, associativity and set count, any
   kernel-supported policy: LRU, FIFO, LFU or 2Q) are driven with
   random line-probe sequences through both the reference
   :class:`~repro.memory.cache.Cache` and the kernel's replay,
   comparing every per-probe hit/miss outcome and the full conflict
   attribution.
2. **End-to-end workload replay** — committed workloads are simulated
   under a grid of hierarchy configurations (direct-mapped and
   set-associative, every kernel-supported policy, several line
   sizes, with and without a scratchpad and an L2) through both
   backends, and the two reports are compared field by field.
3. **Loop-cache replay** — each workload's baseline image is
   simulated with a preloaded loop cache next to every hierarchy of
   the end-to-end grid, once with Ross's regions at each of the
   workload's sizes and once with seeded synthetic regions that cut
   through fetch segments (Ross's regions cover whole segments, so
   only the synthetic ones exercise the kernel's word-by-word split),
   plus one cache-less loop-cache hierarchy; both backends' reports
   are compared field by field.
4. **Audit cross-check** — the conflict graph built from a
   *vector-backend* report is audited against the event stream the
   *reference* simulator actually emitted
   (:func:`repro.obs.events.audit_workload` with ``backend="vector"``).

``repro verify-kernel`` runs all four and exits non-zero on any
difference.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.memory.cache import Cache, CacheConfig
from repro.memory.kernel.vector import _conflict_counters, _replay
from repro.memory.stats import SimulationReport
from repro.obs.trace import span

#: Default workloads of the end-to-end and audit checks.
DEFAULT_WORKLOADS = ("tiny", "adpcm")

#: The kernel-supported corner of the cache design space, used by both
#: the random generator and the end-to-end configuration grid.
LINE_SIZES = (8, 16, 32)
ASSOCIATIVITIES = (1, 2, 4)
POLICIES = ("lru", "fifo", "lfu", "2q")


def report_differences(reference: SimulationReport,
                       vector: SimulationReport) -> list[str]:
    """Every field where two reports disagree, human-readably.

    The comparison is strict: per-object counters, scalar totals and
    the *insertion order* of ``mo_stats`` and of both conflict
    Counters all participate, because downstream consumers (the
    conflict graph, rendered tables) observe those orders.
    """
    differences: list[str] = []

    def check(label: str, expected, actual) -> None:
        if expected != actual:
            differences.append(
                f"{label}: reference {expected!r} != vector {actual!r}"
            )

    check("mo_stats keys", list(reference.mo_stats),
          list(vector.mo_stats))
    for name in reference.mo_stats:
        if name not in vector.mo_stats:
            continue
        expected = reference.mo_stats[name]
        actual = vector.mo_stats[name]
        for field_name in ("fetches", "spm_accesses", "lc_accesses",
                           "cache_hits", "cache_misses",
                           "compulsory_misses"):
            check(f"mo_stats[{name!r}].{field_name}",
                  getattr(expected, field_name),
                  getattr(actual, field_name))
    check("conflict_misses", list(reference.conflict_misses.items()),
          list(vector.conflict_misses.items()))
    check("phase_conflicts", list(reference.phase_conflicts.items()),
          list(vector.phase_conflicts.items()))
    for field_name in ("lc_controller_checks", "main_memory_words",
                       "num_block_executions", "overlay_copy_words",
                       "l2_hits", "l2_misses"):
        check(field_name, getattr(reference, field_name),
              getattr(vector, field_name))
    return differences


@dataclass(frozen=True)
class VerifyCase:
    """Outcome of one differential check.

    Attributes:
        kind: ``probe`` | ``workload`` | ``loop-cache`` | ``audit``.
        description: what was compared (config, workload, trial seed).
        differences: disagreements found (empty = the check passed).
    """

    kind: str
    description: str
    differences: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the two sides agreed exactly."""
        return not self.differences


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one full differential-verification run."""

    cases: tuple[VerifyCase, ...]

    @property
    def ok(self) -> bool:
        """Whether every case passed."""
        return all(case.ok for case in self.cases)

    @property
    def failures(self) -> list[VerifyCase]:
        """The cases that found a difference."""
        return [case for case in self.cases if not case.ok]

    def render(self) -> str:
        """Human-readable verdict, one line per failing case."""
        by_kind: Counter = Counter(case.kind for case in self.cases)
        coverage = ", ".join(
            f"{count} {kind}" for kind, count in sorted(by_kind.items())
        )
        lines = [f"kernel differential verification: "
                 f"{len(self.cases)} cases ({coverage})"]
        if self.ok:
            lines.append(
                "  OK — vector kernel matches the reference "
                "simulator bit-for-bit"
            )
            return "\n".join(lines)
        lines.append(f"  {len(self.failures)} FAILING CASES:")
        for case in self.failures:
            lines.append(f"  - [{case.kind}] {case.description}")
            for diff in case.differences[:8]:
                lines.append(f"      {diff}")
            hidden = len(case.differences) - 8
            if hidden > 0:
                lines.append(f"      ... and {hidden} more")
        return "\n".join(lines)


# -- check 1: randomized probe-level replay -----------------------------------


def random_cache_config(rng: random.Random) -> CacheConfig:
    """A random kernel-supported cache geometry.

    Sizes are derived as ``line * associativity * sets`` with every
    factor a power of two, so the result always satisfies the
    :class:`~repro.memory.cache.CacheConfig` constraints.
    """
    line_size = rng.choice(LINE_SIZES)
    associativity = rng.choice(ASSOCIATIVITIES)
    num_sets = rng.choice((1, 2, 4, 8))
    return CacheConfig(
        size=line_size * associativity * num_sets,
        line_size=line_size,
        associativity=associativity,
        policy=rng.choice(POLICIES),
    )


def _random_probes(rng: random.Random, config: CacheConfig
                   ) -> tuple[list[int], list[int], tuple[str, ...]]:
    """A random probe sequence sized to exercise evictions.

    The line pool is a small multiple of the cache's line capacity so
    capacity and conflict misses actually occur; each line belongs to
    a fixed owner, mirroring real layouts where a line holds one
    memory object.
    """
    capacity_lines = config.num_sets * config.associativity
    pool = rng.randrange(capacity_lines + 1, 4 * capacity_lines + 2)
    names = tuple(f"mo{index}" for index in range(rng.randrange(2, 6)))
    owner_of_line = [rng.randrange(len(names)) for _ in range(pool)]
    length = rng.randrange(50, 400)
    # Mix uniform draws with short sequential runs (the fetch pattern
    # real streams produce).
    lines: list[int] = []
    while len(lines) < length:
        start = rng.randrange(pool)
        run = rng.randrange(1, 5)
        for offset in range(run):
            lines.append((start + offset) % pool)
    lines = lines[:length]
    owners = [owner_of_line[line] for line in lines]
    return lines, owners, names


def _reference_probe_replay(lines: list[int], owners: list[int],
                            names: tuple[str, ...],
                            config: CacheConfig
                            ) -> tuple[list[bool], Counter, int]:
    """Drive the reference cache probe by probe."""
    cache = Cache(config)
    hits = [
        cache.access_line(line, names[owner])
        for line, owner in zip(lines, owners)
    ]
    return hits, cache.conflict_misses, cache.compulsory_misses


def _probe_case(seed: int) -> VerifyCase:
    """One randomized probe-level differential trial."""
    rng = random.Random(seed)
    config = random_cache_config(rng)
    lines, owners, names = _random_probes(rng, config)
    ref_hits, ref_conflicts, ref_compulsory = \
        _reference_probe_replay(lines, owners, names, config)

    line_array = np.asarray(lines, dtype=np.int64)
    owner_array = np.asarray(owners, dtype=np.int32)
    replay = _replay(line_array, owner_array, config, attribute=True)
    conflicts, _ = _conflict_counters(replay, names)
    first_seen: set[int] = set()
    compulsory = 0
    for line in lines:
        if line not in first_seen:
            first_seen.add(line)
            compulsory += 1

    differences: list[str] = []
    vec_hits = replay.hit.tolist()
    if ref_hits != vec_hits:
        mismatches = [
            index for index, (expected, actual)
            in enumerate(zip(ref_hits, vec_hits))
            if expected != actual
        ]
        differences.append(
            f"hit/miss outcome differs at probes {mismatches[:10]} "
            f"({len(mismatches)} of {len(lines)})"
        )
    if list(ref_conflicts.items()) != list(conflicts.items()):
        differences.append(
            f"conflict attribution: reference "
            f"{dict(ref_conflicts)!r} != vector {dict(conflicts)!r}"
        )
    if ref_compulsory != compulsory:
        differences.append(
            f"compulsory misses: reference {ref_compulsory} != "
            f"vector {compulsory}"
        )
    description = (
        f"seed={seed} size={config.size} line={config.line_size} "
        f"assoc={config.associativity} policy={config.policy} "
        f"probes={len(lines)}"
    )
    return VerifyCase("probe", description, tuple(differences))


# -- check 2: end-to-end workload replay --------------------------------------


def _config_grid() -> list:
    """Hierarchy configurations of the end-to-end check.

    Covers the kernel's whole supported surface: the line / way /
    policy cross product (every :data:`POLICIES` member) at a fixed
    small capacity (so conflicts occur), plus one two-level (L1+L2)
    configuration.
    """
    from repro.memory.config import HierarchyConfig

    configs = []
    for line_size in LINE_SIZES:
        for associativity in ASSOCIATIVITIES:
            for policy in POLICIES:
                configs.append(HierarchyConfig(cache=CacheConfig(
                    size=line_size * associativity * 4,
                    line_size=line_size,
                    associativity=associativity,
                    policy=policy,
                )))
    l1 = CacheConfig(size=128, line_size=16, associativity=2)
    l2 = CacheConfig(size=512, line_size=16, associativity=4)
    configs.append(HierarchyConfig(cache=l1, l2_cache=l2))
    return configs


def workload_images(workload_name: str, scale: float, seed: int):
    """Baseline and scratchpad-resident images of one workload.

    Shared fixture of the kernel and grid differential gates: the
    cache-only image plus (when anything fits) a greedy-filled
    scratchpad image at the workload's smallest table-1 size.

    Returns:
        ``(bench, images)`` where each image entry is a
        ``(label, image, spm_size)`` triple.
    """
    from repro.engine.runner import make_workbench
    from repro.traces.layout import LinkedImage, Placement

    workload, bench = make_workbench(
        workload_name, scale, seed, backend="reference"
    )
    config = bench.config
    spm_size = min(workload.spm_sizes)
    resident: set[str] = set()
    used = 0
    for mo in bench.memory_objects:
        if used + mo.unpadded_size <= spm_size:
            resident.add(mo.name)
            used += mo.unpadded_size

    def image(spm_resident: frozenset[str], size: int) -> LinkedImage:
        return LinkedImage(
            bench.program,
            bench.memory_objects,
            spm_resident=spm_resident,
            spm_size=size,
            placement=Placement.COPY,
            main_base=config.main_base,
            spm_base=config.spm_base,
        )

    images = [("baseline", image(frozenset(), 0), 0)]
    if resident:
        images.append(("spm", image(frozenset(resident), spm_size),
                       spm_size))
    return bench, images


def _describe(hierarchy) -> str:
    """The cache geometry of a hierarchy, for a case description."""
    cache = hierarchy.cache
    if cache is None:
        return "cache-less"
    return (
        f"size={cache.size} line={cache.line_size} "
        f"assoc={cache.associativity} policy={cache.policy}"
        + (" +L2" if hierarchy.l2_cache is not None else "")
    )


def _differential_case(kind: str, description: str, bench, image,
                       stream, hierarchy,
                       loop_regions=None) -> VerifyCase:
    """Simulate one hierarchy through both backends and compare."""
    from repro.memory.hierarchy import simulate
    from repro.memory.kernel.vector import simulate_stream

    spm_base = bench.config.spm_base
    reference = simulate(
        image, hierarchy, bench.block_sequence, spm_base=spm_base,
        loop_regions=loop_regions, backend="reference",
    )
    vector = simulate_stream(stream, hierarchy, spm_base=spm_base,
                             loop_regions=loop_regions or ())
    return VerifyCase(kind, description,
                      tuple(report_differences(reference, vector)))


def _workload_cases(workload_name: str, scale: float,
                    seed: int) -> list[VerifyCase]:
    """End-to-end and loop-cache cases for one workload."""
    from dataclasses import replace

    from repro.memory.kernel.stream import compile_stream

    bench, images = workload_images(workload_name, scale, seed)
    cases: list[VerifyCase] = []
    for label, image, spm_size in images:
        stream = compile_stream(image, bench.block_sequence,
                                spm_base=bench.config.spm_base)
        for hierarchy in _config_grid():
            hierarchy = replace(hierarchy, spm_size=spm_size)
            cases.append(_differential_case(
                "workload",
                f"{workload_name}/{label} {_describe(hierarchy)}",
                bench, image, stream, hierarchy,
            ))
        if label == "baseline":
            cases.extend(_loop_cache_cases(workload_name, seed, bench,
                                           image, stream))
    return cases


# -- check 3: loop-cache replay -----------------------------------------------


def synthetic_regions(stream, seed: int, count: int = 3) -> list:
    """Seeded word-aligned loop regions that cut through segments.

    Each region starts inside a random multi-word cache-path segment,
    so that segment straddles the region's start; regions never
    overlap, as the loop cache requires.
    """
    from repro.memory.config import LoopRegion

    rng = random.Random(seed)
    candidates = np.flatnonzero(
        (stream.seg_words > 1) & ~stream.seg_on_spm
    ).tolist()
    regions: list[LoopRegion] = []
    for _ in range(8 * count):
        if len(regions) == count or not candidates:
            break
        segment = rng.choice(candidates)
        start = int(stream.seg_addr[segment]) + 4 * rng.randrange(
            1, int(stream.seg_words[segment])
        )
        end = start + 4 * rng.randrange(1, 40)
        if all(end <= r.start or r.end <= start for r in regions):
            regions.append(LoopRegion(f"synthetic:{len(regions)}",
                                      start, end - start))
    return regions


def _loop_cache_cases(workload_name: str, seed: int, bench, image,
                      stream) -> list[VerifyCase]:
    """Loop-cache reference-vs-vector cases on the baseline image."""
    from dataclasses import replace

    from repro.core.ross import RossLoopCacheAllocator
    from repro.memory.config import HierarchyConfig
    from repro.memory.config import LoopCacheConfig
    from repro.workloads.registry import get_workload

    region_sets = []
    for size in get_workload(workload_name).spm_sizes:
        lc_config = LoopCacheConfig(size=size)
        allocation = RossLoopCacheAllocator(lc_config).allocate(
            bench.conflict_graph, context=bench.allocation_context()
        )
        region_sets.append((f"ross@{size}", lc_config,
                            list(allocation.loop_regions)))
    regions = synthetic_regions(stream, seed)
    region_sets.append((
        f"synthetic(seed={seed})",
        LoopCacheConfig(size=sum(r.size for r in regions),
                        max_regions=max(1, len(regions))),
        regions,
    ))

    cases: list[VerifyCase] = []
    for label, lc_config, regions in region_sets:
        for hierarchy in _config_grid():
            cases.append(_differential_case(
                "loop-cache",
                f"{workload_name}/{label} {_describe(hierarchy)}",
                bench, image, stream,
                replace(hierarchy, loop_cache=lc_config), regions,
            ))
    label, lc_config, regions = region_sets[-1]
    cases.append(_differential_case(
        "loop-cache", f"{workload_name}/{label} cache-less",
        bench, image, stream,
        HierarchyConfig(cache=None, loop_cache=lc_config), regions,
    ))
    return cases


# -- check 4: audit cross-check -----------------------------------------------


def _audit_case(workload_name: str, scale: float,
                seed: int) -> VerifyCase:
    """Audit a vector-built conflict graph against reference events."""
    from repro.obs.events import audit_workload

    result = audit_workload(workload_name, scale=scale, seed=seed,
                            backend="vector")
    differences = tuple(
        mismatch.describe() for mismatch in result.mismatches
    )
    description = (
        f"{workload_name}: vector conflict graph vs "
        f"{result.events} reference events"
    )
    return VerifyCase("audit", description, differences)


# -- entry point --------------------------------------------------------------


def verify_kernel(
    workloads: tuple[str, ...] | list[str] | None = None,
    trials: int = 50,
    seed: int = 0,
    scale: float = 1.0,
) -> VerifyReport:
    """Run the full differential-verification suite.

    Args:
        workloads: workload names of the end-to-end and audit checks
            (default :data:`DEFAULT_WORKLOADS`).
        trials: randomized probe-level trials.
        seed: base seed; trial ``t`` uses ``seed + t``.
        scale: workload trip-count multiplier of the end-to-end runs.

    Returns:
        A :class:`VerifyReport`; ``report.ok`` is the verdict.
    """
    names = tuple(workloads) if workloads else DEFAULT_WORKLOADS
    cases: list[VerifyCase] = []
    with span("kernel.verify", trials=trials,
              workloads=len(names)) as verify_span:
        for trial in range(trials):
            cases.append(_probe_case(seed + trial))
        for workload_name in names:
            cases.extend(_workload_cases(workload_name, scale, seed))
            cases.append(_audit_case(workload_name, scale, seed))
        report = VerifyReport(tuple(cases))
        verify_span.add(cases=len(cases),
                        failures=len(report.failures))
    return report
