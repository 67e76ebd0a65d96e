"""Grid-native cache replay: one traversal, every LRU geometry.

LRU is a *stack algorithm*: at any probe, a cache with ``A`` ways
holds exactly the ``A`` most recently used distinct lines of each set.
A probe therefore hits in every LRU geometry whose associativity
exceeds its per-set stack distance (the number of distinct same-set
lines touched since the probe's line was last accessed), and the line
at recency depth ``A - 1`` is the one displaced when a miss inserts
into a full set.  One chronological scan per (line size, set count)
group of a :class:`SweepGrid` therefore yields hit masks *and*
eviction attribution for every associativity in the grid at once —
the many-configurations-per-traversal evaluation of the DSE
literature applied to the paper's conflict-attributing caches.

Two properties keep the scan cheap:

* a probe whose set's previous probe touched the same line sits at
  recency depth zero — it hits in every geometry and changes no
  recency state, so such probes are filtered vectorially and never
  enter the Python scan (instruction streams are dominated by them);
* the recency list is truncated at the grid's maximum associativity:
  anything deeper misses everywhere, and its eviction attribution was
  already recorded when it crossed each tracked depth.

Of the replacement policies only LRU is a stack algorithm (FIFO hits
do not refresh recency; LFU/2Q/ARC/OPT violate inclusion outright), so
set-associative non-LRU shapes — and anything
:func:`~repro.memory.kernel.vector.unsupported_reason` rejects — fall
back to per-configuration replay: FIFO/LFU/2Q land on the vector
kernel's per-set interpreters (counted in ``sim.grid.per_config`` —
they never leave the kernel), while ARC/OPT/random configs must be
pre-routed to the reference simulator by the caller, since
:func:`~repro.memory.kernel.vector.simulate_stream` raises for them.
Direct-mapped members of kernel-supported policies reuse the
vectorized direct replay, one per group regardless of policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.kernel.stream import FetchStream, narrow_keys
from repro.memory.kernel.vector import (
    _EMPTY_I32,
    _EMPTY_I64,
    _Replay,
    _replay_direct,
    assemble_report,
    simulate_stream,
    unsupported_reason,
)
from repro.memory.stats import SimulationReport
from repro.obs import metrics
from repro.obs.trace import span


@dataclass(frozen=True)
class SweepGrid:
    """The cache axis of a sweep: hierarchy configurations to replay.

    A first-class value the kernel can partition into single-pass
    scan groups.

    Attributes:
        configs: hierarchy configurations
            (:class:`~repro.memory.hierarchy.HierarchyConfig`), in the
            order reports are returned.
    """

    configs: tuple

    @classmethod
    def of(cls, configs) -> "SweepGrid":
        """Build a grid from any iterable of hierarchy configs."""
        return cls(configs=tuple(configs))

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    def partition(self) -> tuple[dict, list[int], list[int]]:
        """Split the axis into scan groups and per-config fallbacks.

        Returns:
            ``(groups, plain, fallback)`` where ``groups`` maps
            ``(line_size, num_sets)`` to member config indices that
            the single-pass scan covers (LRU, or direct-mapped under
            any kernel-supported policy), ``plain`` lists cache-less
            configs (no replay needed at all), and ``fallback`` lists
            configs that must be replayed one at a time — non-stack
            policies (FIFO/LFU/2Q) and loop caches (the scan knows no
            loop-cache controller) per-config on the vector kernel,
            kernel-unsupported ones (ARC/OPT/random) on whatever the
            caller routes them to.
        """
        groups: dict[tuple[int, int], list[int]] = {}
        plain: list[int] = []
        fallback: list[int] = []
        for index, cfg in enumerate(self.configs):
            if cfg.loop_cache is not None or \
                    unsupported_reason(cfg) is not None:
                fallback.append(index)
                continue
            cache = cfg.cache
            if cache is None:
                plain.append(index)
                continue
            if cache.policy != "lru" and cache.associativity != 1:
                fallback.append(index)
                continue
            key = (cache.line_size, cache.num_sets)
            groups.setdefault(key, []).append(index)
        return groups, plain, fallback

    def coverage(self) -> tuple[int, int]:
        """``(covered, fallback)`` config counts of the grid."""
        groups, plain, fallback = self.partition()
        covered = sum(len(m) for m in groups.values()) + len(plain)
        return covered, len(fallback)


def _scan_group(
    line: np.ndarray,
    owner: np.ndarray,
    num_sets: int,
    assocs: list[int],
) -> tuple[list[np.ndarray], list[list[tuple[int, int, int]]]]:
    """One chronological pass yielding all associativities at once.

    ``assocs`` must be ascending and all >= 2 (LRU); the return value
    carries, aligned with it, one global hit mask and one conflict
    event list per associativity.
    """
    total = line.shape[0]
    max_ways = assocs[-1]

    set_idx = narrow_keys(line & (num_sets - 1))
    set_order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[set_order]
    sorted_lines = line[set_order]

    # Depth-zero probes: same line as the set's previous probe.  They
    # hit in every geometry and leave the recency order untouched.
    trivial = np.zeros(total, dtype=bool)
    if total:
        trivial[1:] = (
            (sorted_sets[1:] == sorted_sets[:-1])
            & (sorted_lines[1:] == sorted_lines[:-1])
        )
    base_hit = np.zeros(total, dtype=bool)
    base_hit[set_order[trivial]] = True

    hits = [base_hit.copy() for _ in assocs]
    events: list[list[tuple[int, int, int]]] = [[] for _ in assocs]

    deep_pos = np.flatnonzero(~trivial)
    if deep_pos.size == 0:
        return hits, events
    deep_global = set_order[deep_pos]
    deep_sets = sorted_sets[deep_pos]

    cuts = np.flatnonzero(np.diff(deep_sets)) + 1
    bounds = [0, *cuts.tolist(), int(deep_global.shape[0])]
    lines_l = line[deep_global].tolist()
    owners_l = owner[deep_global].tolist()
    idx_l = deep_global.tolist()
    flags: list[list[bool]] = [[] for _ in assocs]
    slots = range(len(assocs))

    for b in range(len(bounds) - 1):
        start, stop = bounds[b], bounds[b + 1]
        # Recency list, MRU first, truncated at max_ways entries; one
        # eviction-attribution dict per tracked associativity.
        recency: list[int] = []
        evicted: list[dict[int, int]] = [dict() for _ in assocs]
        for pos in range(start, stop):
            line_id = lines_l[pos]
            depth = -1
            for j, resident in enumerate(recency):
                if resident == line_id:
                    depth = j
                    break
            probe_owner = owners_l[pos]
            if depth >= 0:
                del recency[depth]
                shifted = depth
            else:
                shifted = len(recency)
            recency.insert(0, line_id)
            size = len(recency)
            for k in slots:
                ways = assocs[k]
                if 0 <= depth < ways:
                    flags[k].append(True)
                    continue
                flags[k].append(False)
                evictor = evicted[k].get(line_id)
                if evictor is not None:
                    events[k].append((idx_l[pos], probe_owner, evictor))
                # The entry now at index `ways` crossed the geometry's
                # capacity boundary: this probe evicted it.
                if ways <= shifted and ways < size:
                    evicted[k][recency[ways]] = probe_owner
            if size > max_ways:
                recency.pop()

    for k in slots:
        hits[k][deep_global] = flags[k]
    return hits, events


def _replay_from_scan(
    hit: np.ndarray, events: list[tuple[int, int, int]]
) -> _Replay:
    """Package one associativity's scan outcome as a `_Replay`."""
    if not events:
        return _Replay(hit, _EMPTY_I64, _EMPTY_I32, _EMPTY_I32)
    events.sort()
    idx, victims, evictors = zip(*events)
    return _Replay(
        hit=hit,
        conflict_idx=np.asarray(idx, dtype=np.int64),
        victim=np.asarray(victims, dtype=np.int32),
        evictor=np.asarray(evictors, dtype=np.int32),
    )


def simulate_grid(
    stream: FetchStream,
    grid: SweepGrid,
    spm_base: int | None = None,
) -> list[SimulationReport]:
    """Replay one stream under a whole cache axis in shared passes.

    Produces reports bit-identical to calling
    :func:`~repro.memory.kernel.vector.simulate_stream` once per
    config (the ``repro verify-grid`` gate enforces this), but pays
    the per-set chronological scan once per (line size, set count)
    group instead of once per configuration.

    Args:
        stream: compiled fetch stream.
        grid: the cache axis to replay.
        spm_base: scratchpad base override applied to every config.

    Returns:
        One report per grid config, in grid order.
    """
    configs = grid.configs
    reports: list[SimulationReport | None] = [None] * len(configs)
    groups, plain, fallback = grid.partition()

    metrics.inc("sim.grid.batches")
    metrics.inc("sim.grid.configs", len(configs))
    metrics.inc("sim.grid.groups", len(groups))
    with span("sim.grid.replay", configs=len(configs),
              groups=len(groups), fallbacks=len(fallback)) as grid_span:
        scanned_probes = 0
        for (line_size, num_sets), members in groups.items():
            probes = stream.probes(line_size)
            line = probes.line
            owner = probes.owner
            scanned_probes += len(probes)

            direct_replay = None
            if any(configs[i].cache.associativity == 1
                   for i in members):
                direct_replay = _replay_direct(
                    line, owner, num_sets, attribute=True,
                    line_order=probes.line_order,
                )
            assocs = sorted({
                configs[i].cache.associativity for i in members
                if configs[i].cache.associativity > 1
            })
            replay_by_ways: dict[int, _Replay] = {}
            if assocs:
                hits, events = _scan_group(line, owner, num_sets,
                                           assocs)
                for k, ways in enumerate(assocs):
                    replay_by_ways[ways] = _replay_from_scan(
                        hits[k], events[k]
                    )
            for i in members:
                ways = configs[i].cache.associativity
                replay = (direct_replay if ways == 1
                          else replay_by_ways[ways])
                reports[i] = assemble_report(
                    stream, configs[i], spm_base, probes, replay
                )
        for i in plain:
            reports[i] = assemble_report(
                stream, configs[i], spm_base, None, None
            )
        for i in fallback:
            # Still the vector kernel — just one replay per config
            # instead of a shared scan.  `sim.kernel.fallbacks` is
            # reserved for runs that leave the kernel for the
            # reference interpreter.
            metrics.inc("sim.grid.per_config")
            reports[i] = simulate_stream(
                stream, configs[i], spm_base=spm_base
            )
        grid_span.add(probes=scanned_probes)
    return reports
