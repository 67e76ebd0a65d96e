"""Design-space exploration: how to spend silicon on cache vs. SPM.

The paper fixes the cache per benchmark and sweeps the scratchpad; the
architect's real question is the *split*: for an on-chip area budget,
which (cache size, scratchpad size) pair — with CASA managing the
scratchpad — minimises energy?  This module enumerates the feasible
power-of-two configurations under a budget, runs the full pipeline on
each, and reports the frontier.

The replacement policy is a third axis (``policies=``, CLI
``--policies``): each policy gets its own profiling run, conflict
graph and allocations, and every design point is reported against the
offline-optimal (Belady) miss count of *its own* allocated layout —
the same probe stream replayed under OPT, so the bound is structurally
never beaten (see ``docs/POLICIES.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.energy.area import hierarchy_area
from repro.engine.grid import GridChunk
from repro.engine.parallel import map_points
from repro.errors import ConfigurationError, UnknownPolicyError
from repro.memory.config import CacheConfig
from repro.memory.replacement import available_policies
from repro.traces.tracegen import TraceGenConfig
from repro.utils.tables import format_table


@dataclass
class DesignPoint:
    """One (cache, scratchpad, policy) configuration, evaluated.

    Attributes:
        cache_size: I-cache capacity in bytes (0 = no cache).
        spm_size: scratchpad capacity in bytes (0 = none).
        area: on-chip area (model units).
        energy: total instruction-memory energy (nJ) with CASA managing
            the scratchpad.
        misses: I-cache misses of the evaluated run.
        policy: replacement policy of the evaluated cache.
        opt_misses: Belady-optimal miss count for the point's allocated
            layout (``None`` when no policy axis was requested).  Always
            ``<= misses``: same image, same probe stream, offline
            optimum.
    """

    cache_size: int
    spm_size: int
    area: float
    energy: float
    misses: int
    policy: str = "lru"
    opt_misses: int | None = None


def _power_of_two_sizes(low: int, high: int) -> list[int]:
    sizes = []
    size = low
    while size <= high:
        sizes.append(size)
        size *= 2
    return sizes


def explore(
    workload_name: str,
    area_budget: float,
    cache_sizes: list[int] | None = None,
    spm_sizes: list[int] | None = None,
    line_size: int = 16,
    scale: float = 1.0,
    seed: int = 0,
    jobs: int = 1,
    record=None,
    backend: str | None = None,
    policies: list[str] | None = None,
    associativity: int = 1,
) -> list[DesignPoint]:
    """Evaluate every feasible cache/SPM split under *area_budget*.

    A configuration is feasible if its modelled area fits the budget.
    Cache-less points are skipped (the trace generator's padding needs
    a line size; a pure-SPM machine is a different architecture), as
    are SPM-less points with no cache.

    Each cache configuration contributes one
    :class:`~repro.engine.grid.GridChunk` per allocator covering its
    whole feasible scratchpad axis (the capacity steps share the
    conflict graph).  The chunks fan through
    :func:`~repro.engine.parallel.map_points` with *jobs* workers;
    *record* collects per-stage hit/compute counters and *backend*
    picks the simulation backend for every point.

    Args:
        policies: replacement policies to cross with the cache sizes
            (any :func:`~repro.memory.replacement.available_policies`
            names).  Opens the policy axis: each policy is profiled
            and allocated independently, and every design point also
            carries the Belady-optimal miss count of its own layout
            (one extra reference-backend replay per point).  ``None``
            keeps the classic single-axis exploration (default LRU,
            no OPT bound).
        associativity: ways of every explored cache (1 = direct
            mapped, where all policies collapse — raise it to make
            the policy axis meaningful).

    Returns:
        Evaluated design points, sorted by energy (best first).

    Raises:
        ConfigurationError: if no configuration fits the budget.
        UnknownPolicyError: for a policy name outside the registry.
    """
    cache_sizes = cache_sizes or _power_of_two_sizes(128, 4096)
    spm_sizes = spm_sizes if spm_sizes is not None else \
        [0] + _power_of_two_sizes(64, 2048)
    policy_axis: list[str | None]
    if policies is None:
        policy_axis = [None]
    else:
        known = available_policies()
        for name in policies:
            if name not in known:
                raise UnknownPolicyError(name, known)
        policy_axis = list(dict.fromkeys(policies))

    units: list[GridChunk] = []
    metas: list[list[tuple[CacheConfig, TraceGenConfig, int, float]]] = []
    for cache_size in cache_sizes:
        for policy in policy_axis:
            cache = CacheConfig(
                size=cache_size, line_size=line_size,
                associativity=associativity,
                policy=policy if policy is not None else "lru",
            )
            feasible_spms = [
                spm for spm in spm_sizes
                if hierarchy_area(cache, spm) <= area_budget
            ]
            if not feasible_spms:
                continue
            tracegen = TraceGenConfig(
                line_size=line_size,
                max_trace_size=max(64, min(
                    (spm for spm in feasible_spms if spm), default=64
                )),
            )
            common = dict(
                workload=workload_name, scale=scale, seed=seed,
                cache=cache, tracegen=tracegen, backend=backend,
            )
            for algorithm in ("baseline", "casa"):
                axis = tuple(
                    spm for spm in feasible_spms
                    if (spm == 0) == (algorithm == "baseline")
                )
                if not axis:
                    continue
                units.append(GridChunk(
                    spm_sizes=axis, algorithm=algorithm, **common
                ))
                metas.append([
                    (cache, tracegen, spm, hierarchy_area(cache, spm))
                    for spm in axis
                ])
    if not units:
        raise ConfigurationError(
            f"no cache/SPM configuration fits an area budget of "
            f"{area_budget}"
        )
    outcomes = map_points(units, jobs=jobs, record=record)
    with_bound = policies is not None
    opt_bound = _OptBound(workload_name, scale, seed) if with_bound \
        else None
    points = []
    for meta, results in zip(metas, outcomes):
        for (cache, tracegen, spm, area), result in zip(meta, results):
            opt_misses = None
            if opt_bound is not None:
                opt_misses = opt_bound.misses(
                    cache, tracegen, spm, result.allocation
                )
            points.append(DesignPoint(
                cache_size=cache.size,
                spm_size=spm,
                area=area,
                energy=result.energy.total,
                misses=result.report.cache_misses,
                policy=cache.policy,
                opt_misses=opt_misses,
            ))
    points.sort(key=lambda p: p.energy)
    return points


class _OptBound:
    """Belady lower bounds for explored design points.

    One OPT-policy workbench per explored cache geometry (memoised);
    each design point's allocated layout is re-simulated through it on
    the reference backend — the only interpreter that can drive the
    next-use oracle — so the bound shares the point's exact probe
    stream and can never beat it unfairly.  The explicit
    ``backend="reference"`` keeps these replays out of the
    ``sim.kernel.fallbacks`` count.
    """

    def __init__(self, workload_name: str, scale: float,
                 seed: int) -> None:
        self._workload = workload_name
        self._scale = scale
        self._seed = seed
        self._benches: dict[tuple, object] = {}

    def _bench(self, cache: CacheConfig, tracegen: TraceGenConfig):
        # The point's exact tracegen matters: the allocation names the
        # memory objects that trace formation produced, so the OPT
        # replay must rebuild the identical layout.
        opt_cache = replace(cache, policy="opt")
        key = (opt_cache, tracegen)
        bench = self._benches.get(key)
        if bench is None:
            from repro.engine.runner import make_workbench

            _, bench = make_workbench(
                self._workload, self._scale, self._seed,
                cache=opt_cache, tracegen=tracegen,
                backend="reference",
            )
            self._benches[key] = bench
        return bench

    def misses(self, cache: CacheConfig, tracegen: TraceGenConfig,
               spm_size: int, allocation) -> int:
        """OPT miss count of *allocation*'s layout under *cache*."""
        bench = self._bench(cache, tracegen)
        result = bench.evaluate_spm(allocation, spm_size)
        return result.report.cache_misses


def pareto_frontier(points: list[DesignPoint]) -> list[DesignPoint]:
    """Energy/area Pareto frontier of a set of design points.

    A point is on the frontier if no other point has both lower-or-equal
    area and lower-or-equal energy (with at least one strict).

    Returns:
        Frontier points sorted by area, ascending.
    """
    frontier: list[DesignPoint] = []
    for candidate in points:
        dominated = any(
            other.area <= candidate.area
            and other.energy <= candidate.energy
            and (other.area < candidate.area
                 or other.energy < candidate.energy)
            for other in points
        )
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda p: p.area)
    return frontier


def render_design_points(points: list[DesignPoint],
                         top: int = 10) -> str:
    """Render the best *top* configurations as a table.

    When the points carry a policy axis, two extra columns report the
    policy and the Belady (OPT) miss floor of each point's layout.
    """
    with_policy = any(p.opt_misses is not None for p in points)
    headers = ["cache", "scratchpad", "area", "energy uJ",
               "I-cache misses"]
    if with_policy:
        headers += ["policy", "OPT floor"]
    rows = []
    for p in points[:top]:
        row = [f"{p.cache_size}B", f"{p.spm_size}B", f"{p.area:.0f}",
               f"{p.energy / 1e3:.2f}", p.misses]
        if with_policy:
            row += [p.policy,
                    p.opt_misses if p.opt_misses is not None else "-"]
        rows.append(row)
    return format_table(headers, rows,
                        title="best cache/scratchpad splits under "
                              "the area budget")
