"""Vectorized set-associative cache replay over compiled streams.

Two replay strategies, both bit-identical to
:meth:`repro.memory.cache.Cache.access_line`:

* **direct-mapped** caches are replayed with pure array ops: a probe
  hits iff the previous probe of its set touched the same line, the
  globally first touch of a line is its compulsory miss, and the
  evictor of a non-compulsory miss is the owner of the probe that
  followed the line's previous occurrence within its set (in a
  direct-mapped cache that probe necessarily evicted it);
* **set-associative** LRU/FIFO/LFU/2Q caches are replayed per set:
  probes are bucketed by set index with one stable argsort, then each
  set's small subsequence is interpreted chronologically with
  insertion-ordered dicts as the recency/fill/frequency queues — the
  per-set state never leaves a cache-friendly working set.  The
  line-keyed interpreters are exact because the reference fills empty
  ways in ascending order before ever evicting, making line <-> way a
  bijection within each set.

A preloaded loop cache has a fixed region table and no replacement, so
the words it serves are an address-range mask over the stream's
segments, like the scratchpad flag: the served words are counted per
segment, and only the remaining words are expanded into cache probes
(see :func:`simulate_stream`).

ARC and OPT track state beyond the resident ways (ghost lists, a
next-use oracle), and seeded random replacement is inherently
sequential; all three stay on the reference interpreter via the
``auto`` fallback matrix (counted in ``sim.kernel.fallbacks`` —
fallback cost measured in ``docs/POLICIES.md``).

Conflict events carry their global probe index, so the report's
``conflict_misses`` Counter is rebuilt in the reference simulator's
exact key order (first chronological occurrence of each (victim,
evictor) pair).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.memory.config import CacheConfig, LoopRegion
from repro.memory.kernel.stream import (
    _WORD,
    FetchStream,
    _counts,
    compile_stream,
    narrow_keys,
)
from repro.memory.stats import MemoryObjectStats, SimulationReport
from repro.obs import metrics
from repro.obs.trace import span

#: Replacement policies the kernel replays exactly.
SUPPORTED_POLICIES = ("lru", "fifo", "lfu", "2q")


class KernelUnsupported(SimulationError):
    """The vector kernel cannot replay this configuration exactly.

    Raised for phase-tracked runs, loop regions passed without a loop
    cache, and replacement policies outside :data:`SUPPORTED_POLICIES`
    (``random``, ``arc``, ``opt``); the ``auto`` backend catches it
    and falls back to the reference simulator.
    """


def unsupported_reason(
    config,
    block_phases=None,
    loop_regions=None,
) -> str | None:
    """Why the kernel cannot handle a run, or ``None`` if it can.

    Loop-cache hierarchies are replayed; loop regions without a loop
    cache are an error the reference simulator reports.

    Args:
        config: a :class:`~repro.memory.hierarchy.HierarchyConfig`.
        block_phases: phase map of the intended run, if any.
        loop_regions: preloaded loop regions of the intended run.
    """
    if loop_regions and config.loop_cache is None:
        return "loop regions without a loop cache use the reference " \
            "simulator"
    if block_phases is not None:
        return "phase-tracked (overlay) runs use the reference simulator"
    for cache in (config.cache, config.l2_cache):
        if cache is not None and cache.policy not in SUPPORTED_POLICIES:
            return (
                f"replacement policy {cache.policy!r} is not vectorized "
                f"(supported: {', '.join(SUPPORTED_POLICIES)})"
            )
    return None


@dataclass(frozen=True)
class _Replay:
    """Outcome of replaying one cache level over a probe stream."""

    hit: np.ndarray          # bool[N]
    conflict_idx: np.ndarray  # int64[C], ascending probe indices
    victim: np.ndarray       # int32[C] memory-object index
    evictor: np.ndarray      # int32[C] memory-object index


_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_I32 = np.zeros(0, dtype=np.int32)


def _replay_direct(line: np.ndarray, owner: np.ndarray,
                   num_sets: int, attribute: bool,
                   line_order: np.ndarray | None = None) -> _Replay:
    """Fully vectorized replay of a direct-mapped cache."""
    total = line.shape[0]
    hit = np.zeros(total, dtype=bool)
    if total == 0:
        return _Replay(hit, _EMPTY_I64, _EMPTY_I32, _EMPTY_I32)

    # Probe-sized temporaries are dropped as soon as they are used,
    # which keeps the replay's peak memory low.
    set_idx = narrow_keys(line & (num_sets - 1))
    set_order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[set_order]
    same_set = sorted_sets[1:] == sorted_sets[:-1]
    del set_idx, sorted_sets
    lines_by_set = line[set_order]
    hit_sorted = np.zeros(total, dtype=bool)
    hit_sorted[1:] = same_set & (lines_by_set[1:] == lines_by_set[:-1])
    del lines_by_set
    hit[set_order] = hit_sorted

    if not attribute:
        return _Replay(hit, _EMPTY_I64, _EMPTY_I32, _EMPTY_I32)

    # Previous occurrence of the same line (global probe index): the
    # predecessor in line order, if it holds the same line.
    if line_order is None:
        line_order = np.argsort(narrow_keys(line), kind="stable")
    sorted_lines = line[line_order]
    same_line = sorted_lines[1:] == sorted_lines[:-1]
    del sorted_lines
    prev_sorted = np.empty(total, dtype=np.int64)
    prev_sorted[0] = -1
    prev_sorted[1:] = np.where(same_line, line_order[:-1], -1)
    prev = np.empty(total, dtype=np.int64)
    prev[line_order] = prev_sorted
    del prev_sorted

    # A non-compulsory miss of line L was evicted by the probe that
    # followed L's previous occurrence in the set: that probe found L
    # resident, missed, and displaced it (associativity 1).
    victims = np.flatnonzero(~hit & (prev >= 0))
    last_seen = prev[victims]
    del prev
    rank = np.empty(total, dtype=np.int64)  # position in set order
    rank[set_order] = np.arange(total, dtype=np.int64)
    pos = rank[last_seen]
    del rank
    valid = pos < total - 1
    valid[valid] = same_set[pos[valid]]
    victims = victims[valid]
    evict_probe = set_order[pos[valid] + 1]
    return _Replay(
        hit=hit,
        conflict_idx=victims.astype(np.int64),
        victim=owner[victims],
        evictor=owner[evict_probe],
    )


def _replay_set_lfu(lines_l: list, owners_l: list, idx_l: list,
                    num_ways: int, attribute: bool,
                    events: list) -> list[bool]:
    """One set's chronological LFU replay, keyed by line.

    Mirrors :class:`~repro.memory.replacement.LfuPolicy` exactly: dict
    insertion order is the recency queue (refreshed on hits and fills,
    like the reference's way order), and the victim is the first
    strictly-minimal reference count scanning LRU-first.
    """
    resident: dict[int, int] = {}  # line -> refcount, LRU first.
    evicted_by: dict[int, int] = {}
    flags = []
    for pos, line_id in enumerate(lines_l):
        count = resident.pop(line_id, None)
        if count is not None:
            flags.append(True)
            resident[line_id] = count + 1
            continue
        flags.append(False)
        probe_owner = owners_l[pos]
        if attribute:
            evictor = evicted_by.get(line_id)
            if evictor is not None:
                events.append((idx_l[pos], probe_owner, evictor))
        if len(resident) >= num_ways:
            victim_line = next(iter(resident))
            best = resident[victim_line]
            for cand, cnt in resident.items():
                if cnt < best:
                    victim_line, best = cand, cnt
            del resident[victim_line]
            evicted_by[victim_line] = probe_owner
        resident[line_id] = 1
    return flags


def _replay_set_2q(lines_l: list, owners_l: list, idx_l: list,
                   num_ways: int, attribute: bool,
                   events: list) -> list[bool]:
    """One set's chronological 2Q replay, keyed by line.

    Mirrors :class:`~repro.memory.replacement.TwoQPolicy` exactly: A1
    is a FIFO of once-seen lines, a hit there promotes into the Am LRU
    queue, and victims drain A1 while it exceeds Kin (or Am is empty).
    """
    a1: dict[int, None] = {}  # once-seen, FIFO order.
    am: dict[int, None] = {}  # reheated, LRU order.
    kin = max(1, num_ways // 4)
    evicted_by: dict[int, int] = {}
    flags = []
    for pos, line_id in enumerate(lines_l):
        if line_id in a1:
            flags.append(True)
            del a1[line_id]
            am[line_id] = None
            continue
        if line_id in am:
            flags.append(True)
            del am[line_id]
            am[line_id] = None
            continue
        flags.append(False)
        probe_owner = owners_l[pos]
        if attribute:
            evictor = evicted_by.get(line_id)
            if evictor is not None:
                events.append((idx_l[pos], probe_owner, evictor))
        if len(a1) + len(am) >= num_ways:
            if a1 and (len(a1) > kin or not am):
                victim_line = next(iter(a1))
                del a1[victim_line]
            elif am:
                victim_line = next(iter(am))
                del am[victim_line]
            else:
                victim_line = next(iter(a1))
                del a1[victim_line]
            evicted_by[victim_line] = probe_owner
        a1[line_id] = None
    return flags


def _replay_assoc(line: np.ndarray, owner: np.ndarray,
                  config: CacheConfig, attribute: bool) -> _Replay:
    """Per-set chronological replay of a set-associative cache."""
    total = line.shape[0]
    hit = np.zeros(total, dtype=bool)
    if total == 0:
        return _Replay(hit, _EMPTY_I64, _EMPTY_I32, _EMPTY_I32)

    num_ways = config.associativity
    policy = config.policy
    set_idx = narrow_keys(line & (config.num_sets - 1))
    set_order = np.argsort(set_idx, kind="stable")
    cuts = np.flatnonzero(np.diff(set_idx[set_order])) + 1
    events: list[tuple[int, int, int]] = []

    if policy in ("lru", "fifo"):
        move_on_hit = policy == "lru"
        for group in np.split(set_order, cuts):
            lines_l = line[group].tolist()
            owners_l = owner[group].tolist()
            idx_l = group.tolist()
            # Insertion order is the recency (LRU) / fill (FIFO) queue.
            resident: dict[int, None] = {}
            evicted_by: dict[int, int] = {}
            flags = []
            for pos, line_id in enumerate(lines_l):
                if line_id in resident:
                    flags.append(True)
                    if move_on_hit:
                        del resident[line_id]
                        resident[line_id] = None
                    continue
                flags.append(False)
                probe_owner = owners_l[pos]
                if attribute:
                    evictor = evicted_by.get(line_id)
                    if evictor is not None:
                        events.append((idx_l[pos], probe_owner, evictor))
                if len(resident) >= num_ways:
                    victim_line = next(iter(resident))
                    del resident[victim_line]
                    evicted_by[victim_line] = probe_owner
                resident[line_id] = None
            hit[group] = flags
    elif policy in ("lfu", "2q"):
        replay_set = _replay_set_lfu if policy == "lfu" else _replay_set_2q
        for group in np.split(set_order, cuts):
            hit[group] = replay_set(
                line[group].tolist(), owner[group].tolist(),
                group.tolist(), num_ways, attribute, events,
            )
    else:
        raise KernelUnsupported(
            f"replacement policy {policy!r} is not vectorized "
            f"(supported: {', '.join(SUPPORTED_POLICIES)})"
        )

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


def _replay(line: np.ndarray, owner: np.ndarray,
            config: CacheConfig, attribute: bool,
            line_order: np.ndarray | None = None) -> _Replay:
    if config.associativity == 1:
        return _replay_direct(line, owner, config.num_sets, attribute,
                              line_order=line_order)
    return _replay_assoc(line, owner, config, attribute)


def _conflict_counters(replay: _Replay, names: tuple[str, ...]
                       ) -> tuple[Counter, Counter]:
    """Rebuild conflict Counters in reference key order.

    The reference creates a ``(victim, evictor)`` key the first time
    that pair conflicts; replaying the events in ascending probe order
    reproduces that insertion order exactly.
    """
    conflicts: Counter = Counter()
    phase_conflicts: Counter = Counter()
    if replay.conflict_idx.size == 0:
        return conflicts, phase_conflicts
    num = len(names)
    keys = replay.victim.astype(np.int64) * num + replay.evictor
    uniq, first_pos, counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    for slot in np.argsort(first_pos, kind="stable").tolist():
        victim, evictor = divmod(int(uniq[slot]), num)
        pair = (names[victim], names[evictor])
        conflicts[pair] = int(counts[slot])
        phase_conflicts[(0,) + pair] = int(counts[slot])
    return conflicts, phase_conflicts


def _loop_cache_words(stream: FetchStream,
                      regions: list[LoopRegion]) -> np.ndarray:
    """Words of every segment that the preloaded regions serve (int64).

    Word ``a + 4k`` of a segment starting at byte ``a`` is served iff
    ``r.start <= a + 4k < r.end`` for some region ``r``.  Preloaded
    regions never overlap, so per-region counts add up.  Scratchpad
    segments never reach the loop-cache controller.
    """
    addr = stream.seg_addr
    words = stream.seg_words
    served = np.zeros_like(words)
    for region in regions:
        # First and one-past-last covered word: ceil((bound - a) / 4).
        low = np.clip(-((addr - region.start) // _WORD), 0, words)
        high = np.clip(-((addr - region.end) // _WORD), 0, words)
        served += np.maximum(high - low, 0)
    served[stream.seg_on_spm] = 0
    return served


def _cache_path(stream: FetchStream, served: np.ndarray,
                regions: list[LoopRegion]) -> FetchStream:
    """The segments that still reach the I-cache behind a loop cache.

    Fully served segments are dropped and unserved ones are kept
    whole.  A segment that straddles a region boundary becomes one
    1-word segment per unserved word, because the reference simulator
    probes those words one at a time (``_fetch_mixed_segment`` in
    :mod:`repro.memory.hierarchy`); merging them would change the
    probe count and with it LFU reference counts and 2Q promotions.
    """
    if not served.any():
        return stream
    words = stream.seg_words
    whole = np.flatnonzero(served == 0)
    mixed = np.flatnonzero((served > 0) & (served < words))
    mixed_words = words[mixed]
    word_seg = np.repeat(mixed, mixed_words)
    offset = np.arange(word_seg.shape[0], dtype=np.int64) - np.repeat(
        np.cumsum(mixed_words) - mixed_words, mixed_words
    )
    word_addr = stream.seg_addr[word_seg] + _WORD * offset
    unserved = np.ones(word_seg.shape[0], dtype=bool)
    for region in regions:
        unserved &= (word_addr < region.start) | (word_addr >= region.end)
    word_seg = word_seg[unserved]

    # Whole segments and split words never share a segment index, and
    # split words are already in address order, so a stable sort by
    # index restores the chronological order.
    seg = np.concatenate([whole, word_seg])
    order = np.argsort(seg, kind="stable")
    return FetchStream(
        mo_names=stream.mo_names,
        seg_mo=stream.seg_mo[seg[order]],
        seg_addr=np.concatenate(
            [stream.seg_addr[whole], word_addr[unserved]])[order],
        seg_words=np.concatenate(
            [words[whole], np.ones(word_seg.shape[0], dtype=np.int64)]
        )[order],
        seg_on_spm=stream.seg_on_spm[seg[order]],
        num_blocks=stream.num_blocks,
        spm_base=stream.spm_base,
    )


def assemble_report(
    stream: FetchStream,
    config,
    spm_base: int | None,
    probes,
    replay: _Replay | None,
    lc_words: np.ndarray | None = None,
) -> SimulationReport:
    """Assemble a report from a precomputed L1 replay.

    Shared by the per-configuration path (:func:`simulate_stream`) and
    the grid path (:func:`repro.memory.kernel.grid.simulate_grid`), so
    both produce byte-for-byte identical reports from the same replay
    outcome.  ``probes``/``replay`` are ``None`` for cache-less
    hierarchies.  ``lc_words`` holds the loop-cache-served words of
    every segment of *stream*, and is ``None`` without a loop cache;
    ``probes`` then cover only the remaining words.
    """
    names = stream.mo_names
    num_mos = len(names)
    seg_mo = stream.seg_mo
    seg_words = stream.seg_words
    spm_mask = stream.seg_on_spm

    fetches = stream.mo_fetches()

    spm_accesses = np.zeros(num_mos, dtype=np.int64)
    if spm_mask.any():
        if not config.spm_size:
            first = int(seg_mo[int(np.argmax(spm_mask))])
            raise SimulationError(
                f"segment of {names[first]!r} mapped to a "
                "scratchpad that does not exist"
            )
        base = spm_base if spm_base is not None else stream.spm_base
        spm_addr = stream.seg_addr[spm_mask]
        spm_words = seg_words[spm_mask]
        low = int(spm_addr.min())
        high = int((spm_addr + 4 * spm_words).max())
        if low < base or high > base + config.spm_size:
            raise SimulationError(
                f"scratchpad access [{low:#x},{high:#x}) outside "
                f"[{base:#x},{base + config.spm_size:#x})"
            )
        spm_accesses = _counts(seg_mo[spm_mask], num_mos, spm_words)

    lc_accesses = np.zeros(num_mos, dtype=np.int64)
    path_words = seg_words
    if lc_words is not None:
        lc_accesses = _counts(seg_mo, num_mos, lc_words)
        path_words = seg_words - lc_words

    conflicts: Counter = Counter()
    phase_conflicts: Counter = Counter()
    l2_hits = 0
    l2_misses = 0
    if config.cache is None:
        cache_mask = ~spm_mask
        cache_misses = _counts(
            seg_mo[cache_mask], num_mos, path_words[cache_mask]
        )
        cache_hits = np.zeros(num_mos, dtype=np.int64)
        compulsory = np.zeros(num_mos, dtype=np.int64)
        main_memory_words = int(cache_misses.sum())
    else:
        cache_cfg = config.cache
        hit = replay.hit
        miss = ~hit
        owner = probes.owner
        # A hit serves all of its words; a miss serves all but one.
        cache_hits = _counts(owner, num_mos, probes.words - miss)
        cache_misses = _counts(owner[miss], num_mos)
        compulsory = _counts(owner[probes.first], num_mos)
        conflicts, phase_conflicts = _conflict_counters(replay, names)

        miss_probes = int(cache_misses.sum())
        if config.l2_cache is not None:
            l2_replay = _replay(
                probes.line[miss], owner[miss], config.l2_cache,
                attribute=False,
            )
            l2_hits = int(l2_replay.hit.sum())
            l2_misses = miss_probes - l2_hits
            main_memory_words = l2_misses * cache_cfg.words_per_line
        else:
            main_memory_words = miss_probes * cache_cfg.words_per_line

    report = SimulationReport(
        num_block_executions=stream.num_blocks
    )
    for mo_idx in stream.mo_first_seen():
        report.mo_stats[names[mo_idx]] = MemoryObjectStats(
            name=names[mo_idx],
            fetches=int(fetches[mo_idx]),
            spm_accesses=int(spm_accesses[mo_idx]),
            lc_accesses=int(lc_accesses[mo_idx]),
            cache_hits=int(cache_hits[mo_idx]),
            cache_misses=int(cache_misses[mo_idx]),
            compulsory_misses=int(compulsory[mo_idx]),
        )
    if lc_words is not None:
        # The controller checks every fetch that bypasses the SPM.
        report.lc_controller_checks = int(seg_words[~spm_mask].sum())
    report.conflict_misses = conflicts
    report.phase_conflicts = phase_conflicts
    report.main_memory_words = main_memory_words
    report.l2_hits = l2_hits
    report.l2_misses = l2_misses
    metrics.inc("sim.kernel.simulations")
    report.assert_identities()
    return report


def simulate_stream(
    stream: FetchStream,
    config,
    spm_base: int | None = None,
    loop_regions=(),
) -> SimulationReport:
    """Replay a compiled stream through a hierarchy configuration.

    Produces a :class:`~repro.memory.stats.SimulationReport` that is
    bit-identical to the reference simulator's — including the
    insertion order of ``mo_stats`` (first-fetch order) and of the
    conflict Counters (first-conflict order).

    With a loop cache, the words inside *loop_regions* are served by
    it and every other non-scratchpad word is probed through the
    I-cache, in the reference simulator's order.

    Args:
        stream: compiled fetch stream (see :func:`compile_stream`).
        config: a :class:`~repro.memory.hierarchy.HierarchyConfig`.
        spm_base: scratchpad base address override (defaults to the
            base recorded in the stream).
        loop_regions: regions preloaded into ``config.loop_cache``.

    Raises:
        KernelUnsupported: for configurations the kernel cannot replay
            exactly (see :func:`unsupported_reason`).
        SimulationError: on scratchpad mapping violations, exactly as
            the reference simulator.
        AllocationError: for regions the loop cache cannot hold, as
            the reference simulator.
    """
    reason = unsupported_reason(config, loop_regions=loop_regions)
    if reason is not None:
        raise KernelUnsupported(reason)

    with span("sim.kernel.replay", segments=stream.num_segments,
              words=stream.total_words) as replay_span:
        lc_words = None
        cache_stream = stream
        if config.loop_cache is not None:
            from repro.memory.loopcache import LoopCache

            # Preloading validates the region table like the reference.
            regions = LoopCache(config.loop_cache,
                                list(loop_regions)).regions
            lc_words = _loop_cache_words(stream, regions)
            cache_stream = _cache_path(stream, lc_words, regions)
        probes = None
        replay = None
        if config.cache is not None:
            probes = cache_stream.probes(config.cache.line_size)
            replay = _replay(probes.line, probes.owner, config.cache,
                             attribute=True,
                             line_order=probes.line_order)
            miss_probes = len(probes) - int(replay.hit.sum())
            replay_span.add(probes=len(probes), misses=miss_probes)
            metrics.inc("sim.kernel.probes", len(probes))
        return assemble_report(stream, config, spm_base, probes, replay,
                               lc_words=lc_words)


def simulate(
    image,
    config,
    block_sequence: list[str],
    spm_base: int | None = None,
) -> SimulationReport:
    """Compile and replay in one call (kernel-only entry point).

    Prefer :func:`repro.memory.hierarchy.simulate` with
    ``backend="vector"`` — it adds the dispatch, spans and metrics.
    """
    stream = compile_stream(image, block_sequence, spm_base=spm_base)
    return simulate_stream(stream, config, spm_base=spm_base)

