"""Set-associative instruction cache with conflict-miss attribution.

Beyond hit/miss counting, the cache remembers, for every memory line it
evicts, *which memory object's* line displaced it.  When the evicted line
later misses again, that miss is attributed to the displacing object —
exactly the ``Miss(x_i, x_j)`` quantity of the paper's conflict graph
(section 3.3): an edge ``e_ij`` with weight ``m_ij`` counts the misses of
``x_i`` that occur because ``x_j`` replaced its lines.
"""

from __future__ import annotations

from collections import Counter

from repro.memory.config import CacheConfig
from repro.memory.replacement import ReplacementPolicy, make_policy
from repro.obs.events import CacheEvent, active_recorder
from repro.utils.bitops import log2_int


class _CacheSet:
    """One cache set: tags, line owners, and a replacement policy."""

    __slots__ = ("tags", "owners", "lines", "policy")

    def __init__(self, num_ways: int, policy_name: str) -> None:
        self.tags: list[int | None] = [None] * num_ways
        self.owners: list[str | None] = [None] * num_ways
        self.lines: list[int | None] = [None] * num_ways
        self.policy: ReplacementPolicy = make_policy(policy_name, num_ways)


class Cache:
    """A set-associative I-cache with eviction attribution.

    Addresses are byte addresses; internally the cache works on *memory
    line ids* (``address // line_size``).  Every resident line carries
    the name of the memory object that owns it.
    """

    def __init__(self, config: CacheConfig, label: str = "L1") -> None:
        self._config = config
        #: event-stream label distinguishing cache levels (``L1``/``L2``).
        self.label = label
        # The recorder is bound once at construction: the disabled-path
        # cost per probe is one attribute read and one None comparison
        # (bench_smoke budgets it under the 2% overhead gate).
        self._recorder = active_recorder()
        self._set_bits = log2_int(config.num_sets)
        self._sets = [
            _CacheSet(config.associativity, config.policy)
            for _ in range(config.num_sets)
        ]
        # Zero-arg factory producing a fresh next-use oracle for
        # line-aware policies that need one (OPT); kept so flush() can
        # rebuild oracle state alongside the sets.
        self._oracle_factory = None
        # For every memory line currently NOT in the cache but seen
        # before: the owner of the line that evicted it last.
        self._evicted_by: dict[int, str] = {}
        self._seen_lines: set[int] = set()

        self.hits = 0
        self.misses = 0
        self.compulsory_misses = 0
        #: per-(victim_mo, evictor_mo) conflict-miss counts (m_ij).
        self.conflict_misses: Counter = Counter()
        #: per-mo hit / miss / compulsory counters.
        self.mo_hits: Counter = Counter()
        self.mo_misses: Counter = Counter()
        self.mo_compulsory: Counter = Counter()
        #: execution phase the driver is currently in (see the overlay
        #: extension); only used when phase-binned counters are wanted.
        self.phase = 0
        #: per-(phase, victim_mo, evictor_mo) conflict misses.
        self.phase_conflicts: Counter = Counter()
        #: per-(phase, mo) compulsory misses.
        self.phase_compulsory: Counter = Counter()

    @property
    def config(self) -> CacheConfig:
        """The cache's configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def access_line(self, line_id: int, owner: str) -> bool:
        """Probe the cache for a memory line.

        Args:
            line_id: memory line id (byte address // line size).
            owner: name of the memory object the fetch belongs to.

        Returns:
            ``True`` on a hit, ``False`` on a miss (the line is filled).
        """
        index = line_id % len(self._sets)
        cache_set = self._sets[index]
        recorder = self._recorder
        policy = cache_set.policy
        # line_aware is a class attribute (False for the classic
        # policies), so the hot path pays one attribute check.
        line_aware = policy.line_aware
        if line_aware:
            policy.note_access(line_id)
        for way, resident in enumerate(cache_set.lines):
            if resident == line_id:
                self.hits += 1
                self.mo_hits[owner] += 1
                policy.on_hit(way)
                if recorder is not None and recorder.record_hits:
                    recorder.record(CacheEvent(
                        kind="hit", seq=recorder.next_seq(),
                        cache=self.label, set_index=index,
                        line_id=line_id, mo=owner, way=way,
                        phase=self.phase,
                    ))
                return True

        # Miss: classify, pick a victim, fill.
        self.misses += 1
        self.mo_misses[owner] += 1
        compulsory = line_id not in self._seen_lines
        evictor: str | None = None
        if compulsory:
            self._seen_lines.add(line_id)
            self.compulsory_misses += 1
            self.mo_compulsory[owner] += 1
            self.phase_compulsory[(self.phase, owner)] += 1
        else:
            evictor = self._evicted_by.get(line_id)
            if evictor is not None:
                self.conflict_misses[(owner, evictor)] += 1
                self.phase_conflicts[(self.phase, owner, evictor)] += 1
        if recorder is not None:
            recorder.record(CacheEvent(
                kind="miss", seq=recorder.next_seq(), cache=self.label,
                set_index=index, line_id=line_id, mo=owner,
                evictor=evictor, compulsory=compulsory, phase=self.phase,
            ))
        if line_aware:
            policy.note_miss(line_id)

        victim_way = None
        for way, resident in enumerate(cache_set.lines):
            if resident is None:
                victim_way = way
                break
        if victim_way is None:
            victim_way = policy.victim()
            evicted_line = cache_set.lines[victim_way]
            assert evicted_line is not None
            self._evicted_by[evicted_line] = owner
            if line_aware:
                policy.note_evict(evicted_line)
            if recorder is not None:
                victim_owner = cache_set.owners[victim_way]
                assert victim_owner is not None
                recorder.record(CacheEvent(
                    kind="evict", seq=recorder.next_seq(),
                    cache=self.label, set_index=index,
                    line_id=evicted_line, mo=victim_owner,
                    evictor=owner, way=victim_way, phase=self.phase,
                    policy_state=(policy.state()
                                  if recorder.record_policy_state
                                  else None),
                ))
        cache_set.lines[victim_way] = line_id
        cache_set.owners[victim_way] = owner
        policy.on_fill(victim_way)
        if line_aware:
            policy.note_fill(victim_way, line_id)
        return False

    def contains_line(self, line_id: int) -> bool:
        """Whether the memory line is currently resident."""
        index = line_id % len(self._sets)
        return line_id in self._sets[index].lines

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def conflict_miss_count(self) -> int:
        """Total misses attributed to a conflicting object."""
        return sum(self.conflict_misses.values())

    def reset_statistics(self) -> None:
        """Clear counters but keep cache contents."""
        self.hits = 0
        self.misses = 0
        self.compulsory_misses = 0
        self.conflict_misses.clear()
        self.mo_hits.clear()
        self.mo_misses.clear()
        self.mo_compulsory.clear()

    def attach_oracle(self, factory) -> None:
        """Bind a next-use oracle for line-aware policies (OPT).

        Args:
            factory: zero-arg callable returning a fresh
                :class:`~repro.memory.replacement.OptOracle`-compatible
                oracle.  A factory (not an instance) because oracles
                are consumed as the stream replays: :meth:`flush`
                rebuilds the sets and needs a pristine oracle to match.

        The oracle is shared across all sets — every probe touches
        exactly one set, so the per-set policies advance it exactly
        once per probe, in stream order.
        """
        self._oracle_factory = factory
        self._install_oracle()

    def _install_oracle(self) -> None:
        oracle = self._oracle_factory()
        for cache_set in self._sets:
            attach = getattr(cache_set.policy, "attach", None)
            if attach is not None:
                attach(oracle)

    def flush(self) -> None:
        """Invalidate all lines and forget eviction history."""
        config = self._config
        self._sets = [
            _CacheSet(config.associativity, config.policy)
            for _ in range(config.num_sets)
        ]
        self._evicted_by.clear()
        self._seen_lines.clear()
        if self._oracle_factory is not None:
            self._install_oracle()
