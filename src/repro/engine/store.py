"""Tiered content-addressed artifact store over pluggable backends.

The store composes two tiers behind the :class:`StorageBackend`
protocol (``get`` / ``put`` / ``delete`` / ``entries`` / ``usage``):

* a front :class:`MemoryBackend` — an in-process LRU with an optional
  byte budget (admission *and* eviction are size-aware once a budget
  is set), what ``functools.lru_cache`` used to approximate;
* an optional persistent tier — by default the :class:`DiskBackend`,
  one pickle per artifact under a cache directory (default
  ``.casa_cache/``) that survives processes and is shared by parallel
  sweep workers; any other :class:`StorageBackend` object slots in
  the same place.

Backends are selected by **spec string** — ``"memory[:bytes]"`` or
``"disk[:path]"`` (:func:`make_backend`) — with a typed
:class:`~repro.errors.UnknownBackendError` for unknown names.  Each
backend counts its own hits/misses/puts/evictions and reports them as
``store.backend.<name>.*`` metrics.

Disk entries are versioned and corruption-safe: a file that fails to
unpickle, carries the wrong schema version or the wrong digest is
moved into a ``quarantine/`` subdirectory (preserved for post-mortem
inspection), logged as a typed
:class:`~repro.errors.CacheCorruptionError`, and treated as a miss, so
the caller simply recomputes.  Writes are atomic (write-to-temp +
``os.replace``); temp files orphaned by killed processes are removed
when a store opens the directory, rate-limited by a marker file so a
daemon creating per-tenant stores does not rescan the tree per
request.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Protocol, \
    runtime_checkable

from repro.engine import CACHE_DIR_ENV
from repro.engine.artifacts import SCHEMA_VERSION
from repro.errors import CacheCorruptionError, ConfigurationError, \
    InjectedFault, UnknownBackendError
from repro.obs import metrics
from repro.resilience.faults import maybe_inject

#: Subdirectory of the cache dir where corrupt entries are preserved.
QUARANTINE_DIR = "quarantine"

#: Exceptions that mean "this pickle is corrupt or stale", as opposed
#: to programming errors that must propagate.  Unpickling arbitrary
#: bytes can raise most of these; anything else re-raises.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    TypeError,
    KeyError,
    IndexError,
    AttributeError,
    ImportError,
    MemoryError,
    OSError,
    InjectedFault,
)

#: Default number of artifacts kept by the in-memory tier.
DEFAULT_MEMORY_ITEMS = 256

#: Marker file recording when a directory last had its write-temp
#: orphans swept (see :meth:`DiskBackend.sweep_orphans`).
SWEEP_MARKER = ".orphan_sweep"

#: Seconds between orphan sweeps of one cache directory.  A daemon
#: building per-tenant stores constructs :class:`DiskBackend` objects
#: far more often than writers die, so sweeps are rate-limited.
SWEEP_INTERVAL_S = 300.0


@dataclass
class BackendStats:
    """Hit/miss counters of one :class:`StorageBackend`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0
    quarantined: int = 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.puts} puts, {self.evictions} evictions"
        )


@runtime_checkable
class StorageBackend(Protocol):
    """One tier of artifact storage, keyed by ``(stage, digest)``.

    The protocol is deliberately small — five methods plus a ``name``
    and a :class:`BackendStats` — so another store (a key-value
    service, an object store) can adapt in a page of code and be
    passed to :class:`ArtifactStore` directly.
    """

    #: Identity used in ``store.backend.<name>.*`` metrics.
    name: str
    #: Per-backend hit/miss accounting.
    stats: BackendStats

    def get(self, stage: str, digest: str) -> Any | None:
        """Return the artifact for (*stage*, *digest*) or ``None``."""
        ...

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        """Store *artifact* under (*stage*, *digest*)."""
        ...

    def delete(self, stage: str, digest: str) -> bool:
        """Drop one entry; return whether it existed."""
        ...

    def entries(self) -> list[tuple[str, str]]:
        """Every stored ``(stage, digest)`` key, sorted."""
        ...

    def usage(self) -> tuple[int, int]:
        """``(entry_count, total_bytes)`` held by this backend."""
        ...


def _count(backend: "StorageBackend", event: str,
           amount: float = 1.0) -> None:
    """Emit one per-backend metric (no-op without a registry)."""
    metrics.inc(f"store.backend.{backend.name}.{event}", amount)


class MemoryBackend:
    """In-process LRU tier with item and optional byte budgets.

    Args:
        max_items: LRU capacity in artifacts.
        max_bytes: byte budget; ``None`` disables size accounting
            entirely (no serialisation cost per put).  With a budget,
            each artifact is sized by its pickle length — an artifact
            larger than the whole budget is *not admitted* (the caller
            keeps its reference; the cache stays useful), and puts
            evict from the LRU tail until the budget holds.
            Unpicklable artifacts (e.g. memory-only workbench memos)
            count as zero bytes and stay item-bounded only.
        name: metric identity (``store.backend.<name>.*``).
    """

    def __init__(self, max_items: int = DEFAULT_MEMORY_ITEMS,
                 max_bytes: int | None = None,
                 name: str = "memory") -> None:
        self.name = name
        self.max_items = max_items
        self.max_bytes = max_bytes
        self.stats = BackendStats()
        self._entries: OrderedDict[tuple[str, str],
                                   tuple[Any, int]] = OrderedDict()
        self._bytes = 0

    def _size_of(self, artifact: Any) -> int:
        if self.max_bytes is None:
            return 0
        try:
            return len(pickle.dumps(
                artifact, protocol=pickle.HIGHEST_PROTOCOL))
        except (pickle.PicklingError, TypeError, AttributeError):
            return 0

    def get(self, stage: str, digest: str) -> Any | None:
        """Return the artifact for (*stage*, *digest*) or ``None``."""
        key = (stage, digest)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            _count(self, "misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        _count(self, "hits")
        return entry[0]

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        """Admit *artifact*, evicting from the LRU tail as needed."""
        size = self._size_of(artifact)
        if self.max_bytes is not None and size > self.max_bytes:
            _count(self, "rejected")
            return
        key = (stage, digest)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        self._entries[key] = (artifact, size)
        self._bytes += size
        self.stats.puts += 1
        _count(self, "puts")
        while len(self._entries) > self.max_items or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            _, (_, dropped) = self._entries.popitem(last=False)
            self._bytes -= dropped
            self.stats.evictions += 1
            _count(self, "evictions")

    def delete(self, stage: str, digest: str) -> bool:
        """Drop one entry; return whether it existed."""
        entry = self._entries.pop((stage, digest), None)
        if entry is None:
            return False
        self._bytes -= entry[1]
        return True

    def entries(self) -> list[tuple[str, str]]:
        """Every cached ``(stage, digest)`` key, sorted."""
        return sorted(self._entries)

    def usage(self) -> tuple[int, int]:
        """``(entry_count, total_bytes)`` (bytes 0 without a budget)."""
        return len(self._entries), self._bytes

    def clear(self) -> int:
        """Drop every entry; return how many were dropped."""
        removed = len(self._entries)
        self._entries.clear()
        self._bytes = 0
        return removed


class DiskBackend:
    """On-disk pickle tier: one versioned envelope per artifact.

    Bit-compatible with every ``.casa_cache/`` layout this repository
    has ever written: entries live at ``{dir}/{stage}-{digest}.pkl``
    as ``{schema, stage, digest, artifact}`` pickles; corrupt or stale
    files are quarantined under ``quarantine/`` and recorded in
    :attr:`corruptions`; writes are atomic (temp + ``os.replace``).

    Args:
        cache_dir: directory of the tier (created on first write).
        sweep_interval_s: minimum seconds between orphan-temp sweeps
            of this directory (marker-file rate limit).
        name: metric identity (``store.backend.<name>.*``).
    """

    def __init__(self, cache_dir: str | os.PathLike,
                 sweep_interval_s: float = SWEEP_INTERVAL_S,
                 name: str = "disk") -> None:
        self.name = name
        self.cache_dir = Path(cache_dir)
        self.stats = BackendStats()
        self.corruptions: list[CacheCorruptionError] = []
        self.sweep_interval_s = sweep_interval_s
        self.sweep_orphans()

    # -- protocol -------------------------------------------------------------

    def get(self, stage: str, digest: str) -> Any | None:
        """Load one entry, quarantining it if corrupt or stale."""
        path = self._entry_path(stage, digest)
        if not path.is_file():
            self.stats.misses += 1
            _count(self, "misses")
            return None
        try:
            maybe_inject("store.read", stage=stage, digest=digest)
            with path.open("rb") as handle:
                envelope = pickle.load(handle)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != SCHEMA_VERSION
                or envelope.get("stage") != stage
                or envelope.get("digest") != digest
            ):
                raise ValueError("stale or foreign cache entry")
            self.stats.hits += 1
            _count(self, "hits")
            return envelope["artifact"]
        except _CORRUPTION_ERRORS as error:
            # Corrupt, truncated, stale-schema or unreadable entry:
            # quarantine it and let the caller recompute.  Anything
            # outside _CORRUPTION_ERRORS is a real bug and propagates.
            self._quarantine(path, stage, digest, error)
            self.stats.misses += 1
            _count(self, "misses")
            return None

    def put(self, stage: str, digest: str, artifact: Any) -> None:
        """Write one entry atomically; failures never propagate."""
        path = self._entry_path(stage, digest)
        temp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            maybe_inject("store.write", stage=stage, digest=digest)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            envelope = {
                "schema": SCHEMA_VERSION,
                "stage": stage,
                "digest": digest,
                "artifact": artifact,
            }
            with temp.open("wb") as handle:
                pickle.dump(envelope, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp, path)
            self.stats.puts += 1
            _count(self, "puts")
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError, InjectedFault):
            # A read-only or full filesystem (or unpicklable artifact)
            # must not break experiments; the memory tier still holds
            # the artifact.  Unexpected errors propagate.
            self.stats.errors += 1
            _count(self, "errors")
            try:
                temp.unlink()
            except OSError:
                pass

    def delete(self, stage: str, digest: str) -> bool:
        """Unlink one entry; return whether it existed."""
        try:
            self._entry_path(stage, digest).unlink()
            return True
        except OSError:
            return False

    def entries(self) -> list[tuple[str, str]]:
        """Every stored ``(stage, digest)`` key, sorted."""
        keys = []
        for path in self.paths():
            stem = path.name[: -len(".pkl")]
            stage, _, digest = stem.partition("-")
            if digest:
                keys.append((stage, digest))
        return sorted(keys)

    def usage(self) -> tuple[int, int]:
        """``(file_count, total_bytes)`` of the on-disk tier."""
        paths = self.paths()
        return len(paths), sum(path.stat().st_size for path in paths)

    # -- maintenance ----------------------------------------------------------

    def paths(self) -> list[Path]:
        """Paths of every on-disk artifact file, sorted."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("*.pkl"))

    def quarantined_paths(self) -> list[Path]:
        """Paths of every quarantined (corrupt) artifact file."""
        quarantine = self.cache_dir / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(path for path in quarantine.iterdir()
                      if path.is_file())

    def clear(self) -> int:
        """Remove every entry (and the quarantine); return the count."""
        removed = 0
        if not self.cache_dir.is_dir():
            return removed
        for path in self.paths() + self.quarantined_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def sweep_orphans(self, force: bool = False) -> None:
        """Remove temp files orphaned by killed writer processes.

        Atomic writes go through ``<entry>.tmp.<pid>``; a process that
        dies mid-write leaves the temp file behind.  Files belonging
        to the current process are left alone (a concurrent write may
        be in flight).  The scan is rate-limited through the
        :data:`SWEEP_MARKER` file's mtime — one sweep per
        ``sweep_interval_s`` per directory, however many stores open
        it — unless *force* is true.
        """
        if not self.cache_dir.is_dir():
            return
        marker = self.cache_dir / SWEEP_MARKER
        if not force:
            try:
                age = time.time() - marker.stat().st_mtime
                if 0 <= age < self.sweep_interval_s:
                    return
            except OSError:
                pass  # no marker yet: sweep and create it
        own_suffix = f".tmp.{os.getpid()}"
        for path in self.cache_dir.glob("*.tmp.*"):
            if path.name.endswith(own_suffix):
                continue
            try:
                path.unlink()
            except OSError:
                pass
        try:
            marker.touch()
            os.utime(marker)
        except OSError:
            pass  # read-only tree: sweep ran, rate limit just won't

    # -- internals ------------------------------------------------------------

    def _entry_path(self, stage: str, digest: str) -> Path:
        return self.cache_dir / f"{stage}-{digest}.pkl"

    def _quarantine(self, path: Path, stage: str, digest: str,
                    error: BaseException) -> None:
        """Move a corrupt entry aside and log a typed corruption record."""
        self.stats.errors += 1
        self.stats.quarantined += 1
        _count(self, "errors")
        metrics.inc("store.quarantined")
        try:
            quarantine = self.cache_dir / QUARANTINE_DIR
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            # Quarantining is best-effort; at minimum get the bad
            # entry out of the lookup path.
            try:
                path.unlink()
            except OSError:
                pass
        self.corruptions.append(CacheCorruptionError(
            f"corrupt cache entry for stage {stage!r}: "
            f"{type(error).__name__}: {error}",
            stage=stage, digest=digest, path=str(path),
        ))


# -- backend specs -------------------------------------------------------------


def _make_memory(arg: str | None) -> MemoryBackend:
    if arg is None:
        return MemoryBackend()
    try:
        budget = int(arg)
    except ValueError:
        raise ConfigurationError(
            f"memory backend wants a byte budget, got {arg!r}"
        )
    return MemoryBackend(max_bytes=budget)


def make_backend(spec: str) -> MemoryBackend | DiskBackend:
    """Build one :class:`StorageBackend` from a spec string.

    Grammar: ``name[:arg]`` — ``"memory"``, ``"memory:1048576"``
    (byte budget), ``"disk"`` or ``"disk:/var/cache/casa"``.

    Raises:
        UnknownBackendError: for a name other than ``disk`` or
            ``memory``.
        ConfigurationError: for a malformed argument.
    """
    name, _, arg = spec.partition(":")
    if name == "memory":
        return _make_memory(arg or None)
    if name == "disk":
        return DiskBackend(
            arg or os.environ.get(CACHE_DIR_ENV) or ".casa_cache")
    raise UnknownBackendError(name, ("disk", "memory"))


# -- the two-tier store --------------------------------------------------------


@dataclass
class StoreStats:
    """Hit/miss counters of one :class:`ArtifactStore`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_errors: int = 0
    quarantined: int = 0
    per_stage: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Total hits across both tiers."""
        return self.memory_hits + self.disk_hits

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.memory_hits} memory hits, {self.disk_hits} disk "
            f"hits, {self.misses} misses, {self.puts} puts, "
            f"{self.disk_errors} corrupt entries dropped"
        )


class ArtifactStore:
    """Memory LRU plus an optional persistent backend, keyed by digest.

    Args:
        cache_dir: directory for a :class:`DiskBackend` persistent
            tier; ``None`` disables it (memory-only store).  Ignored
            when *backend* names a tier of its own.
        memory_items: LRU item capacity of the in-memory tier.
        backend: the persistent tier as a spec string
            (``"memory[:bytes]"`` or ``"disk[:path]"`` — see
            :func:`make_backend`) or a ready
            :class:`StorageBackend`.  ``"memory[:bytes]"`` configures
            the *front* tier instead (a memory-only store, optionally
            byte-budgeted).
        memory_bytes: byte budget of the in-memory tier (``None`` =
            item-bounded only).
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 memory_items: int = DEFAULT_MEMORY_ITEMS, *,
                 backend: "str | StorageBackend | None" = None,
                 memory_bytes: int | None = None) -> None:
        persist: Any = None
        if isinstance(backend, str):
            name, _, arg = backend.partition(":")
            if name == "memory":
                if arg:
                    memory_bytes = _make_memory(arg).max_bytes
            else:
                if name == "disk" and not arg and cache_dir is not None:
                    persist = DiskBackend(cache_dir)
                else:
                    persist = make_backend(backend)
        elif backend is not None:
            persist = backend
        elif cache_dir is not None:
            persist = DiskBackend(cache_dir)
        self._memory = MemoryBackend(max_items=memory_items,
                                     max_bytes=memory_bytes)
        self._persist = persist
        self.cache_dir: Path | None = getattr(persist, "cache_dir",
                                              None)
        self.stats = StoreStats()

    @property
    def memory_backend(self) -> MemoryBackend:
        """The in-memory front tier."""
        return self._memory

    @property
    def persistent_backend(self) -> Any:
        """The persistent tier, or ``None`` for memory-only stores."""
        return self._persist

    @property
    def corruptions(self) -> list[CacheCorruptionError]:
        """Corruption records of the persistent tier (may be empty)."""
        return getattr(self._persist, "corruptions", [])

    # -- lookup ---------------------------------------------------------------

    def get(self, stage: str, digest: str, *,
            disk: bool = True) -> Any | None:
        """Return the cached artifact for (*stage*, *digest*) or ``None``.

        Consults the memory tier first, then (when enabled and
        *disk* is true) the persistent tier, promoting its hits into
        memory.
        """
        artifact = self._memory.get(stage, digest)
        if artifact is not None:
            self.stats.memory_hits += 1
            return artifact
        if disk and self._persist is not None:
            artifact = self._persist.get(stage, digest)
            self._sync_persist_stats()
            if artifact is not None:
                self.stats.disk_hits += 1
                self._memory.put(stage, digest, artifact)
                self.stats.evictions = self._memory.stats.evictions
                return artifact
        self.stats.misses += 1
        return None

    def put(self, stage: str, digest: str, artifact: Any, *,
            disk: bool = True) -> None:
        """Cache *artifact* under (*stage*, *digest*) in both tiers."""
        self.stats.puts += 1
        self.stats.per_stage[stage] = self.stats.per_stage.get(stage, 0) + 1
        self._memory.put(stage, digest, artifact)
        self.stats.evictions = self._memory.stats.evictions
        if disk and self._persist is not None:
            self._persist.put(stage, digest, artifact)
            self._sync_persist_stats()

    def get_or_compute(self, stage: str, digest: str,
                       compute: Callable[[], Any], *,
                       disk: bool = True) -> tuple[Any, bool]:
        """Load-or-recompute: return ``(artifact, was_cached)``.

        A corrupted or version-mismatched persistent entry counts as a
        miss — *compute* runs and its result replaces the bad entry.
        """
        artifact = self.get(stage, digest, disk=disk)
        if artifact is not None:
            return artifact, True
        artifact = compute()
        self.put(stage, digest, artifact, disk=disk)
        return artifact, False

    # -- maintenance ----------------------------------------------------------

    def clear(self, *, memory: bool = True, disk: bool = True) -> int:
        """Drop cached artifacts; return persistent entries removed.

        Clearing the disk tier also empties the quarantine directory.
        """
        if memory:
            self._memory.clear()
        removed = 0
        if disk and self._persist is not None:
            removed = self._persist.clear()
        return removed

    def disk_entries(self) -> list[Path]:
        """Paths of every on-disk artifact (empty for non-disk tiers)."""
        if isinstance(self._persist, DiskBackend):
            return self._persist.paths()
        return []

    def quarantined_entries(self) -> list[Path]:
        """Paths of every quarantined (corrupt) artifact file."""
        if isinstance(self._persist, DiskBackend):
            return self._persist.quarantined_paths()
        return []

    def disk_usage(self) -> tuple[int, int]:
        """``(entry_count, total_bytes)`` of the persistent tier."""
        if self._persist is None:
            return 0, 0
        return self._persist.usage()

    # -- internals ------------------------------------------------------------

    def _sync_persist_stats(self) -> None:
        """Mirror the persistent tier's error counters into stats."""
        persist = self._persist
        self.stats.disk_errors = persist.stats.errors
        self.stats.quarantined = persist.stats.quarantined


# -- process-wide default store ----------------------------------------------

_DEFAULT_STORE: ArtifactStore | None = None


def default_store(backend: str | None = None) -> ArtifactStore:
    """The process-wide store used when no store is passed explicitly.

    Created on first use: from the *backend* spec when one is given
    (``"memory[:bytes]"`` / ``"disk[:path]"`` — see
    :func:`make_backend`), otherwise memory-only unless the
    :data:`CACHE_DIR_ENV` environment variable names a cache
    directory (the CLI configures a disk-backed store explicitly via
    :func:`set_default_store`).  Once a store exists, it is returned
    as-is; pass a spec to :func:`set_default_store` to replace it.
    """
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        if backend is not None:
            _DEFAULT_STORE = ArtifactStore(backend=backend)
        else:
            _DEFAULT_STORE = ArtifactStore(
                cache_dir=os.environ.get(CACHE_DIR_ENV) or None
            )
    return _DEFAULT_STORE


def set_default_store(store: ArtifactStore | str | None
                      ) -> ArtifactStore | None:
    """Replace the process-wide store; returns the previous one.

    Accepts a ready :class:`ArtifactStore`, a backend spec string
    (``"disk:/tmp/cache"`` builds the store for you), or ``None`` to
    drop the current store (the next :func:`default_store` call
    creates a fresh one).
    """
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    if isinstance(store, str):
        store = ArtifactStore(backend=store)
    _DEFAULT_STORE = store
    return previous
