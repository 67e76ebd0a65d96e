"""Fetch-stream compilation: block sequence -> compact arrays.

The reference simulator re-walks the fetch plans on every run.  The
kernel instead *compiles* an executed block sequence once into a
:class:`CompiledSequence` — three layout-free arrays over fetch
segments: the memory object, the byte offset inside it and the word
count — and *links* it onto each layout with two gathers over
per-object base-address and on-scratchpad vectors, giving a
:class:`FetchStream`.  A layout decides only *where* each object
lands, never *which* words a block fetches, so one compilation serves
every allocation of a sweep.

The compilation is the only per-block Python loop left; it replicates
the reference simulator's call/return tail semantics exactly (see
:mod:`repro.memory.hierarchy`): a block ending in a call pushes its
trace-exit tail onto a stack and the matching return pops and fetches
it, while a plain tail is fetched only when control actually leaves via
the fall-through edge.

Line-probe expansion (one entry per cache-line touch) depends only on
the line size, so it is memoised on the linked stream and shared
across every cache geometry of a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import LayoutError
from repro.obs import metrics
from repro.obs.trace import span
from repro.traces.layout import SPM_BASE, LinkedImage

#: Bytes per instruction word (mirrors ``repro.isa.INSTRUCTION_SIZE``).
_WORD = 4


@dataclass(frozen=True)
class ProbeStream:
    """Cache-line probes of a stream, for one line size.

    One entry per line *touch* in chronological order — exactly the
    probes the reference simulator issues via ``Cache.access_line``.

    Attributes:
        line: memory line id of each probe (int64).
        owner: memory-object index of each probe (int32, indexes the
            stream's ``mo_names``).
        words: instruction words served by each probe (int64).
        first: whether the probe is the globally first touch of its
            line (a compulsory miss under any replacement policy).
        line_order: stable argsort of ``line`` (sorted on
            :func:`narrow_keys`) — shared by the first-touch mask and
            the replay's previous-occurrence computation, so it is paid
            once per line size, not per cache configuration.
    """

    line: np.ndarray
    owner: np.ndarray
    words: np.ndarray
    first: np.ndarray
    line_order: np.ndarray

    def __len__(self) -> int:
        return int(self.line.shape[0])


@dataclass(eq=False)
class CompiledSequence:
    """An executed block sequence as layout-free fetch segments.

    Three parallel, read-only arrays over fetch *segments* (runs of
    consecutively fetched words), in chronological order.  No address
    appears: :meth:`link` places the segments on one layout.

    Attributes:
        mo_names: memory-object names; ``seg_mo`` indexes this tuple.
        mo_sizes: unpadded byte size of each memory object (with the
            names, what :meth:`link` checks an image against).
        seg_mo: per-segment memory-object index (int32).
        seg_offset: per-segment byte offset of the first word inside
            its memory object (int64).
        seg_words: per-segment word count (int64).
        num_blocks: executed basic blocks (for the report).
    """

    mo_names: tuple[str, ...]
    mo_sizes: tuple[int, ...]
    seg_mo: np.ndarray
    seg_offset: np.ndarray
    seg_words: np.ndarray
    num_blocks: int
    _first_seen: list[int] | None = field(
        default=None, repr=False, compare=False
    )
    _fetches: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle without the memoised per-object summaries."""
        state = self.__dict__.copy()
        state["_first_seen"] = None
        state["_fetches"] = None
        return state

    def mo_first_seen(self) -> list[int]:
        """Memory-object indices in order of first fetch (memoised:
        every layout linked from this sequence shares it)."""
        if self._first_seen is None:
            self._first_seen = _first_seen(self.seg_mo)
        return list(self._first_seen)

    def mo_fetches(self) -> np.ndarray:
        """Word fetches per memory object (read-only int64, memoised:
        every layout linked from this sequence shares it)."""
        if self._fetches is None:
            self._fetches = _counts(self.seg_mo, len(self.mo_names),
                                    self.seg_words)
            self._fetches.setflags(write=False)
        return self._fetches

    def link(self, image: LinkedImage,
             spm_base: int | None = None) -> "FetchStream":
        """The fetch stream of these segments on *image*'s layout.

        Two gathers over per-object vectors: a segment's address is its
        object's base plus its offset, and its residency is its
        object's.  The linked stream shares ``seg_mo`` and
        ``seg_words`` with this sequence.

        Args:
            image: a layout of the memory objects compiled over.
            spm_base: scratchpad base address recorded in the stream
                (defaults to the layout default).

        Raises:
            LayoutError: if *image* links other memory objects.
        """
        if (image.object_names != self.mo_names
                or image.object_sizes != self.mo_sizes):
            raise LayoutError(
                "cannot link a fetch stream onto an image of other "
                "memory objects"
            )
        base = np.array([image.base_address(name)
                         for name in self.mo_names], dtype=np.int64)
        on_spm = np.array([image.on_spm(name) for name in self.mo_names],
                          dtype=bool)
        return FetchStream(
            mo_names=self.mo_names,
            seg_mo=self.seg_mo,
            seg_addr=base[self.seg_mo] + self.seg_offset,
            seg_words=self.seg_words,
            seg_on_spm=on_spm[self.seg_mo],
            num_blocks=self.num_blocks,
            spm_base=SPM_BASE if spm_base is None else spm_base,
            sequence=self,
        )


@dataclass(eq=False)
class FetchStream:
    """The fetch-address stream of one (program, layout) pair.

    Four parallel arrays over fetch *segments* (runs of consecutively
    fetched words), in chronological order.  The compiled form is
    deterministic; compare two streams with :meth:`same_as`.

    Attributes:
        mo_names: memory-object names; ``seg_mo`` indexes this tuple.
        seg_mo: per-segment memory-object index (int32).
        seg_addr: per-segment first byte address (int64).
        seg_words: per-segment word count (int64).
        seg_on_spm: per-segment scratchpad residency flag (bool).
        num_blocks: executed basic blocks (for the report).
        spm_base: scratchpad base address used by the layout.
        sequence: the layout-free segments this stream was linked
            from (``None`` for a stream derived by filtering another).
    """

    mo_names: tuple[str, ...]
    seg_mo: np.ndarray
    seg_addr: np.ndarray
    seg_words: np.ndarray
    seg_on_spm: np.ndarray
    num_blocks: int
    spm_base: int
    sequence: CompiledSequence | None = field(
        default=None, repr=False, compare=False
    )
    _probe_cache: dict[int, ProbeStream] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle without the memoised probe expansions."""
        state = self.__dict__.copy()
        state["_probe_cache"] = {}
        return state

    def same_as(self, other: "FetchStream") -> bool:
        """Whether two compiled streams are identical."""
        return (
            self.mo_names == other.mo_names
            and self.num_blocks == other.num_blocks
            and self.spm_base == other.spm_base
            and np.array_equal(self.seg_mo, other.seg_mo)
            and np.array_equal(self.seg_addr, other.seg_addr)
            and np.array_equal(self.seg_words, other.seg_words)
            and np.array_equal(self.seg_on_spm, other.seg_on_spm)
        )

    @property
    def num_segments(self) -> int:
        """Number of fetch segments."""
        return int(self.seg_mo.shape[0])

    @property
    def total_words(self) -> int:
        """Total instruction-word fetches of the stream."""
        return int(self.seg_words.sum())

    @property
    def spm_words(self) -> int:
        """Words served by the scratchpad."""
        return int(self.seg_words[self.seg_on_spm].sum())

    def mo_first_seen(self) -> list[int]:
        """Memory-object indices in order of first fetch.

        This is the insertion order of the reference report's
        ``mo_stats`` dict, which the kernel reproduces bit-identically.
        A linked stream reads its sequence's memo.
        """
        if self.sequence is not None:
            return self.sequence.mo_first_seen()
        return _first_seen(self.seg_mo)

    def mo_fetches(self) -> np.ndarray:
        """Word fetches per memory object (int64).

        A linked stream reads its sequence's read-only memo.
        """
        if self.sequence is not None:
            return self.sequence.mo_fetches()
        return _counts(self.seg_mo, len(self.mo_names), self.seg_words)

    def probes(self, line_size: int) -> ProbeStream:
        """Expand the cache-path segments into line probes (memoised).

        A segment of ``w`` words starting at byte ``a`` touches the
        lines ``a // line_size .. (a + 4w - 4) // line_size``; each
        probe serves the words of the segment that fall inside its
        line.  Probe order is segment order, lines ascending within a
        segment — the reference simulator's exact probe order.
        """
        cached = self._probe_cache.get(line_size)
        if cached is not None:
            # A sweep re-used a memoised expansion instead of
            # re-deriving the ProbeStream for this line size.
            metrics.inc("sim.kernel.stream_reuse")
            return cached

        mask = ~self.seg_on_spm
        line, owner, probe_words = _expand_lines(
            self.seg_addr[mask], self.seg_words[mask],
            self.seg_mo[mask], line_size,
        )
        keys = narrow_keys(line)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.empty(line.shape[0], dtype=bool)
        first[order[:1]] = True
        first[order[1:]] = sorted_keys[1:] != sorted_keys[:-1]
        del keys, sorted_keys

        probe = ProbeStream(
            line=line, owner=owner, words=probe_words, first=first,
            line_order=order,
        )
        self._probe_cache[line_size] = probe
        return probe


def _first_seen(seg_mo: np.ndarray) -> list[int]:
    """The distinct values of *seg_mo* in order of first occurrence."""
    if seg_mo.shape[0] == 0:
        return []
    _, first_pos = np.unique(seg_mo, return_index=True)
    return seg_mo[np.sort(first_pos)].tolist()


def _counts(ids: np.ndarray, size: int,
            weights: np.ndarray | None = None) -> np.ndarray:
    """Per-memory-object totals as an exact int64 array."""
    if weights is None:
        return np.bincount(ids, minlength=size).astype(np.int64)
    return np.bincount(
        ids, weights=weights.astype(np.float64), minlength=size
    ).astype(np.int64)


def narrow_keys(values: np.ndarray) -> np.ndarray:
    """Integer sort keys in the narrowest dtype that keeps their order.

    The keys become offsets from the smallest one, as uint8 or uint16
    when their span fits, which numpy's stable sort orders with a one-
    or two-pass radix sort instead of a timsort over int64.  A span of
    2**16 or more keeps *values* as they are.  A stable argsort of
    the result equals that of *values*, and equal keys stay equal, so
    sorting or de-duplicating either gives the same answer.
    """
    if values.shape[0] == 0:
        return values
    low = int(values.min())
    span = int(values.max()) - low
    if span >= 1 << 16:
        return values
    dtype = np.uint8 if span < 1 << 8 else np.uint16
    return (values - low).astype(dtype)


def _expand_lines(addr: np.ndarray, words: np.ndarray, mo: np.ndarray,
                  line_size: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Line id, owner and served words of every probe of the segments.

    Only a few probe-sized arrays are alive at once, and the
    per-segment temporaries are freed on return, which keeps the
    expansion's peak memory a small multiple of the probes it returns.
    """
    seg_end = addr + _WORD * words
    first_line = addr // line_size
    last_line = (seg_end - _WORD) // line_size
    nlines = last_line - first_line + 1
    starts = np.cumsum(nlines) - nlines
    total = int(nlines.sum())

    line = np.arange(total, dtype=np.int64)
    line += np.repeat(first_line - starts, nlines)
    owner = np.repeat(mo, nlines)

    # Inner probes serve a full line; a segment's last and first
    # probes serve up to its end and from its start.  A one-line
    # segment's only probe is both: the first-probe write comes last
    # and holds the segment's word count.
    probe_words = np.full(total, line_size // _WORD, dtype=np.int64)
    probe_words[starts + nlines - 1] = \
        (seg_end - last_line * line_size) // _WORD
    probe_words[starts] = (
        np.minimum(seg_end, (first_line + 1) * line_size) - addr
    ) // _WORD
    return line, owner, probe_words


def compile_stream(
    image: LinkedImage,
    block_sequence: list[str],
    spm_base: int | None = None,
) -> FetchStream:
    """Compile a block sequence and link it onto *image*.

    The compiled segments stay reachable as the stream's
    :attr:`~FetchStream.sequence`: link them onto any other layout of
    the same memory objects instead of compiling again.

    Args:
        image: the linked image whose fetch plans to replay.
        block_sequence: executed block names (from the executor).
        spm_base: scratchpad base address (defaults to the layout
            default, as in the reference simulator).
    """
    with span("sim.kernel.compile", blocks=len(block_sequence)):
        metrics.inc("sim.kernel.streams")
        return _compile(image, block_sequence).link(image, spm_base)


def _compile(image: LinkedImage,
             block_sequence: list[str]) -> CompiledSequence:
    """Emit the segments of *block_sequence* in the reference order.

    Replicates the reference simulator's segment emission order,
    including the pending-call-tail stack: calls push their trace-exit
    tail, returns pop and fetch it, and plain tails are fetched only
    when the next executed block is the plan's fall-through successor.
    Every distinct segment of the plans is one row of a table (object,
    offset, words); the loop emits row indices and one gather builds
    the arrays.
    """
    mo_names = image.object_names
    mo_index = {name: i for i, name in enumerate(mo_names)}
    table: list[tuple[int, int, int]] = []

    def row(segment) -> int:
        table.append((
            mo_index[segment.mo_name],
            segment.address - image.base_address(segment.mo_name),
            segment.num_words,
        ))
        return len(table) - 1

    # Per-block compiled form: segment rows plus control flags.
    compiled: dict[str, tuple] = {}
    for name, plan in image.all_plans().items():
        tail = plan.tail_jump
        compiled[name] = (
            [row(segment) for segment in plan.segments],
            None if tail is None else row(tail),
            plan.fallthrough, plan.ends_with_call, plan.ends_with_return,
        )

    rows: list[int] = []
    pending_tails: list[int | None] = []
    last_index = len(block_sequence) - 1
    for index, block_name in enumerate(block_sequence):
        segments, tail, fallthrough, is_call, is_return = \
            compiled[block_name]
        rows.extend(segments)
        if is_call:
            pending_tails.append(tail)
        elif tail is not None:
            if index < last_index and \
                    block_sequence[index + 1] == fallthrough:
                rows.append(tail)
        if is_return and pending_tails:
            popped = pending_tails.pop()
            if popped is not None:
                rows.append(popped)

    fields_by_row = np.array(table, dtype=np.int64).reshape(-1, 3)
    emitted = fields_by_row[np.array(rows, dtype=np.int64)]
    seg_mo = emitted[:, 0].astype(np.int32)
    seg_offset = np.ascontiguousarray(emitted[:, 1])
    seg_words = np.ascontiguousarray(emitted[:, 2])
    for array in (seg_mo, seg_offset, seg_words):
        array.flags.writeable = False
    return CompiledSequence(
        mo_names=mo_names,
        mo_sizes=image.object_sizes,
        seg_mo=seg_mo,
        seg_offset=seg_offset,
        seg_words=seg_words,
        num_blocks=len(block_sequence),
    )
