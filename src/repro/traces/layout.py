"""Linking: assigning addresses to memory objects and building fetch plans.

The :class:`LinkedImage` is the reproduction's linker.  Given the memory
objects, the set allocated to the scratchpad and a placement policy, it
assigns every fragment an address and derives, on first use, every basic
block's :class:`BlockFetchPlan` — the exact words the core fetches when
the block executes.  The memory-hierarchy simulator replays an executed
block sequence through these plans.

Two placement policies model the paper's key distinction (section 2):

* :attr:`Placement.COPY` — scratchpad-resident objects are *copied*; the
  main-memory image keeps its layout, so the cache mapping of the
  remaining code is unchanged (CASA's assumption).
* :attr:`Placement.COMPACT` — scratchpad-resident objects are *moved*
  and the remaining objects are compacted, shifting their addresses and
  hence their cache mapping (Steinke et al.'s behaviour, the source of
  the imprecision the paper criticises).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AllocationError, LayoutError
from repro.isa import INSTRUCTION_SIZE
from repro.program.program import Program
from repro.traces.memory_object import Fragment, JumpKind, MemoryObject
from repro.utils.bitops import align_up

#: Default base address of the cacheable main-memory code region.
MAIN_BASE = 0x0000_0000
#: Default base address of the (non-cacheable) scratchpad region.
SPM_BASE = 0x0040_0000


@dataclass(frozen=True)
class FetchSegment:
    """A run of consecutively fetched words.

    Attributes:
        mo_name: memory object the words belong to.
        address: byte address of the first word.
        num_words: number of instruction words fetched.
        on_spm: whether the segment resides in the scratchpad region.
    """

    mo_name: str
    address: int
    num_words: int
    on_spm: bool

    @property
    def end_address(self) -> int:
        """One past the last fetched byte."""
        return self.address + self.num_words * INSTRUCTION_SIZE


@dataclass(frozen=True)
class BlockFetchPlan:
    """Everything fetched when one basic block executes.

    Attributes:
        block: block name.
        segments: segments fetched on every execution, in order.
        tail_jump: trace-exit jump fetched only when control leaves via
            the block's fall-through edge (``None`` if the block has no
            appended exit jump).
        fallthrough: the fall-through successor the tail jump guards.
        ends_with_call: the tail jump (if any) is fetched on *return*
            from the callee rather than immediately.
        ends_with_return: executing this block pops the simulator's
            pending-call-tail stack.
    """

    block: str
    segments: tuple[FetchSegment, ...]
    tail_jump: FetchSegment | None
    fallthrough: str | None
    ends_with_call: bool
    ends_with_return: bool

    @property
    def always_fetched_words(self) -> int:
        """Words fetched on every execution of the block."""
        return sum(segment.num_words for segment in self.segments)


class Placement(enum.Enum):
    """How scratchpad-resident objects affect the main-memory image."""

    COPY = "copy"
    COMPACT = "compact"


class LinkedImage:
    """Addresses and fetch plans for one allocation decision.

    Args:
        program: the program the memory objects were derived from.
        memory_objects: all memory objects, in layout order.
        spm_resident: names of the objects allocated to the scratchpad.
        spm_size: scratchpad capacity in bytes (checked against the sum
            of unpadded sizes, eq. 17).
        placement: copy (CASA) or compact (Steinke) semantics.
        main_base: base address of the main-memory code image.
        spm_base: base address of the scratchpad region.
        object_sizes: the unpadded size of each of *memory_objects*,
            in order, when the caller already has them (e.g.
            :attr:`object_sizes` of another image of the same objects);
            ``None`` sums each object's fragments.

    Raises:
        AllocationError: if the resident set exceeds the scratchpad.
        LayoutError: if the two regions would overlap, or
            *object_sizes* does not match *memory_objects* in length.
    """

    def __init__(
        self,
        program: Program,
        memory_objects: list[MemoryObject],
        spm_resident: set[str] | frozenset[str] = frozenset(),
        spm_size: int = 0,
        placement: Placement = Placement.COPY,
        main_base: int = MAIN_BASE,
        spm_base: int = SPM_BASE,
        object_sizes: tuple[int, ...] | None = None,
    ) -> None:
        self._program = program
        self._memory_objects = list(memory_objects)
        self._mo_by_name = {mo.name: mo for mo in memory_objects}
        if len(self._mo_by_name) != len(memory_objects):
            raise LayoutError("duplicate memory-object names")
        unknown = set(spm_resident) - set(self._mo_by_name)
        if unknown:
            raise AllocationError(
                f"allocated objects do not exist: {sorted(unknown)}"
            )
        self._spm_resident = frozenset(spm_resident)
        self._placement = placement

        # An object's size is a sum over its fragments: summed once.
        self._mo_names = tuple(mo.name for mo in self._memory_objects)
        if object_sizes is None:
            object_sizes = tuple(mo.unpadded_size
                                 for mo in self._memory_objects)
        elif len(object_sizes) != len(self._memory_objects):
            raise LayoutError(
                f"{len(object_sizes)} object sizes for "
                f"{len(self._memory_objects)} memory objects"
            )
        self._mo_sizes = tuple(object_sizes)
        size_of = dict(zip(self._mo_names, self._mo_sizes))
        resident_bytes = sum(size_of[name] for name in spm_resident)
        if resident_bytes > spm_size:
            raise AllocationError(
                f"allocation needs {resident_bytes} bytes but the "
                f"scratchpad holds only {spm_size}"
            )
        self._spm_size = spm_size
        self._spm_used = resident_bytes

        # -- main-memory layout ----------------------------------------
        self._mo_base: dict[str, int] = {}
        self._mo_on_spm: dict[str, bool] = {}
        cursor = main_base
        for mo, size in zip(self._memory_objects, self._mo_sizes):
            on_spm = mo.name in self._spm_resident
            if placement is Placement.COPY or not on_spm:
                self._mo_base[mo.name] = cursor
                cursor += align_up(size, mo.line_size)  # padded size
        main_end = cursor

        # -- scratchpad layout -------------------------------------------
        spm_cursor = spm_base
        for mo, size in zip(self._memory_objects, self._mo_sizes):
            if mo.name in self._spm_resident:
                self._mo_base[mo.name] = spm_cursor
                spm_cursor += size
            self._mo_on_spm[mo.name] = mo.name in self._spm_resident
        if main_end > spm_base and spm_cursor > main_base:
            if main_base < spm_cursor and spm_base < main_end:
                raise LayoutError(
                    f"main image [{main_base:#x},{main_end:#x}) overlaps "
                    f"scratchpad [{spm_base:#x},{spm_cursor:#x})"
                )

        self._main_image_size = main_end - main_base
        # Built on first use: a layout that is only linked (see
        # :meth:`repro.memory.kernel.stream.CompiledSequence.link`)
        # needs the bases above, never the per-block plans.
        self._plans: dict[str, BlockFetchPlan] | None = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def program(self) -> Program:
        """The linked program."""
        return self._program

    @property
    def memory_objects(self) -> list[MemoryObject]:
        """All memory objects in layout order."""
        return list(self._memory_objects)

    @property
    def object_names(self) -> tuple[str, ...]:
        """Memory-object names in layout order."""
        return self._mo_names

    @property
    def object_sizes(self) -> tuple[int, ...]:
        """Unpadded byte size of each memory object, in layout order."""
        return self._mo_sizes

    @property
    def spm_resident(self) -> frozenset[str]:
        """Names of the scratchpad-resident memory objects."""
        return self._spm_resident

    @property
    def spm_used(self) -> int:
        """Scratchpad bytes consumed by the allocation."""
        return self._spm_used

    @property
    def placement(self) -> Placement:
        """The placement policy used."""
        return self._placement

    @property
    def main_image_size(self) -> int:
        """Size of the main-memory code image, in bytes."""
        return self._main_image_size

    def memory_object(self, name: str) -> MemoryObject:
        """Look up a memory object by name."""
        return self._mo_by_name[name]

    def base_address(self, mo_name: str) -> int:
        """Base address of a memory object (SPM or main memory)."""
        return self._mo_base[mo_name]

    def on_spm(self, mo_name: str) -> bool:
        """Whether the object resides in the scratchpad."""
        return self._mo_on_spm[mo_name]

    def plan_for(self, block_name: str) -> BlockFetchPlan:
        """The fetch plan of a basic block.

        Raises:
            LayoutError: if the memory objects miss part of a block.
        """
        return self._fetch_plans()[block_name]

    def all_plans(self) -> dict[str, BlockFetchPlan]:
        """Fetch plans of every block (keyed by block name).

        Raises:
            LayoutError: if the memory objects miss part of a block.
        """
        return dict(self._fetch_plans())

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def _fetch_plans(self) -> dict[str, BlockFetchPlan]:
        if self._plans is None:
            self._plans = self._build_plans()
        return self._plans

    def _fragment_offsets(self) -> dict[int, int]:
        """Byte offset of every fragment (by id) inside its object."""
        offsets: dict[int, int] = {}
        for mo in self._memory_objects:
            offset = 0
            for fragment in mo.fragments:
                offsets[id(fragment)] = offset
                offset += fragment.size
        return offsets

    def _build_plans(self) -> dict[str, BlockFetchPlan]:
        offsets = self._fragment_offsets()
        fragment_home: dict[int, MemoryObject] = {}
        block_fragments: dict[str, list[Fragment]] = {}
        for mo in self._memory_objects:
            for fragment in mo.fragments:
                fragment_home[id(fragment)] = mo
                block_fragments.setdefault(fragment.block, []).append(fragment)

        plans: dict[str, BlockFetchPlan] = {}
        for block in self._program.all_blocks():
            fragments = block_fragments.get(block.name)
            if not fragments:
                raise LayoutError(
                    f"block {block.name!r} is not covered by any trace"
                )
            fragments = sorted(fragments, key=lambda f: f.start)
            self._check_block_coverage(block.name, fragments,
                                       block.num_instructions)
            segments: list[FetchSegment] = []
            tail: FetchSegment | None = None
            for fragment in fragments:
                mo = fragment_home[id(fragment)]
                base = self._mo_base[mo.name] + offsets[id(fragment)]
                on_spm = self._mo_on_spm[mo.name]
                if fragment.appended_jump is JumpKind.ON_FALLTHROUGH:
                    body_words = fragment.num_instructions
                    if body_words:
                        segments.append(
                            FetchSegment(mo.name, base, body_words, on_spm)
                        )
                    tail = FetchSegment(
                        mo.name,
                        base + body_words * INSTRUCTION_SIZE,
                        1,
                        on_spm,
                    )
                else:
                    segments.append(
                        FetchSegment(
                            mo.name, base, fragment.num_words_with_jump,
                            on_spm,
                        )
                    )
            plans[block.name] = BlockFetchPlan(
                block=block.name,
                segments=tuple(segments),
                tail_jump=tail,
                fallthrough=block.fallthrough,
                ends_with_call=block.ends_with_call,
                ends_with_return=block.ends_with_return,
            )
        return plans

    @staticmethod
    def _check_block_coverage(
        name: str, fragments: list[Fragment], num_instructions: int
    ) -> None:
        expected = 0
        for fragment in fragments:
            if fragment.start != expected:
                raise LayoutError(
                    f"block {name!r}: fragment gap at instruction "
                    f"{expected} (fragment starts at {fragment.start})"
                )
            expected = fragment.end
        if expected != num_instructions:
            raise LayoutError(
                f"block {name!r}: fragments cover {expected} of "
                f"{num_instructions} instructions"
            )
