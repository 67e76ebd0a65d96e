"""Benchmark registry: name -> workload with its paper parameters.

Each entry bundles the program with the experimental parameters the
paper pairs it with ("Instruction cache of size 2kB, 1kB and 128 Bytes
was assumed for the mpeg, g721 and adpcm benchmarks, respectively",
section 6; scratchpad/loop-cache sizes from table 1).

A :class:`Workload` is cheap metadata: its program is built on first
access to :attr:`Workload.program`, so callers that only read the
cache or the scratchpad sizes never pay for a program build.  The
builders import the program model when they run, so listing names or
checking a scale loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError, WorkloadError
from repro.memory.config import CacheConfig

if TYPE_CHECKING:
    from repro.program.program import Program


def _build_tiny(scale: float) -> Program:
    """A minimal two-loop workload for fast tests and the quickstart."""
    from repro.workloads.builder import Loop, ProgramBuilder, Seq, Straight

    trip = max(1, round(60 * scale))
    builder = ProgramBuilder("tiny")
    builder.add_function("main", Seq([
        Straight(4),
        Loop(trip=trip, body=Seq([
            Straight(6),
            Loop(trip=4, body=Straight(8)),
            Straight(4),
        ])),
        Straight(4),
    ]))
    return builder.build(entry="main")


def _mediabench(name: str) -> Callable[[float], Program]:
    """The builder ``repro.workloads.mediabench.build_<name>``, imported
    when a program is first built."""
    def build(scale: float) -> Program:
        from repro.workloads import mediabench

        return getattr(mediabench, f"build_{name}")(scale)
    return build


#: Program builder of each registered workload, called with the scale.
_BUILDERS: dict[str, Callable[[float], Program]] = {
    "adpcm": _mediabench("adpcm"),
    "g721": _mediabench("g721"),
    "mpeg": _mediabench("mpeg"),
    "jpeg": _mediabench("jpeg"),
    "epic": _mediabench("epic"),
    "tiny": _build_tiny,
}


@dataclass(frozen=True)
class Workload:
    """A benchmark plus its experiment parameters.

    Equality and hashing cover the fields only, so they do not depend
    on whether :attr:`program` has been built.

    Attributes:
        name: benchmark name.
        program: the compiled program, built on first access and then
            kept (a cached property, not a field).
        cache: the I-cache the paper pairs with this benchmark.
        spm_sizes: the scratchpad/loop-cache sizes swept in table 1.
        description: one-line provenance note.
        scale: outer-loop trip-count multiplier of :attr:`program`.
    """

    name: str
    cache: CacheConfig
    spm_sizes: tuple[int, ...]
    description: str
    scale: float = 1.0

    @cached_property
    def program(self) -> Program:
        """The compiled program at :attr:`scale`."""
        return _BUILDERS[self.name](self.scale)


def check_scale(scale: object) -> float:
    """*scale* if it is a valid trip-count multiplier, a finite number
    > 0 (a bool is not a number here).

    Raises:
        ConfigurationError: for any other value.
    """
    if isinstance(scale, bool) or not isinstance(scale, (int, float)) \
            or not math.isfinite(scale) or scale <= 0:
        raise ConfigurationError(
            f"scale must be a finite number > 0, got {scale!r}"
        )
    return scale


def get_workload(name: str, scale: float = 1.0) -> Workload:
    """Look up a registered workload; its program is built lazily.

    Args:
        name: one of :func:`available_workloads`.
        scale: outer-loop trip-count multiplier (tests use < 1).

    Raises:
        WorkloadError: for an unknown name.
    """
    if name == "adpcm":
        return Workload(
            name="adpcm",
            cache=CacheConfig(size=128, line_size=16, associativity=1),
            spm_sizes=(64, 128, 256),
            description="ADPCM codec model, ~1 kB code, 128 B I-cache",
            scale=scale,
        )
    if name == "g721":
        return Workload(
            name="g721",
            cache=CacheConfig(size=1024, line_size=16, associativity=1),
            spm_sizes=(128, 256, 512, 1024),
            description="G.721 transcoder model, ~4.7 kB code, "
                        "1 kB I-cache",
            scale=scale,
        )
    if name == "mpeg":
        return Workload(
            name="mpeg",
            cache=CacheConfig(size=2048, line_size=16, associativity=1),
            spm_sizes=(128, 256, 512, 1024),
            description="MPEG-2 encoder model, ~19.5 kB code, "
                        "2 kB I-cache",
            scale=scale,
        )
    if name == "epic":
        return Workload(
            name="epic",
            cache=CacheConfig(size=1024, line_size=16, associativity=1),
            spm_sizes=(128, 256, 512),
            description="EPIC wavelet compression model, ~8 kB code, "
                        "1 kB I-cache",
            scale=scale,
        )
    if name == "jpeg":
        return Workload(
            name="jpeg",
            cache=CacheConfig(size=512, line_size=16, associativity=1),
            spm_sizes=(128, 256, 512),
            description="phased JPEG encoder model for the overlay "
                        "extension",
            scale=scale,
        )
    if name == "tiny":
        return Workload(
            name="tiny",
            cache=CacheConfig(size=128, line_size=16, associativity=1),
            spm_sizes=(64, 128),
            description="minimal nested-loop smoke workload",
            scale=scale,
        )
    raise WorkloadError(
        f"unknown workload {name!r}; available: {available_workloads()}"
    )


def available_workloads() -> tuple[str, ...]:
    """Names accepted by :func:`get_workload`."""
    return tuple(_BUILDERS)
