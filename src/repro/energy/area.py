"""On-chip area model for caches and scratchpads.

The architectural question behind the paper — *given some silicon,
should it be cache or scratchpad?* — needs an area model to be asked
precisely.  As with the energy model, only the functional shape
matters: SRAM area grows linearly with capacity; a cache additionally
pays tag storage (per line), comparators (per way) and control.
Banakar et al. [3] report scratchpads around 34 % smaller than caches
of equal capacity at these geometries, which this model reproduces.

Units are arbitrary ("area units" proportional to mm² at 0.5 µm); all
comparisons are ratios.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.memory.config import CacheConfig

#: Area per data bit of SRAM (area units).
DATA_BIT_AREA = 1.0
#: Area per tag bit (same cell, plus routing overhead).
TAG_BIT_AREA = 1.2
#: Area of one way's comparator per tag bit.
COMPARATOR_BIT_AREA = 0.6
#: Fixed overhead: decoder, sense amps, control (per array).
ARRAY_OVERHEAD = 512.0
#: Extra control overhead of a cache (miss handling, fill path).
CACHE_CONTROL_OVERHEAD = 768.0
#: Address width used for tag sizing.
ADDRESS_BITS = 32


def scratchpad_area(size: int) -> float:
    """Area of a scratchpad of *size* bytes."""
    if size <= 0:
        raise ConfigurationError(f"scratchpad size must be positive: {size}")
    return size * 8 * DATA_BIT_AREA + ARRAY_OVERHEAD


def cache_area(config: CacheConfig) -> float:
    """Area of a cache, including tags, comparators and control."""
    data_bits = config.size * 8
    num_lines = config.size // config.line_size
    offset_bits = int(math.log2(config.line_size))
    index_bits = int(math.log2(config.num_sets)) \
        if config.num_sets > 1 else 0
    tag_bits = ADDRESS_BITS - offset_bits - index_bits
    tags = num_lines * (tag_bits + 1) * TAG_BIT_AREA  # +1 valid bit
    comparators = config.associativity * tag_bits * COMPARATOR_BIT_AREA
    return (data_bits * DATA_BIT_AREA + tags + comparators
            + ARRAY_OVERHEAD + CACHE_CONTROL_OVERHEAD)


def hierarchy_area(cache: CacheConfig | None, spm_size: int) -> float:
    """Combined on-chip area of an L1 cache plus scratchpad."""
    total = 0.0
    if cache is not None:
        total += cache_area(cache)
    if spm_size:
        total += scratchpad_area(spm_size)
    return total
