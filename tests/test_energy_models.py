"""Tests for the repro.energy package."""

import pytest

from repro.energy.banakar import scratchpad_access_energy
from repro.energy.cacti import (
    cache_access_energy,
    cache_refill_energy,
    sram_access_energy,
)
from repro.energy.loopcache import (
    loop_cache_access_energy,
    loop_cache_controller_energy,
)
from repro.energy.mainmem import MAIN_MEMORY_WORD_ENERGY_NJ
from repro.energy.model import (
    EnergyModel,
    build_energy_model,
    compute_energy,
)
from repro.errors import ConfigurationError
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.memory.loopcache import LoopCacheConfig
from repro.memory.stats import MemoryObjectStats, SimulationReport


class TestCacti:
    def test_sram_monotonic_in_size(self):
        sizes = [64, 128, 256, 512, 1024, 2048, 4096]
        energies = [sram_access_energy(s) for s in sizes]
        assert energies == sorted(energies)

    def test_cache_grows_with_associativity(self):
        dm = cache_access_energy(2048, 16, 1)
        two_way = cache_access_energy(2048, 16, 2)
        assert two_way > dm

    def test_cache_grows_with_line_size(self):
        small = cache_access_energy(2048, 16, 1)
        big = cache_access_energy(2048, 32, 1)
        assert big > small

    def test_spm_cheaper_than_cache_of_same_size(self):
        for size in (128, 256, 1024, 2048):
            assert scratchpad_access_energy(size) < \
                cache_access_energy(size, 16, 1)

    def test_small_spm_cheaper_than_benchmark_caches(self):
        # The relation the whole allocation problem relies on.
        for cache_size in (128, 1024, 2048):
            hit = cache_access_energy(cache_size, 16, 1)
            for spm in (64, 128, 256):
                assert scratchpad_access_energy(spm) < hit

    def test_refill_positive(self):
        assert cache_refill_energy(2048, 16, 1) > 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            cache_access_energy(0, 16, 1)
        with pytest.raises(ConfigurationError):
            cache_access_energy(16, 16, 4)
        with pytest.raises(ConfigurationError):
            sram_access_energy(0)
        with pytest.raises(ConfigurationError):
            scratchpad_access_energy(-1)


class TestLoopCacheModel:
    def test_controller_scales_with_regions(self):
        assert loop_cache_controller_energy(8) > \
            loop_cache_controller_energy(4)

    def test_access_equals_sram(self):
        assert loop_cache_access_energy(256) == sram_access_energy(256)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            loop_cache_controller_energy(0)
        with pytest.raises(ConfigurationError):
            loop_cache_access_energy(0)


class TestEnergyModel:
    def test_miss_must_exceed_hit(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(cache_hit=1.0, cache_miss=0.5)

    @pytest.mark.parametrize("miss", [0.0, 5.0])
    def test_free_or_hit_priced_miss_rejected(self, miss):
        # A miss no dearer than a hit makes the miss premium of every
        # CASA product variable non-positive.
        with pytest.raises(ConfigurationError, match="miss must cost"):
            EnergyModel(cache_hit=5.0, cache_miss=miss)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            EnergyModel(spm_access=-1.0)

    def test_build_for_cache_spm(self):
        config = HierarchyConfig(
            cache=CacheConfig(size=2048, line_size=16, associativity=1),
            spm_size=256,
        )
        model = build_energy_model(config)
        assert model.spm_access < model.cache_hit < model.cache_miss
        # miss includes the off-chip transfer of a whole line
        assert model.cache_miss > 4 * MAIN_MEMORY_WORD_ENERGY_NJ

    def test_build_for_loop_cache(self):
        config = HierarchyConfig(
            cache=CacheConfig(size=2048, line_size=16, associativity=1),
            loop_cache=LoopCacheConfig(size=256, max_regions=4),
        )
        model = build_energy_model(config)
        assert model.lc_access > 0
        assert model.lc_controller_check > 0
        assert model.spm_access == 0

    def test_build_cacheless(self):
        model = build_energy_model(HierarchyConfig(cache=None,
                                                   spm_size=128))
        assert model.cache_miss == MAIN_MEMORY_WORD_ENERGY_NJ
        assert model.cache_hit == 0


class TestComputeEnergy:
    def make_report(self):
        report = SimulationReport()
        report.mo_stats["T0"] = MemoryObjectStats(
            name="T0", fetches=100, spm_accesses=40, lc_accesses=10,
            cache_hits=45, cache_misses=5,
        )
        report.lc_controller_checks = 60
        return report

    def test_breakdown_arithmetic(self):
        model = EnergyModel(cache_hit=1.0, cache_miss=10.0,
                            spm_access=0.5, lc_access=0.6,
                            lc_controller_check=0.1)
        breakdown = compute_energy(self.make_report(), model)
        assert breakdown.spm == pytest.approx(20.0)
        assert breakdown.loop_cache == pytest.approx(6.0)
        assert breakdown.lc_controller == pytest.approx(6.0)
        assert breakdown.cache_hits == pytest.approx(45.0)
        assert breakdown.cache_misses == pytest.approx(50.0)
        assert breakdown.total == pytest.approx(127.0)
        assert breakdown.total_uj == pytest.approx(0.127)

    def test_zero_report(self):
        model = EnergyModel(cache_hit=1.0, cache_miss=10.0)
        assert compute_energy(SimulationReport(), model).total == 0.0
