"""Tests for the two-level memory hierarchy."""

from __future__ import annotations

import dataclasses

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TlbConfig
from repro.uarch.config import baseline_config


def small_hierarchy(memory_latency: int = 100, tlb_penalty: int = 20) -> MemoryHierarchy:
    return MemoryHierarchy(
        dl1_config=CacheConfig(name="dl1", size_bytes=1024, associativity=2, line_bytes=64, hit_latency=3),
        l2_config=CacheConfig(name="l2", size_bytes=8 * 1024, associativity=1, line_bytes=64, hit_latency=7),
        dtlb_config=TlbConfig(entries=4, page_bytes=4096),
        memory_latency=memory_latency,
        tlb_miss_penalty=tlb_penalty,
    )


class TestLatencies:
    def test_cold_access_pays_full_path(self):
        hierarchy = small_hierarchy()
        outcome = hierarchy.access(0, is_write=False, cycle=1)
        assert not outcome.dl1_hit and not outcome.l2_hit and not outcome.tlb_hit
        assert outcome.latency == 20 + 3 + 7 + 100
        assert outcome.is_l2_miss

    def test_dl1_hit_latency(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0, is_write=False, cycle=1)
        outcome = hierarchy.access(0, is_write=False, cycle=2)
        assert outcome.dl1_hit and outcome.tlb_hit
        assert outcome.latency == 3
        assert not outcome.is_l2_miss

    def test_l2_hit_latency(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0, is_write=False, cycle=1)
        # Evict line 0 from the tiny DL1 by touching conflicting lines.
        hierarchy.access(8 * 64, is_write=False, cycle=2)
        hierarchy.access(16 * 64, is_write=False, cycle=3)
        outcome = hierarchy.access(0, is_write=False, cycle=4)
        assert not outcome.dl1_hit and outcome.l2_hit
        assert outcome.latency == 3 + 7

    def test_tlb_miss_penalty_added(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0, is_write=False, cycle=1)
        outcome = hierarchy.access(4096, is_write=False, cycle=2)
        assert not outcome.tlb_hit
        assert outcome.latency >= 20

    def test_validation(self):
        with pytest.raises(ValueError):
            small_hierarchy(memory_latency=0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_hierarchy().access(-8, is_write=False, cycle=1)


class TestWritebackPropagation:
    def test_dirty_dl1_victim_reaches_l2(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0, is_write=True, cycle=1)
        # Force eviction of line 0 from DL1 (2-way, 8 sets -> 8*64 aliases).
        hierarchy.access(8 * 64, is_write=False, cycle=2)
        hierarchy.access(16 * 64, is_write=False, cycle=3)
        # The L2 should now hold the dirty line 0 data as a write event.
        hierarchy.finalize(cycle=100)
        assert hierarchy.l2.lifetime.ace_bit_cycles() > 0.0


class TestWarmRegion:
    def test_warm_region_fills_each_level_to_capacity(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=16 * 1024, dirty=True, ace=True)
        assert hierarchy.dl1.resident_line_count() == hierarchy.dl1.config.num_lines
        assert hierarchy.l2.resident_line_count() == hierarchy.l2.config.num_lines
        assert hierarchy.dtlb.resident_entry_count() == hierarchy.dtlb.config.entries

    def test_warm_region_smaller_than_caches(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=512, dirty=True, ace=True)
        assert hierarchy.dl1.resident_line_count() == 512 // 64

    def test_warm_dirty_region_is_ace(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=1024, dirty=True, ace=True)
        hierarchy.finalize(cycle=100)
        assert hierarchy.dl1.avf(100) > 0.9

    def test_warm_clean_region_not_ace_without_reads(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=1024, dirty=False, ace=True)
        hierarchy.finalize(cycle=100)
        assert hierarchy.dl1.avf(100) == 0.0

    def test_warm_recurrent_marks_tlb(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=4 * 4096, dirty=True, ace=True, recurrent=True)
        hierarchy.finalize(cycle=200)
        assert hierarchy.dtlb.avf(200) == pytest.approx(1.0)

    def test_warm_region_validation(self):
        with pytest.raises(ValueError):
            small_hierarchy().warm_region(base=0, size_bytes=0)

    def test_warm_region_counts_l2_lines_in_l2_line_bytes(self):
        """An L2 line wider than the DL1's warms the region's tail, not past it."""
        config = baseline_config()
        wide_l2 = dataclasses.replace(config.l2, line_bytes=128)
        hierarchy = MemoryHierarchy(dl1_config=config.dl1, l2_config=wide_l2,
                                    dtlb_config=config.dtlb)
        size = 256 * 1024
        hierarchy.warm_region(base=0, size_bytes=size, dirty=True, ace=True)
        assert hierarchy.l2.resident_line_count() == size // 128
        assert hierarchy.l2.access(size - 128, is_write=False, cycle=1).hit
        assert not hierarchy.l2.access(size, is_write=False, cycle=2).hit

    def test_warm_then_access_hits(self):
        hierarchy = small_hierarchy()
        hierarchy.warm_region(base=0, size_bytes=1024, dirty=True, ace=True)
        outcome = hierarchy.access(960, is_write=False, cycle=5)
        assert outcome.dl1_hit and outcome.tlb_hit


class TestFinalize:
    def test_finalize_closes_all_levels(self):
        hierarchy = small_hierarchy()
        hierarchy.access(0, is_write=True, cycle=1)
        hierarchy.finalize(cycle=50)
        assert hierarchy.dl1.avf(50) > 0.0
        assert hierarchy.dtlb.resident_entry_count() == 0
