"""Tests for machine configurations (Tables I and II)."""

from __future__ import annotations

import pytest

from repro.uarch.config import MachineConfig, baseline_config, config_a


class TestBaselineTable1:
    """Field-by-field check against Table I of the paper."""

    def test_widths(self, baseline):
        assert baseline.fetch_width == 4
        assert baseline.dispatch_width == 4
        assert baseline.issue_width == 4
        assert baseline.commit_width == 4

    def test_functional_units(self, baseline):
        assert baseline.int_alus == 4
        assert baseline.int_multipliers == 1
        assert baseline.alu_latency == 1
        assert baseline.multiply_latency == 7

    def test_queues(self, baseline):
        assert baseline.iq_entries == 20
        assert baseline.iq_bits_per_entry == 32
        assert baseline.rob_entries == 80
        assert baseline.rob_bits_per_entry == 76
        assert baseline.lq_entries == 32
        assert baseline.sq_entries == 32
        assert baseline.lsq_bits_per_entry == 128

    def test_register_file(self, baseline):
        assert baseline.rename_registers == 80
        assert baseline.register_bits == 64
        assert baseline.architected_registers == 32
        assert baseline.free_rename_registers == 48

    def test_branch_misprediction_penalty(self, baseline):
        assert baseline.branch_misprediction_penalty == 7

    def test_dl1(self, baseline):
        assert baseline.dl1.size_bytes == 64 * 1024
        assert baseline.dl1.associativity == 2
        assert baseline.dl1.line_bytes == 64
        assert baseline.dl1.hit_latency == 3

    def test_il1(self, baseline):
        assert baseline.il1.size_bytes == 64 * 1024
        assert baseline.il1.hit_latency == 1

    def test_dtlb(self, baseline):
        assert baseline.dtlb.entries == 256
        assert baseline.dtlb.page_bytes == 8 * 1024
        assert baseline.dtlb.reach_bytes == 2 * 1024 * 1024

    def test_l2(self, baseline):
        assert baseline.l2.size_bytes == 1024 * 1024
        assert baseline.l2.associativity == 1
        assert baseline.l2.hit_latency == 7

    def test_memory_issue_width(self, baseline):
        assert baseline.memory_issue_width == 2

    def test_functional_unit_count(self, baseline):
        assert baseline.functional_units == 5


class TestConfigATable2:
    """Field-by-field check against Table II of the paper."""

    def test_core_structures(self, alternate):
        assert alternate.iq_entries == 32
        assert alternate.rob_entries == 96
        assert alternate.rename_registers == 96
        assert alternate.int_multipliers == 4

    def test_memory_hierarchy(self, alternate):
        assert alternate.dl1.associativity == 4
        assert alternate.dtlb.entries == 512
        assert alternate.l2.size_bytes == 2 * 1024 * 1024
        assert alternate.l2.associativity == 8
        assert alternate.l2.hit_latency == 12

    def test_unchanged_fields(self, alternate, baseline):
        assert alternate.lq_entries == baseline.lq_entries
        assert alternate.issue_width == baseline.issue_width
        assert alternate.branch_misprediction_penalty == baseline.branch_misprediction_penalty


class TestDeriveAndValidation:
    def test_derive_overrides(self, baseline):
        derived = baseline.derive(rob_entries=128, name="bigger")
        assert derived.rob_entries == 128
        assert derived.name == "bigger"
        assert baseline.rob_entries == 80

    def test_lsq_bit_split(self, baseline):
        assert baseline.lsq_tag_bits + baseline.lsq_data_bits == baseline.lsq_bits_per_entry

    def test_rename_smaller_than_architected_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(rename_registers=16)

    def test_no_free_rename_register_rejected(self):
        """As many rename as architected registers leaves none free for an
        in-flight result; both simulator planes would index an empty rename
        window on the first register write."""
        with pytest.raises(ValueError, match="leave 0 free"):
            baseline_config().derive(rename_registers=32)
        assert baseline_config().derive(rename_registers=33).free_rename_registers == 1

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(issue_width=0)

    def test_zero_queue_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(iq_entries=0)
