"""Tests for the unified VulnerabilityLedger (events, accounts, edge cases)."""

from __future__ import annotations

import pickle

import pytest

from repro.registry import RegistryError
from repro.uarch.config import baseline_config, extended_config
from repro.uarch.structures import StructureName
from repro.vuln import (
    STRUCTURES,
    AceAccumulator,
    LifetimeTracker,
    ResidencyTracker,
    VulnerabilityLedger,
)


@pytest.fixture()
def ledger() -> VulnerabilityLedger:
    return VulnerabilityLedger(baseline_config())


class TestLedgerAccounts:
    def test_accounts_follow_registry_order(self, ledger):
        values = [name.value for name in ledger.accounts]
        stock = ["iq", "rob", "lq_tag", "lq_data", "sq_tag", "sq_data",
                 "rf", "fu", "dl1", "l2", "dtlb"]
        assert values == stock

    def test_flag_gated_structures_join_when_enabled(self):
        ledger = VulnerabilityLedger(extended_config())
        values = [name.value for name in ledger.accounts]
        assert values[-2:] == ["sb", "l2_tlb"]
        assert ledger.account("sb").entries == 32
        assert ledger.account("l2_tlb").entries == 512

    def test_account_lookup_accepts_names_and_members(self, ledger):
        assert ledger.account("rob") is ledger.account(StructureName.ROB)

    def test_unknown_structure_nearest_match(self, ledger):
        with pytest.raises(RegistryError, match="did you mean 'rob'"):
            ledger.account("robb")

    def test_disabled_structure_mentions_gating(self, ledger):
        with pytest.raises(RegistryError, match="disabled for this machine configuration"):
            ledger.account("sb")

    def test_membership(self, ledger):
        assert "rob" in ledger
        assert StructureName.ROB in ledger
        assert "sb" not in ledger
        assert "no_such_structure" not in ledger

    def test_add_interval_and_credit_agree(self, ledger):
        ledger.add_interval("iq", 0, 10, ace_fraction=1.0)
        via_events = ledger.account("iq").ace_bit_cycles
        other = VulnerabilityLedger(baseline_config())
        bits = other.account("iq").bits_per_entry
        other.credit("iq", 10.0, 10.0 * bits)
        assert other.account("iq").ace_bit_cycles == via_events
        assert other.account("iq").occupied_entry_cycles == ledger.account("iq").occupied_entry_cycles

    def test_add_interval_validation(self, ledger):
        with pytest.raises(ValueError):
            ledger.add_interval("rob", 10, 5)
        with pytest.raises(ValueError):
            ledger.add_interval("rob", 0, 10, ace_fraction=1.5)

    def test_credit_rejects_negative_sums(self, ledger):
        with pytest.raises(ValueError):
            ledger.credit("rob", -1.0, 0.0)
        with pytest.raises(ValueError):
            ledger.credit("rob", 0.0, -1.0)
        assert ledger.account("rob").ace_bit_cycles == 0.0

    def test_word_tracker_defaults_to_descriptor_granularity(self, ledger):
        # Caches are tracked per 8-byte word, not per line.
        assert ledger.word_tracker("dl1").word_bits == 64
        # The ledger facade mints the same tracker the hierarchy would.
        ledger2 = VulnerabilityLedger(baseline_config())
        ledger2.fill("dl1", 0, 0, cycle=0)
        assert ledger2.word_tracker("dl1", 64).word_bits == 64

    def test_word_tracker_rejects_conflicting_granularity(self, ledger):
        ledger.word_tracker("dl1", 64)
        with pytest.raises(ValueError, match="64 bits/event"):
            ledger.word_tracker("dl1", 512)


class TestAddIntervalsBulk:
    """Bulk interval credit must be bit-identical to the looped form."""

    def _looped(self, starts, ends, fractions=None):
        ledger = VulnerabilityLedger(baseline_config())
        for index in range(len(starts)):
            if fractions is None:
                ledger.add_interval("dtlb", starts[index], ends[index])
            else:
                ledger.add_interval("dtlb", starts[index], ends[index], fractions[index])
        return ledger.account("dtlb")

    def test_bulk_equals_loop_on_integer_columns(self):
        starts = list(range(0, 640, 10))
        ends = [start + 7 for start in starts]
        ledger = VulnerabilityLedger(baseline_config())
        ledger.add_intervals("dtlb", starts, ends)
        looped = self._looped(starts, ends)
        assert ledger.account("dtlb").ace_bit_cycles == looped.ace_bit_cycles
        assert ledger.account("dtlb").occupied_entry_cycles == looped.occupied_entry_cycles

    def test_bulk_equals_loop_with_zero_one_fractions(self):
        starts = list(range(0, 160, 10))
        ends = [start + 5 for start in starts]
        fractions = [1.0 if index % 3 else 0.0 for index in range(len(starts))]
        ledger = VulnerabilityLedger(baseline_config())
        ledger.add_intervals("dtlb", starts, ends, fractions)
        looped = self._looped(starts, ends, fractions)
        assert ledger.account("dtlb").ace_bit_cycles == looped.ace_bit_cycles
        assert ledger.account("dtlb").occupied_entry_cycles == looped.occupied_entry_cycles

    def test_fractional_ace_falls_back_to_exact_loop(self):
        starts = list(range(0, 160, 10))
        ends = [start + 5 for start in starts]
        fractions = [0.5] * len(starts)
        ledger = VulnerabilityLedger(baseline_config())
        ledger.add_intervals("dtlb", starts, ends, fractions)
        looped = self._looped(starts, ends, fractions)
        assert ledger.account("dtlb").ace_bit_cycles == looped.ace_bit_cycles

    def test_small_batches_take_the_loop(self):
        ledger = VulnerabilityLedger(baseline_config())
        ledger.add_intervals("dtlb", [0, 5], [10, 9])
        looped = self._looped([0, 5], [10, 9])
        assert ledger.account("dtlb").ace_bit_cycles == looped.ace_bit_cycles

    def test_mismatched_columns_raise(self, ledger):
        with pytest.raises(ValueError, match="equal lengths"):
            ledger.add_intervals("dtlb", [0, 1], [2])
        with pytest.raises(ValueError, match="equal lengths"):
            ledger.add_intervals("dtlb", [0, 1], [2, 3], [1.0])

    def test_negative_duration_raises_like_the_loop(self):
        starts = list(range(0, 160, 10))
        ends = [start + 5 for start in starts]
        ends[9] = starts[9] - 1  # one inverted interval inside a big batch
        ledger = VulnerabilityLedger(baseline_config())
        with pytest.raises(ValueError):
            ledger.add_intervals("dtlb", starts, ends)


class TestStructureNameOpenEnum:
    def test_lookup_by_value(self):
        assert StructureName("iq") is StructureName.IQ

    def test_unknown_value_raises(self):
        with pytest.raises(ValueError):
            StructureName("bogus_structure_xyz")

    def test_pickle_round_trip_preserves_identity(self):
        for member in StructureName:
            assert pickle.loads(pickle.dumps(member)) is member

    def test_registry_and_enum_agree(self):
        for name in STRUCTURES.names():
            assert StructureName(name).value == name

    def test_metadata(self):
        assert StructureName.IQ.is_core and StructureName.IQ.is_queueing
        assert StructureName.RF.is_core and not StructureName.RF.is_queueing
        assert not StructureName.DL1.is_core
        assert StructureName.SB.is_core and StructureName.SB.is_queueing
        assert StructureName.L2_TLB.group == "dl1_dtlb"


class TestEventOrderEdgeCases:
    """Event-order edge cases, asserting parity with LifetimeTracker semantics.

    Each case drives the same events through the ledger facade (on the DL1
    structure) and through a standalone tracker; the credited ACE time must
    match — including the PR 3 dirty-ACE Write=>Evict fix for fills over
    still-live words.
    """

    def _pair(self):
        ledger = VulnerabilityLedger(baseline_config())
        word_bits = 64
        reference = LifetimeTracker(word_bits=word_bits)
        tracker = ledger.word_tracker("dl1", word_bits)
        return ledger, tracker, reference

    def test_fill_after_fill_without_evict_keeps_dirty_ace_credit(self):
        ledger, tracker, reference = self._pair()
        for sink in (reference, None):
            if sink is None:
                ledger.write("dl1", 0, 0, cycle=0, ace=True)
                ledger.fill("dl1", 0, 0, cycle=30, ace=True)  # fill over live word
                ledger.flush("dl1", cycle=100)
            else:
                sink.record_write(0, 0, cycle=0, ace=True)
                sink.record_fill(0, 0, cycle=30, ace=True)
                sink.finalize(cycle=100)
        # The overwritten dirty ACE word keeps its Write=>Evict credit (30
        # cycles); the clean refill is un-ACE at the end-of-run flush.
        assert tracker.ace_word_cycles == reference.ace_word_cycles == 30

    def test_fill_after_unace_write_grants_no_credit(self):
        ledger, tracker, reference = self._pair()
        reference.record_write(0, 0, cycle=0, ace=False)
        reference.record_fill(0, 0, cycle=30, ace=True)
        reference.finalize(cycle=100)
        ledger.write("dl1", 0, 0, cycle=0, ace=False)
        ledger.fill("dl1", 0, 0, cycle=30, ace=True)
        ledger.flush("dl1", cycle=100)
        assert tracker.ace_word_cycles == reference.ace_word_cycles == 0

    def test_evict_without_fill_is_a_noop(self):
        ledger, tracker, reference = self._pair()
        reference.record_evict(5, 3, cycle=40)
        ledger.evict("dl1", 5, 3, cycle=40)
        assert tracker.ace_word_cycles == reference.ace_word_cycles == 0
        assert tracker.live_words() == reference.live_words() == 0

    def test_read_after_evict_restarts_tracking(self):
        ledger, tracker, reference = self._pair()
        for sink in (reference, None):
            if sink is None:
                ledger.fill("dl1", 1, 0, cycle=0, ace=True)
                ledger.evict("dl1", 1, 0, cycle=10)
                ledger.read("dl1", 1, 0, cycle=20, ace=True)   # warm-up style restart
                ledger.read("dl1", 1, 0, cycle=50, ace=True)   # read=>read is ACE
                ledger.flush("dl1", cycle=100)
            else:
                sink.record_fill(1, 0, cycle=0, ace=True)
                sink.record_evict(1, 0, cycle=10)
                sink.record_read(1, 0, cycle=20, ace=True)
                sink.record_read(1, 0, cycle=50, ace=True)
                sink.finalize(cycle=100)
        # fill=>evict is un-ACE; the re-started read=>read interval (30
        # cycles) is ACE; read=>end-of-run is un-ACE.
        assert tracker.ace_word_cycles == reference.ace_word_cycles == 30

    def test_flush_at_end_of_run_is_an_eviction(self):
        ledger, tracker, reference = self._pair()
        for sink in (reference, None):
            if sink is None:
                ledger.write("dl1", 2, 1, cycle=10, ace=True)
                ledger.fill("dl1", 3, 0, cycle=10, ace=True)
                ledger.flush("dl1", cycle=60)
            else:
                sink.record_write(2, 1, cycle=10, ace=True)
                sink.record_fill(3, 0, cycle=10, ace=True)
                sink.finalize(cycle=60)
        # Dirty ACE data is still needed at the end of the window (50 ACE
        # cycles); the clean filled word is not.
        assert tracker.ace_word_cycles == reference.ace_word_cycles == 50
        assert tracker.live_words() == reference.live_words() == 0

    def test_flush_is_idempotent(self):
        ledger, tracker, _ = self._pair()
        ledger.write("dl1", 0, 0, cycle=0, ace=True)
        ledger.flush("dl1", cycle=10)
        ledger.flush("dl1", cycle=99)
        assert tracker.ace_word_cycles == 10


class TestCollect:
    def test_collect_folds_tracker_totals_into_accounts(self):
        ledger = VulnerabilityLedger(baseline_config())
        tracker = ledger.word_tracker("dl1", 64)
        tracker.record_write(0, 0, cycle=0, ace=True)
        tracker.finalize(cycle=10)
        residency = ledger.residency_tracker("dtlb", 64)
        residency.credit(25)
        accounts = ledger.collect()
        assert accounts[StructureName.DL1].ace_bit_cycles == 10 * 64
        assert accounts[StructureName.DTLB].ace_bit_cycles == 25 * 64

    def test_collect_is_idempotent(self):
        ledger = VulnerabilityLedger(baseline_config())
        tracker = ledger.word_tracker("l2", 64)
        tracker.record_write(0, 0, cycle=0, ace=True)
        tracker.finalize(cycle=5)
        ledger.collect()
        ledger.collect()
        assert ledger.accounts[StructureName.L2].ace_bit_cycles == 5 * 64

    def test_total_events(self):
        ledger = VulnerabilityLedger(baseline_config())
        ledger.fill("dl1", 0, 0, cycle=0)
        ledger.read("dl1", 0, 0, cycle=1, ace=True)
        ledger.residency_tracker("dtlb", 64).credit(3)
        assert ledger.total_events() == 3


class TestResidencyTracker:
    def test_negative_durations_are_dropped(self):
        tracker = ResidencyTracker(entry_bits=32)
        tracker.credit(10)
        tracker.credit(-5)
        assert tracker.ace_entry_cycles == 10
        assert tracker.ace_bit_cycles() == 320.0


class TestAccumulatorCompat:
    def test_same_class_under_both_import_paths(self):
        from repro.uarch.structures import AceAccumulator as LegacyAccumulator

        assert LegacyAccumulator is AceAccumulator
