"""Integration tests for the per-figure and per-table experiment drivers.

These run the actual experiment pipeline at a very small scale (the shared
tiny-scale Session), so they validate wiring and the qualitative shape of the
paper's results — stressmark above workloads, GA adaptation, estimator
ordering — rather than absolute values.
"""

from __future__ import annotations

import pytest

from repro.avf.analysis import StructureGroup
from repro.experiments.figures import figure3, figure4, figure5, figure6, figure7, figure8, figure9
from repro.experiments.tables import table1, table2, table3
from repro.uarch.structures import StructureName
from repro.workloads.profiles import WorkloadSuite


class TestConfigurationTables:
    def test_table1_matches_paper(self):
        table = table1()
        assert table["ROB"].startswith("80 entries")
        assert table["Integer Issue Queue"].startswith("20 entries")
        assert table["LQ/SQ"].startswith("32 entries")
        assert "64kB" in table["L1 D cache"]
        assert "256 entry" in table["DTLB"]
        assert table["Branch Misprediction Penalty"] == "7 cycles"

    def test_table2_matches_paper(self):
        table = table2()
        assert table["ROB"].startswith("96 entries")
        assert table["Integer Issue Queue"].startswith("32 entries")
        assert "512 entry" in table["DTLB"]
        assert "2MB" in table["L2 cache"]

    def test_tables_have_same_rows(self):
        assert set(table1()) == set(table2())


@pytest.mark.integration
class TestFigure4Mibench:
    """Figure 4 at tiny scale: the stressmark dominates the MiBench proxies."""

    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return figure4(shared_session)

    def test_row_count(self, result):
        assert len(result.rows) == 1 + 12

    def test_stressmark_row_present(self, result):
        assert result.stressmark_row().is_stressmark

    def test_stressmark_exceeds_every_mibench_program(self, result):
        for group in (StructureGroup.QS, StructureGroup.QS_RF, StructureGroup.DL1_DTLB, StructureGroup.L2):
            assert result.stressmark_margin(group) > 1.0

    def test_rows_serialisable(self, result):
        row = result.rows[0].as_dict()
        assert "ser_qs" in row and "program" in row


@pytest.mark.integration
class TestFigure3Spec:
    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return figure3(shared_session)

    def test_row_count(self, result):
        assert len(result.rows) == 1 + 21

    def test_stressmark_beats_best_spec_program(self, result):
        for group in (StructureGroup.QS, StructureGroup.DL1_DTLB, StructureGroup.L2):
            assert result.stressmark_margin(group) > 1.0

    def test_margins_in_plausible_paper_range(self, result):
        """Core margin ~1.3-3x, caches ~1.5-4x at reduced scale."""
        assert 1.0 < result.stressmark_margin(StructureGroup.QS_RF) < 5.0
        assert 1.0 < result.stressmark_margin(StructureGroup.DL1_DTLB) < 6.0


@pytest.mark.integration
class TestFigure5Convergence:
    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return figure5(shared_session)

    def test_knob_table_fields(self, result):
        assert "Loop Size" in result.knob_table
        assert result.knob_table["No. of loads"] >= 0

    def test_trace_lengths(self, result, tiny_scale):
        assert len(result.average_fitness_per_generation) == tiny_scale.ga_generations
        assert len(result.best_fitness_per_generation) == tiny_scale.ga_generations

    def test_best_at_least_average(self, result):
        for best, average in zip(result.best_fitness_per_generation,
                                 result.average_fitness_per_generation):
            assert best >= average - 1e-9

    def test_final_fitness_positive(self, result):
        assert result.final_fitness > 0.0
        assert result.evaluations > 0


@pytest.mark.integration
class TestFigure6PerStructureAvf:
    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return figure6(shared_session)

    def test_all_suites_present(self, result):
        assert set(result) == set(WorkloadSuite)

    def test_stressmark_row_in_each_suite(self, result):
        for suite_result in result.values():
            assert "stressmark" in suite_result.rows

    def test_row_counts(self, result):
        assert len(result[WorkloadSuite.SPEC_INT].rows) == 1 + 11
        assert len(result[WorkloadSuite.SPEC_FP].rows) == 1 + 10
        assert len(result[WorkloadSuite.MIBENCH].rows) == 1 + 12

    def test_stressmark_dominates_occupancy_structures(self, result):
        """The stressmark has the highest ROB and LQ tag AVF in every suite."""
        for suite_result in result.values():
            assert suite_result.stressmark_exceeds(StructureName.ROB)
            assert suite_result.stressmark_exceeds(StructureName.LQ_TAG)

    def test_avf_values_bounded(self, result):
        for suite_result in result.values():
            for row in suite_result.rows.values():
                assert all(0.0 <= value <= 1.0 for value in row.values())


@pytest.mark.integration
class TestFigure7And8Adaptation:
    @pytest.fixture(scope="class")
    def fig7(self, shared_session):
        return figure7(shared_session)

    @pytest.fixture(scope="class")
    def fig8(self, shared_session):
        return figure8(shared_session)

    def test_fig7_scenarios(self, fig7):
        assert set(fig7) == {"rhc", "edr"}
        for comparison in fig7.values():
            assert len(comparison.rows) == 1 + 33

    def test_fig7_stressmark_exceeds_workloads_in_core(self, fig7):
        for comparison in fig7.values():
            assert comparison.stressmark_margin(StructureGroup.QS_RF) > 1.0

    def test_fig8_fault_rate_table_matches_figure8a(self, fig8):
        assert fig8.fault_rate_table["rhc"]["rob"] == 0.25
        assert fig8.fault_rate_table["rhc"]["lq_tag"] == 0.4
        assert fig8.fault_rate_table["edr"]["rob"] == 0.0
        assert fig8.fault_rate_table["baseline"]["rob"] == 1.0

    def test_fig8_has_knobs_and_avf_per_scenario(self, fig8):
        assert set(fig8.knob_tables) == {"baseline", "rhc", "edr"}
        assert set(fig8.queueing_avf) == {"baseline", "rhc", "edr"}

    def test_fig8_core_ser_ordering(self, fig8):
        """Protecting structures must lower the achievable worst case."""
        assert fig8.core_ser["baseline"] > fig8.core_ser["rhc"] > fig8.core_ser["edr"]


@pytest.mark.integration
class TestFigure9DifferentMicroarchitecture:
    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return figure9(shared_session)

    def test_both_configs_present(self, result):
        assert set(result.group_ser) == {"baseline", "config_a"}

    def test_high_ser_on_both(self, result):
        for config_name in ("baseline", "config_a"):
            assert result.group_ser[config_name][StructureGroup.QS] > 0.5
            assert result.group_ser[config_name][StructureGroup.DL1_DTLB] > 0.7

    def test_knobs_adapt_loop_size_to_larger_rob(self, result):
        assert result.knob_tables["config_a"]["Loop Size"] >= 16


@pytest.mark.integration
class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, shared_session):
        return table3(shared_session)

    def test_scenarios(self, result):
        assert set(result.rows) == {"baseline", "rhc", "edr"}

    def test_stressmark_exceeds_best_individual_program(self, result):
        for row in result.rows.values():
            assert row.stressmark_ser > row.best_program_ser

    def test_raw_circuit_estimate_is_most_pessimistic(self, result):
        for row in result.rows.values():
            assert row.raw_circuit_ser >= row.stressmark_ser
            assert row.raw_circuit_ser >= row.sum_of_highest_per_structure_ser

    def test_baseline_raw_circuit_is_one(self, result):
        assert result.row("baseline").raw_circuit_ser == pytest.approx(1.0)

    def test_margin_over_best_program_in_paper_ballpark(self, result):
        """The paper reports 29-37% headroom; allow a wide band at tiny scale."""
        for row in result.rows.values():
            assert 1.05 < row.stressmark_margin_over_best_program() < 6.0

    def test_best_program_named(self, result):
        for row in result.rows.values():
            assert row.best_program_name.endswith("_proxy")
