"""Tests for the end-to-end stressmark generator (GA + codegen + simulator)."""

from __future__ import annotations

import pytest

from repro.avf.analysis import StructureGroup
from repro.ga.engine import GAParameters
from repro.stressmark.generator import StressmarkGenerator, StressmarkResult, reference_knobs
from repro.stressmark.knobs import KnobSpace
from repro.uarch.config import baseline_config, config_a
from repro.uarch.faultrates import rhc_fault_rates, unit_fault_rates


@pytest.fixture(scope="module")
def quick_generator():
    return StressmarkGenerator(
        config=baseline_config(),
        ga_parameters=GAParameters(population_size=4, generations=2, seed=3),
        max_instructions=2_000,
    )


class TestReferenceKnobs:
    def test_baseline_matches_figure5a_shape(self):
        knobs = reference_knobs(baseline_config())
        assert knobs.loop_size == 81
        assert knobs.num_loads == 29
        assert knobs.num_stores == 28
        assert knobs.num_independent_arithmetic == 5
        assert knobs.num_dependent_on_miss == 7
        assert knobs.dependency_distance == 6
        assert knobs.use_l2_miss

    def test_scales_with_rob(self):
        knobs = reference_knobs(config_a())
        assert knobs.loop_size > 81
        assert knobs.loop_size <= round(96 * 1.2)

    def test_l2_hit_variant(self):
        assert not reference_knobs(baseline_config(), use_l2_miss=False).use_l2_miss


class TestEvaluate:
    def test_returns_fitness_report_program(self, quick_generator):
        fitness, report, program = quick_generator.evaluate(reference_knobs(baseline_config()))
        assert fitness > 0.0
        assert report.core_ser > 0.0
        assert program.body_size == 81

    def test_reference_beats_degenerate_candidate(self, quick_generator):
        reference = reference_knobs(baseline_config())
        degenerate = reference.derive(
            num_loads=0, num_stores=0, num_dependent_on_miss=0,
            num_independent_arithmetic=1, loop_size=16, use_l2_miss=False,
        )
        good_fitness, _, _ = quick_generator.evaluate(reference)
        weak_fitness, _, _ = quick_generator.evaluate(degenerate)
        assert good_fitness > weak_fitness

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            StressmarkGenerator(config=baseline_config(), max_instructions=0)


class TestGenerate:
    def test_ga_run_produces_result(self, quick_generator):
        result = quick_generator.generate(initial_knobs=[reference_knobs(baseline_config())])
        assert isinstance(result, StressmarkResult)
        assert result.fitness > 0.0
        assert result.program.body_size >= 16
        assert result.report.core_ser > 0.0
        assert len(result.convergence_trace) == 2
        assert result.ga_result.evaluations >= 4

    def test_seeded_reference_never_regresses(self, quick_generator):
        reference = reference_knobs(baseline_config())
        reference_fitness, _, _ = quick_generator.evaluate(reference)
        result = quick_generator.generate(initial_knobs=[reference])
        assert result.fitness >= reference_fitness - 1e-9

    def test_knob_table_available(self, quick_generator):
        result = quick_generator.generate(initial_knobs=[reference_knobs(baseline_config())])
        table = result.knob_table()
        assert "Loop Size" in table and "No. of loads" in table

    def test_rhc_fault_rates_accepted(self):
        generator = StressmarkGenerator(
            config=baseline_config(),
            fault_rates=rhc_fault_rates(),
            ga_parameters=GAParameters(population_size=4, generations=2, seed=9),
            max_instructions=1_500,
        )
        result = generator.generate(initial_knobs=[reference_knobs(baseline_config())])
        assert result.fault_rates.name == "rhc"
        assert result.report.core_ser > 0.0


class TestEdrAdaptation:
    def test_core_only_fitness_prefers_l2_hit_loop_under_edr(self):
        """Paper, Section VI-A (Config EDR): with the ROB/LQ/SQ protected the
        GA switches to the L2-miss-free generator.  Under a core-only fitness
        the L2-hit variant of the reference knobs scores strictly higher than
        the L2-miss variant, which is the signal that drives that switch."""
        from repro.stressmark.fitness import FitnessFunction
        from repro.uarch.faultrates import edr_fault_rates

        edr = edr_fault_rates()
        generator = StressmarkGenerator(
            config=baseline_config(),
            fault_rates=edr,
            fitness=FitnessFunction.core_only(edr),
            max_instructions=3_000,
        )
        miss_fitness, _, _ = generator.evaluate(reference_knobs(baseline_config(), use_l2_miss=True))
        hit_fitness, _, _ = generator.evaluate(reference_knobs(baseline_config(), use_l2_miss=False))
        assert hit_fitness > miss_fitness

    def test_edr_worst_case_below_rhc_and_baseline(self):
        """Protecting structures must lower the achievable worst case."""
        from repro.stressmark.fitness import FitnessFunction
        from repro.uarch.faultrates import edr_fault_rates, unit_fault_rates

        reference = reference_knobs(baseline_config())
        generator = StressmarkGenerator(config=baseline_config(), max_instructions=3_000)
        result = generator.simulate(reference)
        unit_core = FitnessFunction.core_only(unit_fault_rates())(result)
        rhc_core = FitnessFunction.core_only(rhc_fault_rates())(result)
        edr_core = FitnessFunction.core_only(edr_fault_rates())(result)
        assert unit_core > rhc_core > edr_core


class TestStressmarkQuality:
    def test_reference_stressmark_reaches_paper_like_levels(self):
        """The paper's knob setting should already induce very high SER."""
        generator = StressmarkGenerator(config=baseline_config(), max_instructions=6_000)
        _, report, _ = generator.evaluate(reference_knobs(baseline_config()))
        assert report.ser(StructureGroup.QS) > 0.7          # paper: 0.797
        assert report.ser(StructureGroup.DL1_DTLB) > 0.9    # paper: 0.997
        assert report.ser(StructureGroup.L2) > 0.85         # paper: 0.931
        assert report.core_ser > 0.55                        # paper: 0.63

    def test_l2_hit_variant_has_higher_ipc(self):
        generator = StressmarkGenerator(config=baseline_config(), max_instructions=3_000)
        _, miss_report, _ = generator.evaluate(reference_knobs(baseline_config(), use_l2_miss=True))
        _, hit_report, _ = generator.evaluate(reference_knobs(baseline_config(), use_l2_miss=False))
        assert hit_report.ipc > miss_report.ipc
