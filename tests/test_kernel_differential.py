"""Differential suite: the population planes vs the interpreted reference loop.

Every comparison checks *bit-identity*, not closeness: total cycles, commit
counters, branch/miss statistics, and every ledger account's occupancy and
ACE bit-cycle totals must match exactly (the same RNG consumption; the
vector plane's integer sums, taken after its loop, equal to the
interpreter's op-by-op float sums).  Programs cover the stressmark
generator's output, the synthetic workload proxies, and seeded randomized
programs over the whole ISA; configurations cover the paper baseline, a
constrained derivative (small queues, fewer architected registers than the
ISA — exercising the kernels' non-resident register path), and the
``extended`` config (store buffer + L2 TLB).  The ``vector`` plane is
diffed directly, one program per warm-up shape included, and every reason
it hands a program to the interpreter is exercised once.  Its warm state,
filled set by set from the footprint's closed form, is also compared with
the interpreter's warmed object hierarchy set by set
(``TestVectorWarmState``).  The accounting cases pinch the column fold,
shrink one queue at a time, force the issue rings to grow and use odd field
widths, so a half bit-cycle slip shows; ``TestOracleProperties`` checks two
ACE-analysis properties on both planes.  ``TestFastForward`` runs the
vector loop's fast mode on all four configurations — budgets ending on and
inside blocks, a load latency changing mid-block, the program's last
iteration, sparse front-end stalls, folds around fast mode, each queue
constraint binding, ring growth, periods of two iterations or more — and
asserts each case skipped iterations and matched the interpreter; one case
checks that a timing repeat the state does not share is refused.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.isa.instructions import (
    InstructionClass,
    OperandWidth,
    make_alu,
    make_branch,
    make_div,
    make_load,
    make_mul,
    make_nop,
    make_prefetch,
    make_store,
)
from repro.isa.memoryref import (
    FixedPattern,
    LineCoverPattern,
    PointerChasePattern,
    RandomPattern,
    StridedPattern,
)
from repro.avf.report import build_report
from repro.isa.program import BranchBehavior, Program, WarmupRegion
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TlbConfig
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel_vector
from repro.uarch.config import MachineConfig, baseline_config, config_a, extended_config
from repro.uarch.faultrates import (
    FaultRateModel,
    edr_fault_rates,
    rhc_fault_rates,
    unit_fault_rates,
)
from repro.uarch.kernel_backends import VECTOR, resolve
from repro.uarch.pipeline import OutOfOrderCore
from repro.utils.rng import DeterministicRng
from repro.vuln.ledger import AceEvent, VulnerabilityLedger
from repro.vuln.structures import STRUCTURES, StructureName
from repro.workloads.suite import all_profiles
from repro.workloads.synthetic import build_workload

STAT_FIELDS = (
    "total_cycles",
    "committed_instructions",
    "committed_ace_instructions",
    "branch_count",
    "branch_mispredictions",
    "l2_misses",
    "dl1_miss_rate",
    "l2_miss_rate",
    "dtlb_miss_rate",
)


def constrained_config() -> MachineConfig:
    """Small queues + fewer architected registers than the ISA exposes."""
    return baseline_config().derive(
        name="constrained",
        iq_entries=4,
        rob_entries=12,
        lq_entries=4,
        sq_entries=4,
        rename_registers=40,
        architected_registers=24,
        int_alus=1,
        int_multipliers=1,
        memory_issue_width=1,
        dispatch_width=2,
        commit_width=2,
    )


#: The four configurations every tail-iteration case runs on.
CONFIG_FACTORIES = (baseline_config, config_a, extended_config, constrained_config)


def assert_identical(reference, candidate, label: str) -> None:
    """Exact (bitwise) equality of two SimulationResults."""
    for fieldname in STAT_FIELDS:
        ref_value = getattr(reference.stats, fieldname)
        got_value = getattr(candidate.stats, fieldname)
        assert ref_value == got_value, f"{label}: stats.{fieldname} {ref_value} != {got_value}"
    assert list(reference.accumulators) == list(candidate.accumulators), f"{label}: account order"
    for name, ref_account in reference.accumulators.items():
        got_account = candidate.accumulators[name]
        assert ref_account.occupied_entry_cycles == got_account.occupied_entry_cycles, (
            f"{label}: {name} occupancy"
        )
        assert ref_account.ace_bit_cycles == got_account.ace_bit_cycles, f"{label}: {name} ACE"


def run_both(config, program, max_instructions, seed=3):
    """(interpreter, vector plane) results; fails on a silent fallback."""
    core = OutOfOrderCore(config, seed=seed)
    reference = core.run_interpreted(program, max_instructions=max_instructions)
    kernel_vector.STATS.reset()
    (candidate,) = VECTOR.run_many(core, [program], max_instructions)
    assert kernel_vector.STATS.vector_runs == 1, (
        f"vector plane fell back (fallbacks: {kernel_vector.STATS.fallbacks})"
    )
    return reference, candidate


def random_program(seed: int, name: str) -> Program:
    """A seeded random program spanning the whole ISA and pattern set."""
    rng = DeterministicRng(seed)
    body = []
    branch_behaviors = {}
    patterns = [
        FixedPattern(address=rng.randint(0, 1 << 16) * 8),
        StridedPattern(base=8192, stride=rng.randint(8, 256), region=1 << rng.randint(12, 18)),
        PointerChasePattern(base=1 << 20, stride=64, region=1 << 16),
        LineCoverPattern(base=4096, line_bytes=64, region=1 << 14,
                         slot=rng.randint(0, 1), slots=2, iteration_offset=rng.randint(-1, 1)),
        RandomPattern(base=0, region=1 << rng.randint(12, 20)),
    ]
    size = rng.randint(6, 24)
    for index in range(size):
        kind = rng.randint(0, 8)
        width = rng.choice([OperandWidth.WORD32, OperandWidth.WORD64])
        ace = rng.coin(0.8)
        dest = rng.randint(0, 31)
        srcs = [rng.randint(0, 31) for _ in range(rng.randint(0, 2))]
        if kind <= 2:
            body.append(make_alu(dest, srcs, width=width, ace=ace))
        elif kind == 3:
            body.append(make_mul(dest, srcs, width=width, ace=ace))
        elif kind == 4:
            body.append(make_div(dest, srcs, width=width, ace=ace))
        elif kind == 5:
            body.append(make_load(dest, rng.choice(patterns), srcs=srcs, width=width, ace=ace))
        elif kind == 6:
            body.append(make_store(rng.choice(patterns), srcs=srcs or [dest], width=width, ace=ace))
        elif kind == 7:
            if rng.coin(0.3):
                body.append(make_nop())
            else:
                body.append(make_prefetch(rng.choice(patterns)))
        else:
            body.append(make_branch(srcs=srcs, taken_probability=rng.uniform(0.0, 1.0), ace=ace))
            if rng.coin(0.5):
                branch_behaviors[index] = BranchBehavior.LOOP_CLOSING
    metadata = {}
    if rng.coin(0.5):
        metadata = {"frontend_miss_rate": rng.uniform(0.001, 0.05), "frontend_miss_penalty": rng.randint(4, 16)}
    return Program(
        name=name,
        body=body,
        iterations=rng.randint(20, 4000),
        branch_behaviors=branch_behaviors,
        warmup_regions=[WarmupRegion(base=4096, size_bytes=1 << 15, dirty=rng.coin(0.7))],
        metadata=metadata,
    )


def _region(base, size_bytes, dirty=True, ace=True, word_fraction=1.0, recurrent=False):
    return WarmupRegion(base=base, size_bytes=size_bytes, dirty=dirty, ace=ace,
                        word_fraction=word_fraction, recurrent=recurrent)


#: Warm-up footprints by shape.  Sizes straddle the DL1 (64 KB), the L2
#: (1-2 MB) and the DTLB / L2 TLB reach (2-4 MB) of every config.
WARM_SHAPES = {
    "below_dl1": [_region(4096, 16 << 10)],
    "between_dl1_and_l2": [_region(4096, 256 << 10)],
    "beyond_l2_and_tlb_reach": [_region(0, 8 << 20, word_fraction=0.6)],
    "misaligned_base": [_region(4096 + 3000, (100 << 10) + 3000, word_fraction=0.5)],
    "no_live_words": [_region(4096, 64 << 10, word_fraction=0.0)],
    "partial_words": [_region(4096, 512 << 10, word_fraction=0.3)],
    "clean": [_region(4096, 128 << 10, dirty=False)],
    "un_ace": [_region(4096, 128 << 10, ace=False)],
    "recurrent": [_region(4096, 512 << 10, recurrent=True)],
}


def half_unit_config() -> MachineConfig:
    """``extended`` with odd field widths and drain time, so a 32-bit
    operand's share of an LQ/SQ data, register or store-buffer field is an
    odd number of half bit-cycles and a half-unit slip shows."""
    return extended_config().derive(
        name="half_units", lsq_bits_per_entry=130, register_bits=63,
        store_buffer_bits_per_entry=127, store_buffer_drain_cycles=5,
    )


def mixed_width_program(name: str) -> Program:
    """32- and 64-bit ACE loads and stores beside un-ACE ops of every class."""
    strided = StridedPattern(base=4096, stride=8, region=1 << 14)
    chase = PointerChasePattern(base=1 << 20, stride=64, region=1 << 18)
    narrow, wide = OperandWidth.WORD32, OperandWidth.WORD64
    body = [
        make_load(1, strided, srcs=[2], width=narrow),
        make_alu(3, [1], width=narrow),
        make_store(strided, srcs=[3], width=narrow),
        make_load(4, chase, srcs=[4], width=wide, ace=False),
        make_mul(5, [4], width=narrow, ace=False),
        make_store(chase, srcs=[5], width=narrow, ace=False),
        make_load(6, chase, srcs=[1], width=narrow),
        make_div(7, [6], width=wide),
        make_store(strided, srcs=[7], width=wide),
        make_alu(8, [6, 7], width=narrow, ace=False),
        make_prefetch(chase),
        make_nop(),
        make_branch(srcs=[8], taken_probability=0.9),
    ]
    return Program(
        name=name,
        body=body,
        iterations=5_000,
        branch_behaviors={len(body) - 1: BranchBehavior.LOOP_CLOSING},
        warmup_regions=[WarmupRegion(base=4096, size_bytes=1 << 15, dirty=True)],
    )


class TestKernelDifferential:
    @pytest.mark.parametrize("config_factory", [baseline_config, config_a, extended_config, constrained_config])
    def test_reference_stressmark(self, config_factory):
        config = config_factory()
        generator = StressmarkGenerator(config=config, max_instructions=4_000)
        program = generator.codegen.generate(reference_knobs(config))
        reference, candidate = run_both(config, program, 4_000)
        assert_identical(reference, candidate, f"stressmark/{config.name}")

    @pytest.mark.parametrize("knob_seed", [1, 2, 3])
    def test_derived_stressmarks(self, knob_seed):
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=3_000)
        knobs = reference_knobs(config).derive(random_seed=knob_seed)
        program = generator.codegen.generate(knobs)
        reference, candidate = run_both(config, program, 3_000)
        assert_identical(reference, candidate, f"stressmark-knobs-{knob_seed}")

    @pytest.mark.parametrize("profile_index", [0, 7, 15, 23, 31])
    def test_workload_programs(self, profile_index):
        config = baseline_config()
        profile = all_profiles()[profile_index % len(all_profiles())]
        program = build_workload(profile, config, seed=11)
        reference, candidate = run_both(config, program, 3_000)
        assert_identical(reference, candidate, f"workload/{profile.name}")

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_programs(self, seed):
        program = random_program(seed, f"random-{seed}")
        for config_factory in (baseline_config, extended_config, constrained_config):
            config = config_factory()
            reference, candidate = run_both(config, program, 2_500)
            assert_identical(reference, candidate, f"random-{seed}/{config.name}")

    @pytest.mark.parametrize("budget", [1, 17, 81, 82, 1000, 2_047])
    def test_partial_iteration_budgets(self, budget):
        """Budgets that end mid-iteration exercise the loop's last, partial iteration.

        Every config runs: ``extended`` covers the store buffer and
        ``constrained`` a 12-entry ROB in that iteration.
        """
        program = random_program(99, "tail-program")
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            reference, candidate = run_both(config, program, budget)
            assert_identical(reference, candidate, f"budget-{budget}/{config.name}")
            assert candidate.stats.committed_instructions == min(
                budget, len(program.body) * program.iterations
            )

    def test_dispatcher_uses_kernel_by_default(self):
        """Single runs and populations both run the vector plane."""
        kernel_vector.clear_vector_caches()
        config = baseline_config()
        program = random_program(5, "dispatch-check")
        core = OutOfOrderCore(config, seed=3)
        single = core.run(program, max_instructions=500)
        assert kernel_vector.STATS.vector_runs == 1
        backend = resolve(None)
        assert backend is VECTOR
        (population,) = backend.run_many(core, [program], 500)
        assert kernel_vector.STATS.vector_runs == 2
        assert_identical(single, population, "dispatch")
        assert_identical(core.run_interpreted(program, 500), single, "dispatch-oracle")


class TestVectorKernelDifferential:
    """Vector plane vs the interpreter.

    Every program of a batch must be bit-identical under both execution
    paths; the vector path additionally asserts it actually engaged
    (``kernel_vector.STATS.vector_runs``) rather than silently falling back
    — a fallback-everything implementation would pass the equality checks
    while vectorizing nothing.
    """

    def _assert_matches_interpreter(self, config, programs, budget, label, expect_vectorized=None):
        kernel_vector.STATS.reset()
        core = OutOfOrderCore(config, seed=3)
        via_vector = kernel_vector.run_many(core, programs, budget)
        assert len(via_vector) == len(programs)
        for index, (program, candidate) in enumerate(zip(programs, via_vector)):
            reference = core.run_interpreted(program, max_instructions=budget)
            assert_identical(reference, candidate, f"{label}[{index}] vector-vs-interp")
        if expect_vectorized is None:
            expect_vectorized = len(programs)
        assert kernel_vector.STATS.vector_runs == expect_vectorized, (
            f"{label}: expected {expect_vectorized} vectorized runs, "
            f"got {kernel_vector.STATS.vector_runs} "
            f"(fallbacks: {kernel_vector.STATS.fallbacks})"
        )

    @pytest.mark.parametrize(
        "config_factory", [baseline_config, config_a, extended_config, constrained_config]
    )
    def test_stressmark_population(self, config_factory):
        """A GA-generation-shaped batch of derived stressmarks, per config."""
        config = config_factory()
        generator = StressmarkGenerator(config=config, max_instructions=2_500)
        knobs = reference_knobs(config)
        programs = [
            generator.codegen.generate(knobs.derive(random_seed=seed))
            for seed in range(1, 5)
        ]
        self._assert_matches_interpreter(config, programs, 2_500, f"vector-stressmark/{config.name}")

    def test_mixed_program_lengths_in_one_batch(self):
        """One batch mixing random programs and stressmarks of varying size."""
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=2_000)
        programs = [
            random_program(41, "vmixed-a"),
            generator.codegen.generate(reference_knobs(config)),
            random_program(43, "vmixed-b"),
            generator.codegen.generate(reference_knobs(config).derive(random_seed=9)),
            random_program(47, "vmixed-c"),
        ]
        assert len({len(program.body) for program in programs}) > 1
        self._assert_matches_interpreter(config, programs, 2_000, "vector-mixed-lengths")

    @pytest.mark.parametrize("budget", [1, 17, 81, 1_999, 2_001])
    def test_partial_final_iteration_budgets(self, budget):
        """Budgets ending mid-iteration exercise the last, partial iteration on every config."""
        programs = [random_program(97, "vtail-a"), random_program(99, "vtail-b")]
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            self._assert_matches_interpreter(
                config, programs, budget, f"vector-budget-{budget}/{config.name}"
            )

    @pytest.mark.parametrize("shape", sorted(WARM_SHAPES))
    def test_warm_shapes(self, shape):
        """Each warm-up shape on every config; short budgets leave most
        warmed lines untouched, so their end-of-run credit and untouched
        sets' LRU order must be right too."""
        program = random_program(71, f"vwarm-{shape}")
        program.warmup_regions = WARM_SHAPES[shape]
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            for budget in (40, 700):
                self._assert_matches_interpreter(
                    config, [program], budget, f"vector-warm-{shape}-{budget}/{config.name}"
                )

    def test_a_short_run_fills_few_l2_sets(self, monkeypatch):
        """A 40-op run past the L2's reach fills under 1% of ``baseline``'s
        16,384 L2 sets: a run pays warm-up for the sets it touches."""
        built = []

        class Recording(kernel_vector.VectorHierarchy):
            __slots__ = ()

            def __init__(self, config, region):
                super().__init__(config, region)
                built.append(self)

        monkeypatch.setattr(kernel_vector, "VectorHierarchy", Recording)
        program = random_program(71, "vfew-sets")
        program.warmup_regions = WARM_SHAPES["beyond_l2_and_tlb_reach"]
        self._assert_matches_interpreter(baseline_config(), [program], 40, "vector-few-sets")
        (hierarchy,) = built
        assert len(hierarchy.l2_sets) == 16_384
        filled = sum(cache_set is not None for cache_set in hierarchy.l2_sets)
        assert 0 < filled < 16_384 // 100

    @pytest.mark.parametrize("reason", ["int64_address", "int64_warm_region"])
    def test_no_fallback(self, reason):
        """Addresses and a warm-up region past the int64 range take no
        fallback: the vector plane runs them (its column arithmetic is on
        Python ints) on every config."""
        program = random_program(53, f"vwide-{reason}")
        if reason == "int64_warm_region":
            program.warmup_regions = [_region(1 << 62, 64 << 10)]
        else:
            program.body = [
                make_load(1, FixedPattern(address=1 << 62)),
                make_alu(2, [1]),
                make_store(FixedPattern(address=1 << 62), srcs=[2]),
            ]
            program.branch_behaviors = {}
        assert kernel_vector.supports_vector(program)
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            self._assert_matches_interpreter(
                config, [program], 1_500, f"vector-{reason}/{config.name}"
            )

    @pytest.mark.parametrize(
        "reason", ["oversize_body", "over_budget", "several_warm_regions", "past_exact_range"]
    )
    def test_fallback_reason(self, reason, monkeypatch):
        """Each reason the lowering refuses a program runs the interpreter.

        ``past_exact_range``: with the exactness bound pinched, a run's
        accounting totals leave the range where their integer sums and the
        interpreter's float sums agree, so the run ends in the interpreter.
        """
        config = baseline_config()
        budget = 1_500
        program = random_program(53, f"vfallback-{reason}")
        if reason == "several_warm_regions":
            # 2 MB apart, so they share DL1 and L2 sets and overflow them;
            # the last re-warms, clean, part of a dirty ACE region.
            program.warmup_regions = [
                _region(index * (2 << 20), 8 << 10, dirty=index % 3 != 1, ace=index % 4 != 2,
                        word_fraction=(0.25, 0.5, 1.0)[index % 3], recurrent=index % 2 == 1)
                for index in range(10)
            ] + [_region(9 * (2 << 20), 4 << 10, dirty=False, word_fraction=0.75)]
            assert not kernel_vector.supports_vector(program)
        elif reason == "oversize_body":
            program.body = [
                make_alu(index % 32, [(index + 1) % 32])
                for index in range(kernel_vector.MAX_KERNEL_BODY + 1)
            ]
            program.branch_behaviors = {}
            assert not kernel_vector.supports_vector(program)
        elif reason == "past_exact_range":
            monkeypatch.setattr(kernel_vector, "EXACT_HALVES", 1 << 10)
        else:
            run_length = min(budget, len(program.body) * program.iterations)
            monkeypatch.setattr(kernel_vector, "VECTOR_MAX_OPS", run_length - 1)
        self._assert_matches_interpreter(
            config, [program], budget, f"vector-fallback-{reason}", expect_vectorized=0
        )
        assert kernel_vector.STATS.fallbacks == 1
        assert kernel_vector.STATS.fallback_reasons == {reason: 1}
        if reason == "past_exact_range":
            core = OutOfOrderCore(config, seed=3)
            with pytest.raises(kernel_vector.Unvectorizable, match="exact float range"):
                kernel_vector.vector_run(core, program, budget)

    @pytest.mark.parametrize("fold_ops", [1, 40])
    def test_folds_mid_run(self, fold_ops, monkeypatch):
        """Cycle columns folded into per-slot sums every few ops change no
        result: with ``fold_ops`` 1 every iteration boundary folds, the one
        right before a budget's tail iteration included, and the ROB, LQ,
        SQ, rename and front-end columns carry across each fold."""
        folds = []
        add_slot_sums = kernel_vector._add_slot_sums

        def counting(slot_sums, column, start):
            folds.append(start)
            add_slot_sums(slot_sums, column, start)

        monkeypatch.setattr(kernel_vector, "FOLD_OPS", fold_ops)
        monkeypatch.setattr(kernel_vector, "_add_slot_sums", counting)
        programs = [
            random_program(97, "vfold-a"),
            random_program(99, "vfold-b"),
            mixed_width_program("vfold-c"),
        ]
        assert any("frontend_miss_rate" in program.metadata for program in programs)
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            for budget in (1_999, 2_001):
                folds.clear()
                self._assert_matches_interpreter(
                    config, programs, budget, f"vector-fold-{fold_ops}-{budget}/{config.name}"
                )
                assert len(folds) > 4 * len(programs), "no fold landed mid-run"

    @pytest.mark.parametrize("config_factory", [extended_config, half_unit_config])
    def test_half_unit_sums(self, config_factory):
        """32-bit ACE loads and stores among un-ACE ops on a store-buffer
        config: every half-unit sum (LQ/SQ data, RF, SB) is diffed."""
        config = config_factory()
        reference, candidate = run_both(config, mixed_width_program("vhalves"), 3_001)
        assert_identical(reference, candidate, f"vector-halves/{config.name}")
        totals = {
            name: candidate.accumulators[StructureName(name)].ace_bit_cycles
            for name in ("lq_data", "sq_data", "rf", "sb")
        }
        assert all(totals.values()), totals
        if config.name == "half_units":
            assert any(2 * total % 2 for total in totals.values()), "no odd half-unit total"

    @pytest.mark.parametrize("fold_ops", [kernel_vector.FOLD_OPS, 1])
    @pytest.mark.parametrize("constraint", ["rob", "lq", "sq", "rename", "iq"])
    def test_each_constraint_binds_alone(self, constraint, fold_ops, monkeypatch):
        """One structure shrunk to a few entries on ``baseline``: its
        constraint alone holds dispatch back, and the plane matches, also
        with its columns folded after every iteration."""
        monkeypatch.setattr(kernel_vector, "FOLD_OPS", fold_ops)
        base = baseline_config()
        shrunk = {
            "rob": {"rob_entries": 3},
            "lq": {"lq_entries": 1},
            "sq": {"sq_entries": 1},
            "rename": {"rename_registers": base.architected_registers + 1},
            "iq": {"iq_entries": 1},
        }[constraint]
        config = base.derive(name=f"tiny-{constraint}", **shrunk)
        self._assert_matches_interpreter(
            config, [random_program(97, "vtiny-a"), random_program(99, "vtiny-b")],
            1_500, f"vector-tiny-{constraint}",
        )
        program = mixed_width_program(f"vtiny-{constraint}")
        tight, candidate = run_both(config, program, 1_500)
        assert_identical(tight, candidate, f"vector-tiny-{constraint}/mixed")
        roomy = OutOfOrderCore(base, seed=3).run_interpreted(program, 1_500)
        assert tight.stats.total_cycles > roomy.stats.total_cycles, "the constraint never bound"

    def test_issue_rings_grow(self, monkeypatch):
        """An op waiting past the issue ring's reach regrows it; the packed
        count of a full cycle already booked survives the move."""
        grown = []
        grow_rings = OutOfOrderCore._grow_rings

        def counting(span, frontier, ring_size, ring_tag, *columns):
            grown.append(len(columns))
            return grow_rings(span, frontier, ring_size, ring_tag, *columns)

        monkeypatch.setattr(OutOfOrderCore, "_grow_rings", staticmethod(counting))
        body = [
            replace(make_alu(1, []), latency_override=100_000),
            make_alu(2, [1]),
            make_alu(3, [1]),
            make_alu(4, [1]),
            make_mul(5, [1]),
            replace(make_alu(6, []), latency_override=200_000),
            make_alu(7, [6]),
            make_alu(8, [1]),
            make_alu(9, [1]),
        ]
        program = Program(name="vgrow", body=body, iterations=40)
        self._assert_matches_interpreter(baseline_config(), [program], 200, "vector-grow-rings")
        assert 1 in grown, "the vector plane's packed ring never grew"

    def test_negative_address_error(self):
        """A negative address raises exactly what the interpreter raises."""
        core = OutOfOrderCore(baseline_config(), seed=3)
        program = random_program(53, "vnegative")
        program.body = [make_load(1, FixedPattern(address=-64)), make_alu(2, [1])]
        program.branch_behaviors = {}
        with pytest.raises(ValueError) as expected:
            core.run_interpreted(program, max_instructions=500)
        assert str(expected.value) == "addresses must be non-negative"
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            VECTOR.run_many(core, [program], 500)

    def test_empty_body_program_runs_interpreted_inline(self):
        """The vector runner's empty-body guard routes to the interpreter."""
        config = baseline_config()
        empty = random_program(57, "vemptied")
        empty.body = []
        plain = random_program(58, "vnonempty")
        core = OutOfOrderCore(config, seed=3)
        results = kernel_vector.run_many(core, [empty, plain], 1_000)
        assert len(results) == 2
        for index, program in enumerate([empty, plain]):
            assert_identical(
                core.run_interpreted(program, max_instructions=1_000),
                results[index],
                f"vector-empty-body[{index}]",
            )

    def test_alternating_footprints(self):
        """Footprints A, B, A, B in one batch: each run warms its own
        hierarchy, so nothing one footprint's run leaves reaches the next."""
        config = baseline_config()
        first = random_program(76, "vevict-a")
        second = random_program(77, "vevict-b")
        second.warmup_regions = [WarmupRegion(base=8192, size_bytes=1 << 14, dirty=False)]
        self._assert_matches_interpreter(
            config, [first, second, first, second], 800, "vector-alternating-footprints"
        )

    def test_backend_run_many_routes_through_vector_plane(self):
        """``VECTOR.run_many`` engages the vector plane for batches."""
        kernel_vector.STATS.reset()
        config = baseline_config()
        programs = [random_program(61, "vbackend-a"), random_program(62, "vbackend-b")]
        core = OutOfOrderCore(config, seed=3)
        results = VECTOR.run_many(core, programs, 1_000)
        assert kernel_vector.STATS.vector_runs == 2
        for index, program in enumerate(programs):
            assert_identical(
                core.run_interpreted(program, max_instructions=1_000),
                results[index],
                f"vector-backend[{index}]",
            )


def _looped(name: str, body: list, iterations: int = 4_000, metadata=None) -> Program:
    """``body`` closed by an always-taken loop branch, warmed like a stressmark."""
    body = body + [make_branch(srcs=[body[-1].dest], taken_probability=1.0)]
    return Program(
        name=name, body=body, iterations=iterations,
        branch_behaviors={len(body) - 1: BranchBehavior.LOOP_CLOSING},
        warmup_regions=[WarmupRegion(base=1 << 20, size_bytes=1 << 15, dirty=True)],
        metadata=metadata or {},
    )


def repeating_program(name: str, extra_alus: int = 0, iterations: int = 4_000,
                      metadata=None, independent_pairs: int = 0) -> Program:
    """A stressmark-shaped loop whose timing repeats within a few iterations:
    a pointer chase over its warmed 32 KB (a DL1 hit every time), and a
    line-cover store that walks 1 MB past it, so the store misses (its
    latency is never observed) and the miss rates read every access made.
    ``extra_alus`` lengthens the body, which changes the period;
    ``independent_pairs`` adds loads and stores that wait for nothing, so
    several are in flight at once."""
    chase = PointerChasePattern(base=1 << 20, stride=64, region=1 << 15)
    cover = LineCoverPattern(base=1 << 20, line_bytes=64, region=1 << 20, slot=0, slots=1)
    body = [make_load(1, chase, srcs=[2]), make_alu(2, [1]), make_store(cover, srcs=[2])]
    for pair in range(independent_pairs):
        page = StridedPattern(base=(1 << 20) + 4096 * (pair + 1), stride=8, region=4096)
        body += [make_load(12 + pair, page, srcs=[]), make_store(page, srcs=[12 + pair])]
    body += [make_mul(3, [2]), make_alu(4, [3, 1])]
    body += [make_alu(5 + index, [4]) for index in range(extra_alus)]
    return _looped(name, body, iterations, metadata)


def leaving_program(name: str) -> Program:
    """The chase plus a strided load that leaves the warmed region after 512
    iterations: its latency changes at the second access of a block."""
    chase = PointerChasePattern(base=1 << 20, stride=64, region=1 << 15)
    strided = StridedPattern(base=1 << 20, stride=64, region=1 << 22)
    body = [make_load(1, chase, srcs=[2]), make_alu(2, [1]), make_load(3, strided, srcs=[2]),
            make_alu(4, [3])]
    return _looped(name, body)


def cold_chain_program(name: str) -> Program:
    """A 500-cycle op per iteration beside short independent chains: each
    iteration's cycles relative to its first dispatch repeat from the
    second, while the ROB is still filling behind the long op."""
    body = [replace(make_alu(1, []), latency_override=500)] + [
        make_alu(2 + index, [2 + index]) for index in range(4)
    ]
    return _looped(name, body)


class TestFastForward:
    """Fast mode against the interpreter: every case runs on all four
    configurations, asserts that iterations were fast-forwarded and that the
    result equals the interpreter's.  A spy on ``_skip_blocks`` records each
    fast-mode episode as ``(first iteration, period, shift, blocks, cause,
    calls made)``."""

    @pytest.fixture
    def episodes(self, monkeypatch):
        recorded = []
        skip_blocks = kernel_vector._skip_blocks

        def recording(access, accesses, iteration, period, full_iters, shift, *inputs):
            blocks, cause, calls = skip_blocks(
                access, accesses, iteration, period, full_iters, shift, *inputs
            )
            recorded.append((iteration, period, shift, blocks, cause,
                             None if calls is None else len(calls)))
            return blocks, cause, calls

        monkeypatch.setattr(kernel_vector, "_skip_blocks", recording)
        return recorded

    @staticmethod
    def _run(config, program, budget, label):
        reference, candidate = run_both(config, program, budget)
        assert_identical(reference, candidate, label)
        assert kernel_vector.STATS.iterations_fast_forwarded > 0, f"{label}: nothing skipped"
        return candidate

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_budget_ends_on_and_inside_blocks(self, config_factory, episodes):
        """Budgets ending on a block boundary, mid-block and mid-iteration,
        with a period of two iterations or more on every config."""
        config = config_factory()
        periods = set()
        for extra in (1, 2, 3):
            program = repeating_program(f"ff-ends-{extra}", extra_alus=extra)
            body_len = len(program.body)
            episodes.clear()
            self._run(config, program, 12_000, f"ff-ends-{extra}/{config.name}")
            (first, period, *_), *_ = episodes
            periods.add(period)
            iterations = first + 20 * period
            budgets = {"block_boundary": iterations * body_len,
                       "mid_block": (iterations + 1) * body_len,
                       "mid_iteration": iterations * body_len + 3}
            for where, budget in budgets.items():
                episodes.clear()
                self._run(config, program, budget, f"ff-{where}-{extra}/{config.name}")
                assert [episode[4] for episode in episodes] == ["budget"]
                assert episodes[0][:2] == (first, period)
        assert max(periods) >= 2, periods

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_load_latency_changes_mid_block(self, config_factory, episodes):
        """A strided load leaving its warmed region ends fast mode at the
        second access of a block; the block re-runs op by op with the
        accesses already made answered from their results."""
        config = config_factory()
        self._run(config, leaving_program("ff-leaving"), 12_000, f"ff-leaving/{config.name}")
        left = [episode for episode in episodes if episode[4] == "load_latency"]
        assert left and all(calls >= 2 for *_, calls in left), episodes
        assert kernel_vector.STATS.fast_forward_exits["load_latency"] == len(left)

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_run_reaches_the_programs_end(self, config_factory, episodes):
        """The last iteration's closing branch falls through and mispredicts:
        its block's mispredict slice differs, and the loop finishes op by op."""
        config = config_factory()
        program = repeating_program("ff-end", iterations=300)
        candidate = self._run(config, program, 300 * len(program.body) + 50,
                              f"ff-end/{config.name}")
        assert candidate.stats.committed_instructions == 300 * len(program.body)
        assert episodes[-1][4] == "input_slice", episodes

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_sparse_frontend_column(self, config_factory, episodes):
        """Rare front-end stalls end fast mode at each stall's block; the
        loop proves the repeat again after it."""
        config = config_factory()
        program = repeating_program(
            "ff-frontend", metadata={"frontend_miss_rate": 0.003, "frontend_miss_penalty": 9}
        )
        self._run(config, program, 12_000, f"ff-frontend/{config.name}")
        causes = [episode[4] for episode in episodes]
        assert causes.count("input_slice") > 5 and causes[-1] == "budget", causes

    @pytest.mark.parametrize("fold_ops", [1, 30, 400])
    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_folds_around_fast_mode(self, config_factory, fold_ops, episodes, monkeypatch):
        """Folds before, between and after fast-mode episodes: a proof needs
        its earlier mark in the same fold window, and a fold keeps the
        windows it reads."""
        events = []
        add_slot_sums = kernel_vector._add_slot_sums

        def counting(slot_sums, column, start):
            events.append(len(episodes))
            add_slot_sums(slot_sums, column, start)

        monkeypatch.setattr(kernel_vector, "FOLD_OPS", fold_ops)
        monkeypatch.setattr(kernel_vector, "_add_slot_sums", counting)
        config = config_factory()
        for program in (leaving_program("ff-fold-leaving"),
                        repeating_program("ff-fold-frontend", metadata={
                            "frontend_miss_rate": 0.003, "frontend_miss_penalty": 9})):
            events.clear()
            episodes.clear()
            self._run(config, program, 12_003, f"ff-fold-{fold_ops}-{program.name}/{config.name}")
            folded_at = set(events)  # episodes that had begun at each fold
            assert 0 in folded_at and len(episodes) in folded_at, (folded_at, episodes)
            if fold_ops < 100 and program.metadata:
                assert len(folded_at) > 2, (folded_at, episodes)

    @pytest.mark.parametrize("constraint", ["rob", "lq", "sq", "rename", "iq"])
    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_each_constraint_binds(self, config_factory, constraint, episodes):
        """One queue shrunk so its constraint holds dispatch back, with a
        mid-iteration budget so the moved windows, heap and ring are read
        after fast mode."""
        base = config_factory()
        shrunk = {
            "rob": {"rob_entries": 3},
            "lq": {"lq_entries": 1},
            "sq": {"sq_entries": 1},
            "rename": {"rename_registers": base.architected_registers + 1},
            "iq": {"iq_entries": 1},
        }[constraint]
        config = base.derive(name=f"{base.name}-tiny-{constraint}", **shrunk)
        program = repeating_program(f"ff-tiny-{constraint}", extra_alus=2, independent_pairs=2)
        budget = 1_200 * len(program.body) + 5
        tight = self._run(config, program, budget, f"ff-tiny-{constraint}/{config.name}")
        roomy = OutOfOrderCore(base, seed=3).run_interpreted(program, budget)
        assert tight.stats.total_cycles > roomy.stats.total_cycles, "the constraint never bound"

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_ring_growth_before_the_template(self, config_factory, monkeypatch):
        """An op waiting 150,000 cycles for its producer grows the issue
        ring in the first iteration; the repeat is proved on the grown ring."""
        grown = []
        grow_rings = OutOfOrderCore._grow_rings

        def counting(span, frontier, ring_size, ring_tag, *columns):
            grown.append(ring_size)
            return grow_rings(span, frontier, ring_size, ring_tag, *columns)

        monkeypatch.setattr(OutOfOrderCore, "_grow_rings", staticmethod(counting))
        body = [replace(make_alu(1, []), latency_override=150_000), make_alu(2, [1])] + [
            make_alu(3 + index, [3 + index]) for index in range(6)
        ]
        config = config_factory()
        self._run(config, _looped("ff-grow", body), 3_000, f"ff-grow/{config.name}")
        assert grown, "the issue ring never grew"

    @pytest.mark.parametrize("config_factory", CONFIG_FACTORIES)
    def test_timing_repeats_before_the_state_does(self, config_factory, monkeypatch):
        """While the ROB fills behind a 500-cycle op, each iteration's cycles
        relative to its first dispatch repeat, but the windows do not: the
        candidate test fires and the proof refuses it."""
        proofs = []
        prove_repeat = kernel_vector._prove_repeat

        def recording(before, after, windows):
            proof = prove_repeat(before, after, windows)
            proofs.append(proof is not None)
            return proof

        monkeypatch.setattr(kernel_vector, "_prove_repeat", recording)
        config = config_factory()
        reference, candidate = run_both(config, cold_chain_program("ff-cold"), 12_000)
        assert_identical(reference, candidate, f"ff-cold/{config.name}")
        assert proofs and not proofs[0], proofs

    def test_proof_entry_by_entry(self):
        """``_prove_repeat`` on hand-made marks: window cycles at or below
        the dispatch cycle compare as equal; a register cycle must move by
        the shift or hold still at or below the earlier dispatch cycle; a
        live window cycle, the fetch resume cycle or the ring size that
        differs (a ring grown inside the template block) refuses."""
        def mark(disp, ready, read, resume=0, ring=1024):
            #     op, lq, sq, write, branch, disp, count, last commit, commits,
            return (0, 0, 0, 0, 0, disp, 2, disp + 9, 1,
                    # resume, ring, rf occ, rf halves, mispredicts, registers
                    resume, ring, 0, 0, 0, ready, read, [2, 2, 0])

        column = [0, 5, 103, 0, 15, 113]  # two windows of three: live 103 and 113
        windows = [(column, 0, 3, 3)]
        before = mark(100, [0, 104, 7], [-1, 101, 3])
        assert kernel_vector._prove_repeat(before, mark(110, [0, 114, 7], [-1, 111, 3]),
                                           windows) == (10, [1], [1])
        for ready, read in (([0, 114, 101], [-1, 111, 3]),   # a ready cycle held above disp
                            ([0, 114, 7], [-1, 111, 102]),   # a last read that jumped
                            ([0, 115, 7], [-1, 111, 3])):    # moved by another shift
            assert kernel_vector._prove_repeat(before, mark(110, ready, read), windows) is None
        held = mark(100, [0, 104, 101], [-1, 101, 3])  # still at 101, above disp 100
        assert kernel_vector._prove_repeat(held, mark(110, [0, 114, 101], [-1, 111, 3]),
                                           windows) is None
        assert kernel_vector._prove_repeat(before, mark(110, [0, 114, 7], [-1, 111, 3]),
                                           [([0, 5, 103, 0, 15, 114], 0, 3, 3)]) is None
        assert kernel_vector._prove_repeat(before, mark(110, [0, 114, 7], [-1, 111, 3], 112),
                                           windows) is None
        grown = mark(110, [0, 114, 7], [-1, 111, 3], ring=2048)  # the ring grew in the block
        assert kernel_vector._prove_repeat(before, grown, windows) is None

    def test_counters(self, episodes):
        """``iterations`` counts every iteration of a vector run, a partial
        one included; ``iterations_fast_forwarded`` the skipped ones; and
        ``fast_forward_exits`` one exit per episode, by cause."""
        config = baseline_config()
        program = repeating_program("ff-count")
        body_len = len(program.body)
        kernel_vector.STATS.reset()
        core = OutOfOrderCore(config, seed=3)
        kernel_vector.run_many(core, [program, leaving_program("ff-count-leaving")], 6_001)
        stats = kernel_vector.STATS
        assert stats.iterations == (6_001 // body_len + 1) + (6_001 // 5 + 1)
        assert stats.iterations_fast_forwarded == sum(
            period * blocks for _, period, _, blocks, _, _ in episodes
        ) > 0
        causes = [episode[4] for episode in episodes]
        assert stats.fast_forward_exits == {cause: causes.count(cause) for cause in set(causes)}
        assert set(stats.fast_forward_exits) == {"budget", "load_latency"}
        stats.reset()
        assert (stats.iterations, stats.iterations_fast_forwarded, stats.fast_forward_exits,
                stats.fallback_reasons) == (0, 0, {}, {})


class TestOracleProperties:
    """Two ACE-analysis properties of the simulator, checked on both planes.

    Flipping an op to un-ACE changes no timing, only the ACE count, and can
    only lower ACE time; SER is linear in the fault-rate table.
    """

    @staticmethod
    def _planes(config, program, budget) -> dict:
        core = OutOfOrderCore(config, seed=3)
        (vector,) = VECTOR.run_many(core, [program], budget)
        return {"interpreter": core.run_interpreted(program, budget), "vector": vector}

    @pytest.mark.parametrize("seed", range(4))
    def test_un_ace_flip_only_lowers_ace(self, seed):
        """One ACE op made un-ACE: among the stats only
        ``committed_ace_instructions`` moves, down by the op's dynamic
        count, and no account's ACE bit-cycles rise."""
        budget = 1_200
        program = random_program(200 + seed, f"flip-{seed}")
        ace_ops = [index for index, instruction in enumerate(program.body) if instruction.ace]
        flips = {DeterministicRng(seed).choice(ace_ops)}  # plus the first ACE load and store
        for opclass in (InstructionClass.LOAD, InstructionClass.STORE):
            flips.update([index for index in ace_ops if program.body[index].opclass is opclass][:1])
        configs = [config_factory() for config_factory in CONFIG_FACTORIES]
        before = {config.name: self._planes(config, program, budget) for config in configs}
        for index in sorted(flips):
            body = list(program.body)
            body[index] = replace(body[index], ace=False)
            flipped = replace(program, body=body)  # same name: same RNG streams
            ops = min(budget, len(body) * program.iterations)
            count = ops // len(body) + (index < ops % len(body))
            for config in configs:
                for plane, result in self._planes(config, flipped, budget).items():
                    label = f"flip-{seed}[{index}]/{config.name}/{plane}"
                    reference = before[config.name][plane]
                    for fieldname in STAT_FIELDS:
                        expected = getattr(reference.stats, fieldname)
                        if fieldname == "committed_ace_instructions":
                            expected -= count
                        assert getattr(result.stats, fieldname) == expected, f"{label}: {fieldname}"
                    for name, account in result.accumulators.items():
                        assert (
                            account.ace_bit_cycles <= reference.accumulators[name].ace_bit_cycles
                        ), f"{label}: {name} ACE rose"

    @pytest.mark.parametrize("seed", range(3))
    def test_doubled_fault_rates_double_group_ser(self, seed):
        """Every group SER doubles exactly when every fault rate does."""
        rng = DeterministicRng(seed)
        drawn = FaultRateModel(
            name="drawn",
            rates={StructureName(name): rng.uniform(0.0, 3.0) for name in STRUCTURES.names()},
            default_rate=rng.uniform(0.1, 2.0),
        )
        program = random_program(300 + seed, f"ser-{seed}")
        for config_factory in CONFIG_FACTORIES:
            config = config_factory()
            for plane, result in self._planes(config, program, 1_000).items():
                for rates in (unit_fault_rates(), rhc_fault_rates(), edr_fault_rates(), drawn):
                    doubled = FaultRateModel(
                        name=f"{rates.name}x2",
                        rates={name: 2 * rate for name, rate in rates.rates.items()},
                        default_rate=2 * rates.default_rate,
                    )
                    single = build_report(result, rates).group_ser
                    double = build_report(result, doubled).group_ser
                    label = f"ser-{seed}/{config.name}/{plane}/{rates.name}"
                    assert any(single.values()), label
                    for group, value in single.items():
                        assert double[group] == 2 * value, f"{label}: {group}"


def wide_l2_line_config() -> MachineConfig:
    """L2 lines twice the DL1's: each cache counts its warmed tail in its
    own lines, and the flat state must start each at its own line."""
    return extended_config().derive(
        name="wide_l2_lines",
        l2=CacheConfig(name="l2", size_bytes=256 << 10, associativity=2, line_bytes=128,
                       hit_latency=7),
        dtlb=TlbConfig(entries=16, page_bytes=4096),
    )


def _packed(state: tuple) -> int:
    """A lifetime tracker's (event, cycle, ace) as the flat plane packs it."""
    event, cycle, ace = state
    code = 4 if event is AceEvent.WRITE else 2 if event is AceEvent.READ else 0
    return cycle * 8 + code + (1 if ace else 0)


def _object_cache(cache) -> list:
    """Per set, in insertion order: (tag, line, dirty, dirty-ACE, words)."""
    assert (cache.stats.accesses, cache.stats.misses, cache.lifetime.ace_word_cycles) == (0, 0, 0)
    live = cache.lifetime._live
    num_sets = cache.config.num_sets
    canonical = []
    resident_words = 0
    for set_index, cache_set in enumerate(cache._sets):
        rows = []
        for tag, line in cache_set.items():
            assert line.last_use == 0
            line_number = tag * num_sets + set_index
            words = tuple(
                (word, _packed(live[line_number, word])) for word in sorted(line.words_touched)
            )
            resident_words += len(words)
            rows.append((tag, line_number, line.dirty, line.dirty_ace, words))
        canonical.append(rows)
    assert resident_words == len(live), "live word state outside any resident line"
    return canonical


def _flat_cache(hierarchy, level: str, cache_config) -> list:
    """The same canonical form from a fresh ``VectorHierarchy``, every set
    filled through the first-touch routine its ``access`` uses.

    The flat L2 keeps no line-number or dirty columns (its dirty victims go
    to memory untracked), so its rows are ``(tag, line, words)``, the line
    number from the tag and the set.
    """
    fill = getattr(hierarchy, f"_warm_{level}_set")
    word_state = getattr(hierarchy, f"{level}_ws")
    num_sets, ways = cache_config.num_sets, cache_config.associativity
    wpl = cache_config.words_per_line
    canonical = []
    resident = set()
    for set_index in range(num_sets):
        cache_set = fill(set_index)
        assert list(cache_set.values()) == list(
            range(set_index * ways, set_index * ways + len(cache_set))
        ), "set s holds slots s*ways .. s*ways+len-1"
        rows = []
        for tag, slot in cache_set.items():
            words = word_state[slot * wpl:(slot + 1) * wpl]
            words = tuple((word, value) for word, value in enumerate(words) if value >= 0)
            if level == "dl1":
                rows.append((tag, hierarchy.dl1_line_no[slot], hierarchy.dl1_dirty[slot],
                             hierarchy.dl1_dirty_ace[slot], words))
            else:
                rows.append((tag, tag * num_sets + set_index, words))
        canonical.append(rows)
        resident.update(cache_set.values())
    assert all(
        word_state[slot * wpl:(slot + 1) * wpl] == [-1] * wpl
        for slot in range(cache_config.num_lines) if slot not in resident
    )
    assert getattr(hierarchy, f"{level}_wa_count") == word_state.count(5)
    return canonical


def _object_tlb(tlb) -> list:
    """Per entry, in insertion order: (page, first ACE use, last ACE use, recurrent)."""
    assert (tlb.stats.accesses, tlb.stats.misses, tlb.ace_entry_cycles) == (0, 0, 0)
    assert all(entry.last_use == 0 for entry in tlb._entries.values())
    return [
        (page,
         -1 if entry.first_ace_use is None else entry.first_ace_use,
         -1 if entry.last_ace_use is None else entry.last_ace_use,
         entry.recurrent)
        for page, entry in tlb._entries.items()
    ]


def _flat_tlb(hierarchy, level: str, tlb_config) -> list:
    tlb_map, first, last, recurrent, free = (
        getattr(hierarchy, f"{level}_{name}") for name in ("map", "first", "last", "rec", "free")
    )
    assert sorted([*tlb_map.values(), *free]) == list(range(tlb_config.entries))
    return [(page, first[slot], last[slot], recurrent[slot]) for page, slot in tlb_map.items()]


class TestVectorWarmState:
    """The flat warm state equals the object hierarchy after ``warm_region``.

    Every DL1 and L2 set of a fresh ``VectorHierarchy`` is filled through
    the first-touch routine ``access`` uses, then compared per set in
    insertion order (tag, line, dirty, dirty-ACE, word states) and per TLB
    entry (page, first and last ACE use, recurrent), so a divergence no
    short run observes — the LRU order of an untouched set, a dirty bit of
    a line never evicted — still fails.
    """

    @pytest.mark.parametrize("shape", sorted(WARM_SHAPES) + ["stressmark_hit", "stressmark_miss"])
    def test_built_state_matches_warmed_objects(self, shape):
        for config_factory in (*CONFIG_FACTORIES, wide_l2_line_config):
            config = config_factory()
            if shape.startswith("stressmark"):
                knobs = reference_knobs(config).derive(use_l2_miss=shape.endswith("miss"))
                generator = StressmarkGenerator(config=config, max_instructions=1_000)
                program = generator.codegen.generate(knobs)
            else:
                program = random_program(71, "footprint")
                program.warmup_regions = WARM_SHAPES[shape]
            hierarchy = MemoryHierarchy(
                dl1_config=config.dl1,
                l2_config=config.l2,
                dtlb_config=config.dtlb,
                ledger=VulnerabilityLedger(config),
                l2_tlb_config=config.l2_tlb,
            )
            for region in program.warmup_regions:
                hierarchy.warm_region(
                    base=region.base, size_bytes=region.size_bytes, dirty=region.dirty,
                    ace=region.ace, word_fraction=region.word_fraction,
                    recurrent=region.recurrent,
                )
            (region,) = kernel_vector.warm_signature(program)
            flat = kernel_vector.VectorHierarchy(config, region)
            label = f"{shape}/{config.name}"
            assert _flat_cache(flat, "dl1", config.dl1) == _object_cache(hierarchy.dl1), label
            l2_rows = [
                [(tag, line, words) for tag, line, _, _, words in rows]
                for rows in _object_cache(hierarchy.l2)
            ]
            assert _flat_cache(flat, "l2", config.l2) == l2_rows, label
            assert _flat_tlb(flat, "dtlb", config.dtlb) == _object_tlb(hierarchy.dtlb), label
            assert flat.has_l2_tlb == (config.l2_tlb is not None)
            if config.l2_tlb is not None:
                assert _flat_tlb(flat, "l2_tlb", config.l2_tlb) == _object_tlb(hierarchy.l2_tlb), label
