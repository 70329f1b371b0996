"""Differential suite: the population planes vs the interpreted reference loop.

Every comparison checks *bit-identity*, not closeness: total cycles, commit
counters, branch/miss statistics, and every ledger account's occupancy and
ACE bit-cycle totals must match exactly (same float addition order, same RNG
consumption).  Programs cover the stressmark generator's output, the
synthetic workload proxies, and seeded randomized programs over the whole
ISA; configurations cover the paper baseline, a constrained derivative
(small queues, fewer architected registers than the ISA — exercising the
kernels' non-resident register path), and the ``extended`` config (store
buffer + L2 TLB).  The ``vector`` plane is diffed directly, and every
reason it hands a program to the interpreter is exercised once.
"""

from __future__ import annotations

import re

import pytest

from repro.isa.instructions import (
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
from repro.isa.program import BranchBehavior, Program, WarmupRegion
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel, kernel_vector
from repro.uarch.config import MachineConfig, baseline_config, config_a, extended_config
from repro.uarch.kernel_backends import BACKEND_ENV_VAR, KERNEL_BACKENDS, VECTOR, resolve
from repro.uarch.pipeline import OutOfOrderCore
from repro.utils.rng import DeterministicRng
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
        """Budgets that end mid-iteration exercise the kernel's tail path."""
        config = baseline_config()
        program = random_program(99, "tail-program")
        reference, candidate = run_both(config, program, budget)
        assert_identical(reference, candidate, f"budget-{budget}")
        assert candidate.stats.committed_instructions == min(
            budget, len(program.body) * program.iterations
        )

    def test_dispatcher_uses_kernel_by_default(self, monkeypatch):
        """Populations default to the vector kernel; single runs compile nothing."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(5, "dispatch-check")
        core = OutOfOrderCore(config, seed=3)
        single = core.run(program, max_instructions=500)
        assert kernel.STATS.compiled == 0
        backend = resolve(None)
        assert backend is VECTOR
        (population,) = backend.run_many(core, [program], 500)
        assert kernel.STATS.compiled == 1 and kernel_vector.STATS.vector_runs == 1
        backend.run_many(core, [program], 500)
        assert kernel.STATS.memo_hits >= 1
        assert_identical(single, population, "dispatch")

    def test_explicit_setup_section_falls_back_to_interpreter(self):
        """functional_setup=False is out of kernel scope — results still match."""
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(7, "setup-check")
        program.setup = [make_alu(1, [0]), make_store(FixedPattern(address=64), srcs=[1])]
        core = OutOfOrderCore(config, seed=3)
        via_run = core.run(program, max_instructions=500, functional_setup=False)
        reference = core.run_interpreted(program, max_instructions=500, functional_setup=False)
        assert kernel.STATS.compiled == 0
        assert_identical(reference, via_run, "setup-fallback")


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
        """Budgets ending mid-iteration exercise the vector kernel's tail."""
        config = baseline_config()
        programs = [random_program(97, "vtail-a"), random_program(99, "vtail-b")]
        self._assert_matches_interpreter(config, programs, budget, f"vector-budget-{budget}")

    @pytest.mark.parametrize(
        "reason", ["setup", "oversize_body", "over_budget", "int64_address"]
    )
    def test_fallback_reason(self, reason, monkeypatch):
        """Each reason the lowering refuses a program runs the interpreter."""
        config = baseline_config()
        budget = 1_500
        program = random_program(53, f"vfallback-{reason}")
        if reason == "setup":
            program.setup = [make_alu(1, [0]), make_store(FixedPattern(address=64), srcs=[1])]
            assert not kernel_vector.supports_vector(program)
        elif reason == "oversize_body":
            program.body = [
                make_alu(index % 32, [(index + 1) % 32])
                for index in range(kernel_vector.MAX_KERNEL_BODY + 1)
            ]
            program.branch_behaviors = {}
            assert not kernel_vector.supports_vector(program)
        elif reason == "over_budget":
            run_length = min(budget, len(program.body) * program.iterations)
            monkeypatch.setattr(kernel_vector, "VECTOR_MAX_OPS", run_length - 1)
        else:
            program.body = [
                make_load(1, FixedPattern(address=1 << 62)),
                make_alu(2, [1]),
                make_store(FixedPattern(address=1 << 62), srcs=[2]),
            ]
            program.branch_behaviors = {}
        self._assert_matches_interpreter(
            config, [program], budget, f"vector-fallback-{reason}", expect_vectorized=0
        )
        assert kernel_vector.STATS.fallbacks == 1

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

    def test_backend_run_many_routes_through_vector_plane(self):
        """The registered backend engages the vector plane for batches."""
        kernel_vector.STATS.reset()
        config = baseline_config()
        programs = [random_program(61, "vbackend-a"), random_program(62, "vbackend-b")]
        core = OutOfOrderCore(config, seed=3)
        backend = KERNEL_BACKENDS.create("vector")
        assert backend is VECTOR
        results = backend.run_many(core, programs, 1_000)
        assert kernel_vector.STATS.vector_runs == 2
        for index, program in enumerate(programs):
            assert_identical(
                core.run_interpreted(program, max_instructions=1_000),
                results[index],
                f"vector-backend[{index}]",
            )


class TestKernelCache:
    """The in-process config-kernel memo behind vector_kernel_for."""

    def test_failure_remembered_not_retried(self, monkeypatch):
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(13, "failure-check")
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr(kernel, "generate_vector_kernel_source", boom)
        assert kernel.vector_kernel_for(config) is None
        assert kernel.vector_kernel_for(config) is None
        assert calls["n"] == 1 and kernel.STATS.failures == 1
        # The population plane degrades transparently to the interpreter,
        # without generating again.
        core = OutOfOrderCore(config, seed=3)
        results = VECTOR.run_many(core, [program, program], 300)
        assert calls["n"] == 1 and kernel.STATS.failures == 1
        assert kernel_vector.STATS.fallbacks == 2
        for result in results:
            assert_identical(
                core.run_interpreted(program, max_instructions=300), result, "failed-codegen"
            )
        kernel.clear_kernels()

    def test_memo_is_bounded(self, monkeypatch):
        kernel.clear_kernels()
        monkeypatch.setattr(kernel, "CONFIG_KERNEL_CACHE_LIMIT", 2)
        for config_factory in (baseline_config, extended_config, constrained_config):
            assert kernel.vector_kernel_for(config_factory()) is not None
        assert len(kernel._vector_kernels) == 2
        kernel.clear_kernels()

    def test_memo_eviction_is_least_recently_used(self, monkeypatch):
        """A hit refreshes recency, so eviction drops the coldest entry."""
        kernel.clear_kernels()
        monkeypatch.setattr(kernel, "CONFIG_KERNEL_CACHE_LIMIT", 2)
        configs = {
            "a": baseline_config(), "b": extended_config(), "c": constrained_config(),
        }
        keys = {label: kernel.config_digest(config) for label, config in configs.items()}
        assert kernel.vector_kernel_for(configs["a"]) is not None
        assert kernel.vector_kernel_for(configs["b"]) is not None
        assert kernel.vector_kernel_for(configs["a"]) is not None  # refresh a
        assert kernel.vector_kernel_for(configs["c"]) is not None  # evicts b
        assert keys["a"] in kernel._vector_kernels and keys["c"] in kernel._vector_kernels
        assert keys["b"] not in kernel._vector_kernels
        kernel.clear_kernels()

    def test_vector_frozen_warm_eviction_does_not_break_reuse(self, monkeypatch):
        """Same pinch for the vector plane's frozen-warm LRU."""
        kernel.clear_kernels()
        monkeypatch.setattr(kernel_vector, "VECTOR_WARM_CACHE_LIMIT", 1)
        config = baseline_config()
        first = random_program(76, "vevict-a")
        second = random_program(77, "vevict-b")
        second.warmup_regions = [WarmupRegion(base=8192, size_bytes=1 << 14, dirty=False)]
        core = OutOfOrderCore(config, seed=3)
        for round_index in range(2):
            for program in (first, second):
                results = kernel_vector.run_many(core, [program], 800)
                assert_identical(
                    core.run_interpreted(program, max_instructions=800),
                    results[0],
                    f"vevict-round-{round_index}/{program.name}",
                )
        assert len(kernel_vector._frozen_warm) == 1
        kernel.clear_kernels()

    def test_distinct_configs_get_distinct_kernels(self):
        kernel.clear_kernels()
        assert kernel.config_digest(baseline_config()) != kernel.config_digest(extended_config())
        assert kernel.vector_kernel_for(baseline_config()) is not kernel.vector_kernel_for(
            extended_config()
        )
        assert kernel.STATS.compiled == 2
        kernel.clear_kernels()
