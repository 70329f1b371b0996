"""End-to-end stressmark generation: GA + code generator + AVF simulator.

This module implements the closed loop of Figure 2: the GA proposes knob
settings, the code generator turns them into candidate programs, the AVF
simulator measures their SER, the fitness function scores them, and the best
candidate after the configured number of generations is the AVF stressmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.avf.report import SerReport, build_report
from repro.ga.engine import GAParameters, GAResult, GeneticAlgorithm
from repro.ga.individual import Individual
from repro.isa.program import Program
from repro.parallel.backends import EvaluationBackend, create_backend, resolve_jobs
from repro.parallel.cache import FitnessCache, evaluation_context_digest
from repro.stressmark.codegen import CodeGenerator
from repro.stressmark.fitness import FitnessFunction
from repro.stressmark.knobs import KnobSpace, StressmarkKnobs
from repro.uarch.config import MachineConfig
from repro.uarch.faultrates import FaultRateModel, unit_fault_rates
from repro.uarch.kernel_backends import VECTOR
from repro.uarch.pipeline import OutOfOrderCore, SimulationResult


@dataclass
class StressmarkResult:
    """Outcome of a stressmark generation run."""

    config: MachineConfig
    fault_rates: FaultRateModel
    knobs: StressmarkKnobs
    program: Program
    report: SerReport
    fitness: float
    ga_result: GAResult

    @property
    def convergence_trace(self) -> list[float]:
        """Average fitness per generation (the data of Figure 5b)."""
        return self.ga_result.average_fitness_trace()

    def knob_table(self) -> dict[str, object]:
        """Knob settings in the paper's table format (Figure 5a / 8c / 8d / 9b)."""
        return self.knobs.as_table()


@dataclass
class EvaluationRecord:
    """One evaluated candidate (kept for ablation studies and tests)."""

    knobs: StressmarkKnobs
    fitness: float
    report: SerReport


class StressmarkEvaluator:
    """Picklable fitness evaluator: genomes -> codegen -> simulate -> score.

    Instances travel to worker processes inside every task message of
    :class:`~repro.parallel.resilience.ResilientPoolBackend`; each
    :meth:`evaluate_batch` call builds its own ``CodeGenerator``, which
    costs less than a microsecond.
    """

    def __init__(
        self,
        config: MachineConfig,
        fault_rates: FaultRateModel,
        fitness: FitnessFunction,
        knob_space: KnobSpace,
        max_instructions: int,
        simulation_seed: int,
    ) -> None:
        self.config = config
        self.fault_rates = fault_rates
        self.fitness = fitness
        self.knob_space = knob_space
        self.max_instructions = max_instructions
        self.simulation_seed = simulation_seed

    def context_digest(self) -> str:
        """Digest of everything besides the genome that shapes the fitness."""
        return evaluation_context_digest(
            self.config,
            self.fault_rates,
            self.fitness,
            self.max_instructions,
            self.simulation_seed,
        )

    def evaluate_batch(self, individuals: list[Individual]) -> list[tuple[float, dict]]:
        """Population-at-once evaluation on the vector plane.

        Bit-identical to simulating each genome on its own — one
        ``OutOfOrderCore`` per simulation with the same seed, the same
        codegen, the same fitness — in one ``VECTOR.run_many`` call for the
        whole slice.
        """
        codegen = CodeGenerator(self.config)
        decoded = [self.knob_space.decode(individual.genome) for individual in individuals]
        programs = [codegen.generate(knobs) for knobs in decoded]
        core = OutOfOrderCore(self.config, seed=self.simulation_seed)
        results = VECTOR.run_many(core, programs, self.max_instructions)
        outcomes: list[tuple[float, dict]] = []
        for individual, knobs, program, result in zip(individuals, decoded, programs, results):
            score = float(self.fitness(result))
            payload = dict(individual.payload)
            payload["report"] = build_report(result, self.fault_rates)
            payload["program"] = program
            payload["knobs"] = knobs
            outcomes.append((score, payload))
        return outcomes


class StressmarkGenerator:
    """Automated AVF stressmark generation for one machine configuration.

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable, then 1)
    selects how many worker processes evaluate GA candidates concurrently;
    alternatively pass a preconfigured ``backend``.  Results are identical
    for any worker count.

    ``fitness_store`` (an :class:`~repro.store.artifacts.ArtifactStore`)
    makes the GA's fitness cache persistent: evaluations are written through
    to disk and duplicate genomes never re-simulate, across processes and
    sessions.  ``checkpoint`` (a
    :class:`~repro.store.checkpoint.CheckpointManager`) snapshots the GA
    after every generation so an interrupted search resumes bit-identically.
    """

    def __init__(
        self,
        config: MachineConfig,
        fault_rates: Optional[FaultRateModel] = None,
        fitness: Optional[FitnessFunction] = None,
        knob_space: Optional[KnobSpace] = None,
        ga_parameters: Optional[GAParameters] = None,
        max_instructions: int = 8_000,
        simulation_seed: int = 1,
        keep_history: bool = False,
        jobs: Optional[int] = None,
        backend: Optional[EvaluationBackend] = None,
        fitness_store: Optional[object] = None,
        checkpoint: Optional[object] = None,
    ) -> None:
        if max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        self.config = config
        self.fault_rates = fault_rates or unit_fault_rates()
        self.fitness = fitness or FitnessFunction.balanced(self.fault_rates)
        self.knob_space = knob_space or KnobSpace(config)
        self.ga_parameters = ga_parameters or GAParameters()
        self.max_instructions = max_instructions
        self.simulation_seed = simulation_seed
        self.keep_history = keep_history
        self.jobs = resolve_jobs(jobs) if backend is None else backend.jobs
        self.backend = backend
        self.fitness_store = fitness_store
        self.checkpoint = checkpoint
        self.codegen = CodeGenerator(config)
        self.history: list[EvaluationRecord] = []

    # --------------------------------------------------------------- eval

    def simulate(self, knobs: StressmarkKnobs, max_instructions: Optional[int] = None) -> SimulationResult:
        """Generate and simulate the candidate program for one knob setting."""
        program = self.codegen.generate(knobs)
        core = OutOfOrderCore(self.config, seed=self.simulation_seed)
        return core.run(program, max_instructions=max_instructions or self.max_instructions)

    def evaluate(self, knobs: StressmarkKnobs) -> tuple[float, SerReport, Program]:
        """Evaluate one knob setting; returns (fitness, report, program)."""
        program = self.codegen.generate(knobs)
        core = OutOfOrderCore(self.config, seed=self.simulation_seed)
        result = core.run(program, max_instructions=self.max_instructions)
        score = self.fitness(result)
        report = build_report(result, self.fault_rates)
        if self.keep_history:
            self.history.append(EvaluationRecord(knobs=knobs, fitness=score, report=report))
        return score, report, program

    # ----------------------------------------------------------- generate

    def generate(self, initial_knobs: Optional[list[StressmarkKnobs]] = None) -> StressmarkResult:
        """Run the GA and return the best stressmark found."""
        space = self.knob_space.gene_space()
        evaluator = StressmarkEvaluator(
            config=self.config,
            fault_rates=self.fault_rates,
            fitness=self.fitness,
            knob_space=self.knob_space,
            max_instructions=self.max_instructions,
            simulation_seed=self.simulation_seed,
        )

        seeds = None
        if initial_knobs:
            seeds = [Individual(genome=knobs.to_genome()) for knobs in initial_knobs]

        on_evaluated = None
        if self.keep_history:
            def on_evaluated(individual: Individual) -> None:
                self.history.append(
                    EvaluationRecord(
                        knobs=individual.payload["knobs"],
                        fitness=float(individual.fitness),
                        report=individual.payload["report"],
                    )
                )

        backend = self.backend or create_backend(self.jobs)
        owns_backend = self.backend is None
        try:
            # Bound the in-memory cache: entries retain full payloads
            # (program + report), so an unbounded cache would hold every
            # distinct candidate of a paper-scale run in memory.  A few
            # generations' worth of entries covers elites, migrants and
            # recent duplicates.
            max_entries = max(256, 4 * self.ga_parameters.population_size)
            if self.fitness_store is not None:
                from repro.store.fitness_store import PersistentFitnessCache

                cache: FitnessCache = PersistentFitnessCache(
                    self.fitness_store,
                    context_digest=evaluator.context_digest(),
                    max_entries=max_entries,
                )
            else:
                cache = FitnessCache(
                    context_digest=evaluator.context_digest(),
                    max_entries=max_entries,
                )
            engine = GeneticAlgorithm(
                space,
                evaluator,
                self.ga_parameters,
                backend=backend,
                fitness_cache=cache,
                on_evaluated=on_evaluated,
            )
            ga_result = engine.run(initial_population=seeds, checkpoint=self.checkpoint)
        finally:
            if owns_backend:
                backend.close()

        best = ga_result.best
        knobs = best.payload.get("knobs") or self.knob_space.decode(best.genome)
        report = best.payload.get("report")
        program = best.payload.get("program")
        if report is None or program is None:
            # The winning individual can come from elitist copies whose payload
            # was not preserved; re-evaluate it once to obtain the artefacts.
            _, report, program = self.evaluate(knobs)

        return StressmarkResult(
            config=self.config,
            fault_rates=self.fault_rates,
            knobs=knobs,
            program=program,
            report=report,
            fitness=float(best.fitness),
            ga_result=ga_result,
        )


def reference_knobs(config: MachineConfig, use_l2_miss: bool = True, seed: int = 7) -> StressmarkKnobs:
    """A hand-tuned knob setting close to the paper's published solution.

    Figure 5a reports loop size 81, 29 loads, 28 stores, 5 independent
    arithmetic instructions, 7 instructions dependent on the L2 miss, average
    chain length 2.14, dependency distance 6, 80 % long-latency arithmetic
    and 93 % reg-reg arithmetic for the baseline configuration.  The values
    below scale those proportions to the configured ROB size; they are used
    as a GA seed, as a fast path in the examples, and as a regression anchor
    in tests.
    """
    loop_size = min(int(round(config.rob_entries * 1.0125)), int(round(config.rob_entries * 1.2)))
    scale = loop_size / 81.0
    return StressmarkKnobs(
        loop_size=loop_size,
        num_loads=max(1, int(round(29 * scale))),
        num_stores=max(1, int(round(28 * scale))),
        num_independent_arithmetic=max(1, int(round(5 * scale))),
        num_dependent_on_miss=max(1, int(round(7 * scale))),
        avg_dependence_chain_length=2.14,
        dependency_distance=6,
        fraction_long_latency_arithmetic=0.8,
        fraction_reg_reg=0.93,
        random_seed=seed,
        use_l2_miss=use_l2_miss,
    )
