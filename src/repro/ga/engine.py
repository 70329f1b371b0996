"""Generational genetic-algorithm engine."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.checkpoint import CheckpointManager

from repro.ga.genes import GeneSpace
from repro.ga.individual import Individual, best_of, population_diversity
from repro.ga.operators import cataclysm, crossover, migrate, mutate, tournament_selection
from repro.parallel.backends import EvaluationBackend, SerialBackend
from repro.parallel.cache import FitnessCache, genome_digest
from repro.parallel.resilience import Quarantined
from repro.utils.rng import DeterministicRng


@dataclass(frozen=True)
class GAParameters:
    """Engine parameters.

    Defaults follow the paper: crossover rate 0.73 and mutation probability
    0.05 (from Grefenstette and Srinivas/Patnaik, as cited in Section V); the
    paper's full-scale run uses 50 generations of 50 individuals.
    """

    population_size: int = 50
    generations: int = 50
    crossover_rate: float = 0.73
    mutation_rate: float = 0.05
    tournament_size: int = 3
    elite_count: int = 2
    migration_count: int = 2
    cataclysm_diversity_threshold: float = 0.25
    cataclysm_stall_generations: int = 8
    seed: int = 2010

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be within [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be within [0, 1]")
        if self.elite_count < 0 or self.elite_count >= self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")


@dataclass(frozen=True)
class GenerationStats:
    """Fitness statistics of one generation (Figure 5b's data points)."""

    generation: int
    best_fitness: float
    average_fitness: float
    worst_fitness: float
    diversity: float
    cataclysm: bool


@dataclass
class GAResult:
    """Outcome of a GA run.

    ``evaluation_seconds`` is the wall-clock time this process spent inside
    the evaluation backend (worker fan-out included, cache hits excluded) —
    the number ``repro bench`` splits into warm-up and steady state.  Like
    the cache counters it describes *this* process's work, so a resumed run
    restarts it at zero.

    ``quarantined`` counts individuals whose evaluation kept failing and was
    quarantined by a resilient backend (see
    :class:`~repro.parallel.resilience.Quarantined`); they carry ``-inf``
    fitness and are excluded from the fitness cache.
    """

    best: Individual
    history: list[GenerationStats] = field(default_factory=list)
    evaluations: int = 0
    cataclysm_generations: list[int] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    evaluation_seconds: float = 0.0
    quarantined: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of fitness lookups served by the memoization cache."""
        lookups = self.cache_hits + self.cache_misses
        if not lookups:
            return 0.0
        return self.cache_hits / lookups

    @property
    def best_fitness(self) -> float:
        return float(self.best.fitness) if self.best.fitness is not None else float("nan")

    def average_fitness_trace(self) -> list[float]:
        """Per-generation average fitness (the curve of Figure 5b)."""
        return [stats.average_fitness for stats in self.history]

    def best_fitness_trace(self) -> list[float]:
        return [stats.best_fitness for stats in self.history]


class GeneticAlgorithm:
    """Generational GA with elitism, migration and cataclysm-on-convergence.

    ``backend`` decides where fitness evaluations run: the default
    :class:`SerialBackend` evaluates in-process, while a
    :class:`~repro.parallel.resilience.ResilientPoolBackend` fans a
    generation out across worker processes.  Results are applied in population order, so a
    run is bit-identical for any worker count.

    ``fitness_cache`` memoizes evaluations by genome content (see
    :class:`~repro.parallel.cache.FitnessCache`).  The default creates a
    private cache per engine; pass ``False`` to disable memoization (for
    non-deterministic evaluators) or share a preconfigured cache across runs.
    """

    def __init__(
        self,
        space: GeneSpace,
        evaluator: Callable[[Individual], float],
        parameters: Optional[GAParameters] = None,
        on_generation: Optional[Callable[[GenerationStats, list[Individual]], None]] = None,
        backend: Optional[EvaluationBackend] = None,
        fitness_cache: Union[FitnessCache, bool, None] = None,
    ) -> None:
        self.space = space
        self.evaluator = evaluator
        self.parameters = parameters or GAParameters()
        self.on_generation = on_generation
        self.backend = backend or SerialBackend()
        if fitness_cache is False:
            self.fitness_cache: Optional[FitnessCache] = None
        elif fitness_cache is True or fitness_cache is None:
            # Bounded by default so long runs with payload-carrying
            # evaluators cannot grow memory without limit.
            self.fitness_cache = FitnessCache(max_entries=4096)
        else:
            self.fitness_cache = fitness_cache

    # ----------------------------------------------------------------- API

    def run(
        self,
        initial_population: Optional[list[Individual]] = None,
        checkpoint: Optional["CheckpointManager"] = None,
    ) -> GAResult:
        """Run the GA and return the best individual found.

        ``checkpoint`` (a :class:`~repro.store.checkpoint.CheckpointManager`)
        persists the complete loop state after every generation; when it
        already holds a checkpoint recorded under the same parameters and
        gene space, the run resumes from the last completed generation and
        reproduces the identical search trajectory — populations,
        per-generation history, best genome and fitness — of an
        uninterrupted run.  The ``evaluations``/cache counters report the
        work *this* process performed: the re-run of the generation that was
        in flight at the interruption lands in the fitness cache (on disk
        with a :class:`~repro.store.fitness_store.PersistentFitnessCache`,
        where the interrupted process already wrote its results), so resumed
        totals can differ from the uninterrupted run's while
        ``evaluations + cache_hits`` is conserved.  ``initial_population``
        is ignored on resume — the checkpointed population already embeds
        it.
        """
        params = self.parameters
        rng = DeterministicRng(params.seed)
        settings_digest = self._settings_digest() if checkpoint is not None else ""
        resumed = checkpoint.load() if checkpoint is not None else None
        if resumed is not None and resumed.settings_digest != settings_digest:
            from repro.store.checkpoint import CheckpointError

            raise CheckpointError(
                f"checkpoint {checkpoint.path} was recorded under different GA "
                f"parameters or a different gene space; clear it to start fresh"
            )

        self._eval_seconds = 0.0
        if resumed is not None:
            rng.setstate(resumed.rng_state)
            population = [individual.copy() for individual in resumed.population]
            result = GAResult(
                best=resumed.best,
                history=list(resumed.history),
                evaluations=resumed.evaluations,
                cataclysm_generations=list(resumed.cataclysm_generations),
            )
            self._all_time_best = resumed.all_time_best
            self._run_cache_hits = resumed.cache_hits
            self._run_cache_misses = resumed.cache_misses
            # Older checkpoints (pre-resilience) lack the counter; pickle
            # restores __dict__ directly, so dataclass defaults do not apply.
            self._run_quarantined = getattr(resumed, "quarantined", 0)
            stall = resumed.stall
            best_so_far = resumed.best_so_far
            start_generation = resumed.next_generation
        else:
            self._all_time_best = None
            self._run_cache_hits = 0
            self._run_cache_misses = 0
            self._run_quarantined = 0
            population = self._initial_population(initial_population, rng)
            result = GAResult(best=population[0])
            stall = 0
            best_so_far = float("-inf")
            start_generation = 0

        for generation in range(start_generation, params.generations):
            # On KeyboardInterrupt mid-generation, persist the loop state
            # *before* this generation's evaluation so a resume re-runs only
            # the in-flight generation.
            # The RNG is untouched during evaluation and the population is
            # exactly what the end of the previous generation produced, so
            # checkpointing "generation - 1" here is equivalent to the
            # checkpoint written after the previous generation — it merely
            # also exists when the interrupt precedes any completed one.
            try:
                result.evaluations += self._evaluate(population)
            except KeyboardInterrupt:
                if checkpoint is not None:
                    self._save_checkpoint(
                        checkpoint, settings_digest, generation - 1, rng,
                        population, result, stall, best_so_far,
                    )
                raise
            result.evaluation_seconds = self._eval_seconds

            stats, population = self._generation_stats(generation, population)
            if stats.best_fitness > best_so_far + 1e-12:
                best_so_far = stats.best_fitness
                stall = 0
            else:
                stall += 1

            triggered_cataclysm = False
            if generation < params.generations - 1:
                if (
                    stats.diversity <= params.cataclysm_diversity_threshold
                    or stall >= params.cataclysm_stall_generations
                ):
                    population = cataclysm(self.space, population, rng, params.mutation_rate)
                    triggered_cataclysm = True
                    stall = 0
                else:
                    population = self._next_generation(population, rng)

            stats = GenerationStats(
                generation=stats.generation,
                best_fitness=stats.best_fitness,
                average_fitness=stats.average_fitness,
                worst_fitness=stats.worst_fitness,
                diversity=stats.diversity,
                cataclysm=triggered_cataclysm,
            )
            result.history.append(stats)
            if triggered_cataclysm:
                result.cataclysm_generations.append(generation)
            if self.on_generation is not None:
                self.on_generation(stats, population)
            if checkpoint is not None:
                self._save_checkpoint(
                    checkpoint, settings_digest, generation, rng, population,
                    result, stall, best_so_far,
                )

        try:
            result.evaluations += self._evaluate(population)
        except KeyboardInterrupt:
            if checkpoint is not None:
                self._save_checkpoint(
                    checkpoint, settings_digest, params.generations - 1, rng,
                    population, result, stall, best_so_far,
                )
            raise
        result.evaluation_seconds = self._eval_seconds
        result.best = best_of(population + [result.best] if result.best.evaluated else population)
        # Keep the globally best individual (elitism already preserves it in
        # the population, but a cataclysm in the last generation could not).
        all_time_best = self._all_time_best
        if all_time_best is not None and (
            result.best.fitness is None or all_time_best.fitness >= result.best.fitness
        ):
            result.best = all_time_best
        result.cache_hits = self._run_cache_hits
        result.cache_misses = self._run_cache_misses
        result.quarantined = self._run_quarantined
        return result

    # ------------------------------------------------------------- helpers

    _all_time_best: Optional[Individual] = None
    _run_cache_hits: int = 0
    _run_cache_misses: int = 0
    _run_quarantined: int = 0
    _eval_seconds: float = 0.0

    def _settings_digest(self) -> str:
        """Digest of the parameters + gene space a checkpoint is valid for."""
        parts = [repr(self.parameters)] + [repr(gene) for gene in self.space]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()

    def _save_checkpoint(
        self,
        checkpoint: "CheckpointManager",
        settings_digest: str,
        generation: int,
        rng: DeterministicRng,
        population: list[Individual],
        result: GAResult,
        stall: int,
        best_so_far: float,
    ) -> None:
        from repro.store.checkpoint import GACheckpoint

        all_time_best = self._all_time_best
        checkpoint.save(
            GACheckpoint(
                settings_digest=settings_digest,
                next_generation=generation + 1,
                rng_state=rng.getstate(),
                population=[individual.copy() for individual in population],
                best=result.best.copy(),
                all_time_best=None if all_time_best is None else all_time_best.copy(),
                history=list(result.history),
                evaluations=result.evaluations,
                cataclysm_generations=list(result.cataclysm_generations),
                cache_hits=self._run_cache_hits,
                cache_misses=self._run_cache_misses,
                stall=stall,
                best_so_far=best_so_far,
                quarantined=self._run_quarantined,
            )
        )

    def _initial_population(
        self, initial: Optional[list[Individual]], rng: DeterministicRng
    ) -> list[Individual]:
        params = self.parameters
        population = [ind.copy() for ind in initial] if initial else []
        for individual in population:
            self.space.validate(individual.genome)
        while len(population) < params.population_size:
            population.append(Individual(genome=self.space.sample(rng)))
        return population[: params.population_size]

    def _evaluate(self, population: list[Individual]) -> int:
        """Evaluate every not-yet-evaluated individual; returns evaluator calls.

        Invariant: already-``evaluated`` individuals (elites carried over by
        :meth:`_next_generation`) are filtered out *before* anything is
        submitted to the backend or the cache, so they are never re-simulated
        and never pay cache-lookup bookkeeping.
        """
        pending = [individual for individual in population if not individual.evaluated]
        if not pending:
            return 0

        cache = self.fitness_cache
        to_run: list[Individual] = []
        run_keys: list[str] = []
        # Duplicate genomes inside one batch share a single evaluation —
        # with or without an attached cache: the first occurrence runs, the
        # rest ride along as (dedup) cache hits.  Dedup happens *before* the
        # batch is built, so duplicates never inflate the batch shipped to
        # the backend.
        followers: dict[str, list[Individual]] = {}
        keys = [
            cache.key_for(individual.genome) if cache is not None
            else genome_digest(individual.genome)
            for individual in pending
        ]
        hits = cache.lookup_many(keys) if cache is not None else {}
        for individual, key in zip(pending, keys):
            hit = hits.get(key)
            if hit is not None:
                fitness, payload = hit
                individual.fitness = fitness
                individual.payload = dict(payload)
                self._run_cache_hits += 1
            elif key in followers:
                followers[key].append(individual)
                self._run_cache_hits += 1
            else:
                followers[key] = []
                to_run.append(individual)
                run_keys.append(key)
                if cache is not None:
                    self._run_cache_misses += 1

        eval_start = time.perf_counter()
        outcomes = self.backend.evaluate_batch(self.evaluator, to_run)
        self._eval_seconds += time.perf_counter() - eval_start
        to_store: dict[str, tuple[float, dict]] = {}
        for index, (individual, outcome) in enumerate(zip(to_run, outcomes, strict=True)):
            key = run_keys[index]
            if isinstance(outcome, Quarantined):
                # A resilient backend gave up on this individual: worst
                # possible fitness so selection discards it, and *no* cache
                # entry so a healthy later run (or a duplicate genome in a
                # later generation) still gets a real evaluation.
                individual.fitness = float("-inf")
                individual.payload = {
                    "quarantined": {"error": outcome.error, "attempts": outcome.attempts}
                }
                self._run_quarantined += 1
                for duplicate in followers[key]:
                    duplicate.fitness = individual.fitness
                    duplicate.payload = dict(individual.payload)
                continue
            fitness, payload = outcome
            individual.fitness = float(fitness)
            individual.payload = payload
            if cache is not None:
                to_store[key] = (individual.fitness, payload)
            for duplicate in followers[key]:
                duplicate.fitness = individual.fitness
                duplicate.payload = dict(payload)
        if to_store:
            # One write-through per generation (a single sqlite transaction
            # for the persistent cache) instead of one per genome.
            cache.store_many(to_store)

        # All-time-best tracking runs in population order in the main process,
        # so results are identical for any backend/worker count.
        for individual in pending:
            if self._all_time_best is None or individual.fitness > self._all_time_best.fitness:
                self._all_time_best = individual.copy()
                self._all_time_best.payload = dict(individual.payload)
        return len(to_run)

    def _generation_stats(
        self, generation: int, population: list[Individual]
    ) -> tuple[GenerationStats, list[Individual]]:
        fitnesses = [float(ind.fitness) for ind in population if ind.fitness is not None]
        stats = GenerationStats(
            generation=generation,
            best_fitness=max(fitnesses),
            average_fitness=sum(fitnesses) / len(fitnesses),
            worst_fitness=min(fitnesses),
            diversity=population_diversity(population),
            cataclysm=False,
        )
        return stats, population

    def _next_generation(
        self, population: list[Individual], rng: DeterministicRng
    ) -> list[Individual]:
        params = self.parameters
        ranked = sorted(
            population,
            key=lambda ind: ind.fitness if ind.fitness is not None else float("-inf"),
            reverse=True,
        )
        next_population: list[Individual] = [ind.copy() for ind in ranked[: params.elite_count]]

        while len(next_population) < params.population_size:
            parent_a = tournament_selection(population, rng, params.tournament_size)
            if rng.coin(params.crossover_rate):
                parent_b = tournament_selection(population, rng, params.tournament_size)
                child = crossover(self.space, parent_a, parent_b, rng)
            else:
                child = parent_a.copy()
                child.fitness = None
                child.payload = {}
            child = mutate(self.space, child, rng, params.mutation_rate)
            next_population.append(child)

        if params.migration_count > 0:
            # Migration introduces fresh random genomes to keep exploring.
            evaluated_tail = [ind for ind in next_population[params.elite_count :]]
            kept_head = next_population[: params.elite_count]
            migrated = migrate(
                self.space,
                evaluated_tail,
                rng,
                params.migration_count,
            )
            next_population = kept_head + migrated
        return next_population[: params.population_size]
