"""Performance regression harness (``repro bench``).

Times the repository's three throughput-critical paths and records the
numbers as *trajectories* in JSON files, so every future change is held to
the recorded baselines:

* ``BENCH_pipeline.json`` — one 50k-instruction detailed simulation of the
  reference stressmark on the baseline configuration (the unit of work every
  fitness evaluation pays), through the interpreter and through the vector
  plane back to back.
* ``BENCH_ga.json`` — one full quick-scale GA stressmark search (a small
  number of generations, the shape of every figure-5/7/8 experiment), plus
  the wall-clock speedup of the production worker pool over the serial
  backend on one batch of independent evaluations, plus the vector plane's
  speedup over the per-genome interpreter on one GA-shaped batch of fresh
  genomes (``kernel_vector``).

Every entry also records the environment it was measured in (python,
machine, numpy version or ``"absent"``, timestamp) so trajectory numbers are
comparable across hosts and installs.

Each ``repro bench`` run appends an entry to the files' ``entries`` list;
the first entry is the recorded baseline that ``benchmarks/
test_perf_simulator.py`` (the ``perf_smoke`` tier-2 gate, see
PERFORMANCE.md) compares against.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional

from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.ga.individual import Individual
from repro.parallel.backends import SerialBackend, create_backend, resolve_jobs
from repro.stressmark.generator import StressmarkEvaluator, StressmarkGenerator, reference_knobs
from repro.stressmark.knobs import KnobSpace
from repro.uarch.config import baseline_config
from repro.uarch.pipeline import OutOfOrderCore

#: Default trajectory file names (written to the current working directory).
PIPELINE_BENCH_FILE = "BENCH_pipeline.json"
GA_BENCH_FILE = "BENCH_ga.json"


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _signature(result) -> tuple:
    """Everything two bit-identical simulation results agree on."""
    return (
        result.stats,
        {n: (a.occupied_entry_cycles, a.ace_bit_cycles) for n, a in result.accumulators.items()},
    )


def bench_pipeline(instructions: int = 50_000, repeats: int = 3) -> dict:
    """Time a single detailed simulation of the reference stressmark.

    ``seconds`` / ``instructions_per_second`` describe the interpreted
    reference loop (:meth:`OutOfOrderCore.run_interpreted`).
    ``vector_seconds`` times the same program as a population of one through
    the vector plane (the path :meth:`OutOfOrderCore.run` and GA fitness
    evaluation take).  After one untimed warm-up run of each, every repeat
    runs both back to back, alternating which goes first, and each side
    keeps its best time, so drift in machine load hits both alike (timed
    one side after the other, one of three recorded ratios read 1.50x
    under a 1.59x floor).  ``vector_speedup`` (interpreter over vector) is
    the same-run ratio the kernel-smoke and bench-smoke floors hold, and
    ``vector_identical`` asserts both results agree bit for bit.
    """
    from repro.uarch.kernel_backends import VECTOR

    config = baseline_config()
    generator = StressmarkGenerator(config=config, max_instructions=instructions)
    program = generator.codegen.generate(reference_knobs(config))
    core = OutOfOrderCore(config, seed=1)

    result = core.run_interpreted(program, instructions, True)  # warm-up
    vector_result = VECTOR.run_many(core, [program], instructions)[0]  # warm-up
    (seconds, _), (vector_seconds, _) = _time_interleaved(
        [
            lambda program: core.run_interpreted(program, instructions, True),
            lambda program: VECTOR.run_many(core, [program], instructions),
        ],
        [program] * max(1, repeats),
        alternate=True,
    )
    return {
        "instructions": instructions,
        "seconds": seconds,
        "instructions_per_second": instructions / seconds if seconds > 0 else 0.0,
        "total_cycles": result.stats.total_cycles,
        "ipc": result.stats.ipc,
        "vector_seconds": vector_seconds,
        "vector_speedup": seconds / vector_seconds if vector_seconds > 0 else 0.0,
        "vector_identical": _signature(vector_result) == _signature(result),
    }


def bench_ledger(events: int = 200_000, repeats: int = 3) -> dict:
    """Time the vulnerability ledger's event paths in isolation.

    Two probes, mirroring how the simulator drives the ledger:

    * ``events`` fill/read/write/evict lifetime events against one storage
      structure's word tracker (the per-access cost the memory hierarchy
      pays), over a working set small enough to stay allocation-stable;
    * one :meth:`~repro.vuln.ledger.VulnerabilityLedger.credit` flush per
      simulated run for the core structures (amortised to ~zero — recorded
      here so a regression to per-op account writes would show up).
    """
    from repro.vuln.ledger import VulnerabilityLedger

    config = baseline_config()

    def drive_events() -> None:
        ledger = VulnerabilityLedger(config)
        tracker = ledger.word_tracker("dl1", 64)
        fill = tracker.record_fill
        read = tracker.record_read
        write = tracker.record_write
        evict = tracker.record_evict
        lines = 512
        for i in range(events // 4):
            line = i % lines
            word = (i >> 3) % 8
            fill(line, word, i)
            read(line, word, i + 1, ace=True)
            write(line, word, i + 2, ace=bool(i & 1))
            evict(line, word, i + 3)
        tracker.finalize(events)
        ledger.collect()

    seconds = _best_of(drive_events, repeats)

    core_names = ("iq", "rob", "lq_tag", "lq_data", "sq_tag", "sq_data", "rf", "fu")
    flushes_per_structure = 1_000

    def drive_credits() -> None:
        ledger = VulnerabilityLedger(config)
        credit = ledger.credit
        for name in core_names:
            for _ in range(flushes_per_structure):
                credit(name, 10.0, 640.0)

    credit_seconds = _best_of(drive_credits, repeats)
    return {
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else 0.0,
        "credit_flushes": len(core_names) * flushes_per_structure,
        "credit_seconds": credit_seconds,
    }


def bench_ga(jobs: Optional[int] = None, generations: int = 2, population: int = 8) -> dict:
    """Time a small GA stressmark search at quick scale.

    Routed through the declarative run API like every other consumer: the
    benchmark is one canned :class:`RunSpec` whose ``scale_overrides`` pin
    the GA effort, executed by a :class:`Session`.
    """
    jobs = resolve_jobs(jobs)
    spec = RunSpec(
        kind="stressmark",
        name="bench_ga",
        scale="quick",
        scale_overrides={
            "stressmark_instructions": 6_000,
            "ga_population": population,
            "ga_generations": generations,
            "simulation_seed": 1,
        },
        seed=7,
    )
    with Session(jobs=jobs) as session:
        start = time.perf_counter()
        result = session.run(spec)
        seconds = time.perf_counter() - start
    ga = result.ga or {}
    return {
        "jobs": jobs,
        "cores": os.cpu_count() or 1,
        "generations": generations,
        "population": population,
        "seconds": seconds,
        "evaluation_seconds": ga.get("evaluation_seconds", 0.0),
        "evaluations": ga.get("evaluations", 0),
        "cache_hits": ga.get("cache_hits", 0),
        "cache_misses": ga.get("cache_misses", 0),
        "best_fitness": ga.get("best_fitness", 0.0),
    }


def bench_parallel_speedup(jobs: Optional[int] = None, batch: int = 8) -> dict:
    """Serial vs worker-pool wall clock on one batch of GA evaluations.

    The pool is the one production ``jobs > 1`` runs use:
    :func:`~repro.parallel.backends.create_backend` (the fault-tolerant
    ``ResilientPoolBackend``).  Entries recorded before that switch timed
    the since-deleted chunked ``ProcessPoolBackend`` and are not comparable.

    The batch mirrors one GA generation: ``batch`` independent fitness
    evaluations of distinct genomes.  Fitness values must be identical under
    both backends (the determinism contract).

    Warm-up and steady state are timed **separately**, and the steady batch
    is shaped like a real GA generation: *fresh* genomes on a warm pool.
    ``warmup_seconds`` covers pool spin-up (process fork, module
    initialisation) plus one full untimed batch of distinct genomes so
    every worker builds its per-task state; ``steady_seconds`` then times a
    second batch of previously unseen genomes on the warm workers.  The
    serial reference runs the *same* fresh batch in the parent process,
    which has simulated none of them (the pool forks before the parent
    touches them), so neither side gets a memoization head start and the
    headline ``speedup`` (serial over steady) measures parallelism
    honestly.  (Field-meaning change in the trajectory:
    entries before PR 5 recorded ``parallel_seconds`` after an untimed
    single-item warm-up — spin-up excluded, but ``jobs - 1`` workers still
    paying first-task construction inside the timed batch; since PR 5
    ``parallel_seconds`` is ``warmup + steady`` and *includes* spin-up, so
    compare ``steady_seconds`` across the boundary.)  ``cores`` records
    how much hardware parallelism was actually available: with fewer cores
    than jobs a steady-state speedup >1 is not physically reachable for
    this CPU-bound work, and the entry says so instead of hiding it.
    """
    jobs = resolve_jobs(jobs)
    config = baseline_config()
    knob_space = KnobSpace(config)
    generator = StressmarkGenerator(config=config, max_instructions=6_000)
    evaluator = StressmarkEvaluator(
        config=config,
        fault_rates=generator.fault_rates,
        fitness=generator.fitness,
        knob_space=knob_space,
        max_instructions=generator.max_instructions,
        simulation_seed=generator.simulation_seed,
    )
    reference = reference_knobs(config)

    def genomes(first_seed: int) -> list[Individual]:
        return [
            Individual(genome=reference.derive(random_seed=seed).to_genome())
            for seed in range(first_seed, first_seed + batch)
        ]

    warm_batch = genomes(0)
    # Two distinct fresh batches: a timing is only as good as its quietest
    # run, so steady/serial are each the best of two cold batches (a batch
    # can be cold only once).
    fresh_batches = [genomes(batch), genomes(2 * batch)]

    # Pool first: workers fork before the parent simulates any fresh-batch
    # genome, so the pool's steady batches and the serial reference both
    # meet those genomes cold.
    pool = create_backend(jobs)
    pool_outcomes = []
    steady_timings = []
    try:
        start = time.perf_counter()
        pool.evaluate_individuals(evaluator, [individual.copy() for individual in warm_batch])
        warmup_seconds = time.perf_counter() - start
        for fresh in fresh_batches:
            start = time.perf_counter()
            pool_outcomes.append(
                pool.evaluate_individuals(evaluator, [ind.copy() for ind in fresh])
            )
            steady_timings.append(time.perf_counter() - start)
    finally:
        pool.close()
    steady_seconds = min(steady_timings)

    serial = SerialBackend()
    serial.evaluate_individuals(evaluator, [warm_batch[0].copy()])  # untimed warm-up
    serial_outcomes = []
    serial_timings = []
    for fresh in fresh_batches:
        start = time.perf_counter()
        serial_outcomes.append(
            serial.evaluate_individuals(evaluator, [ind.copy() for ind in fresh])
        )
        serial_timings.append(time.perf_counter() - start)
    serial_seconds = min(serial_timings)

    serial_fitness = [fitness for run in serial_outcomes for fitness, _ in run]
    pool_fitness = [fitness for run in pool_outcomes for fitness, _ in run]
    return {
        "jobs": jobs,
        "cores": os.cpu_count() or 1,
        "batch": batch,
        "serial_seconds": serial_seconds,
        "warmup_seconds": warmup_seconds,
        "steady_seconds": steady_seconds,
        "parallel_seconds": warmup_seconds + steady_seconds,
        "speedup": serial_seconds / steady_seconds if steady_seconds > 0 else 0.0,
        "deterministic": serial_fitness == pool_fitness,
    }


def _fresh_programs(batch: int, instructions: int):
    """(core, programs(first_seed)) for GA-generation-shaped fresh batches."""
    config = baseline_config()
    generator = StressmarkGenerator(config=config, max_instructions=instructions)
    reference = reference_knobs(config)
    codegen = generator.codegen

    def programs(first_seed: int) -> list:
        return [
            codegen.generate(reference.derive(random_seed=seed))
            for seed in range(first_seed, first_seed + batch)
        ]

    return OutOfOrderCore(config, seed=generator.simulation_seed), programs


def _time_interleaved(
    runs: list, fresh_batches: list, alternate: bool = False
) -> list[tuple[float, list]]:
    """Best-of wall time and results of each ``run(batch)`` over fresh batches.

    Every run meets a fresh batch back to back before the next batch starts,
    so drift in machine load hits all sides alike.  With ``alternate``,
    every other batch runs the sides in reverse order, so no side always
    goes first.
    """
    timings: list[list[float]] = [[] for _ in runs]
    results: list[list] = [[] for _ in runs]
    sides = list(zip(runs, timings, results))
    for index, fresh in enumerate(fresh_batches):
        for run, run_timings, run_results in (
            sides[::-1] if alternate and index % 2 else sides
        ):
            start = time.perf_counter()
            run_results.append(run(fresh))
            run_timings.append(time.perf_counter() - start)
    return [(min(run_timings), run_results) for run_timings, run_results in zip(timings, results)]


def _identical(first_runs: list, second_runs: list) -> bool:
    return all(
        _signature(a) == _signature(b)
        for first, second in zip(first_runs, second_runs)
        for a, b in zip(first, second)
    )


def bench_vector_speedup(batch: int = 8, instructions: int = 6_000) -> dict:
    """The vector plane vs the per-genome interpreter on fresh GA batches.

    One GA-generation-shaped batch of ``batch`` *fresh* genomes (never seen
    by any memo) runs through the ``vector`` backend's ``run_many`` —
    precomputed operand columns, a flat-array hierarchy per genome whose
    cache sets warm on first touch — and, back to back, through the
    interpreter genome by genome.  An untimed warm-up batch runs first, so
    ``vector_seconds`` measures the steady state a GA search lives in;
    every batch pays its own column builds and warm-up inside the timed
    region.  Each side is best-of-three over three distinct fresh batches,
    timed interleaved (vector, then the interpreter, on each batch) — on a
    shared 2-core host this kept eight ratios within 7.2–8.3x where timing
    one side's batches before the other's spread them over 5.9–10.4x.
    Both sides must produce bit-identical results (``deterministic``).  The
    recorded ``speedup`` is the number the ``batch-smoke`` tier-2 gate holds
    future changes to.
    """
    from repro.uarch import kernel_vector
    from repro.uarch.kernel_backends import INTERPRETED, VECTOR

    kernel_vector.clear_vector_caches()
    core, programs = _fresh_programs(batch, instructions)
    VECTOR.run_many(core, programs(0), instructions)  # untimed warm-up batch
    fresh_batches = [programs(k * batch) for k in (1, 2, 3)]

    (vector_seconds, vector_results), (interpreted_seconds, interpreted_results) = (
        _time_interleaved(
            [
                lambda fresh: VECTOR.run_many(core, fresh, instructions),
                lambda fresh: INTERPRETED.run_many(core, fresh, instructions),
            ],
            fresh_batches,
        )
    )
    return {
        "batch": batch,
        "instructions": instructions,
        "vector_seconds": vector_seconds,
        "interpreted_seconds": interpreted_seconds,
        "vector_ms_per_genome": 1000.0 * vector_seconds / batch,
        "interpreted_ms_per_genome": 1000.0 * interpreted_seconds / batch,
        "speedup": interpreted_seconds / vector_seconds if vector_seconds > 0 else 0.0,
        "deterministic": _identical(vector_results, interpreted_results),
    }


# ----------------------------------------------------------- trajectories


def _environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # optional: nothing under ``repro`` imports it
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def load_trajectory(path: str | Path) -> dict:
    path = Path(path)
    if path.exists():
        return json.loads(path.read_text())
    return {"benchmark": path.stem, "entries": []}


def append_entry(path: str | Path, metrics: dict) -> dict:
    """Append one run's metrics to a trajectory file; returns the trajectory."""
    trajectory = load_trajectory(path)
    trajectory["entries"].append({**_environment(), **metrics})
    Path(path).write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def baseline_entry(path: str | Path, predicate=None) -> Optional[dict]:
    """The first recorded entry of a trajectory (the regression baseline).

    ``predicate`` selects the first *matching* entry instead — used for
    metrics added to the trajectory after its first recording (e.g. the
    ledger microbenchmark).
    """
    entries = load_trajectory(path).get("entries", [])
    if predicate is None:
        return entries[0] if entries else None
    for entry in entries:
        if predicate(entry):
            return entry
    return None


def run_benchmarks(
    jobs: Optional[int] = None,
    pipeline_path: str | Path = PIPELINE_BENCH_FILE,
    ga_path: str | Path = GA_BENCH_FILE,
    instructions: int = 50_000,
    repeats: int = 3,
) -> dict:
    """Run the full harness, append to the trajectory files, return metrics."""
    jobs = resolve_jobs(jobs)
    pipeline_metrics = bench_pipeline(instructions=instructions, repeats=repeats)
    ledger_metrics = bench_ledger(repeats=repeats)
    ga_metrics = bench_ga(jobs=jobs)
    # The speedup probe always runs multi-worker (default 4) so the recorded
    # number is meaningful even when the GA itself was benchmarked serially.
    speedup_metrics = bench_parallel_speedup(jobs=jobs if jobs > 1 else 4)
    vector_metrics = bench_vector_speedup()
    append_entry(pipeline_path, {**pipeline_metrics, "ledger": ledger_metrics})
    append_entry(
        ga_path,
        {
            "ga": ga_metrics,
            "parallel": speedup_metrics,
            "kernel_vector": vector_metrics,
        },
    )
    return {
        "pipeline": pipeline_metrics,
        "ledger": ledger_metrics,
        "ga": ga_metrics,
        "parallel": speedup_metrics,
        "kernel_vector": vector_metrics,
    }
