"""Shared experiment infrastructure: scales, caching context, workload runs.

The paper's evaluation simulates 100 M instructions per program and runs the
GA for 2,500 evaluations (about 48 hours on the authors' infrastructure).  A
pure-Python reproduction cannot afford that, so every experiment accepts an
:class:`ExperimentScale` that fixes the simulated instruction budget and the
GA effort.  ``ExperimentScale.quick()`` is used by the test suite and the
benchmark harness; larger scales can be requested for higher-fidelity runs
(see EXPERIMENTS.md for the scales used in the recorded results).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.avf.report import SerReport, build_report
from repro.ga.engine import GAParameters
from repro.parallel.backends import EvaluationBackend, SerialBackend
from repro.parallel.resilience import Quarantined
from repro.stressmark.fitness import FitnessFunction
from repro.stressmark.generator import StressmarkGenerator, StressmarkResult, reference_knobs
from repro.stressmark.knobs import KnobSpace
from repro.uarch.config import MachineConfig, baseline_config
from repro.uarch.faultrates import FaultRateModel, unit_fault_rates
from repro.uarch.pipeline import OutOfOrderCore, SimulationResult
from repro.workloads.profiles import WorkloadProfile, WorkloadSuite
from repro.workloads.suite import all_profiles
from repro.workloads.synthetic import build_workload


@dataclass(frozen=True)
class ExperimentScale:
    """Simulation and search effort for one experiment run."""

    name: str
    workload_instructions: int
    stressmark_instructions: int
    ga_population: int
    ga_generations: int
    seed_ga_with_reference: bool = True
    workload_seed: int = 11
    simulation_seed: int = 3

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Small scale used by tests and the default benchmark harness."""
        return cls(
            name="quick",
            workload_instructions=4_000,
            stressmark_instructions=6_000,
            ga_population=8,
            ga_generations=6,
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Moderate scale for interactive use (minutes per experiment)."""
        return cls(
            name="default",
            workload_instructions=12_000,
            stressmark_instructions=12_000,
            ga_population=16,
            ga_generations=15,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The paper's scale (100 M instructions, 50 x 50 GA); very slow in Python."""
        return cls(
            name="paper",
            workload_instructions=100_000_000,
            stressmark_instructions=100_000_000,
            ga_population=50,
            ga_generations=50,
            seed_ga_with_reference=False,
        )

    def ga_parameters(self, seed: int = 2010) -> GAParameters:
        """GA parameters at this scale (paper's crossover/mutation rates)."""
        return GAParameters(
            population_size=self.ga_population,
            generations=self.ga_generations,
            crossover_rate=0.73,
            mutation_rate=0.05,
            seed=seed,
        )

    def derive(self, **overrides: object) -> "ExperimentScale":
        """A copy of this scale with fields overridden (spec ``scale_overrides``)."""
        return replace(self, **overrides)


@dataclass
class WorkloadReportSet:
    """SER reports of a set of workloads on one configuration."""

    config: MachineConfig
    fault_rates: FaultRateModel
    reports: dict[str, SerReport] = field(default_factory=dict)

    def names(self) -> list[str]:
        return list(self.reports)

    def report(self, name: str) -> SerReport:
        return self.reports[name]

    def by_suite(self, suite: WorkloadSuite) -> dict[str, SerReport]:
        """Reports restricted to one benchmark suite."""
        return {
            name: report
            for name, report in self.reports.items()
            if report_suite(report) == suite.value
        }

    def best_by(self, metric) -> tuple[str, SerReport]:
        """Workload maximising ``metric(report)``."""
        name = max(self.reports, key=lambda key: metric(self.reports[key]))
        return name, self.reports[name]


def report_suite(report: SerReport) -> str:
    """Suite tag recorded in a workload report (empty for the stressmark)."""
    return str(report.stats.get("suite", "")) if isinstance(report.stats, dict) else ""


class _WorkloadSimulationTask:
    """Picklable task: simulate one workload proxy on one configuration."""

    def __init__(
        self,
        config: MachineConfig,
        instructions: int,
        workload_seed: int,
        simulation_seed: int,
    ) -> None:
        self.config = config
        self.instructions = instructions
        self.workload_seed = workload_seed
        self.simulation_seed = simulation_seed

    def __call__(self, profile: WorkloadProfile) -> SimulationResult:
        program = build_workload(profile, self.config, seed=self.workload_seed)
        core = OutOfOrderCore(self.config, seed=self.simulation_seed)
        return core.run(program, max_instructions=self.instructions)


class ExperimentContext:
    """Caches workload runs and stressmark GA runs shared across figures.

    Figures 3, 4 and 6 all need the 33 workload reports on the baseline
    configuration, and Figures 5, 7 and 8 reuse the stressmark GA runs, so
    the context memoises both keyed by (configuration, fault-rate model).

    ``backend`` (default :class:`~repro.parallel.backends.SerialBackend`)
    runs the independent workload simulations and the stressmark GA
    evaluations; a :class:`~repro.api.session.Session` passes the worker
    pool it owns for the spec's ``jobs``, and the context never creates or
    closes one.  Reports and caches are always assembled in deterministic
    order, so results are identical for any worker count.

    ``store`` (a :class:`~repro.store.result_store.ResultStore`) makes the
    context's caches durable: workload simulations and whole stressmark
    searches are written to the store's artifact database and fetched back
    before anything is simulated, GA fitness evaluations write through to
    the store's persistent fitness cache, and every stressmark search
    checkpoints per generation.  ``resume=True`` consumes an existing GA
    checkpoint (continuing an interrupted search bit-identically); the
    default clears stale checkpoints and starts searches fresh.  The caller
    owns the store's lifetime.
    """

    def __init__(
        self,
        scale: Optional[ExperimentScale] = None,
        backend: Optional[EvaluationBackend] = None,
        store: Optional[object] = None,
        resume: bool = False,
    ) -> None:
        self.scale = scale or ExperimentScale.quick()
        self.backend = backend or SerialBackend()
        self.store = store
        self.resume = resume
        # AVF is independent of the circuit-level fault rates, so workload
        # simulations are cached per configuration and re-reported under each
        # fault-rate model without re-simulating.
        self._workload_sim_cache: dict[tuple[str, str], object] = {}
        self._workload_cache: dict[tuple[str, str], WorkloadReportSet] = {}
        self._stressmark_cache: dict[tuple, StressmarkResult] = {}

    # ----------------------------------------------------------- workloads

    def _workload_artifact_key(self, config: MachineConfig, profile: WorkloadProfile) -> str:
        from repro.store.artifacts import artifact_key

        return artifact_key(
            "workload-sim",
            config,
            profile,
            self.scale.workload_instructions,
            self.scale.workload_seed,
            self.scale.simulation_seed,
        )

    def _fetch_workload_result(
        self, config: MachineConfig, profile: WorkloadProfile
    ) -> Optional[SimulationResult]:
        """Cached simulation result from memory, then the store's artifacts."""
        sim_key = (config.name, profile.name)
        result = self._workload_sim_cache.get(sim_key)
        if result is None and self.store is not None:
            result = self.store.artifact_store().get(self._workload_artifact_key(config, profile))
            if result is not None:
                self._workload_sim_cache[sim_key] = result
        return result

    def _record_workload_result(
        self,
        config: MachineConfig,
        profile: WorkloadProfile,
        result: SimulationResult,
        pending: Optional[list] = None,
    ) -> None:
        """Cache a fresh simulation and store it, or add it to ``pending``
        for the caller's one ``put_many``."""
        self._workload_sim_cache[(config.name, profile.name)] = result
        if self.store is not None:
            item = (self._workload_artifact_key(config, profile), result)
            if pending is None:
                self.store.artifact_store().put(*item)
            else:
                pending.append(item)

    def run_workload(
        self,
        profile: WorkloadProfile,
        config: MachineConfig,
        fault_rates: Optional[FaultRateModel] = None,
        pending: Optional[list] = None,
    ) -> SerReport:
        """Simulate one workload proxy and return its SER report.

        A fresh simulation is stored at once, or added to ``pending``.
        """
        fault_rates = fault_rates or unit_fault_rates()
        result = self._fetch_workload_result(config, profile)
        if result is None:
            program = build_workload(profile, config, seed=self.scale.workload_seed)
            core = OutOfOrderCore(config, seed=self.scale.simulation_seed)
            result = core.run(program, max_instructions=self.scale.workload_instructions)
            self._record_workload_result(config, profile, result, pending)
        report = build_report(result, fault_rates)
        report.stats["suite"] = profile.suite.value  # type: ignore[index]
        return report

    def workload_reports(
        self,
        config: Optional[MachineConfig] = None,
        fault_rates: Optional[FaultRateModel] = None,
        profiles: Optional[Sequence[WorkloadProfile]] = None,
    ) -> WorkloadReportSet:
        """Reports for (by default) all 33 workload proxies, cached."""
        config = config or baseline_config()
        fault_rates = fault_rates or unit_fault_rates()
        selected = tuple(profiles) if profiles is not None else all_profiles()
        cache_key = (config.name, fault_rates.name)
        cached = self._workload_cache.get(cache_key)
        if cached is not None and all(p.name in cached.reports for p in selected):
            return cached

        report_set = cached or WorkloadReportSet(config=config, fault_rates=fault_rates)
        missing = [profile for profile in selected if profile.name not in report_set.reports]
        # Fan the uncached, independent simulations out through the backend;
        # reports are then assembled serially in `selected` order.  The store
        # consult happens first so replayed simulations never hit a worker.
        to_simulate = [
            profile for profile in missing
            if self._fetch_workload_result(config, profile) is None
        ]
        # Fresh simulations are stored in one transaction, also when a later
        # one fails.
        pending: list = []
        try:
            if len(to_simulate) > 1 and self.backend.jobs > 1:
                task = _WorkloadSimulationTask(
                    config=config,
                    instructions=self.scale.workload_instructions,
                    workload_seed=self.scale.workload_seed,
                    simulation_seed=self.scale.simulation_seed,
                )
                results = self.backend.map(task, to_simulate)
                for profile, result in zip(to_simulate, results, strict=True):
                    # A workload the resilient backend quarantined is simply
                    # not recorded: the serial loop below re-simulates it
                    # in-process, so deterministic failures still surface
                    # with a real traceback and transient ones produce the
                    # normal report.
                    if isinstance(result, Quarantined):
                        continue
                    self._record_workload_result(config, profile, result, pending)
            for profile in missing:
                report_set.reports[profile.name] = self.run_workload(
                    profile, config, fault_rates, pending
                )
        finally:
            if pending:
                self.store.artifact_store().put_many(pending)
        self._workload_cache[cache_key] = report_set
        return report_set

    # ---------------------------------------------------------- stressmark

    def stressmark(
        self,
        config: Optional[MachineConfig] = None,
        fault_rates: Optional[FaultRateModel] = None,
        fitness: Optional[FitnessFunction] = None,
        ga_seed: Optional[int] = None,
    ) -> StressmarkResult:
        """GA-generated stressmark for one (configuration, fault-rate) pair, cached.

        ``fitness`` defaults to the balanced objective; ``ga_seed`` overrides
        the GA seed (spec-driven runs).  Both participate in the cache key so
        distinct objectives or seeds never alias.
        """
        config = config or baseline_config()
        fault_rates = fault_rates or unit_fault_rates()
        fitness = fitness or FitnessFunction.balanced(fault_rates)
        cache_key = (config.name, fault_rates.name, fitness.name, ga_seed)
        cached = self._stressmark_cache.get(cache_key)
        if cached is not None:
            return cached

        knob_space = KnobSpace(config)
        ga_parameters = (
            self.scale.ga_parameters() if ga_seed is None else self.scale.ga_parameters(ga_seed)
        )

        fitness_store = None
        checkpoint = None
        artifact_key_str = None
        if self.store is not None:
            from repro.store.artifacts import artifact_key

            # The trailing True is the knob space's allow_l2_hit_generator,
            # the value every search runs with; it stays in the key so stores
            # written while it was a parameter keep replaying.
            artifact_key_str = artifact_key(
                "stressmark",
                config,
                fault_rates,
                fitness,
                ga_parameters,
                self.scale.stressmark_instructions,
                self.scale.simulation_seed,
                self.scale.seed_ga_with_reference,
                True,
            )
            replayed = self.store.artifact_store().get(artifact_key_str)
            if replayed is not None:
                self._stressmark_cache[cache_key] = replayed
                return replayed
            fitness_store = self.store.fitness_store()
            checkpoint = self.store.checkpoint(artifact_key_str)
            if not self.resume:
                # A stale checkpoint from an abandoned run must not leak into
                # a run that did not ask to resume.
                checkpoint.clear()

        generator = StressmarkGenerator(
            config=config,
            fault_rates=fault_rates,
            fitness=fitness,
            knob_space=knob_space,
            ga_parameters=ga_parameters,
            max_instructions=self.scale.stressmark_instructions,
            simulation_seed=self.scale.simulation_seed,
            backend=self.backend,
            fitness_store=fitness_store,
            checkpoint=checkpoint,
        )
        seeds = None
        if self.scale.seed_ga_with_reference:
            seeds = [
                reference_knobs(config, use_l2_miss=True),
                reference_knobs(config, use_l2_miss=False),
            ]
        result = generator.generate(initial_knobs=seeds)
        self._stressmark_cache[cache_key] = result
        if self.store is not None:
            self.store.artifact_store().put(artifact_key_str, result)
            checkpoint.clear()
        return result

    # ------------------------------------------------------------- helpers

    def clear(self) -> None:
        """Drop all cached results."""
        self._workload_cache.clear()
        self._stressmark_cache.clear()


def max_group_ser(reports: Iterable[SerReport], group) -> float:
    """Highest SER for one group across a set of reports."""
    values = [report.ser(group) for report in reports]
    return max(values) if values else 0.0
