"""The Session facade: resolve RunSpecs against the registries and run them.

A :class:`Session` is the one place simulations are launched.  It resolves
the component *names* in a :class:`~repro.api.spec.RunSpec` into concrete
objects (machine config, fault-rate model, workload profiles, fitness,
scale), applies ``config_overrides`` / ``scale_overrides``, and routes the
work through a cached :class:`~repro.experiments.runner.ExperimentContext`
— which fans independent simulations and GA evaluations out over the
session's evaluation backend for the spec's worker count (in-process for
one job, the resilient worker pool for more) and memoizes results.  All
front-ends (the CLI's ``run``/``sweep``/figure commands, the experiment
drivers, the bench harness, future services) share this entry point.

Two result surfaces exist:

* :meth:`Session.run` — the declarative path: spec in,
  JSON-round-trippable :class:`~repro.api.spec.RunResult` out.
* :meth:`Session.stressmark_result` / :meth:`Session.workload_report_set`
  — rich in-process objects (``StressmarkResult`` / ``WorkloadReportSet``)
  used by the figure/table drivers, which need full reports rather than
  flattened rows.

Construction arguments *pin* settings: ``Session(scale=..., jobs=...)``
makes those win over whatever a spec says (the CLI uses this for
``--scale``/``--jobs``); a Session built around an existing
``ExperimentContext`` reuses that context's scale, backend and caches.

``Session(store=...)`` attaches a persistent
:class:`~repro.store.result_store.ResultStore` (a path creates/opens one and
the session owns it): :meth:`Session.run` consults the store before
launching anything and persists every finished result, contexts replay
workload simulations and stressmark searches from the store's artifact
database, GA fitness evaluations write through to the store's persistent
fitness cache, and stressmark searches checkpoint per generation
(``resume=True`` continues an interrupted search bit-identically).
:meth:`Session.run_shard` runs one shard of a sweep against a store so
shards can execute on separate machines and be joined with ``repro merge``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.result_store import ResultStore

from repro.api import components as _components  # noqa: F401  (installs registries)
from repro.api.registry import (
    CONFIGS,
    FAULT_RATES,
    FITNESS_OBJECTIVES,
    SCALES,
    WORKLOAD_SUITES,
    suggest,
)
from repro.api.spec import RunResult, RunSpec, SpecError, build_provenance
from repro.avf.analysis import StructureGroup
from repro.experiments.runner import ExperimentContext, ExperimentScale, WorkloadReportSet
from repro.memory.cache import CacheConfig
from repro.memory.tlb import TlbConfig
from repro.parallel.backends import EvaluationBackend, create_backend, resolve_jobs
from repro.parallel.resilience import FailurePolicy, RetryPolicy
from repro.stressmark.fitness import FitnessFunction
from repro.stressmark.generator import StressmarkResult
from repro.uarch.config import MachineConfig
from repro.uarch.faultrates import FaultRateModel
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.suite import all_profiles

SpecLike = Union[RunSpec, Mapping[str, object], str, Path]


@dataclass(frozen=True)
class ResolvedRun:
    """A RunSpec with every component name resolved to its object."""

    spec: RunSpec
    config: MachineConfig
    fault_rates: FaultRateModel
    fitness: FitnessFunction
    scale: ExperimentScale
    jobs: int
    retry: RetryPolicy


class Session:
    """Facade resolving and executing :class:`RunSpec` requests.

    Contexts (and their caches) are memoized per ``(scale, jobs, failure
    policy)`` and backends per ``(jobs, failure policy)``, so the runs of a
    sweep share warm workers, workload simulations and stressmark searches
    exactly like the figure drivers always have.  Use as a context manager,
    or call :meth:`close`, to release worker processes.
    """

    def __init__(
        self,
        scale: Optional[Union[ExperimentScale, str]] = None,
        jobs: Optional[int] = None,
        context: Optional[ExperimentContext] = None,
        store: Optional[Union["ResultStore", str, Path]] = None,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(scale, str):
            scale = SCALES.create(scale)
        self._pinned_scale: Optional[ExperimentScale] = scale or (context.scale if context else None)
        self._pinned_jobs: Optional[int] = jobs if jobs is not None else (
            context.jobs if context is not None else None
        )
        # Retry precedence: pinned (CLI --retries/--task-timeout) > spec
        # fields > REPRO_RETRY_* environment > library defaults.
        self._pinned_retry: Optional[RetryPolicy] = retry
        self._resume = bool(resume)
        self._store: Optional["ResultStore"] = None
        self._owns_store = False
        if store is not None:
            from repro.store.result_store import ResultStore, open_store

            self._owns_store = not isinstance(store, ResultStore)
            self._store = open_store(store)
        self._closed = False
        self._contexts: dict[tuple, ExperimentContext] = {}
        self._owned: list[ExperimentContext] = []
        # One worker pool per (jobs, failure policy), shared by every context
        # the session creates (sweep points at different scales included):
        # workers keep no per-task state, so one pool serves any number of
        # distinct evaluators without recycling workers.
        self._backends: dict[tuple[int, FailurePolicy], "EvaluationBackend"] = {}
        # A wrapped context serves every spec at its (scale, jobs) pair — it
        # already owns a live backend.  Its own store configuration is left
        # untouched.
        self._wrapped = context

    @property
    def store(self) -> Optional["ResultStore"]:
        """The attached result store, if any."""
        return self._store

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (closed sessions refuse new work)."""
        return self._closed

    # ------------------------------------------------------------ resolution

    def coerce(self, spec: SpecLike) -> RunSpec:
        """Accept a RunSpec, a JSON mapping, or a path to a spec file."""
        if isinstance(spec, RunSpec):
            return spec
        if isinstance(spec, Mapping):
            return RunSpec.from_json_dict(spec)
        return RunSpec.load(spec)

    def resolve(self, spec: SpecLike) -> ResolvedRun:
        """Resolve every component name of a (validated) spec."""
        spec = self.coerce(spec).validate()
        fault_rates = FAULT_RATES.create(spec.fault_rates)
        return ResolvedRun(
            spec=spec,
            config=self.resolve_config(spec),
            fault_rates=fault_rates,
            fitness=FITNESS_OBJECTIVES.create(spec.fitness, fault_rates),
            scale=self.resolve_scale(spec),
            jobs=self.resolve_jobs(spec),
            retry=self.resolve_retry(spec),
        )

    def resolve_config(self, spec: RunSpec) -> MachineConfig:
        config = CONFIGS.create(spec.config)
        if not spec.config_overrides:
            return config
        overrides = dict(spec.config_overrides)
        # Nested cache/TLB overrides arrive as JSON mappings.
        for key in ("dl1", "il1", "l2"):
            if isinstance(overrides.get(key), Mapping):
                overrides[key] = _replace_fields(getattr(config, key), overrides[key], CacheConfig, key)
        if isinstance(overrides.get("dtlb"), Mapping):
            overrides["dtlb"] = _replace_fields(config.dtlb, overrides["dtlb"], TlbConfig, "dtlb")
        if "name" not in overrides:
            # Derived configs get a content-addressed name so the context's
            # per-config caches never mix a derivative with its base.
            overrides["name"] = f"{spec.config}+{_overrides_digest(spec.config_overrides)}"
        try:
            return config.derive(**overrides)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid config_overrides for {spec.config!r}: {exc}") from exc

    def resolve_scale(self, spec: RunSpec) -> ExperimentScale:
        if self._pinned_scale is not None:
            return self._pinned_scale
        scale = SCALES.create(spec.scale)
        if spec.scale_overrides:
            try:
                scale = scale.derive(**spec.scale_overrides)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"invalid scale_overrides for {spec.scale!r}: {exc}") from exc
        return scale

    def resolve_jobs(self, spec: RunSpec) -> int:
        if self._pinned_jobs is not None:
            return resolve_jobs(self._pinned_jobs)
        return resolve_jobs(spec.jobs)

    def resolve_retry(self, spec: RunSpec) -> RetryPolicy:
        """The retry policy a spec runs under (pinned > spec > environment)."""
        if self._pinned_retry is not None:
            return self._pinned_retry
        policy = RetryPolicy.from_env()
        overrides: dict[str, object] = {}
        if spec.retries is not None:
            overrides["max_attempts"] = spec.retries
        if spec.task_timeout is not None:
            overrides["timeout"] = float(spec.task_timeout)
        return policy.derive(**overrides) if overrides else policy

    def resolve_profiles(self, spec: RunSpec) -> tuple[WorkloadProfile, ...]:
        """Workload profiles of a simulate spec, in deterministic order."""
        if spec.workloads:
            by_name = {profile.name: profile for profile in all_profiles()}
            profiles = []
            for name in spec.workloads:
                if name not in by_name:
                    raise SpecError(f"unknown workload {name!r}{suggest(name, by_name)}")
                profiles.append(by_name[name])
            return tuple(profiles)
        suites = spec.suites or ("all",)
        profiles = []
        seen: set[str] = set()
        for suite in suites:
            for profile in WORKLOAD_SUITES.create(suite):
                if profile.name not in seen:
                    seen.add(profile.name)
                    profiles.append(profile)
        return tuple(profiles)

    # -------------------------------------------------------------- contexts

    def _shared_backend(self, jobs: int, policy: FailurePolicy) -> "EvaluationBackend":
        """The session's shared evaluation backend for a (jobs, policy) pair."""
        backend = self._backends.get((jobs, policy))
        if backend is None:
            backend = create_backend(jobs, policy=policy)
            self._backends[(jobs, policy)] = backend
        return backend

    def context_for(self, spec: SpecLike) -> ExperimentContext:
        """The (cached) ExperimentContext executing a spec's scale/jobs/retry policy.

        Every context shares the session-owned backend of its (jobs, failure
        policy) pair, so a sweep's points (and the GA generations inside
        each) reuse warm workers instead of respawning them.
        """
        if self._closed:
            raise RuntimeError("session is closed — worker pools and stores are released")
        spec = self.coerce(spec)
        scale = self.resolve_scale(spec)
        jobs = self.resolve_jobs(spec)
        if self._wrapped is not None and (scale, jobs) == (self._wrapped.scale, self._wrapped.jobs):
            return self._wrapped
        policy = FailurePolicy(retry=self.resolve_retry(spec))
        key = (scale, jobs, policy)
        context = self._contexts.get(key)
        if context is None:
            context = ExperimentContext(
                scale, backend=self._shared_backend(jobs, policy), store=self._store,
                resume=self._resume,
            )
            self._contexts[key] = context
            self._owned.append(context)
        return context

    # ------------------------------------------------------- rich accessors

    def stressmark_result(self, spec: SpecLike) -> StressmarkResult:
        """Run (or fetch the cached) stressmark search for a spec."""
        resolved = self.resolve(spec)
        if resolved.spec.kind != "stressmark":
            raise SpecError(f"expected a stressmark spec, got kind={resolved.spec.kind!r}")
        return self._stressmark_from_resolved(resolved)

    def _stressmark_from_resolved(self, resolved: ResolvedRun) -> StressmarkResult:
        context = self.context_for(resolved.spec)
        return context.stressmark(
            resolved.config,
            resolved.fault_rates,
            fitness=resolved.fitness,
            ga_seed=resolved.spec.seed,
        )

    def workload_report_set(self, spec: SpecLike) -> WorkloadReportSet:
        """Simulate (or fetch cached) workload reports for a simulate spec."""
        resolved = self.resolve(spec)
        if resolved.spec.kind != "simulate":
            raise SpecError(f"expected a simulate spec, got kind={resolved.spec.kind!r}")
        context = self.context_for(resolved.spec)
        profiles = self.resolve_profiles(resolved.spec)
        return context.workload_reports(resolved.config, resolved.fault_rates, profiles=profiles)

    # ------------------------------------------------------------------- run

    def _store_key(self, spec: RunSpec) -> str:
        """The digest a spec's result is stored under.

        This is the spec's own content digest unless the session pins a
        scale (which overrides what the spec says and therefore what gets
        simulated) — then the pinned scale is folded into the key so results
        produced under different pins can never alias.
        """
        if self._pinned_scale is None:
            return spec.digest
        mixed = f"{spec.digest}|pinned_scale={self._pinned_scale!r}"
        return hashlib.sha256(mixed.encode("utf-8")).hexdigest()

    def run(self, spec: SpecLike) -> RunResult:
        """Execute a spec of any kind and return its serializable result.

        With a store attached, a result already recorded for the spec's
        digest is returned as stored (original timing included) without
        simulating anything, and every freshly computed result — including
        each child of a sweep, as it completes — is persisted, so an
        interrupted sweep resumes from its last finished child.
        """
        if self._closed:
            raise RuntimeError("session is closed — worker pools and stores are released")
        spec = self.coerce(spec).validate()
        key = self._store_key(spec)
        if self._store is not None:
            stored = self._store.get(key)
            if stored is not None:
                return stored
        start = time.perf_counter()
        if spec.kind == "sweep":
            children = [self.run(child) for child in spec.expand()]
            rows = [row for child in children for row in child.rows]
            result = RunResult(
                spec=spec,
                rows=rows,
                children=children,
                provenance=build_provenance(spec, runs=len(children)),
            )
        elif spec.kind == "simulate":
            result = self._run_simulate(spec)
        else:
            result = self._run_stressmark(spec)
        result.timing["seconds"] = round(time.perf_counter() - start, 6)
        if self._store is not None:
            self._store.put(result, digest=key)
        return result

    def run_shard(self, spec: SpecLike, index: int, count: int) -> RunResult:
        """Run the ``index``-th of ``count`` shards of a sweep (1-based).

        Children are dealt round-robin (child ``i`` belongs to shard
        ``i % count + 1``) so stressmark and simulate runs spread evenly.
        The shard result carries only this shard's children and is *not*
        recorded under the sweep's digest — it is partial; the individual
        children are persisted as usual, so ``repro merge`` followed by a
        plain run of the full sweep assembles the complete result without
        re-simulating.
        """
        spec = self.coerce(spec).validate()
        if spec.kind != "sweep":
            raise SpecError(f"only sweeps can be sharded, got kind={spec.kind!r}")
        if count < 1 or not 1 <= index <= count:
            raise SpecError(f"shard must satisfy 1 <= i <= N, got {index}/{count}")
        children = spec.expand()
        mine = children[index - 1 :: count]
        start = time.perf_counter()
        results = [self.run(child) for child in mine]
        rows = [row for child in results for row in child.rows]
        result = RunResult(
            spec=spec,
            rows=rows,
            children=results,
            provenance=build_provenance(
                spec, runs=len(results), total_runs=len(children), shard=f"{index}/{count}"
            ),
        )
        result.timing["seconds"] = round(time.perf_counter() - start, 6)
        return result

    def _run_simulate(self, spec: RunSpec) -> RunResult:
        resolved = self.resolve(spec)
        profiles = self.resolve_profiles(spec)
        context = self.context_for(spec)
        before = context.backend.failure_counters()
        report_set = context.workload_reports(resolved.config, resolved.fault_rates, profiles=profiles)
        rows = [report_set.report(profile.name).as_row() for profile in profiles]
        provenance = self._provenance(resolved)
        self._attach_resilience(provenance, context, before)
        return RunResult(spec=spec, rows=rows, provenance=provenance)

    def _run_stressmark(self, spec: RunSpec) -> RunResult:
        resolved = self.resolve(spec)
        context = self.context_for(resolved.spec)
        before = context.backend.failure_counters()
        stressmark = self._stressmark_from_resolved(resolved)
        ga = stressmark.ga_result
        provenance = self._provenance(resolved)
        self._attach_resilience(provenance, context, before)
        return RunResult(
            spec=spec,
            rows=[stressmark.report.as_row()],
            knobs={str(key): value for key, value in stressmark.knob_table().items()},
            ser={group.value: stressmark.report.ser(group) for group in StructureGroup},
            ga={
                "best_fitness": float(stressmark.fitness),
                "evaluations": ga.evaluations,
                "cache_hits": ga.cache_hits,
                "cache_misses": ga.cache_misses,
                "evaluation_seconds": ga.evaluation_seconds,
                "quarantined": ga.quarantined,
                "cataclysm_generations": list(ga.cataclysm_generations),
                "average_fitness_per_generation": ga.average_fitness_trace(),
                "best_fitness_per_generation": ga.best_fitness_trace(),
            },
            provenance=provenance,
        )

    @staticmethod
    def _attach_resilience(provenance: dict, context: ExperimentContext, before: dict) -> None:
        """Record this run's fault-tolerance counter deltas in provenance.

        Backends without fault tolerance report nothing and the key is
        omitted.  Like ``timing``, the block is volatile — the store strips
        it when comparing results for conflicts.
        """
        after = context.backend.failure_counters()
        if not after:
            return
        provenance["resilience"] = {
            key: after.get(key, 0) - before.get(key, 0) for key in after
        }

    def _provenance(self, resolved: ResolvedRun) -> dict:
        return build_provenance(
            resolved.spec,
            config=resolved.config.name,
            fault_rates=resolved.fault_rates.name,
            fitness=resolved.fitness.name,
            scale=resolved.scale.name,
            jobs=resolved.jobs,
        )

    # -------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release every context (and worker pool) this session created.

        Idempotent: a second ``close`` (server shutdown racing a signal
        handler, ``with`` block around an explicit ``close()``) is a no-op
        instead of re-closing shared pools.  After closing, :meth:`run` and
        :meth:`context_for` raise rather than silently respawning workers.
        """
        if self._closed:
            return
        self._closed = True
        for context in self._owned:
            context.close()
        self._owned.clear()
        self._contexts.clear()
        for backend in self._backends.values():
            backend.close()
        self._backends.clear()
        if self._store is not None and self._owns_store:
            self._store.close()
        self._store = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _replace_fields(current, overrides: Mapping[str, object], datacls, label: str):
    """Apply a nested override mapping to a frozen sub-config dataclass."""
    from dataclasses import fields as dataclass_fields, replace

    known = {f.name for f in dataclass_fields(datacls)}
    for key in overrides:
        if key not in known:
            raise SpecError(f"unknown {label} override field {key!r} (known: {', '.join(sorted(known))})")
    return replace(current, **dict(overrides))


def _overrides_digest(overrides: Mapping[str, object]) -> str:
    canonical = json.dumps(overrides, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:8]
