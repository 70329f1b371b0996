"""Tests for the parallel evaluation backends and worker-count resolution."""

from __future__ import annotations

import pytest

from repro.ga.engine import GAParameters, GeneticAlgorithm
from repro.ga.genes import FloatGene, GeneSpace, IntGene
from repro.ga.individual import Individual
from repro.parallel.backends import (
    JOBS_ENV_VAR,
    SerialBackend,
    create_backend,
    resolve_jobs,
)
from repro.parallel.resilience import ResilientPoolBackend

SPACE = GeneSpace([IntGene("a", 0, 50), IntGene("b", 0, 50), FloatGene("c", 0.0, 1.0)])


def sphere_fitness(individual: Individual) -> float:
    """Picklable objective: maximise a + b + 50*c (optimum 150)."""
    genome = individual.genome
    individual.payload["echo"] = genome["a"]
    return float(genome["a"]) + float(genome["b"]) + 50.0 * float(genome["c"])


def _square(value: int) -> int:
    return value * value


class _Scale:
    """Picklable callable whose state the caller may change between maps."""

    def __init__(self, factor: int) -> None:
        self.factor = factor

    def __call__(self, value: int) -> int:
        return self.factor * value


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_invalid_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_floor_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_create_backend_kinds(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert isinstance(create_backend(), SerialBackend)
        backend = create_backend(2)
        assert isinstance(backend, ResilientPoolBackend)
        backend.close()


class TestSerialBackend:
    def test_map_preserves_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_evaluate_individuals_returns_payloads(self):
        individuals = [Individual(genome={"a": 10, "b": 0, "c": 0.0})]
        outcomes = SerialBackend().evaluate_batch(sphere_fitness, individuals)
        assert outcomes == [(10.0, {"echo": 10})]
        # The serial path mutates the caller's individual in place.
        assert individuals[0].payload["echo"] == 10

    def test_empty_batch(self):
        assert SerialBackend().evaluate_batch(sphere_fitness, []) == []


class TestProcessPoolBackend:
    """The process pool every ``jobs > 1`` run uses: ``ResilientPoolBackend``."""

    def test_map_preserves_order(self):
        with ResilientPoolBackend(jobs=2) as backend:
            assert backend.map(_square, list(range(10))) == [n * n for n in range(10)]

    def test_evaluate_matches_serial(self):
        individuals = [
            Individual(genome={"a": a, "b": 50 - a, "c": a / 50.0}) for a in range(6)
        ]
        serial = SerialBackend().evaluate_batch(
            sphere_fitness, [ind.copy() for ind in individuals]
        )
        with ResilientPoolBackend(jobs=2) as backend:
            parallel = backend.evaluate_batch(
                sphere_fitness, [ind.copy() for ind in individuals]
            )
        assert serial == parallel

    def test_pool_reused_across_calls(self):
        with ResilientPoolBackend(jobs=2) as backend:
            backend.map(_square, [1, 2])
            pids = [worker.process.pid for worker in backend._workers]
            backend.map(_square, [3, 4])
            assert [worker.process.pid for worker in backend._workers] == pids

    def test_workers_run_the_callable_each_task_carries(self):
        """Workers keep no copy of a callable: a changed evaluator is seen."""
        scale = _Scale(2)
        with ResilientPoolBackend(jobs=2) as backend:
            assert backend.map(scale, [1, 2, 3]) == [2, 4, 6]
            scale.factor = 10
            assert backend.map(scale, [1, 2, 3]) == [10, 20, 30]

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ResilientPoolBackend(jobs=0)


class TestSeedStability:
    """Same GA seed must give identical results for any worker count."""

    def test_one_vs_four_workers_identical(self):
        params = GAParameters(population_size=10, generations=5, seed=2010)
        serial_result = GeneticAlgorithm(
            SPACE, sphere_fitness, params, backend=SerialBackend()
        ).run()
        with ResilientPoolBackend(jobs=4) as backend:
            parallel_result = GeneticAlgorithm(
                SPACE, sphere_fitness, params, backend=backend
            ).run()

        assert serial_result.best.genome == parallel_result.best.genome
        assert serial_result.best_fitness == parallel_result.best_fitness
        assert serial_result.history == parallel_result.history
        assert serial_result.evaluations == parallel_result.evaluations
        assert serial_result.cache_hits == parallel_result.cache_hits
