"""Tests for the content-addressed fitness memoization cache."""

from __future__ import annotations

from repro.ga.engine import GAParameters, GeneticAlgorithm
from repro.ga.genes import GeneSpace, IntGene
from repro.ga.individual import Individual
from repro.parallel.cache import FitnessCache, evaluation_context_digest, genome_digest


class TestGenomeDigest:
    def test_stable_and_order_insensitive(self):
        assert genome_digest({"a": 1, "b": 2}) == genome_digest({"b": 2, "a": 1})

    def test_distinct_genomes_distinct_keys(self):
        assert genome_digest({"a": 1}) != genome_digest({"a": 2})
        assert genome_digest({"a": 1}) != genome_digest({"b": 1})

    def test_type_sensitive(self):
        # 1 and 1.0 are different genome values and must not collide.
        assert genome_digest({"a": 1}) != genome_digest({"a": 1.0})

    def test_context_separates_entries(self):
        assert genome_digest({"a": 1}, "ctx1") != genome_digest({"a": 1}, "ctx2")

    def test_context_digest_varies_with_components(self):
        assert evaluation_context_digest("cfg", 8000) != evaluation_context_digest("cfg", 4000)


class TestFitnessCache:
    def test_hit_and_miss_accounting(self):
        cache = FitnessCache()
        assert cache.lookup({"a": 1}) is None
        cache.store({"a": 1}, 2.5, {"tag": "x"})
        hit = cache.lookup({"a": 1})
        assert hit == (2.5, {"tag": "x"})
        assert cache.lookup({"a": 2}) is None
        keys = [cache.key_for({"a": 1}), cache.key_for({"a": 2})]
        # A batched lookup returns the hits only.
        assert cache.lookup_many(keys) == {keys[0]: (2.5, {"tag": "x"})}

    def test_equal_fitness_does_not_collide(self):
        """Two distinct genomes with the same fitness stay separate entries."""
        cache = FitnessCache()
        cache.store({"a": 1}, 7.0, {"who": "first"})
        cache.store({"a": 2}, 7.0, {"who": "second"})
        assert len(cache) == 2
        assert cache.lookup({"a": 1}) == (7.0, {"who": "first"})
        assert cache.lookup({"a": 2}) == (7.0, {"who": "second"})

    def test_payload_isolated_from_caller_mutation(self):
        cache = FitnessCache()
        payload = {"k": "v"}
        cache.store({"a": 1}, 1.0, payload)
        payload["k"] = "mutated"
        fitness, cached_payload = cache.lookup({"a": 1})
        assert cached_payload == {"k": "v"}
        cached_payload["k"] = "mutated-too"
        assert cache.lookup({"a": 1})[1] == {"k": "v"}

    def test_clear_resets_entries_and_stats(self):
        cache = FitnessCache()
        cache.store({"a": 1}, 1.0)
        cache.lookup({"a": 1})
        cache.lookup({"a": 2})
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup({"a": 1}) is None
        assert cache.lookup_many([cache.key_for({"a": 1})]) == {}

    def test_max_entries_evicts_oldest(self):
        cache = FitnessCache(max_entries=2)
        cache.store({"a": 1}, 1.0)
        cache.store({"a": 2}, 2.0)
        cache.store({"a": 3}, 3.0)
        assert len(cache) == 2
        assert cache.lookup({"a": 1}) is None
        assert cache.lookup({"a": 3}) == (3.0, {})


class TestEngineMemoization:
    SPACE = GeneSpace([IntGene("x", 0, 3)])

    def test_duplicate_genomes_not_reevaluated(self):
        calls: list[dict] = []

        def evaluator(individual: Individual) -> float:
            calls.append(dict(individual.genome))
            return float(individual.genome["x"])

        params = GAParameters(population_size=8, generations=6, seed=3, migration_count=0)
        result = GeneticAlgorithm(self.SPACE, evaluator, params).run()
        # Only 4 distinct genomes exist, so the evaluator can run at most 4 times.
        assert len(calls) <= 4
        assert result.evaluations == len(calls)
        assert result.cache_hits > 0
        assert result.cache_misses == len(calls)
        assert result.cache_hit_rate > 0.0

    def test_cache_disabled_reevaluates(self):
        calls = []

        def evaluator(individual: Individual) -> float:
            calls.append(dict(individual.genome))
            return float(individual.genome["x"])

        params = GAParameters(population_size=8, generations=4, seed=3, migration_count=0)
        result = GeneticAlgorithm(
            self.SPACE, evaluator, params, fitness_cache=False
        ).run()
        # No cache: nothing is memoized across generations, so recurring
        # genomes re-evaluate (no cache misses are counted)...
        assert result.cache_misses == 0
        assert result.evaluations == len(calls)
        assert len(calls) > 4  # cross-generation duplicates were re-evaluated
        # ...but duplicates *within* one generation still share a single
        # evaluation (counted as dedup hits), so only 4 distinct genomes can
        # ever run in the same batch.
        assert result.cache_hits > 0
        assert all(calls.count(genome) <= 4 for genome in calls)

    def test_already_evaluated_individuals_skipped_before_submission(self):
        """Elites (already `evaluated`) must never reach the backend or cache."""
        submitted_states: list[list[bool]] = []

        class RecordingBackend:
            jobs = 1

            def evaluate_batch(self, evaluator, individuals):
                submitted_states.append([ind.evaluated for ind in individuals])
                outcomes = []
                for individual in individuals:
                    fitness = evaluator(individual)
                    outcomes.append((float(fitness), individual.payload))
                return outcomes

            def close(self):
                pass

        def evaluator(individual: Individual) -> float:
            return float(individual.genome["x"])

        params = GAParameters(
            population_size=6, generations=4, seed=5, elite_count=2, migration_count=0
        )
        engine = GeneticAlgorithm(
            self.SPACE, evaluator, params, backend=RecordingBackend(), fitness_cache=False
        )
        engine.run()
        # No already-evaluated individual ever reached the backend; duplicate
        # genomes are deduplicated before batch construction, so batches can
        # be smaller than the population; and after generation 0 the
        # carried-over elites are withheld per generation.
        assert all(not state for batch in submitted_states for state in batch)
        assert 1 <= len(submitted_states[0]) <= 6
        for batch in submitted_states[1:]:
            assert len(batch) <= 6 - 2
