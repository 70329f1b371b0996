"""Tests for the artifact store and the persistent fitness cache."""

from __future__ import annotations

import pytest

from repro.store import ArtifactStore, PersistentFitnessCache, artifact_key


class TestArtifactKey:
    def test_stable_across_calls(self):
        assert artifact_key("a", 1, 2.5) == artifact_key("a", 1, 2.5)

    def test_distinguishes_parts(self):
        assert artifact_key("a", 1) != artifact_key("a", 2)
        assert artifact_key("a", 1) != artifact_key("b", 1)
        assert artifact_key("a", 1) != artifact_key("a", "1")


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        with ArtifactStore(tmp_path / "artifacts.sqlite") as store:
            store.put("k", {"nested": [1, 2, 3]})
            assert store.get("k") == {"nested": [1, 2, 3]}
            assert "k" in store
            assert len(store) == 1
            assert store.keys() == ["k"]

    def test_miss_is_none(self, tmp_path):
        with ArtifactStore(tmp_path / "artifacts.sqlite") as store:
            assert store.get("missing") is None
            assert "missing" not in store

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "artifacts.sqlite"
        with ArtifactStore(path) as store:
            store.put("k", (1.5, "payload"))
        with ArtifactStore(path) as reopened:
            assert reopened.get("k") == (1.5, "payload")

    def test_last_write_wins(self, tmp_path):
        with ArtifactStore(tmp_path / "artifacts.sqlite") as store:
            store.put("k", 1)
            store.put("k", 2)
            assert store.get("k") == 2
            assert len(store) == 1


class TestPersistentFitnessCache:
    def test_write_through_and_cross_instance_hit(self, tmp_path):
        path = tmp_path / "fitness.sqlite"
        with PersistentFitnessCache(path, context_digest="ctx") as cache:
            cache.store({"x": 1}, 0.5, {"report": "r"})
        with PersistentFitnessCache(path, context_digest="ctx") as fresh:
            key = fresh.key_for({"x": 1})
            assert key not in fresh  # nothing in memory yet: a disk hit
            hit = fresh.lookup({"x": 1})
            assert hit == (0.5, {"report": "r"})
            # The hit was promoted: the second lookup is served from memory.
            assert key in fresh
            assert fresh.lookup({"x": 1}) == (0.5, {"report": "r"})
        with PersistentFitnessCache(path, context_digest="ctx") as batched:
            key = batched.key_for({"x": 1})
            assert batched.lookup_many([key, batched.key_for({"x": 2})]) == {
                key: (0.5, {"report": "r"})
            }
            assert key in batched

    def test_context_digests_never_alias(self, tmp_path):
        path = tmp_path / "fitness.sqlite"
        with PersistentFitnessCache(path, context_digest="ctx_a") as cache:
            cache.store({"x": 1}, 0.5)
        with PersistentFitnessCache(path, context_digest="ctx_b") as other:
            assert other.lookup({"x": 1}) is None

    def test_payload_isolation(self, tmp_path):
        with PersistentFitnessCache(tmp_path / "fitness.sqlite") as cache:
            cache.store({"x": 1}, 0.5, {"list": "a"})
            _, payload = cache.lookup({"x": 1})
            payload["list"] = "mutated"
            assert cache.lookup({"x": 1})[1] == {"list": "a"}

    def test_max_entries_bounds_memory_not_disk(self, tmp_path):
        with PersistentFitnessCache(tmp_path / "fitness.sqlite", max_entries=1) as cache:
            key_a = cache.store({"x": 1}, 1.0)
            key_b = cache.store({"x": 2}, 2.0)
            # key_a was evicted from memory (FIFO, max_entries=1)...
            assert key_a not in cache
            assert key_b in cache
            # ...but the disk layer still serves it.
            assert cache.lookup({"x": 1}) == (1.0, {})
            assert key_a in cache  # promoted back into memory

    def test_shared_store_object_not_closed(self, tmp_path):
        store = ArtifactStore(tmp_path / "fitness.sqlite")
        cache = PersistentFitnessCache(store, context_digest="ctx")
        cache.store({"x": 1}, 0.5)
        cache.close()  # must not close the caller-owned store
        assert store.get(cache.key_for({"x": 1})) == (0.5, {})
        store.close()

    def test_miss_counted_once(self, tmp_path):
        with PersistentFitnessCache(tmp_path / "fitness.sqlite") as cache:
            assert cache.lookup({"x": 1}) is None
            assert cache.lookup_many([cache.key_for({"x": 1})]) == {}
            assert len(cache) == 0  # a miss promotes nothing


class TestGeneratorIntegration:
    def test_stressmark_generator_reuses_disk_cache(self, tmp_path):
        """A second GA run over the same genomes re-simulates nothing."""
        from repro.ga.engine import GAParameters
        from repro.stressmark.generator import StressmarkGenerator
        from repro.uarch.config import baseline_config

        store = ArtifactStore(tmp_path / "fitness.sqlite")
        params = GAParameters(population_size=4, generations=2, seed=9)

        def run():
            generator = StressmarkGenerator(
                config=baseline_config(),
                ga_parameters=params,
                max_instructions=1_200,
                fitness_store=store,
            )
            return generator.generate()

        first = run()
        second = run()
        assert second.knobs == first.knobs
        assert second.fitness == first.fitness
        # Every evaluation of the second run is a (disk-served) cache hit.
        assert second.ga_result.evaluations == 0
        assert second.ga_result.cache_hits == (
            first.ga_result.cache_hits + first.ga_result.cache_misses
        )
        store.close()
