"""Tests for Session/ExperimentContext store integration and sweep sharding."""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec, Session, SpecError
from repro.store import open_store

TINY_SIM = {"workload_instructions": 900}
TINY_GA = {
    "workload_instructions": 900,
    "stressmark_instructions": 1_200,
    "ga_population": 4,
    "ga_generations": 2,
}


def simulate_spec(name: str = "sim", **overrides) -> RunSpec:
    return RunSpec(kind="simulate", name=name, workloads=("crc32_proxy",),
                   scale_overrides={**TINY_SIM, **overrides})


def stressmark_spec(name: str = "sm") -> RunSpec:
    return RunSpec(kind="stressmark", name=name, scale_overrides=dict(TINY_GA))


def sweep_spec() -> RunSpec:
    return RunSpec(
        kind="sweep",
        name="sweep",
        base=simulate_spec("sim"),
        axes={"fault_rates": ("unit", "rhc", "edr")},
        runs=(stressmark_spec(),),
    )


class TestRunWithStore:
    def test_result_persisted_and_replayed(self, tmp_path):
        spec = simulate_spec()
        with Session(store=tmp_path / "store") as session:
            first = session.run(spec)
        with open_store(tmp_path / "store") as store:
            assert spec.digest in store
        with Session(store=tmp_path / "store") as session:
            replayed = session.run(spec)
        assert replayed.to_json() == first.to_json()

    def test_replay_never_simulates(self, tmp_path, monkeypatch):
        spec = simulate_spec()
        with Session(store=tmp_path / "store") as session:
            session.run(spec)

        def explode(*args, **kwargs):  # pragma: no cover - defensive
            raise AssertionError("a stored result must not be re-simulated")

        monkeypatch.setattr("repro.uarch.pipeline.OutOfOrderCore.run", explode)
        with Session(store=tmp_path / "store") as session:
            replayed = session.run(spec)
        assert replayed.rows[0]["program"] == "crc32_proxy"

    def test_stressmark_replay_skips_search(self, tmp_path, monkeypatch):
        spec = stressmark_spec()
        with Session(store=tmp_path / "store") as session:
            first = session.run(spec)
        with open_store(tmp_path / "store") as store:
            keys = store.artifact_store().keys()
        assert keys, "the search result was not persisted"
        # Kernels are memoized in-process only; nothing of them is persisted.
        assert not [key for key in keys if key.startswith("kernel-")]
        monkeypatch.setattr(
            "repro.stressmark.generator.StressmarkGenerator.generate",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("searched again")),
        )
        with Session(store=tmp_path / "store") as session:
            replayed = session.run(spec)
        assert replayed.knobs == first.knobs
        assert replayed.ga == first.ga

    def test_rows_match_storeless_run(self, tmp_path):
        spec = sweep_spec()
        with Session(store=tmp_path / "store") as session:
            stored = session.run(spec)
        with Session() as session:
            fresh = session.run(spec)
        assert json.dumps(stored.rows) == json.dumps(fresh.rows)

    def test_interrupted_sweep_resumes_byte_identically(self, tmp_path):
        """Rows after run -> interrupt -> resume equal an uninterrupted run."""
        spec = sweep_spec()
        children = spec.expand()
        # "Interrupt" after the first two children: only they reach the store.
        with Session(store=tmp_path / "store") as session:
            for child in children[:2]:
                session.run(child)
        with Session(store=tmp_path / "store") as session:
            resumed = session.run(spec)
        with Session() as session:
            uninterrupted = session.run(spec)
        assert json.dumps(resumed.rows) == json.dumps(uninterrupted.rows)

    def test_pinned_scale_keys_never_alias(self, tmp_path):
        """The same spec under different pinned scales stores two results."""
        spec = simulate_spec()
        with Session(store=tmp_path / "store") as session:
            plain = session.run(spec)
        quick = Session(scale="quick", store=tmp_path / "store")
        try:
            pinned = quick.run(spec)
        finally:
            quick.close()
        # spec's own overrides (900 insns) vs pinned quick scale (4000 insns).
        assert plain.rows[0]["instructions"] != pinned.rows[0]["instructions"]
        with open_store(tmp_path / "store") as store:
            assert len(store) == 2

    def test_wrapped_context_session_accepts_store(self, tmp_path):
        from repro.experiments.runner import ExperimentContext, ExperimentScale

        context = ExperimentContext(ExperimentScale.quick())
        try:
            with Session(context=context, store=tmp_path / "store") as session:
                assert session.store is not None
        finally:
            context.close()


class TestContextArtifacts:
    def test_workload_simulations_replay_from_artifacts(self, tmp_path, monkeypatch):
        from repro.experiments.runner import ExperimentContext, ExperimentScale
        from repro.uarch.config import baseline_config
        from repro.workloads.suite import all_profiles

        profile = all_profiles()[0]
        scale = ExperimentScale.quick()
        with open_store(tmp_path / "store") as store:
            context = ExperimentContext(scale, store=store)
            report = context.run_workload(profile, baseline_config())
            context.close()

            monkeypatch.setattr(
                "repro.uarch.pipeline.OutOfOrderCore.run",
                lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-simulated")),
            )
            fresh_context = ExperimentContext(scale, store=store)
            replayed = fresh_context.run_workload(profile, baseline_config())
            fresh_context.close()
        assert replayed.as_row() == report.as_row()

    def test_checkpoint_cleared_after_completed_search(self, tmp_path):
        with Session(store=tmp_path / "store") as session:
            session.run(stressmark_spec())
        checkpoints = list((tmp_path / "store" / "checkpoints").glob("*.ckpt"))
        assert checkpoints == []


class TestRunShard:
    def test_shards_partition_children_round_robin(self, tmp_path):
        spec = sweep_spec()
        with Session(store=tmp_path / "store") as session:
            one = session.run_shard(spec, 1, 2)
            two = session.run_shard(spec, 2, 2)
        children = spec.expand()
        assert len(one.children) + len(two.children) == len(children)
        assert one.provenance["shard"] == "1/2"
        assert one.provenance["total_runs"] == len(children)
        assert [c.spec.name for c in one.children] == [c.name for c in children[0::2]]
        assert [c.spec.name for c in two.children] == [c.name for c in children[1::2]]

    def test_merged_shards_complete_the_sweep(self, tmp_path):
        from repro.store import merge_stores

        spec = sweep_spec()
        with Session(store=tmp_path / "a") as session:
            session.run_shard(spec, 1, 2)
        with Session(store=tmp_path / "b") as session:
            session.run_shard(spec, 2, 2)
        merged, added = merge_stores(tmp_path / "merged", [tmp_path / "a", tmp_path / "b"])
        assert added == len(spec.expand())
        merged.close()

        with Session(store=tmp_path / "merged") as session:
            assembled = session.run(spec)
        with Session() as session:
            fresh = session.run(spec)
        assert json.dumps(assembled.rows) == json.dumps(fresh.rows)

    def test_shard_validation(self, tmp_path):
        with Session() as session:
            with pytest.raises(SpecError, match="only sweeps"):
                session.run_shard(simulate_spec(), 1, 2)
            with pytest.raises(SpecError, match="shard must satisfy"):
                session.run_shard(sweep_spec(), 0, 2)
            with pytest.raises(SpecError, match="shard must satisfy"):
                session.run_shard(sweep_spec(), 3, 2)

    def test_shard_not_stored_under_sweep_digest(self, tmp_path):
        spec = sweep_spec()
        with Session(store=tmp_path / "store") as session:
            session.run_shard(spec, 1, 2)
        with open_store(tmp_path / "store") as store:
            assert spec.digest not in store
