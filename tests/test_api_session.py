"""Tests for the Session facade: resolution, execution, round trips."""

from __future__ import annotations

import pytest

from repro.api.presets import children_of_kind, preset_names, preset_spec
from repro.api.session import Session
from repro.api.spec import RunResult, RunSpec, SpecError

TINY_SCALE_OVERRIDES = {
    "workload_instructions": 1_500,
    "stressmark_instructions": 2_000,
    "ga_population": 4,
    "ga_generations": 2,
}


@pytest.fixture(scope="module")
def session():
    with Session() as session:
        yield session


def tiny(kind: str, **overrides) -> RunSpec:
    return RunSpec(kind=kind, scale_overrides=dict(TINY_SCALE_OVERRIDES), **overrides)


class TestResolution:
    def test_resolve_components(self, session):
        resolved = session.resolve(tiny("stressmark", config="config_a", fault_rates="rhc"))
        assert resolved.config.name == "config_a"
        assert resolved.fault_rates.name == "rhc"
        assert resolved.fitness.name == "balanced"
        assert resolved.scale.ga_population == 4

    def test_config_overrides_derive_a_named_variant(self, session):
        spec = tiny("stressmark", config_overrides={"rob_entries": 96})
        config = session.resolve_config(spec)
        assert config.rob_entries == 96
        assert config.name.startswith("baseline+")
        # Content-addressed: same overrides, same derived name.
        assert session.resolve_config(spec).name == config.name

    def test_nested_cache_override(self, session):
        spec = tiny("stressmark", config_overrides={"l2": {"size_bytes": 2 * 1024 * 1024}})
        config = session.resolve_config(spec)
        assert config.l2.size_bytes == 2 * 1024 * 1024
        assert config.l2.line_bytes == 64  # untouched fields preserved

    def test_invalid_nested_override_field(self, session):
        spec = tiny("stressmark", config_overrides={"l2": {"size": 1}})
        with pytest.raises(SpecError, match="unknown l2 override field 'size'"):
            session.resolve_config(spec)

    def test_profiles_from_suites_in_order(self, session):
        profiles = session.resolve_profiles(tiny("simulate", suites=("spec_int", "mibench")))
        assert len(profiles) == 11 + 12
        assert profiles[0].name == "400.perlbench_proxy"

    def test_profiles_default_to_all(self, session):
        assert len(session.resolve_profiles(tiny("simulate"))) == 33

    def test_explicit_workloads(self, session):
        profiles = session.resolve_profiles(tiny("simulate", workloads=("crc32_proxy", "sha_proxy")))
        assert [p.name for p in profiles] == ["crc32_proxy", "sha_proxy"]

    def test_unknown_workload_suggests(self, session):
        with pytest.raises(SpecError, match="did you mean 'crc32_proxy'"):
            session.resolve_profiles(tiny("simulate", workloads=("crc32_prox",)))

    def test_duplicate_profiles_deduplicated(self, session):
        profiles = session.resolve_profiles(tiny("simulate", suites=("mibench", "all")))
        names = [p.name for p in profiles]
        assert len(names) == len(set(names)) == 33


class TestSimulateRuns:
    def test_rows_and_provenance(self, session):
        spec = tiny("simulate", workloads=("crc32_proxy",))
        result = session.run(spec)
        assert len(result.rows) == 1
        assert result.rows[0]["program"] == "crc32_proxy"
        assert result.provenance["spec_digest"] == spec.digest
        assert result.provenance["config"] == "baseline"
        assert result.timing["seconds"] > 0

    def test_result_json_round_trip(self, session, tmp_path):
        spec = tiny("simulate", workloads=("crc32_proxy",))
        result = session.run(spec)
        path = tmp_path / "result.json"
        result.save(path)
        reloaded = RunResult.load(path)
        assert reloaded.spec_digest == spec.digest
        assert reloaded.rows == result.rows

    def test_runs_share_the_context_cache(self, session):
        spec = tiny("simulate", workloads=("crc32_proxy",))
        first = session.run(spec)
        second = session.run(spec)
        assert first.rows == second.rows
        # The second run is served from the workload-simulation cache.
        assert second.timing["seconds"] < first.timing["seconds"] + 0.5


class TestStressmarkRuns:
    def test_stressmark_result_payload(self, session):
        spec = tiny("stressmark")
        result = session.run(spec)
        assert len(result.rows) == 1
        assert result.knobs["Loop Size"] > 0
        assert result.ga["evaluations"] > 0
        assert len(result.ga["best_fitness_per_generation"]) == 2
        assert set(result.ser) >= {"qs", "core", "l2"}

    def test_ga_seed_override_changes_search(self, session):
        baseline = session.stressmark_result(tiny("stressmark"))
        reseeded = session.stressmark_result(tiny("stressmark", seed=99))
        assert baseline is not reseeded  # distinct cache entries

    def test_rich_accessor_matches_run(self, session):
        spec = tiny("stressmark")
        rich = session.stressmark_result(spec)
        result = session.run(spec)
        assert result.ga["best_fitness"] == pytest.approx(rich.fitness)

    def test_kind_mismatch_rejected(self, session):
        with pytest.raises(SpecError, match="expected a stressmark spec"):
            session.stressmark_result(tiny("simulate"))
        with pytest.raises(SpecError, match="expected a simulate spec"):
            session.workload_report_set(tiny("stressmark"))


class TestSweepRuns:
    def test_sweep_concatenates_children(self, session):
        sweep = RunSpec(
            kind="sweep",
            name="fr",
            base=tiny("stressmark"),
            axes={"fault_rates": ("unit", "rhc")},
        )
        result = session.run(sweep)
        assert len(result.children) == 2
        assert len(result.rows) == 2
        assert result.children[0].spec.fault_rates == "unit"
        assert result.children[1].spec.fault_rates == "rhc"
        assert result.provenance["runs"] == 2

    def test_sweep_children_share_cached_searches(self, session):
        # The unit/rhc stressmarks ran in the previous test via this module's
        # shared session; re-running the sweep must be nearly free.
        sweep = RunSpec(
            kind="sweep",
            base=tiny("stressmark"),
            axes={"fault_rates": ("unit", "rhc")},
        )
        result = session.run(sweep)
        assert result.timing["seconds"] < 1.0


class TestSessionPinning:
    def test_wrapped_context_is_reused(self, tiny_scale, shared_context):
        session = Session(context=shared_context)
        assert session.context_for(RunSpec(kind="simulate")) is shared_context
        # Pinned scale wins over whatever the spec asks for.
        assert session.resolve_scale(RunSpec(kind="simulate", scale="paper")) is tiny_scale

    def test_pinned_jobs_win_over_spec(self):
        with Session(jobs=1) as session:
            assert session.resolve_jobs(RunSpec(kind="simulate", jobs=4)) == 1

    def test_spec_jobs_used_when_unpinned(self):
        with Session() as session:
            assert session.resolve_jobs(RunSpec(kind="simulate", jobs=3)) == 3

    def test_close_releases_owned_contexts(self):
        session = Session()
        context = session.context_for(RunSpec(kind="simulate"))
        assert context is session.context_for(RunSpec(kind="simulate"))
        session.close()
        assert session._contexts == {}

    def test_close_is_idempotent(self):
        session = Session()
        session.context_for(RunSpec(kind="simulate"))
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # second close (shutdown racing a signal handler) is a no-op

    def test_closed_session_refuses_new_work(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run(RunSpec(kind="simulate", scale_overrides={"workload_instructions": 1500}))
        with pytest.raises(RuntimeError, match="session is closed"):
            session.context_for(RunSpec(kind="simulate"))

    def test_context_manager_closes_once(self):
        with Session() as session:
            session.context_for(RunSpec(kind="simulate"))
            session.close()  # explicit close inside the with block
        assert session.closed

    def test_legacy_backend_keeps_the_spec_retry_policy(self):
        """A spec that named a backend runs the pool its own retry knobs ask for."""
        with Session() as session:
            context = session.context_for({
                "kind": "simulate", "jobs": 2, "backend": "resilient",
                "retries": 5, "task_timeout": 30,
            })
            assert context.backend.policy.retry.max_attempts == 5
            assert context.backend.policy.retry.timeout == 30.0

    def test_legacy_serial_backend_follows_jobs(self):
        """The worker count, not a backend name, decides how a spec runs."""
        with Session() as session:
            context = session.context_for({"kind": "simulate", "jobs": 4, "backend": "serial"})
            assert context.backend.jobs == 4
            assert context is session.context_for({"kind": "simulate", "jobs": 4})


class TestPresets:
    def test_every_preset_validates(self):
        for name in preset_names():
            preset_spec(name).validate()

    def test_comparison_presets_have_both_children(self):
        for name in ("figure3", "figure4", "figure6", "figure7", "table3"):
            spec = preset_spec(name)
            assert children_of_kind(spec, "stressmark")
            assert children_of_kind(spec, "simulate")

    def test_unknown_preset_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'figure3'"):
            preset_spec("figure33")

    def test_figure9_sweeps_configs(self):
        children = preset_spec("figure9").expand()
        assert [child.config for child in children] == ["baseline", "config_a"]
