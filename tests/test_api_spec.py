"""Tests for RunSpec / RunResult serialization, validation and sweeps."""

from __future__ import annotations

import json

import pytest

from repro.api.spec import RUN_KINDS, RunResult, RunSpec, SpecError
from repro.registry import RegistryError


def tiny_stressmark_spec(**overrides) -> RunSpec:
    kwargs = dict(
        kind="stressmark",
        name="tiny",
        scale_overrides={"stressmark_instructions": 2_000, "ga_population": 4, "ga_generations": 2},
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestRunSpecRoundTrip:
    def test_json_round_trip_preserves_digest(self):
        spec = tiny_stressmark_spec(fault_rates="rhc", seed=11)
        reloaded = RunSpec.from_json(spec.to_json())
        assert reloaded == spec
        assert reloaded.digest == spec.digest

    def test_sparse_dict_fills_defaults(self):
        spec = RunSpec.from_json_dict({"kind": "simulate"})
        assert spec.config == "baseline"
        assert spec.fault_rates == "unit"
        assert spec.scale == "quick"
        assert spec.suites == ()

    def test_sparse_and_full_forms_share_a_digest(self):
        sparse = RunSpec.from_json_dict({"kind": "simulate", "suites": ["mibench"]})
        full = RunSpec(kind="simulate", suites=("mibench",))
        assert sparse.digest == full.digest

    def test_digest_changes_with_content(self):
        assert tiny_stressmark_spec().digest != tiny_stressmark_spec(fault_rates="rhc").digest

    def test_file_round_trip(self, tmp_path):
        spec = tiny_stressmark_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert RunSpec.load(path).digest == spec.digest

    def test_sweep_round_trip(self):
        sweep = RunSpec(
            kind="sweep",
            name="s",
            base=tiny_stressmark_spec(),
            axes={"fault_rates": ("unit", "rhc")},
            runs=(RunSpec(kind="simulate", suites=("mibench",)),),
        )
        reloaded = RunSpec.from_json(sweep.to_json())
        assert reloaded == sweep
        assert reloaded.digest == sweep.digest


class TestRunSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown run kind"):
            RunSpec(kind="simulat").validate()

    def test_kind_suggestion(self):
        with pytest.raises(SpecError, match="did you mean 'simulate'"):
            RunSpec(kind="simulat").validate()
        assert "simulate" in RUN_KINDS

    def test_unknown_component_name_propagates_registry_error(self):
        with pytest.raises(KeyError, match="did you mean 'rhc'"):
            RunSpec(kind="stressmark", fault_rates="rch").validate()
        # The removed ``process`` backend is an unknown name like any other.
        with pytest.raises(RegistryError, match=r"\(registered: serial, resilient\)"):
            RunSpec(kind="simulate", backend="process").validate()

    def test_unknown_spec_field_suggestion(self):
        with pytest.raises(SpecError, match="unknown spec field 'fault_rate'"):
            RunSpec.from_json_dict({"kind": "simulate", "fault_rate": "rhc"})

    def test_unknown_config_override_field(self):
        with pytest.raises(SpecError, match="unknown config_overrides field 'rob_entrys'"):
            RunSpec(kind="simulate", config_overrides={"rob_entrys": 99}).validate()

    def test_unknown_scale_override_field(self):
        with pytest.raises(SpecError, match="unknown scale_overrides field"):
            RunSpec(kind="simulate", scale_overrides={"ga_pop": 4}).validate()

    def test_missing_kind(self):
        with pytest.raises(SpecError, match="needs a 'kind'"):
            RunSpec.from_json_dict({"config": "baseline"})

    def test_bad_jobs(self):
        with pytest.raises(SpecError, match="jobs"):
            RunSpec(kind="simulate", jobs=0).validate()

    def test_sweep_fields_rejected_on_leaf_kinds(self):
        with pytest.raises(SpecError, match="only valid for kind='sweep'"):
            RunSpec(kind="simulate", axes={"fault_rates": ("unit",)},
                    base=RunSpec(kind="simulate")).validate()


class TestSweeps:
    def test_axes_product_expansion_order(self):
        sweep = RunSpec(
            kind="sweep",
            name="grid",
            base=RunSpec(kind="stressmark", name="sm"),
            axes={"config": ("baseline", "config_a"), "fault_rates": ("unit", "rhc")},
        )
        children = sweep.expand()
        assert [(c.config, c.fault_rates) for c in children] == [
            ("baseline", "unit"), ("baseline", "rhc"),
            ("config_a", "unit"), ("config_a", "rhc"),
        ]
        assert children[0].name == "sm[config=baseline,fault_rates=unit]"

    def test_explicit_runs_follow_axes_children(self):
        extra = RunSpec(kind="simulate", name="extra", suites=("mibench",))
        sweep = RunSpec(
            kind="sweep",
            base=RunSpec(kind="stressmark"),
            axes={"fault_rates": ("unit",)},
            runs=(extra,),
        )
        children = sweep.expand()
        assert len(children) == 2
        assert children[-1] == extra

    def test_sweep_without_axes_or_runs(self):
        with pytest.raises(SpecError, match="needs 'axes'"):
            RunSpec(kind="sweep").validate()

    def test_axes_without_base(self):
        with pytest.raises(SpecError, match="needs a 'base'"):
            RunSpec(kind="sweep", axes={"fault_rates": ("unit",)}).validate()

    def test_unsweepable_axis(self):
        with pytest.raises(SpecError, match="cannot sweep over field 'jobs'"):
            RunSpec(kind="sweep", base=RunSpec(kind="stressmark"),
                    axes={"jobs": (1, 2)}).validate()

    def test_nested_sweep_rejected(self):
        with pytest.raises(SpecError, match="cannot nest"):
            RunSpec(kind="sweep", runs=(RunSpec(kind="sweep", runs=(RunSpec(kind="simulate"),)),)).validate()

    def test_leaf_expand_returns_itself(self):
        spec = RunSpec(kind="simulate")
        assert spec.expand() == [spec]

    def test_sweep_level_component_fields_rejected(self):
        """Leaf fields on a sweep would be silently ignored — fail loudly."""
        with pytest.raises(SpecError, match="'fault_rates' is ignored on a sweep"):
            RunSpec(kind="sweep", fault_rates="rhc",
                    runs=(RunSpec(kind="stressmark"),)).validate()
        with pytest.raises(SpecError, match="'scale_overrides' is ignored on a sweep"):
            RunSpec(kind="sweep", scale_overrides={"ga_population": 4},
                    runs=(RunSpec(kind="stressmark"),)).validate()

    def test_sweep_jobs_and_backend_inherited_by_children(self):
        sweep = RunSpec(
            kind="sweep",
            jobs=3,
            backend="serial",
            base=RunSpec(kind="stressmark"),
            axes={"fault_rates": ("unit",)},
            runs=(RunSpec(kind="simulate", jobs=2, backend="resilient"),),
        )
        axis_child, explicit_child = sweep.expand()
        assert axis_child.jobs == 3 and axis_child.backend == "serial"
        # Children with their own settings keep them.
        assert explicit_child.jobs == 2 and explicit_child.backend == "resilient"


class TestRunResult:
    def test_round_trip(self):
        spec = tiny_stressmark_spec()
        result = RunResult(
            spec=spec,
            rows=[{"program": "x", "ipc": 1.5}],
            knobs={"Loop Size": 81},
            ser={"qs": 0.5},
            ga={"evaluations": 8},
            timing={"seconds": 0.1},
            provenance={"spec_digest": spec.digest, "repro_version": "1.1.0"},
        )
        reloaded = RunResult.from_json(result.to_json())
        assert reloaded.spec == spec
        assert reloaded.rows == result.rows
        assert reloaded.knobs == result.knobs
        assert reloaded.spec_digest == spec.digest

    def test_round_trip_with_children(self, tmp_path):
        child_spec = RunSpec(kind="simulate", suites=("mibench",))
        sweep_spec = RunSpec(kind="sweep", runs=(child_spec,))
        child = RunResult(spec=child_spec, rows=[{"program": "y"}])
        result = RunResult(spec=sweep_spec, rows=[{"program": "y"}], children=[child])
        path = tmp_path / "result.json"
        result.save(path)
        reloaded = RunResult.load(path)
        assert len(reloaded.children) == 1
        assert reloaded.children[0].spec == child_spec

    def test_json_output_is_plain_data(self):
        result = RunResult(spec=RunSpec(kind="simulate"), rows=[{"a": 1.0}])
        json.loads(result.to_json())  # must not raise
