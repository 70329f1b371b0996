"""Tests for the component registries of the run API."""

from __future__ import annotations

import pytest

from repro.api.registry import (
    CONFIGS,
    FAULT_RATES,
    FITNESS_OBJECTIVES,
    SCALES,
    WORKLOAD_SUITES,
    Registry,
    RegistryError,
    registries,
)


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("plain", lambda: "plain-widget")
        assert registry.get("plain")() == "plain-widget"
        assert "plain" in registry
        assert registry.names() == ["plain"]

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("fancy")
        def make_fancy():
            return "fancy-widget"

        assert registry.create("fancy") == "fancy-widget"
        assert make_fancy() == "fancy-widget"  # decorator returns the factory

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("w", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("w", lambda: 2)
        registry.register("w", lambda: 2, replace=True)
        assert registry.create("w") == 2

    def test_insertion_order_preserved(self):
        registry = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, lambda: None)
        assert registry.names() == ["zeta", "alpha", "mid"]

    def test_invalid_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.register("", lambda: None)

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("w", lambda: 1)
        registry.unregister("w")
        assert "w" not in registry
        registry.unregister("w")  # idempotent


class TestRegistryErrors:
    def test_unknown_name_suggests_nearest_match(self):
        with pytest.raises(RegistryError) as excinfo:
            CONFIGS.get("basline")
        assert "unknown machine config 'basline'" in str(excinfo.value)
        assert "did you mean 'baseline'?" in str(excinfo.value)
        assert excinfo.value.suggestion == "baseline"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(RegistryError) as excinfo:
            FAULT_RATES.get("nonsense_xyz")
        assert "unit" in str(excinfo.value) and "rhc" in str(excinfo.value)

    def test_registry_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            SCALES.get("warp")


class TestDefaultComponents:
    def test_all_stock_components_registered(self):
        assert CONFIGS.names() == ["baseline", "config_a", "extended"]
        assert FAULT_RATES.names() == ["unit", "rhc", "edr"]
        assert WORKLOAD_SUITES.names() == ["spec_int", "spec_fp", "mibench", "all"]
        assert FITNESS_OBJECTIVES.names() == ["balanced", "overall", "core_only"]
        assert SCALES.names() == ["quick", "default", "paper"]

    def test_factories_build_the_canonical_objects(self):
        assert CONFIGS.create("config_a").rob_entries == 96
        assert FAULT_RATES.create("edr").name == "edr"
        assert len(WORKLOAD_SUITES.create("all")) == 33
        assert SCALES.create("paper").ga_population == 50
        fitness = FITNESS_OBJECTIVES.create("core_only", FAULT_RATES.create("unit"))
        assert fitness.name == "core_only"

    def test_registries_mapping_covers_every_registry(self):
        mapping = registries()
        assert set(mapping) == {
            "config", "fault_rates", "suite", "fitness", "scale", "structures",
        }
        assert mapping["config"] is CONFIGS

    def test_structure_registry_is_exposed(self):
        from repro.vuln import STRUCTURES

        assert registries()["structures"] is STRUCTURES
        assert STRUCTURES.names()[:8] == [
            "iq", "rob", "lq_tag", "lq_data", "sq_tag", "sq_data", "rf", "fu",
        ]
