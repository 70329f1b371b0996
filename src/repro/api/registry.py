"""Named component registries for the declarative run API.

Every pluggable ingredient of an experiment — machine configurations,
circuit-level fault-rate models, workload suites, fitness objectives and
experiment scales — is published in a
:class:`Registry` keyed by a short stable name.  A :class:`~repro.api.spec.
RunSpec` refers to components exclusively by those names, so a scenario is a
JSON document instead of a code change, and the CLI derives its ``choices``
lists from ``Registry.names()`` instead of string literals.

Registering a component::

    from repro.api import CONFIGS

    @CONFIGS.register("my_config")
    def my_config() -> MachineConfig:
        return baseline_config().derive(name="my_config", rob_entries=128)

Lookups of unknown names raise :class:`RegistryError` carrying the nearest
registered name as a suggestion.

The registry *machinery* lives in the dependency-free :mod:`repro.registry`
(re-exported here), so core subsystems — notably the vulnerability-model
structure registry in :mod:`repro.vuln.structures` — use the same classes
without importing the heavy ``repro.api`` package.  The repository's stock
components are installed by :mod:`repro.api.components` when ``repro.api``
is imported.
"""

from __future__ import annotations

from repro.registry import Registry, RegistryError, suggest

__all__ = [
    "Registry",
    "RegistryError",
    "suggest",
    "CONFIGS",
    "FAULT_RATES",
    "WORKLOAD_SUITES",
    "FITNESS_OBJECTIVES",
    "SCALES",
    "registries",
]


#: Machine configurations: ``name -> () -> MachineConfig``.
CONFIGS = Registry("machine config")

#: Circuit-level fault-rate models: ``name -> () -> FaultRateModel``.
FAULT_RATES = Registry("fault-rate model")

#: Workload suites: ``name -> () -> tuple[WorkloadProfile, ...]``.
WORKLOAD_SUITES = Registry("workload suite")

#: Fitness objectives: ``name -> (FaultRateModel) -> FitnessFunction``.
FITNESS_OBJECTIVES = Registry("fitness objective")

#: Experiment scales: ``name -> () -> ExperimentScale``.
SCALES = Registry("experiment scale")


def registries() -> dict[str, Registry]:
    """All component registries keyed by their public spec-field name."""
    # The structure registry lives with the vulnerability model; imported
    # here (not at module top) to keep repro.vuln importable on its own.
    from repro.vuln.structures import STRUCTURES

    return {
        "config": CONFIGS,
        "fault_rates": FAULT_RATES,
        "suite": WORKLOAD_SUITES,
        "fitness": FITNESS_OBJECTIVES,
        "scale": SCALES,
        "structures": STRUCTURES,
    }
