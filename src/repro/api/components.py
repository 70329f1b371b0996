"""Stock component registrations for the run API.

Importing this module (which ``repro.api`` does eagerly) installs every
component the repository ships into the registries of
:mod:`repro.api.registry`:

* machine configs — the paper's ``baseline`` (Table I) and ``config_a``
  (Table II), plus ``extended`` (baseline + the flag-gated store buffer and
  L2 TLB structures; see ARCHITECTURE.md),
* fault-rate models — ``unit``, ``rhc``, ``edr`` (Figure 8a),
* workload suites — ``spec_int``, ``spec_fp``, ``mibench`` and the combined
  ``all`` (the 33 proxies),
* fitness objectives — ``balanced``, ``overall``, ``core_only``,
* experiment scales — ``quick``, ``default``, ``paper``,
* evaluation backends — ``serial``, ``resilient``.

Registration lives here rather than on the defining modules so the core
packages stay import-cycle-free; user code extends the same registries with
the ``Registry.register`` decorator.
"""

from __future__ import annotations

from typing import Optional

from repro.api.registry import (
    BACKENDS,
    CONFIGS,
    FAULT_RATES,
    FITNESS_OBJECTIVES,
    SCALES,
    WORKLOAD_SUITES,
)
from repro.experiments.runner import ExperimentScale
from repro.parallel.backends import SerialBackend, resolve_jobs
from repro.parallel.resilience import FailurePolicy, ResilientPoolBackend
from repro.stressmark.fitness import FitnessFunction
from repro.uarch.config import baseline_config, config_a, extended_config
from repro.uarch.faultrates import edr_fault_rates, rhc_fault_rates, unit_fault_rates
from repro.workloads.suite import (
    all_profiles,
    mibench_profiles,
    spec_fp_profiles,
    spec_int_profiles,
)

_installed = False


def install_default_components() -> None:
    """Populate the registries with the repository's stock components (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True

    CONFIGS.register("baseline", baseline_config)
    CONFIGS.register("config_a", config_a)
    CONFIGS.register("extended", extended_config)

    FAULT_RATES.register("unit", unit_fault_rates)
    FAULT_RATES.register("rhc", rhc_fault_rates)
    FAULT_RATES.register("edr", edr_fault_rates)

    WORKLOAD_SUITES.register("spec_int", spec_int_profiles)
    WORKLOAD_SUITES.register("spec_fp", spec_fp_profiles)
    WORKLOAD_SUITES.register("mibench", mibench_profiles)
    WORKLOAD_SUITES.register("all", all_profiles)

    FITNESS_OBJECTIVES.register("balanced", FitnessFunction.balanced)
    FITNESS_OBJECTIVES.register("overall", FitnessFunction.overall)
    FITNESS_OBJECTIVES.register("core_only", FitnessFunction.core_only)

    SCALES.register("quick", ExperimentScale.quick)
    SCALES.register("default", ExperimentScale.default)
    SCALES.register("paper", ExperimentScale.paper)

    BACKENDS.register("serial", _serial_backend)
    BACKENDS.register("resilient", _resilient_backend)


def _serial_backend(jobs: Optional[int] = None) -> SerialBackend:
    """In-process evaluation regardless of the requested worker count."""
    return SerialBackend()


def _resilient_backend(jobs: Optional[int] = None) -> ResilientPoolBackend:
    """Fault-tolerant pool with ``jobs`` workers; retry policy from ``REPRO_RETRY_*``."""
    return ResilientPoolBackend(resolve_jobs(jobs), policy=FailurePolicy.from_env())


install_default_components()
