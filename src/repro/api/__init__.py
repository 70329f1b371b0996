"""Declarative run API: component registries, RunSpec/RunResult, Session.

The one request/response surface shared by the CLI, the experiment drivers,
the bench harness and any future service front-end:

* :mod:`repro.api.registry` — named registries of machine configs,
  fault-rate models, workload suites, fitness objectives and scales
  (stock components installed on import).
* :mod:`repro.api.spec` — JSON-serializable :class:`RunSpec` requests
  (``simulate`` / ``stressmark`` / ``sweep``) and round-trippable
  :class:`RunResult` responses with content-addressed provenance.
* :mod:`repro.api.session` — the :class:`Session` facade that resolves
  specs against the registries and launches the simulations.
* :mod:`repro.api.presets` — the canned spec behind each figure/table.

Quickstart::

    from repro.api import RunSpec, Session

    spec = RunSpec(kind="stressmark", config="config_a", fault_rates="rhc")
    with Session(jobs=4) as session:
        result = session.run(spec)
    result.save("stressmark_rhc.json")
"""

from repro.api import components as _components  # noqa: F401  (installs registries)
from repro.api.presets import comparison_spec, preset_names, preset_spec
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
from repro.api.session import ResolvedRun, Session
from repro.api.spec import RUN_KINDS, RunResult, RunSpec, SpecError

__all__ = [
    "Registry",
    "RegistryError",
    "registries",
    "CONFIGS",
    "FAULT_RATES",
    "WORKLOAD_SUITES",
    "FITNESS_OBJECTIVES",
    "SCALES",
    "RUN_KINDS",
    "RunSpec",
    "RunResult",
    "SpecError",
    "Session",
    "ResolvedRun",
    "preset_names",
    "preset_spec",
    "comparison_spec",
]
