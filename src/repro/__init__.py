"""AVF Stressmark reproduction library.

Reproduction of "AVF Stressmark: Towards an Automated Methodology for Bounding
the Worst-Case Vulnerability to Soft Errors" (Nair, John, Eeckhout — MICRO
2010): an AVF-capable out-of-order processor model, ACE/lifetime analysis, a
knob-driven stressmark code generator, and a genetic algorithm that searches
the knob space to approach the worst-case observable SER.

Public API highlights
---------------------
``repro.uarch.baseline_config`` / ``config_a``
    The paper's machine configurations (Tables I and II).
``repro.uarch.OutOfOrderCore``
    Cycle-level simulator with ACE accounting.
``repro.avf.build_report``
    Per-structure AVF and grouped SER (units/bit) reports.
``repro.vuln``
    The pluggable vulnerability model: the ``STRUCTURES`` descriptor
    registry and the unified ``VulnerabilityLedger`` (ARCHITECTURE.md).
``repro.stressmark.StressmarkGenerator``
    GA-driven stressmark generation (the paper's primary contribution).
``repro.workloads``
    Synthetic SPEC CPU2006 / MiBench workload proxies used as the coverage
    baseline.
``repro.experiments``
    One driver per paper table and figure.
``repro.api``
    The declarative run API: component registries, JSON-serializable
    ``RunSpec`` requests / ``RunResult`` responses, and the ``Session``
    facade every front-end routes simulations through.
"""

from repro.avf import StructureGroup, build_report
from repro.uarch import (
    MachineConfig,
    OutOfOrderCore,
    baseline_config,
    config_a,
    edr_fault_rates,
    rhc_fault_rates,
    unit_fault_rates,
)

__version__ = "1.2.0"


def package_version() -> str:
    """The installed package version, falling back to the source tree's.

    Prefers importlib metadata (what ``pip install`` recorded) so a stale
    install is visible as a skew against a newer checkout; the daemon's
    ``ping`` response and ``repro --version`` both report this value.
    """
    try:
        from importlib.metadata import version

        return version("repro-avf-stressmark")
    except Exception:
        # Uninstalled source-tree runs (PYTHONPATH=src) have no metadata.
        return __version__

from repro.api import (  # noqa: E402  (api imports repro submodules, keep last)
    CONFIGS,
    FAULT_RATES,
    FITNESS_OBJECTIVES,
    SCALES,
    WORKLOAD_SUITES,
    Registry,
    RegistryError,
    RunResult,
    RunSpec,
    Session,
    SpecError,
    registries,
)
from repro.store import (  # noqa: E402  (store imports the api, keep last)
    ResultStore,
    StoreError,
    merge_stores,
    open_store,
)
from repro.vuln import (  # noqa: E402
    STRUCTURES,
    StructureName,
    VulnerabilityLedger,
    VulnerableStructure,
    register_structure,
)
from repro.serve import (  # noqa: E402  (serve imports the api, keep last)
    RemoteError,
    RemoteRunError,
    ReproServer,
    ServeClient,
)

__all__ = [
    "StructureGroup",
    "build_report",
    "STRUCTURES",
    "StructureName",
    "VulnerabilityLedger",
    "VulnerableStructure",
    "register_structure",
    "MachineConfig",
    "OutOfOrderCore",
    "baseline_config",
    "config_a",
    "unit_fault_rates",
    "rhc_fault_rates",
    "edr_fault_rates",
    "Session",
    "RunSpec",
    "RunResult",
    "SpecError",
    "Registry",
    "RegistryError",
    "registries",
    "CONFIGS",
    "FAULT_RATES",
    "WORKLOAD_SUITES",
    "FITNESS_OBJECTIVES",
    "SCALES",
    "ResultStore",
    "StoreError",
    "merge_stores",
    "open_store",
    "ReproServer",
    "ServeClient",
    "RemoteError",
    "RemoteRunError",
    "package_version",
    "__version__",
]
