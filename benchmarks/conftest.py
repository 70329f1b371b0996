"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
expensive artefacts (the 33 workload simulations and the GA-generated
stressmarks per fault-rate scenario) are shared through a session-scoped
:class:`ExperimentContext` so the full harness runs in minutes at the default
``quick`` scale.  Set ``REPRO_BENCH_SCALE=default`` for a higher-fidelity run
(see EXPERIMENTS.md for the scales used in the recorded results) and
``REPRO_JOBS=N`` to fan the independent simulations out over N worker
processes (results are identical for any worker count).

The active scale and job count are printed once per session in the pytest
header so recorded figures are attributable to their settings.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.runner import ExperimentContext, ExperimentScale
from repro.parallel.backends import resolve_jobs


def _scale_from_environment() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if name == "default":
        return ExperimentScale.default()
    if name == "paper":
        return ExperimentScale.paper()
    return ExperimentScale.quick()


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "perf_smoke: performance regression gate (run via `make bench-smoke` "
        "or REPRO_PERF_SMOKE=1; see PERFORMANCE.md)",
    )
    config.addinivalue_line(
        "markers",
        "specs_smoke: example-spec validation gate (run via `make specs-smoke` "
        "or REPRO_SPECS_SMOKE=1; see EXPERIMENTS.md)",
    )
    config.addinivalue_line(
        "markers",
        "store_smoke: result-store persistence gate — interrupt/resume/shard/merge "
        "round trips (run via `make store-smoke` or REPRO_STORE_SMOKE=1; see "
        "EXPERIMENTS.md)",
    )
    config.addinivalue_line(
        "markers",
        "avf_smoke: AVF golden-file gate — per-structure AVF/SER byte-compared "
        "against benchmarks/golden_avf.json (run via `make avf-smoke` or "
        "REPRO_AVF_SMOKE=1; regenerate via `make avf-golden`)",
    )
    config.addinivalue_line(
        "markers",
        "kernel_smoke: vector-plane gate — vector/interpreter parity on the "
        "golden matrix plus a same-run vector-over-interpreter speedup floor "
        "(run via `make kernel-smoke` or REPRO_KERNEL_SMOKE=1; see PERFORMANCE.md)",
    )
    config.addinivalue_line(
        "markers",
        "batch_smoke: population-plane gate — population AVF/SER byte-compared "
        "between the vector plane (fast mode included) and the interpreter, "
        "plus one same-run vector-over-interpreter speedup floor (run via "
        "`make batch-smoke` or REPRO_BATCH_SMOKE=1; see PERFORMANCE.md)",
    )
    config.addinivalue_line(
        "markers",
        "chaos_smoke: fault-tolerance gate — GA under injected worker kills "
        "and torn store writes byte-compared against a clean serial run (run "
        "via `make chaos-smoke` or REPRO_CHAOS_SMOKE=1; see ARCHITECTURE.md)",
    )
    config.addinivalue_line(
        "markers",
        "serve_smoke: evaluation-service gate — real `repro serve` daemon, "
        "remote results byte-compared against local runs, concurrent clients, "
        "clean shutdown (run via `make serve-smoke` or REPRO_SERVE_SMOKE=1; "
        "see EXPERIMENTS.md)",
    )
    config.addinivalue_line(
        "markers",
        "serve_chaos_smoke: durable-service gate — daemon SIGKILLed mid-queue "
        "and restarted on the same journal with zero digest loss, chaos-hung "
        "evaluations quarantined by the watchdog, random connection drops "
        "survived by client failover (run via `make serve-chaos-smoke` or "
        "REPRO_SERVE_CHAOS_SMOKE=1; see EXPERIMENTS.md)",
    )


def pytest_report_header(config: pytest.Config) -> str:
    scale = _scale_from_environment()
    return (
        f"repro benchmarks: scale={scale.name} "
        f"(workload={scale.workload_instructions} / stressmark={scale.stressmark_instructions} insns, "
        f"GA {scale.ga_population}x{scale.ga_generations}) jobs={resolve_jobs()}"
    )


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return _scale_from_environment()


@pytest.fixture(scope="session")
def bench_context(bench_scale: ExperimentScale):
    context = ExperimentContext(bench_scale, jobs=resolve_jobs())
    yield context
    context.close()
