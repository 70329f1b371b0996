"""Population-plane gate (tier-2 ``batch_smoke``).

Four checks on the planes GA populations run through (ARCHITECTURE.md,
"Batch evaluation plane" and "Vector kernel plane"):

* **Vector parity** — one GA-generation-shaped population of derived
  stressmarks per config is simulated through the ``vector`` backend
  (numpy-precomputed operand columns, flat-array hierarchy replica) and
  through the interpreted reference loop, and the canonical per-structure
  AVF / group SER payloads are compared byte for byte at full ``repr``
  precision — the same discipline as the AVF golden gate.
* **Fallback parity** — the same populations through the ``vector`` backend
  with its column budget (``VECTOR_MAX_OPS``) pinched to zero, so every
  genome takes the batch-kernel fallback that programs over the budget,
  setup sections and oversize bodies take; byte-compared the same way.
* **Batch throughput floor** — :func:`repro.experiments.bench.
  bench_batch_speedup` (the batch kernel vs the per-genome interpreter on
  the same fresh GA-shaped batch) is rerun and its ``speedup`` held to the
  first such baseline recorded in ``BENCH_ga.json`` minus the shared 30%
  regression allowance; the batch kernel must also never be slower than
  the interpreter.
* **Vector throughput floor** — same protocol for
  :func:`repro.experiments.bench.bench_vector_speedup` (vector vs the batch
  kernel) against the first ``kernel_vector`` baseline.

Run via ``make batch-smoke`` or ``REPRO_BATCH_SMOKE=1``; skipped in plain
test runs (the parity matrix takes tens of seconds).
"""

from __future__ import annotations

import difflib
import json
import os

import pytest

from _bench_utils import MAX_REGRESSION, ga_bench_path
from repro.api.registry import CONFIGS
from repro.avf.analysis import StructureGroup
from repro.avf.report import build_report
from repro.experiments.bench import baseline_entry, bench_batch_speedup, bench_vector_speedup
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel, kernel_batch, kernel_vector
from repro.uarch.kernel_backends import INTERPRETED, VECTOR
from repro.uarch.pipeline import OutOfOrderCore

pytestmark = [pytest.mark.batch_smoke]
if not os.environ.get("REPRO_BATCH_SMOKE"):
    pytestmark.append(
        pytest.mark.skip(
            reason="batch smoke disabled (set REPRO_BATCH_SMOKE=1 or run `make batch-smoke`)"
        )
    )

#: The parity matrix: both the paper baseline and the flag-gated extensions.
SMOKE_CONFIGS = ("baseline", "extended")
POPULATION = 6
INSTRUCTIONS = 4_000


def _population_payload(config_name: str, backend) -> str:
    """Canonical AVF/SER JSON of one simulated population (byte-comparable)."""
    config = CONFIGS.create(config_name)
    generator = StressmarkGenerator(config=config, max_instructions=INSTRUCTIONS)
    knobs = reference_knobs(config)
    programs = [
        generator.codegen.generate(knobs.derive(random_seed=seed))
        for seed in range(1, POPULATION + 1)
    ]
    core = OutOfOrderCore(config, seed=generator.simulation_seed)
    results = backend.run_many(core, programs, INSTRUCTIONS)
    payload: dict[str, object] = {}
    for index, result in enumerate(results):
        report = build_report(result, generator.fault_rates)
        payload[f"{config_name}/genome-{index}"] = {
            "cycles": report.total_cycles,
            "instructions": report.committed_instructions,
            "avf": {s.value: repr(v) for s, v in report.structure_avf.items()},
            "ser": {g.value: repr(report.ser(g)) for g in StructureGroup},
        }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _assert_identical_to_interpreter(config_name: str, payload: str, plane: str) -> None:
    interpreted_payload = _population_payload(config_name, INTERPRETED)
    if payload != interpreted_payload:
        diff = "\n".join(
            difflib.unified_diff(
                interpreted_payload.splitlines(), payload.splitlines(),
                fromfile="interpreted", tofile=plane, lineterm="", n=2,
            )
        )
        pytest.fail(f"{plane} diverged from the interpreter:\n{diff[:4000]}")


class TestBatchParity:
    @pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
    def test_population_identical_under_batch_plane(self, config_name, monkeypatch):
        kernel.clear_kernels()
        monkeypatch.setattr(kernel_vector, "VECTOR_MAX_OPS", 0)
        batch_payload = _population_payload(config_name, VECTOR)
        assert kernel_vector.STATS.vector_runs == 0
        assert kernel_vector.STATS.fallbacks == POPULATION
        assert kernel_batch.STATS.batch_runs == POPULATION, (
            "batch kernel never engaged — the gate compared nothing"
        )
        _assert_identical_to_interpreter(config_name, batch_payload, "batch fallback")


class TestVectorParity:
    @pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
    def test_population_identical_under_vector_plane(self, config_name):
        kernel.clear_kernels()
        vector_payload = _population_payload(config_name, VECTOR)
        assert kernel_vector.STATS.vector_runs >= POPULATION, (
            "vector kernel never engaged — the gate compared nothing "
            f"(fallbacks: {kernel_vector.STATS.fallbacks})"
        )
        _assert_identical_to_interpreter(config_name, vector_payload, "vector plane")


class TestBatchThroughput:
    def test_batch_speedup_floor(self):
        metrics = bench_batch_speedup()
        assert metrics["deterministic"], "batch kernel and per-genome interpreter disagreed"
        assert metrics["speedup"] >= 1.0, (
            f"batch kernel ({metrics['batch_seconds']:.3f}s) slower than the "
            f"per-genome interpreter ({metrics['interpreted_seconds']:.3f}s)"
        )
        recorded = baseline_entry(
            ga_bench_path(),
            lambda entry: isinstance(entry.get("kernel_batch"), dict)
            and "interpreted_seconds" in entry["kernel_batch"],
        )
        if recorded is None:
            pytest.skip("no recorded batch baseline (run `python -m repro bench` first)")
        baseline = recorded["kernel_batch"]["speedup"]
        floor = baseline * (1.0 - MAX_REGRESSION)
        assert metrics["speedup"] >= floor, (
            f"batch speedup {metrics['speedup']:.2f}x fell below recorded "
            f"baseline {baseline:.2f}x (-{MAX_REGRESSION:.0%} floor {floor:.2f}x)"
        )


class TestVectorThroughput:
    def test_vector_speedup_floor(self):
        metrics = bench_vector_speedup()
        assert metrics["deterministic"], "vector plane and batch kernel disagreed"
        assert metrics["speedup"] >= 1.0, (
            f"vector plane ({metrics['vector_seconds']:.3f}s) slower than the "
            f"batch kernel ({metrics['batch_seconds']:.3f}s) it builds on"
        )
        recorded = baseline_entry(
            ga_bench_path(),
            lambda entry: isinstance(entry.get("kernel_vector"), dict)
            and "speedup" in entry["kernel_vector"],
        )
        if recorded is None:
            pytest.skip("no recorded vector baseline (run `python -m repro bench` first)")
        baseline = recorded["kernel_vector"]["speedup"]
        floor = baseline * (1.0 - MAX_REGRESSION)
        assert metrics["speedup"] >= floor, (
            f"vector speedup {metrics['speedup']:.2f}x fell below recorded "
            f"baseline {baseline:.2f}x (-{MAX_REGRESSION:.0%} floor {floor:.2f}x)"
        )
