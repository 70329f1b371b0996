"""Population-plane gate (tier-2 ``batch_smoke``).

Two checks on the plane GA populations run through (ARCHITECTURE.md,
"Batch evaluation plane" and "Vector kernel plane"):

* **Vector parity** — one GA-generation-shaped population of derived
  stressmarks per config is simulated through the ``vector`` backend
  (precomputed operand columns, flat-array hierarchy replica) and
  through the interpreted reference loop, and the canonical per-structure
  AVF / group SER payloads are compared byte for byte at full ``repr``
  precision — the same discipline as the AVF golden gate.
* **Vector throughput floor** — :func:`repro.experiments.bench.
  bench_vector_speedup` (the vector plane vs the per-genome interpreter on
  the same fresh GA-shaped batch, timed back to back) is rerun, must stay
  bit-identical, and its ``speedup`` is held to
  ``max(MIN_POPULATION_SPEEDUP, first recorded baseline minus the shared 30%
  regression allowance)``.

The routing of each fallback reason (oversize bodies, runs over
``VECTOR_MAX_OPS``, several warm-up regions) is pinned in tier-1 by
``tests/test_kernel_differential.py``.

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
from repro.experiments.bench import baseline_entry, bench_vector_speedup
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel_vector
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

#: The vector plane's same-run speedup over the per-genome interpreter may
#: never fall below the product of the two floors this one replaced: vector
#: over the since-deleted batch kernel (3.35x) times the batch kernel over
#: the interpreter (1.32x).
MIN_POPULATION_SPEEDUP = 4.43


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


class TestVectorParity:
    @pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
    def test_population_identical_under_vector_plane(self, config_name):
        kernel_vector.clear_vector_caches()
        vector_payload = _population_payload(config_name, VECTOR)
        assert kernel_vector.STATS.vector_runs >= POPULATION, (
            "vector kernel never engaged — the gate compared nothing "
            f"(fallbacks: {kernel_vector.STATS.fallbacks})"
        )
        _assert_identical_to_interpreter(config_name, vector_payload, "vector plane")


class TestVectorThroughput:
    def test_vector_speedup_floor(self):
        metrics = bench_vector_speedup()
        assert metrics["deterministic"], "vector plane and per-genome interpreter disagreed"
        floor = MIN_POPULATION_SPEEDUP
        recorded = baseline_entry(
            ga_bench_path(),
            lambda entry: isinstance(entry.get("kernel_vector"), dict)
            and "interpreted_seconds" in entry["kernel_vector"],
        )
        if recorded is not None:
            floor = max(floor, recorded["kernel_vector"]["speedup"] * (1.0 - MAX_REGRESSION))
        assert metrics["speedup"] >= floor, (
            f"vector plane ({metrics['vector_seconds']:.3f}s) only "
            f"{metrics['speedup']:.2f}x the per-genome interpreter "
            f"({metrics['interpreted_seconds']:.3f}s); floor {floor:.2f}x"
        )
