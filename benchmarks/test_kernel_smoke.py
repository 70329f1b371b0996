"""Vector-plane parity + throughput gate (tier-2 ``kernel_smoke``).

Two checks on the population plane every GA fitness evaluation takes
(ARCHITECTURE.md, "Kernel lifecycle"):

* **Parity** — the full ``avf-smoke`` workload matrix (mibench ×
  ``baseline``/``extended``) is simulated twice, once as one population per
  config through the ``vector`` plane and once through the interpreted
  reference loop (``INTERPRETED``, named explicitly: the default
  single-program path is the vector plane too), and the canonical AVF/SER
  payloads are compared byte for byte; the vector payload must also still
  match the checked-in ``benchmarks/golden_avf.json``.  Every proxy must
  actually vectorize, so a silent fallback cannot turn the gate into
  interpreter vs interpreter.
* **Throughput floor** — on the 50k-op reference simulation the vector
  plane's same-run speedup over the interpreter must not fall more than 30%
  below the baseline recorded in ``BENCH_pipeline.json``, and never below
  the 1.31x the first kernel entry recorded (``_bench_utils``).

Run via ``make kernel-smoke`` or ``REPRO_KERNEL_SMOKE=1``; skipped in plain
test runs (the matrix takes tens of seconds).
"""

from __future__ import annotations

import difflib
import os

import pytest

from _bench_utils import assert_kernel_throughput_floor
from repro.avf.goldens import avf_smoke_payload, golden_path, render_payload
from repro.experiments.bench import bench_pipeline
from repro.uarch import kernel_vector
from repro.uarch.kernel_backends import INTERPRETED, VECTOR

pytestmark = [pytest.mark.kernel_smoke]
if not os.environ.get("REPRO_KERNEL_SMOKE"):
    pytestmark.append(
        pytest.mark.skip(
            reason="kernel smoke disabled (set REPRO_KERNEL_SMOKE=1 or run `make kernel-smoke`)"
        )
    )


class TestKernelParity:
    def test_golden_matrix_identical_under_kernels(self):
        kernel_vector.clear_vector_caches()
        payload = avf_smoke_payload(VECTOR)
        proxies = sum(1 for key in payload if "/" in key)  # "<config>/<proxy>"
        vector_payload = render_payload(payload)
        assert kernel_vector.STATS.fallbacks == 0, (
            f"{kernel_vector.STATS.fallbacks} proxies fell back off the vector plane"
        )
        assert kernel_vector.STATS.vector_runs == proxies, (
            "vector plane did not simulate the whole matrix — the gate compared nothing"
        )

        interpreted_payload = render_payload(avf_smoke_payload(INTERPRETED))
        if vector_payload != interpreted_payload:
            diff = "\n".join(
                difflib.unified_diff(
                    interpreted_payload.splitlines(), vector_payload.splitlines(),
                    fromfile="interpreted", tofile="vector", lineterm="", n=2,
                )
            )
            pytest.fail(f"vector plane diverged from the interpreter:\n{diff[:4000]}")

        path = golden_path()
        if path.exists():
            assert vector_payload == path.read_text(), (
                "vector plane drifted from benchmarks/golden_avf.json"
            )


class TestKernelThroughput:
    def test_kernel_throughput_floor(self):
        metrics = bench_pipeline(instructions=50_000, repeats=3)
        assert_kernel_throughput_floor(metrics, pytest)
