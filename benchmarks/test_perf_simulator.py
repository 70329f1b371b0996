"""Performance regression harness (tier-2 ``perf_smoke`` gate).

These tests time the simulator's hot paths at quick scale and compare
against the baselines recorded in ``BENCH_pipeline.json`` (written by
``python -m repro bench``; see PERFORMANCE.md).  Timing asserts are
inherently machine-sensitive, so the regression gate only runs when
explicitly requested:

    make bench-smoke
    # or
    REPRO_PERF_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_perf_simulator.py -q

In a plain test run the suite is skipped, keeping tier-1 fast and stable.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.bench import (
    PIPELINE_BENCH_FILE,
    baseline_entry,
    bench_ga,
    bench_ledger,
    bench_parallel_speedup,
    bench_pipeline,
)

#: Allowed single-thread slowdown versus the recorded baseline (shared
#: with the kernel-smoke gate via _bench_utils).
from _bench_utils import MAX_REGRESSION  # noqa: E402

pytestmark = [pytest.mark.perf_smoke]
if not os.environ.get("REPRO_PERF_SMOKE"):
    pytestmark.append(
        pytest.mark.skip(reason="perf smoke disabled (set REPRO_PERF_SMOKE=1 or run `make bench-smoke`)")
    )


def _bench_path() -> Path:
    # The trajectory file lives in the repository root (where `repro bench`
    # is run from); walk up from this file so the test works from any cwd.
    here = Path(__file__).resolve().parent.parent / PIPELINE_BENCH_FILE
    return here if here.exists() else Path(PIPELINE_BENCH_FILE)


def _pipeline_baseline() -> dict | None:
    return baseline_entry(_bench_path())


def _ledger_baseline() -> dict | None:
    """First recorded entry carrying ledger metrics (added with the ledger)."""
    entry = baseline_entry(_bench_path(), lambda e: bool(e.get("ledger")))
    return entry["ledger"] if entry else None


class TestSimulatorPerf:
    def test_single_simulation_does_not_regress(self):
        """50k-op single-program simulation (the interpreter) stays within 30% of the baseline."""
        metrics = bench_pipeline(instructions=50_000, repeats=3)
        assert metrics["total_cycles"] > 0
        assert metrics["instructions_per_second"] > 0
        baseline = _pipeline_baseline()
        if baseline is None:
            pytest.skip("no recorded baseline (run `python -m repro bench` first)")
        budget = baseline["seconds"] * (1.0 + MAX_REGRESSION)
        assert metrics["seconds"] <= budget, (
            f"50k-op simulation took {metrics['seconds']:.3f}s, "
            f"baseline {baseline['seconds']:.3f}s (+{MAX_REGRESSION:.0%} budget {budget:.3f}s)"
        )

    def test_ledger_event_throughput_does_not_regress(self):
        """The ledger's lifetime-event path stays within budget of its baseline."""
        metrics = bench_ledger(events=100_000, repeats=3)
        assert metrics["events_per_second"] > 0
        recorded = _ledger_baseline()
        if not recorded:
            pytest.skip("no recorded ledger baseline (run `python -m repro bench` first)")
        floor = recorded["events_per_second"] * (1.0 - MAX_REGRESSION)
        assert metrics["events_per_second"] >= floor, (
            f"ledger event throughput {metrics['events_per_second']:.0f}/s fell below "
            f"baseline {recorded['events_per_second']:.0f}/s (-{MAX_REGRESSION:.0%} floor {floor:.0f}/s)"
        )

    def test_ga_generation_completes_quickly(self):
        """One quick-scale GA search finishes and reports cache statistics."""
        metrics = bench_ga(jobs=1, generations=2, population=6)
        assert metrics["evaluations"] > 0
        assert metrics["cache_hits"] + metrics["cache_misses"] >= metrics["evaluations"]
        assert metrics["seconds"] > 0

    def test_parallel_backend_is_deterministic_and_measured(self):
        """Process-pool evaluation matches serial results; timings split."""
        metrics = bench_parallel_speedup(jobs=2, batch=4)
        assert metrics["deterministic"], "parallel fitness values diverged from serial"
        assert metrics["speedup"] > 0
        assert metrics["warmup_seconds"] > 0
        assert metrics["steady_seconds"] > 0
        assert metrics["cores"] >= 1

    def test_kernel_throughput_floor(self):
        """The vector plane keeps its same-run lead over the interpreter.

        The same floor (shared via ``_bench_utils``) also runs with the
        parity matrix in the dedicated ``make kernel-smoke`` gate; keeping
        it in bench-smoke means a plain perf run cannot miss a kernel
        regression.
        """
        from _bench_utils import assert_kernel_throughput_floor

        metrics = bench_pipeline(instructions=50_000, repeats=3)
        assert_kernel_throughput_floor(metrics, pytest)
