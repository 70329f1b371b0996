"""The ``repro bench`` harness without its optional dependencies."""

from __future__ import annotations

import sys

from repro.experiments import bench


def test_environment_records_absent_numpy(monkeypatch):
    """numpy is optional: a trajectory entry records ``"absent"`` without it."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # makes ``import numpy`` raise
    environment = bench._environment()
    assert environment["numpy"] == "absent"
    assert environment["python"] and environment["timestamp"]


def test_vector_speedup_records_the_fast_forwarded_share():
    """``repro bench``'s ``kernel_vector`` entry records the share of its
    timed vector batches' iterations that fast mode skipped."""
    metrics = bench.bench_vector_speedup(batch=2, instructions=3_000)
    assert metrics["deterministic"]
    assert 0.5 < metrics["fast_forwarded_share"] <= 1.0, metrics
