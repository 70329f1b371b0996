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
