"""Pure helpers of the benchmark: percentiles, result digests, names, env.

Nothing here imports ``repro``, so the orchestrator (``run.py``) and the
tests use these without loading the program under measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import statistics
from typing import Mapping, Optional, Sequence

#: Metric names: what ``BENCHMARK.json`` and the result line accept.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A timing percentile is only resolved with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Environment variables that select a different measured path; every
#: child process runs with these removed.
PINNED_VARIABLES = ("REPRO_JOBS", "REPRO_KERNEL", "REPRO_KERNEL_BACKEND", "REPRO_CHAOS")
PINNED_PREFIXES = ("REPRO_RETRY_",)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` order statistics lie above :func:`percentile`'s position."""
    return count - 1 - math.floor(q * (count - 1)) if count else 0


def percentile_resolved(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond the ``q`` quantile."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def strip_volatile(document: Mapping) -> dict:
    """A RunResult JSON dict without the fields that describe *how* it ran.

    ``timing``, ``provenance.resilience`` and ``ga.evaluation_seconds`` vary
    between two runs of the same spec; everything else must not.
    """
    stripped = {key: value for key, value in document.items() if key != "timing"}
    provenance = stripped.get("provenance")
    if isinstance(provenance, Mapping):
        stripped["provenance"] = {k: v for k, v in provenance.items() if k != "resilience"}
    ga = stripped.get("ga")
    if isinstance(ga, Mapping):
        stripped["ga"] = {k: v for k, v in ga.items() if k != "evaluation_seconds"}
    if isinstance(stripped.get("children"), list):
        stripped["children"] = [strip_volatile(child) for child in stripped["children"]]
    return stripped


def result_digest(document: Mapping) -> str:
    """sha256 of the canonical JSON of a RunResult dict, volatile fields stripped."""
    canonical = json.dumps(strip_volatile(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed derived from the benchmark seed and a label path."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big") >> 1


def pinned_environment(base: Mapping[str, str], pythonpath: str, tmpdir: Optional[str] = None) -> dict:
    """A child environment with every path-selecting variable removed."""
    env = {
        key: value for key, value in base.items()
        if key not in PINNED_VARIABLES and not key.startswith(PINNED_PREFIXES)
    }
    env["PYTHONPATH"] = pythonpath
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # glibc gives threads their own malloc arenas, so the serve daemon's
    # peak RSS depended on which request threads shared one (a fifth apart
    # between identical runs); one arena makes it repeat.
    env["MALLOC_ARENA_MAX"] = "1"
    if tmpdir is not None:
        env["TMPDIR"] = tmpdir
    return env


def unpinned_variables(env: Mapping[str, str] = os.environ) -> list[str]:
    """Path-selecting variables still set in ``env`` (empty when pinned)."""
    return sorted(
        key for key in env
        if key in PINNED_VARIABLES or key.startswith(PINNED_PREFIXES)
    )
