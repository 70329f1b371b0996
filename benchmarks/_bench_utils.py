"""Helpers shared by the benchmark harness (kept out of conftest so imports
are unambiguous when tests/ and benchmarks/ are collected together)."""

from __future__ import annotations


def print_series(title: str, rows: list[dict]) -> None:
    """Print a figure's data series in a compact tabular form."""
    print(f"\n--- {title} ---")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    print("  ".join(f"{key:>14s}" for key in keys))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                cells.append(f"{value:>14.4f}")
            else:
                cells.append(f"{str(value):>14s}")
        print("  ".join(cells))


# --------------------------------------------------------- perf-gate shared

#: Allowed slowdown versus a recorded BENCH_pipeline.json baseline, shared by
#: the bench-smoke and kernel-smoke gates so the two can never drift apart.
MAX_REGRESSION = 0.30


def pipeline_bench_path():
    """BENCH_pipeline.json at the repository root (works from any cwd)."""
    from pathlib import Path

    from repro.experiments.bench import PIPELINE_BENCH_FILE

    here = Path(__file__).resolve().parent.parent / PIPELINE_BENCH_FILE
    return here if here.exists() else Path(PIPELINE_BENCH_FILE)


def ga_bench_path():
    """BENCH_ga.json at the repository root (works from any cwd)."""
    from pathlib import Path

    from repro.experiments.bench import GA_BENCH_FILE

    here = Path(__file__).resolve().parent.parent / GA_BENCH_FILE
    return here if here.exists() else Path(GA_BENCH_FILE)


#: The vector plane's same-run speedup over the interpreter may never fall
#: below what the first kernel entry of BENCH_pipeline.json recorded for the
#: per-program source kernels the vector plane replaced (1.31x).
MIN_VECTOR_SPEEDUP = 1.31


def kernel_baseline():
    """First trajectory entry recording the vector plane's same-run speedup."""
    from repro.experiments.bench import baseline_entry

    return baseline_entry(pipeline_bench_path(), lambda entry: "vector_speedup" in entry)


def assert_kernel_throughput_floor(metrics, pytest):
    """Shared floor assertion of the bench-smoke and kernel-smoke gates.

    Holds ``vector_speedup`` — interpreter seconds over vector seconds on the
    50k-op reference program, measured back to back in the same process, so
    the ratio does not depend on the machine — to the recorded baseline
    minus the shared regression allowance, and never below
    :data:`MIN_VECTOR_SPEEDUP`.
    """
    assert metrics["vector_identical"], "vector plane and interpreter disagreed on the reference run"
    recorded = kernel_baseline()
    baseline = recorded["vector_speedup"] if recorded else MIN_VECTOR_SPEEDUP
    floor = max(MIN_VECTOR_SPEEDUP, baseline * (1.0 - MAX_REGRESSION))
    assert metrics["vector_speedup"] >= floor, (
        f"vector plane {metrics['vector_speedup']:.2f}x the interpreter "
        f"({metrics['vector_seconds']:.3f}s vs {metrics['seconds']:.3f}s) fell below "
        f"the {floor:.2f}x floor (baseline {baseline:.2f}x, -{MAX_REGRESSION:.0%})"
    )
