"""Golden-file support for the ``avf-smoke`` regression gate.

``make avf-smoke`` reruns the small-scale workload simulations, dumps every
per-structure AVF (full ``repr`` precision) plus the group SERs to canonical
JSON, and **byte-compares** the text against the checked-in golden file
(``benchmarks/golden_avf.json``).  Any numeric drift in the accounting — a
reordered float sum, a changed lifetime rule, an accidental event — fails the
gate.  The golden is regenerated only via an explicit ``make avf-golden``.

The payload covers the stock structure set on the ``baseline`` config and the
flag-gated extensions (store buffer, L2 TLB) on the ``extended`` config, so
both the paper's accounting and the pluggable additions are pinned.

A byte-stable golden is only possible because group-SER summation follows
the structure registry's deterministic order; the pre-ledger code summed
over id-hashed frozensets, whose order (and therefore the last ulp of every
group SER) varied from process to process.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Default golden location (resolved relative to the repository root).
GOLDEN_FILE = Path("benchmarks") / "golden_avf.json"

#: Workload suite and scale the gate runs (small and deterministic).
SMOKE_SUITE = "mibench"
SMOKE_SCALE = "quick"
SMOKE_CONFIGS = ("baseline", "extended")


def avf_smoke_payload(backend=None) -> dict:
    """Simulate the smoke matrix and return the canonical payload dict.

    By default every proxy runs through the Session's single-program path,
    which is the vector plane: ``make avf-smoke`` pins that default path
    against the golden.  ``backend`` — a kernel backend such as
    :data:`~repro.uarch.kernel_backends.INTERPRETED` or ``VECTOR`` —
    instead simulates each config's proxies as one population through its
    ``run_many``; the payload must not change (the ``kernel-smoke`` gate
    compares the interpreter's with the vector plane's).
    """
    from repro.api.session import Session
    from repro.api.spec import RunSpec
    from repro.avf.analysis import StructureGroup
    from repro.avf.report import build_report
    from repro.uarch.pipeline import OutOfOrderCore
    from repro.workloads.synthetic import build_workload

    payload: dict[str, object] = {
        "suite": SMOKE_SUITE,
        "scale": SMOKE_SCALE,
        "configs": list(SMOKE_CONFIGS),
    }
    with Session(scale=SMOKE_SCALE, jobs=1) as session:
        for config in SMOKE_CONFIGS:
            spec = RunSpec(
                kind="simulate",
                name=f"avf_smoke/{config}",
                config=config,
                suites=(SMOKE_SUITE,),
            )
            if backend is None:
                reports = session.workload_report_set(spec).reports
            else:
                resolved = session.resolve(spec)
                scale = resolved.scale
                profiles = session.resolve_profiles(resolved.spec)
                programs = [
                    build_workload(profile, resolved.config, seed=scale.workload_seed)
                    for profile in profiles
                ]
                core = OutOfOrderCore(resolved.config, seed=scale.simulation_seed)
                results = backend.run_many(core, programs, scale.workload_instructions)
                reports = {
                    profile.name: build_report(result, resolved.fault_rates)
                    for profile, result in zip(profiles, results)
                }
            for name in sorted(reports):
                report = reports[name]
                payload[f"{config}/{name}"] = {
                    "cycles": report.total_cycles,
                    "instructions": report.committed_instructions,
                    "avf": {s.value: repr(v) for s, v in report.structure_avf.items()},
                    "ser": {g.value: repr(report.ser(g)) for g in StructureGroup},
                }
    return payload


def render_payload(payload: dict) -> str:
    """Canonical JSON text of a payload (the unit of byte-comparison)."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def golden_path(base: "Path | str | None" = None) -> Path:
    """The golden file location, anchored at the repository root."""
    if base is not None:
        return Path(base)
    # src/repro/avf/goldens.py -> repository root is three levels above src/.
    root = Path(__file__).resolve().parents[3]
    return root / GOLDEN_FILE


def write_golden(path: "Path | str | None" = None) -> Path:
    """Regenerate the golden file (``make avf-golden``); returns its path.

    The golden is written from the interpreted oracle, not the default
    single-program path (the vector plane) that ``make avf-smoke`` checks.
    """
    from repro.uarch.kernel_backends import INTERPRETED

    destination = golden_path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(render_payload(avf_smoke_payload(INTERPRETED)))
    print(f"AVF golden written to {destination}")
    return destination
