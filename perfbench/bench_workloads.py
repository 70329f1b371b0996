"""The benchmark's workloads: what each runs, why, and from which seed.

Every spec is derived from the ``--seed`` argument alone (GA seeds and
``workload_seed`` go through :func:`bench_stats.derive_seed`), so the same seed
gives the same inputs and a new seed gives new content of the same shape.
The program under measurement only ever receives these specs.

Seed :data:`HELD_OUT_SEED` is never used while tuning the benchmark or a
change; a later performance claim must also hold on it.

Run lengths are sized so that one run of any workload takes well under a
minute on a 2-core container: the shapes are smaller than the paper's
(100M instructions, 50 x 50 GA), which a pure-Python simulator cannot reach
inside a run.  A local workload runs in *rounds*: each round is a fresh
process that sets up, runs the cold spec (spec 0, the same in every round)
and then warm specs of its own.  The number of rounds is fixed by
``--seconds`` (``round(seconds / round_seconds)``, at least ``min_rounds``),
so two runs with the same ``--seconds`` do the same amount of work, and
cold/warm figures are medians over the rounds.  Every round's cold result
must have the same digest: the same-seed determinism check, across
processes, at no extra cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from bench_stats import derive_seed

#: Reserved for confirming claims; never used while tuning.
HELD_OUT_SEED = 104729

#: Proxies the workload-suite oracle check re-simulates: one SPEC INT, one
#: SPEC FP and one MiBench proxy, fixed so every run checks the same shapes.
ORACLE_PROXIES = ("429.mcf_proxy", "433.milc_proxy", "susan_proxy")

#: All 33 proxies (11 SPEC INT, 10 SPEC FP, 12 MiBench); the serve workload
#: rotates its unique simulate requests over every one of them.
SUITE = ("all",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Rough seconds per round on a 2-core container; sizes the round count.
    round_seconds: float = 1.0
    #: Fewest rounds a run makes.  Single multi-second samples on a shared
    #: 2-core machine vary by up to a quarter between identical runs, so
    #: cold and warm timings are medians over fresh processes.
    min_rounds: int = 3
    #: Rounds that run warm specs after the cold one (``None``: all); the
    #: others repeat only the cold spec.
    warm_rounds: Optional[int] = None
    #: ``(seed, index) -> spec`` for the local workloads (serve builds its own).
    spec: Optional[Callable[[int, int], dict]] = None

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_seconds))

    def round_specs(self, seed: int, round_index: int) -> list[dict]:
        """The cold spec, then this round's own warm spec (if it has one)."""
        cold = self.spec(seed, 0)
        if self.warm_rounds is not None and round_index >= self.warm_rounds:
            return [cold]
        return [cold, self.spec(seed, 1 + round_index)]


def _stressmark(name: str, ga_seed: int, population: int, generations: int, instructions: int) -> dict:
    return {
        "kind": "stressmark", "name": name, "config": "baseline",
        "fault_rates": "rhc", "fitness": "balanced", "scale": "quick",
        "jobs": 1, "seed": ga_seed,
        "scale_overrides": {
            "ga_population": population,
            "ga_generations": generations,
            "stressmark_instructions": instructions,
        },
    }


def ga_search_spec(seed: int, index: int) -> dict:
    """A GA-shaped stressmark search; index 0 is the process's cold spec.

    12 genomes x 2 generations at 12k instructions: the paper-like 16 x 8
    takes ~16 s per spec, and a run needs several rounds of a cold and a
    warm spec to give steady medians; with fewer genomes a spec's time
    hangs on how many of its random genomes carry the large L2-miss
    footprint.  Short programs make per-genome fixed costs dominate:
    decode, codegen, warm-state clones, operand plans and fitness-cache
    writes.  The two reference genomes every search is seeded with hit the
    persistent fitness cache from the second spec on, as they would in a
    sweep.
    """
    return _stressmark(f"perfbench-ga-{seed}-{index}", derive_seed(seed, "ga", index),
                       population=12, generations=2, instructions=12_000)


def workload_suite_spec(seed: int, index: int) -> dict:
    """All 33 proxies through ``run_one``: the cold spec (index 0) on ``baseline``, warm ones on ``config_a``.

    Every proxy pays one source kernel compile and one functional warm-up,
    and 33 warm footprints cycle through an 8-entry warm LRU.  No GA and no
    fitness cache: GA-side changes should read "no change" here.  2k
    instructions per proxy because compile and warm-up, not the cycle loop,
    dominate this product; a fresh ``workload_seed`` per spec makes every
    spec new content.
    """
    return {
        "kind": "simulate", "name": f"perfbench-suite-{seed}-{index}",
        "config": "baseline" if index == 0 else "config_a",
        "fault_rates": "unit", "suites": list(SUITE), "scale": "quick", "jobs": 1,
        "scale_overrides": {
            "workload_instructions": 2_000,
            "workload_seed": derive_seed(seed, "suite", index),
        },
    }


def serve_stressmark_spec(seed: int, label: object, population: int = 4) -> dict:
    """A unique small stressmark search for the daemon (distinct GA seed).

    No ``jobs`` field: the daemon's ``--jobs 2`` applies, so the GA
    population goes through the resilient worker pool.  The timed cold and
    warm requests use :data:`SERVE_TIMED_POPULATION` genomes, so a request's
    time does not hinge on two random genomes.
    """
    spec = _stressmark(f"perfbench-serve-ga-{seed}-{label}", derive_seed(seed, "serve-ga", label),
                       population=population, generations=1, instructions=2_000)
    del spec["jobs"]
    return spec


def serve_simulate_spec(seed: int, label: object, proxy: str) -> dict:
    """A unique one-proxy simulate spec (distinct ``workload_seed``)."""
    return {
        "kind": "simulate", "name": f"perfbench-serve-sim-{seed}-{label}",
        "config": "baseline", "fault_rates": "unit", "workloads": [proxy], "scale": "quick",
        "scale_overrides": {
            "workload_instructions": 1_000,
            "workload_seed": derive_seed(seed, "serve-sim", label),
        },
    }


#: Closed-loop request pattern of each serve client: two in five resubmit
#: an already-answered spec (store-hit reads), one is a unique GA search and
#: two are unique simulate specs.  Not exactly half resubmits: with a 50/50
#: split the median would fall on the gap between store hits (~ms) and real
#: work (~100 ms) and jump between them from run to run.  The slowest fifth
#: are GA searches, so p90 sits inside them.
SERVE_PATTERN = ("stressmark", "resubmit", "simulate", "resubmit", "simulate")
SERVE_CLIENTS = 2
#: 110 requests leave 11 samples beyond p90 (at least 10 are required).
SERVE_REQUESTS = 110
#: Fresh daemons per run: each gives one set-up time and one cold request;
#: the last one also serves the warm requests and the closed loop.
SERVE_DAEMONS = 3
#: Sequential warm requests (same shape, new content) before the loop.
SERVE_WARM_REQUESTS = 8
#: GA population of the timed cold and warm requests.
SERVE_TIMED_POPULATION = 8


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "ga_search",
            "the product's hot path: stressmark GA searches, cold then warm, jobs=1, fresh store",
            round_seconds=7.0, spec=ga_search_spec,
        ),
        Workload(
            "workload_suite",
            "all 33 proxies via run_one on baseline then config_a: compile + warm-up, no GA",
            # A spec costs 8-15 s here, so a run repeats only the cold spec
            # in a second process: three full rounds would not fit the
            # run-time budget next to the other workloads.
            round_seconds=30.0, min_rounds=2, warm_rounds=1, spec=workload_suite_spec,
        ),
        Workload(
            # Unlike `repro loadtest`, which cycles five fixed proxies and so
            # is answered from the in-memory context memo after five
            # requests, every unique request here has its own GA seed or
            # workload_seed and is real work.
            "serve_mixed",
            "repro serve --jobs 2, 2 closed-loop clients: 2 in 5 requests store-hit resubmits, rest unique",
        ),
    )
}


def instruction_budget(spec: dict) -> int:
    """Instructions one simulation of ``spec`` runs (the specs set it explicitly)."""
    overrides = spec["scale_overrides"]
    key = "stressmark_instructions" if spec["kind"] == "stressmark" else "workload_instructions"
    return int(overrides[key])
