#!/usr/bin/env python3
"""Same-process A/B of the vector loop against another ``kernel_vector.py``.

Usage, from the repository root (``make ab-vector [REF=<git ref>]`` does
both steps under perfbench's child environment)::

    git show HEAD:src/repro/uarch/kernel_vector.py > kv_parent.py
    PYTHONPATH=src python tools/ab_vector.py kv_parent.py [--genomes 192] [--extended 24]

The other file is loaded as a module inside this tree (it imports
``repro.*`` by absolute name).  Each side's ``vector_run(core, program, n)``
builds its own ``VectorHierarchy``, so each loop runs with its own module's
hierarchy.  The programs are GA genomes sampled the way the GA samples a
population (one ``DeterministicRng`` over ``KnobSpace(config).gene_space()``)
on ``baseline`` and on ``extended`` (store buffer, L2 TLB) at
``--genome-ops`` each, both reference stressmarks (L2 hit and L2 miss) on
``baseline``, ``config_a`` and ``extended`` at ``--reference-ops``, and the
33 workload proxies on ``baseline``.  Per program the two sides run back to
back after ``gc.collect()``, the first side alternating from program to
program, and their stats and every account's ``(occupied_entry_cycles,
ace_bit_cycles)`` must be equal.  Times are ``time.process_time`` seconds.
The script prints, per group, each side's total, the ratio (this tree over
the other), the pairs this tree won, the share of this tree's loop
iterations that fast mode skipped and, last, each side's collector passes
while it ran (``this/other``, counted with ``gc.callbacks``), so an
allocation change shows here too; it exits 1 on any mismatch.
Cross-process timings are too noisy on a shared host to see a loop change;
this one process is the comparison to trust.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.stressmark.knobs import KnobSpace
from repro.uarch import kernel_vector
from repro.uarch.config import baseline_config, config_a, extended_config
from repro.uarch.pipeline import OutOfOrderCore, SimulationStats
from repro.utils.rng import DeterministicRng
from repro.workloads.suite import all_profiles
from repro.workloads.synthetic import build_workload

#: Ops per GA genome (perfbench ``ga_search``'s budget; ``serve_mixed``'s GA
#: requests run 2,000), per reference stressmark and per proxy
#: (``workload_suite``'s), the genome sampling seed and the simulation seed
#: (``ExperimentScale.simulation_seed``).
GENOME_OPS = 12_000
REFERENCE_OPS = 50_000
PROXY_OPS = 2_000
GENOME_SEED = 1
SIMULATION_SEED = 3


@dataclass
class GroupResult:
    """One group's totals: this tree's and the other module's loop times."""

    name: str
    programs: int = 0
    this_s: float = 0.0
    other_s: float = 0.0
    won: int = 0
    mismatches: int = 0
    iterations: int = 0
    fast_forwarded: int = 0
    this_collections: int = 0
    other_collections: int = 0

    @property
    def ratio(self) -> float:
        return self.this_s / self.other_s if self.other_s else float("nan")

    @property
    def fast_share(self) -> float:
        """The share of this tree's loop iterations that fast mode skipped."""
        return self.fast_forwarded / self.iterations if self.iterations else 0.0


def load_module(path: str):
    """``path`` as a module named ``kernel_vector_other``."""
    spec = importlib.util.spec_from_file_location("kernel_vector_other", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differences(reference, candidate) -> list[str]:
    """The stats fields and accounts on which two results differ."""
    found = [
        f"stats.{field.name}"
        for field in fields(SimulationStats)
        if getattr(reference.stats, field.name) != getattr(candidate.stats, field.name)
    ]
    if list(reference.accumulators) != list(candidate.accumulators):
        found.append("account order")
    for name, account in reference.accumulators.items():
        other = candidate.accumulators.get(name)
        if other is None or (account.occupied_entry_cycles, account.ace_bit_cycles) != (
            other.occupied_entry_cycles, other.ace_bit_cycles
        ):
            found.append(f"account {name}")
    return found


def genomes(config, count: int, seed: int, instructions: int) -> list:
    """``count`` stressmark programs from GA-sampled genomes."""
    space = KnobSpace(config)
    gene_space = space.gene_space()
    codegen = StressmarkGenerator(config=config, max_instructions=instructions).codegen
    rng = DeterministicRng(seed)
    return [codegen.generate(space.decode(gene_space.sample(rng))) for _ in range(count)]


def references(config, instructions: int) -> list:
    """Both reference stressmarks: the L2-hit and the L2-miss variant."""
    codegen = StressmarkGenerator(config=config, max_instructions=instructions).codegen
    knobs = reference_knobs(config)
    return [codegen.generate(knobs.derive(use_l2_miss=miss)) for miss in (False, True)]


def proxies(config, seed: int) -> list:
    """The workload proxies, built as the workload suite builds them."""
    return [build_workload(profile, config, seed=seed) for profile in all_profiles()]


def run_group(name: str, other, programs: list, instructions: int,
              out=sys.stdout) -> GroupResult:
    """Time both modules' ``vector_run`` on every ``(config, program)``;
    diff the results and count each side's collector passes."""
    result = GroupResult(name)
    cores = {}
    passes = [0]

    def count_pass(phase, info):
        if phase == "start":
            passes[0] += 1

    gc.callbacks.append(count_pass)
    try:
        for index, (config, program) in enumerate(programs):
            if config.name not in cores:
                cores[config.name] = OutOfOrderCore(config, seed=SIMULATION_SEED)
            core = cores[config.name]
            gc.collect()
            times = {}
            collections = {}
            results = {}
            order = (kernel_vector, other) if index % 2 == 0 else (other, kernel_vector)
            stats = kernel_vector.STATS
            iterations, fast_forwarded = stats.iterations, stats.iterations_fast_forwarded
            for module in order:
                before = passes[0]
                start = time.process_time()
                results[module] = module.vector_run(core, program, instructions)
                times[module] = time.process_time() - start
                collections[module] = passes[0] - before
            result.iterations += stats.iterations - iterations
            result.fast_forwarded += stats.iterations_fast_forwarded - fast_forwarded
            found = differences(results[other], results[kernel_vector])
            if found:
                result.mismatches += 1
                print(f"MISMATCH {name}[{index}] {program.name}: {', '.join(found)}", file=out)
            result.programs += 1
            result.this_s += times[kernel_vector]
            result.other_s += times[other]
            result.won += times[kernel_vector] < times[other]
            result.this_collections += collections[kernel_vector]
            result.other_collections += collections[other]
    finally:
        gc.callbacks.remove(count_pass)
    return result


def main(argv=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="path of the kernel_vector.py to compare against")
    parser.add_argument("--genomes", type=int, default=192, help="GA genomes on baseline")
    parser.add_argument("--extended", type=int, default=24, help="GA genomes on extended")
    parser.add_argument("--genome-ops", type=int, default=GENOME_OPS,
                        help="ops per GA genome (serve_mixed's GA requests run 2000)")
    parser.add_argument("--reference-ops", type=int, default=REFERENCE_OPS,
                        help="ops per reference stressmark (0 skips the reference group)")
    parser.add_argument("--proxy-passes", type=int, default=1,
                        help="passes over the 33 proxies (workload seeds 11, 12, ...)")
    args = parser.parse_args(argv)

    other = load_module(str(Path(args.other).resolve()))
    groups = []
    for name, config, count in (("ga/baseline", baseline_config(), args.genomes),
                                ("ga/extended", extended_config(), args.extended)):
        if count:
            programs = genomes(config, count, GENOME_SEED, args.genome_ops)
            groups.append(run_group(name, other, [(config, program) for program in programs],
                                    args.genome_ops, out=out))
    if args.reference_ops:
        programs = [
            (config, program)
            for config in (baseline_config(), config_a(), extended_config())
            for program in references(config, args.reference_ops)
        ]
        groups.append(run_group("reference", other, programs, args.reference_ops, out=out))
    for index in range(args.proxy_passes):
        config = baseline_config()
        programs = [(config, program) for program in proxies(config, 11 + index)]
        groups.append(run_group(f"proxies/seed-{11 + index}", other, programs, PROXY_OPS,
                                out=out))

    print(f"{'group':<20} {'programs':>8} {'this_s':>9} {'other_s':>9} {'ratio':>7} "
          f"{'won':>7} {'mismatches':>10} {'fast_share':>10} {'collections':>11}", file=out)
    for group in groups:
        collections = f"{group.this_collections}/{group.other_collections}"
        print(f"{group.name:<20} {group.programs:>8} {group.this_s:>9.3f} {group.other_s:>9.3f} "
              f"{group.ratio:>7.3f} {f'{group.won}/{group.programs}':>7} {group.mismatches:>10} "
              f"{group.fast_share:>10.3f} {collections:>11}", file=out)
    return 1 if any(group.mismatches for group in groups) else 0


if __name__ == "__main__":
    sys.exit(main())
